//! Human-readable plan rendering.
//!
//! The paper's engine "accepts plans which are specified in an XML-based
//! query plan language which is human-writable" (§5). We provide the
//! rendering half here — a stable, indented textual form used by plan
//! debugging, golden tests, and EXPERIMENTS.md listings. (Plans are also
//! serde-serializable for machine round-trips.)

use std::fmt::Write as _;

use tukwila_common::Value;

use crate::ids::FragmentId;
use crate::ops::{JoinKind, OperatorNode, OperatorSpec, OverflowMethod};
use crate::plan::{Fragment, QueryPlan};
use crate::predicate::Predicate;
use crate::rules::{Action, Condition, EventKind, OpState, Quantity, Rule, SubjectRef};

/// Render a whole plan.
pub fn render_plan(plan: &QueryPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan(output={}, complete={})",
        plan.output, plan.complete
    );
    for (before, after) in &plan.dependencies {
        let _ = writeln!(out, "  after({before} -> {after})");
    }
    for rule in &plan.global_rules {
        let _ = writeln!(out, "  {}", render_rule(rule));
    }
    for f in &plan.fragments {
        out.push_str(&render_fragment(f));
    }
    out
}

/// Render one fragment.
pub fn render_fragment(f: &Fragment) -> String {
    let mut out = String::new();
    let active = if f.initially_active {
        ""
    } else {
        " [contingent]"
    };
    let _ = writeln!(
        out,
        "  fragment {} -> `{}`{}",
        f.id, f.materialize_as, active
    );
    for rule in &f.local_rules {
        let _ = writeln!(out, "    {}", render_rule(rule));
    }
    render_node(&f.root, 2, &mut out);
    out
}

fn render_node(node: &OperatorNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let mut annotations = Vec::new();
    if let Some(m) = node.memory_budget {
        annotations.push(format!("mem={m}"));
    }
    if let Some(c) = node.est_cardinality {
        annotations.push(format!("est={c:.0}"));
    }
    let ann = if annotations.is_empty() {
        String::new()
    } else {
        format!(" [{}]", annotations.join(", "))
    };
    let _ = writeln!(out, "{indent}{} {}{}", node.id, node.label(), ann);
    if let OperatorSpec::Collector { children, .. } = &node.spec {
        for c in children {
            let act = if c.initially_active {
                "active"
            } else {
                "standby"
            };
            let _ = writeln!(out, "{indent}  {} child({}) [{act}]", c.id, c.source);
        }
    }
    for c in node.children() {
        render_node(c, depth + 1, out);
    }
}

/// Render one rule in the paper's `when … if … then …` form.
pub fn render_rule(rule: &Rule) -> String {
    let actions: Vec<String> = rule.actions.iter().map(render_action).collect();
    format!(
        "rule `{}` (owner {}): when {:?}({}{}) if {:?} then [{}]",
        rule.name,
        rule.owner,
        rule.event.kind,
        rule.event.subject,
        rule.event
            .value
            .map(|v| format!(", {v}"))
            .unwrap_or_default(),
        rule.condition,
        actions.join("; ")
    )
}

fn render_action(a: &Action) -> String {
    match a {
        Action::SetOverflowMethod { op, method } => format!("set_overflow({op}, {method:?})"),
        Action::AlterMemory { op, bytes } => format!("alter_memory({op}, {bytes})"),
        Action::Activate(s) => format!("activate({s})"),
        Action::Deactivate(s) => format!("deactivate({s})"),
        Action::Reschedule => "reschedule".to_string(),
        Action::Replan => "replan".to_string(),
        Action::ReturnError(m) => format!("error({m})"),
    }
}

// ---- parseable s-expression printer ----
//
// `print_plan` is the inverse of `crate::parse::parse_plan`: it emits the
// grammar documented there, so `parse(print(parse(text)))` is a fixpoint
// for any text the parser accepts. Annotations the grammar cannot express
// (estimated cardinalities, memory budgets on non-join nodes, non-default
// overflow methods on non-DPJ joins) are dropped.

/// The fragment name `print_plan` uses for a fragment: derived from its
/// materialization name when it follows the parser's `mat_<name>`
/// convention, otherwise `f<id>`.
fn frag_name(f: &Fragment) -> String {
    match f.materialize_as.strip_prefix("mat_") {
        Some(rest) if !rest.is_empty() => rest.to_string(),
        _ => format!("f{}", f.id.0),
    }
}

fn print_subject(s: SubjectRef, names: &[(FragmentId, String)]) -> String {
    match s {
        SubjectRef::Op(id) => format!("op{}", id.0),
        SubjectRef::Fragment(id) => names
            .iter()
            .find(|(fid, _)| *fid == id)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("f{}", id.0)),
    }
}

fn print_overflow(m: OverflowMethod) -> &'static str {
    match m {
        OverflowMethod::IncrementalLeftFlush => "left",
        OverflowMethod::IncrementalSymmetricFlush => "symmetric",
        OverflowMethod::FlushAllLeft => "flushall",
        OverflowMethod::Fail => "fail",
    }
}

fn print_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("{i}"),
        Value::Double(f) => format!("{f:?}"),
        Value::Str(s) => format!("\"{s}\""),
        Value::Date(d) => format!("date:{d}"),
        Value::Null => "null".to_string(),
    }
}

fn print_pred(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".to_string(),
        Predicate::ColLit { col, op, value } => {
            format!("(lit {col} {} {})", op.symbol(), print_literal(value))
        }
        Predicate::ColCol { left, op, right } => {
            format!("(cols {left} {} {right})", op.symbol())
        }
        Predicate::And(ps) => {
            let inner: Vec<String> = ps.iter().map(print_pred).collect();
            format!("(and {})", inner.join(" "))
        }
        Predicate::Or(ps) => {
            let inner: Vec<String> = ps.iter().map(print_pred).collect();
            format!("(or {})", inner.join(" "))
        }
        Predicate::Not(inner) => format!("(not {})", print_pred(inner)),
    }
}

fn print_node(node: &OperatorNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match &node.spec {
        OperatorSpec::TableScan { table } => {
            let _ = write!(out, "{indent}(scan {table})");
        }
        OperatorSpec::WrapperScan {
            source,
            timeout_ms,
            prefetch,
        } => {
            let _ = write!(out, "{indent}(wrapper {source}");
            if let Some(t) = timeout_ms {
                let _ = write!(out, " :timeout {t}");
            }
            if let Some(p) = prefetch {
                let _ = write!(out, " :prefetch {p}");
            }
            out.push(')');
        }
        OperatorSpec::Select { input, predicate } => {
            let _ = writeln!(out, "{indent}(select {}", print_pred(predicate));
            print_node(input, depth + 1, out);
            out.push(')');
        }
        OperatorSpec::Project { input, columns } => {
            let _ = writeln!(out, "{indent}(project [{}]", columns.join(", "));
            print_node(input, depth + 1, out);
            out.push(')');
        }
        OperatorSpec::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            overflow,
        } => {
            let kw = match kind {
                JoinKind::DoublePipelined => "dpj",
                JoinKind::HybridHash => "hybrid",
                JoinKind::GraceHash => "grace",
            };
            let _ = write!(out, "{indent}(join {kw} {left_key} = {right_key}");
            if let Some(m) = node.memory_budget {
                let _ = write!(out, " :mem {m}");
            }
            if *kind == JoinKind::DoublePipelined {
                let _ = write!(out, " :overflow {}", print_overflow(*overflow));
            }
            out.push('\n');
            print_node(left, depth + 1, out);
            out.push('\n');
            print_node(right, depth + 1, out);
            out.push(')');
        }
        OperatorSpec::Union { inputs } => {
            let _ = write!(out, "{indent}(union");
            for i in inputs {
                out.push('\n');
                print_node(i, depth + 1, out);
            }
            out.push(')');
        }
        OperatorSpec::Exchange { input, partitions } => {
            let _ = writeln!(out, "{indent}(exchange {partitions}");
            print_node(input, depth + 1, out);
            out.push(')');
        }
        OperatorSpec::Collector {
            children,
            quota,
            child_timeout_ms,
        } => {
            let _ = write!(out, "{indent}(collector");
            if let Some(q) = quota {
                let _ = write!(out, " :quota {q}");
            }
            if let Some(t) = child_timeout_ms {
                let _ = write!(out, " :timeout {t}");
            }
            for c in children {
                let standby = if c.initially_active { "" } else { " standby" };
                let _ = write!(out, "\n{indent}  (child {}{standby})", c.source);
            }
            out.push(')');
        }
    }
}

fn print_qty(q: &Quantity, names: &[(FragmentId, String)]) -> String {
    match q {
        Quantity::Const(c) => format!("{c}"),
        Quantity::Card(s) => format!("(card {})", print_subject(*s, names)),
        Quantity::EstCard(s) => format!("(est {})", print_subject(*s, names)),
        Quantity::TimeWaitingMs(s) => format!("(wait {})", print_subject(*s, names)),
        Quantity::MemoryUsed(s) => format!("(mem {})", print_subject(*s, names)),
        Quantity::MemoryBudget(s) => format!("(budget {})", print_subject(*s, names)),
        Quantity::Scaled(f, inner) => format!("(scale {f} {})", print_qty(inner, names)),
    }
}

fn print_cond(c: &Condition, names: &[(FragmentId, String)]) -> String {
    match c {
        Condition::True => "true".to_string(),
        Condition::False => "false".to_string(),
        Condition::StateIs { subject, state } => {
            let sw = match state {
                OpState::NotStarted => "notstarted",
                OpState::Open => "open",
                OpState::Closed => "closed",
                OpState::Failed => "failed",
                OpState::Deactivated => "deactivated",
            };
            format!("(state {} {sw})", print_subject(*subject, names))
        }
        Condition::Cmp { lhs, op, rhs } => format!(
            "(cmp {} {} {})",
            print_qty(lhs, names),
            op.symbol(),
            print_qty(rhs, names)
        ),
        Condition::And(cs) => {
            let inner: Vec<String> = cs.iter().map(|c| print_cond(c, names)).collect();
            format!("(and {})", inner.join(" "))
        }
        Condition::Or(cs) => {
            let inner: Vec<String> = cs.iter().map(|c| print_cond(c, names)).collect();
            format!("(or {})", inner.join(" "))
        }
        Condition::Not(inner) => format!("(not {})", print_cond(inner, names)),
    }
}

fn print_action(a: &Action, names: &[(FragmentId, String)]) -> String {
    match a {
        Action::Replan => "replan".to_string(),
        Action::Reschedule => "reschedule".to_string(),
        Action::Activate(s) => format!("(activate {})", print_subject(*s, names)),
        Action::Deactivate(s) => format!("(deactivate {})", print_subject(*s, names)),
        Action::ReturnError(m) => format!("(error \"{m}\")"),
        Action::SetOverflowMethod { op, method } => {
            format!("(set-overflow op{} {})", op.0, print_overflow(*method))
        }
        Action::AlterMemory { op, bytes } => format!("(alter-memory op{} {bytes})", op.0),
    }
}

fn print_rule(rule: &Rule, names: &[(FragmentId, String)], indent: &str, out: &mut String) {
    let kw = match rule.event.kind {
        EventKind::Opened => "opened",
        EventKind::Closed => "closed",
        EventKind::Error => "error",
        EventKind::Timeout => "timeout",
        EventKind::OutOfMemory => "oom",
        EventKind::Threshold => "threshold",
    };
    let _ = write!(
        out,
        "{indent}(rule \"{}\" :owner {} :when {kw} {}",
        rule.name,
        print_subject(rule.owner, names),
        print_subject(rule.event.subject, names)
    );
    if let Some(v) = rule.event.value {
        let _ = write!(out, " {v}");
    }
    if rule.condition != Condition::True {
        let _ = write!(out, " :if {}", print_cond(&rule.condition, names));
    }
    if !rule.actions.is_empty() {
        let _ = write!(out, " :do");
        for a in &rule.actions {
            let _ = write!(out, " {}", print_action(a, names));
        }
    }
    out.push(')');
}

/// Print a plan in the parseable s-expression grammar of [`crate::parse`].
/// Inverse of [`crate::parse::parse_plan`] — see the grammar note there.
pub fn print_plan(plan: &QueryPlan) -> String {
    let names: Vec<(FragmentId, String)> = plan
        .fragments
        .iter()
        .map(|f| (f.id, frag_name(f)))
        .collect();
    let mut out = String::new();
    for f in &plan.fragments {
        let name = print_subject(SubjectRef::Fragment(f.id), &names);
        let contingent = if f.initially_active {
            ""
        } else {
            " contingent"
        };
        let _ = writeln!(out, "(fragment {name}{contingent}");
        print_node(&f.root, 1, &mut out);
        for rule in &f.local_rules {
            out.push('\n');
            print_rule(rule, &names, "  ", &mut out);
        }
        out.push_str(")\n");
    }
    for (before, after) in &plan.dependencies {
        let _ = writeln!(
            out,
            "(after {} {})",
            print_subject(SubjectRef::Fragment(*before), &names),
            print_subject(SubjectRef::Fragment(*after), &names)
        );
    }
    for rule in &plan.global_rules {
        print_rule(rule, &names, "", &mut out);
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "(output {})",
        print_subject(SubjectRef::Fragment(plan.output), &names)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::ids::OpId;
    use crate::ops::JoinKind;
    use crate::rules::Rule;

    #[test]
    fn renders_tree_with_annotations() {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A").with_est_cardinality(100.0);
        let s2 = b.wrapper_scan("B");
        let j = b
            .join(JoinKind::DoublePipelined, s1, s2, "k", "k")
            .with_memory(4096);
        let f = b.fragment(j, "out");
        let plan = b.build(f);
        let text = render_plan(&plan);
        assert!(text.contains("wrapper(A)"));
        assert!(text.contains("est=100"));
        assert!(text.contains("mem=4096"));
        assert!(text.contains("fragment frag0 -> `out`"));
    }

    #[test]
    fn renders_rules_in_when_if_then_form() {
        let rule = Rule::replan_on_misestimate(crate::ids::FragmentId(1), OpId(7), 2.0);
        let s = render_rule(&rule);
        assert!(s.contains("when Closed"));
        assert!(s.contains("then [replan]"));
    }

    /// parse → print → parse must be the identity on parsed plans.
    fn assert_fixpoint(text: &str) {
        let plan = crate::parse::parse_plan(text).expect("fixture parses");
        let printed = print_plan(&plan);
        let reparsed = crate::parse::parse_plan(&printed)
            .unwrap_or_else(|e| panic!("printed form must reparse: {e}\n{printed}"));
        assert_eq!(plan, reparsed, "print/parse fixpoint broke:\n{printed}");
        assert_eq!(printed, print_plan(&reparsed));
    }

    #[test]
    fn print_parse_fixpoint_exchange() {
        assert_fixpoint(
            r#"
            (fragment f0 (exchange 4 (join dpj k = k :mem 65536 :overflow symmetric
                (wrapper A :timeout 100 :prefetch 64)
                (wrapper B))))
            (fragment f1 (join hybrid a.k = c.k :mem 8192
                (scan mat_f0)
                (wrapper C)))
            (after f0 f1)
            (output f1)
            "#,
        );
    }

    #[test]
    fn print_parse_fixpoint_rules_and_collector() {
        assert_fixpoint(
            r#"
            (fragment main
                (collector :quota 500 :timeout 80
                    (child mirror1)
                    (child mirror2 standby))
                (rule "failover" :owner main :when timeout op0
                    :do (activate op1) (deactivate op0)))
            (fragment alt contingent (wrapper backup))
            (rule "replan-big" :owner main :when closed main
                :if (and (cmp (card op2) > (scale 2.5 (est op2)))
                         (not (state alt open)))
                :do replan)
            (rule "spill" :owner main :when oom op2
                :do (set-overflow op2 left) (alter-memory op2 1024))
            (rule "bail" :owner main :when error op2 42
                :if (or false (cmp (wait op2) >= 100))
                :do (error "gave up"))
            (output main)
            "#,
        );
    }

    #[test]
    fn print_parse_fixpoint_predicates_and_misc_nodes() {
        assert_fixpoint(
            r#"
            (fragment f0 (project [a, b]
                (select (and (lit a >= 10) (or (cols a <> b) (not (lit b = "x"))))
                    (union (wrapper X) (wrapper Y)
                        (depjoin books isbn = isbn (select true (scan inv)))))))
            (output f0)
            "#,
        );
    }

    #[test]
    fn renders_collector_children() {
        let mut b = PlanBuilder::new();
        let (c, _) = b.collector(&[("m1", true), ("m2", false)], None);
        let f = b.fragment(c, "out");
        let plan = b.build(f);
        let text = render_plan(&plan);
        assert!(text.contains("child(m1) [active]"));
        assert!(text.contains("child(m2) [standby]"));
    }
}

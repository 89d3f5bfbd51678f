//! The plan printer.
//!
//! [`print_plan`] writes a plan in the s-expression grammar that
//! [`crate::parse::parse_plan`] reads, so a plan the parser produced
//! prints and reparses to an equal plan, and printing a reparsed plan
//! gives the same text. It is the plan's one text form: `plan-lint` and
//! `query-profile` read it, and a shard dispatch carries it (a worker
//! parses the subtree the coordinator prints).
//!
//! Keywords come from the `KEYWORDS` tables of [`JoinKind`],
//! [`OverflowMethod`], [`EventKind`], [`OpState`] and [`CmpOp`], the same
//! tables the parser reads. Strings (literals, rule names, error messages)
//! are quoted with `"` and `\` escaped. Annotations the grammar cannot
//! express (estimated cardinalities, memory budgets on non-join nodes,
//! non-default overflow methods on non-DPJ joins) are dropped.

use std::fmt::Write as _;

use tukwila_common::Value;

use crate::ids::FragmentId;
use crate::ops::{JoinKind, OperatorNode, OperatorSpec, OverflowMethod};
use crate::plan::{Fragment, QueryPlan};
use crate::predicate::{CmpOp, Predicate};
use crate::rules::{Action, Condition, EventKind, OpState, Quantity, Rule, SubjectRef};

/// The keyword `table` gives `v`, or `?` (which never parses) if it has none.
fn keyword<T: Copy + PartialEq>(table: &[(&'static str, T)], v: T) -> &'static str {
    table.iter().find(|(_, t)| *t == v).map_or("?", |&(k, _)| k)
}

/// `s` as a string token: quoted, with `"` and `\` escaped.
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', r"\\").replace('"', r#"\""#))
}

/// `(head item item …)`.
fn form(head: &str, items: impl Iterator<Item = String>) -> String {
    format!("({head} {})", items.collect::<Vec<_>>().join(" "))
}

/// The name `print_plan` gives each fragment: `<name>` when it
/// materializes as `mat_<name>` (the parser's convention), otherwise
/// `f<id>`, with `_` appended until no other fragment has that name.
fn frag_names(plan: &QueryPlan) -> Vec<(FragmentId, String)> {
    fn mat(f: &Fragment) -> Option<&str> {
        f.materialize_as
            .strip_prefix("mat_")
            .filter(|n| !n.is_empty())
    }
    let mut names: Vec<(FragmentId, String)> = plan
        .fragments
        .iter()
        .filter_map(|f| Some((f.id, mat(f)?.to_string())))
        .collect();
    for f in plan.fragments.iter().filter(|f| mat(f).is_none()) {
        let mut name = format!("f{}", f.id.0);
        while names.iter().any(|(_, n)| *n == name) {
            name.push('_');
        }
        names.push((f.id, name));
    }
    names
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

fn print_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("{i}"),
        Value::Double(f) => format!("{f:?}"),
        Value::Str(s) => quoted(s),
        Value::Date(d) => format!("date:{d}"),
        Value::Null => "null".to_string(),
    }
}

fn print_pred(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".to_string(),
        Predicate::ColLit { col, op, value } => {
            let op = keyword(CmpOp::KEYWORDS, *op);
            format!("(lit {col} {op} {})", print_literal(value))
        }
        Predicate::ColCol { left, op, right } => {
            format!("(cols {left} {} {right})", keyword(CmpOp::KEYWORDS, *op))
        }
        Predicate::And(ps) => form("and", ps.iter().map(print_pred)),
        Predicate::Or(ps) => form("or", ps.iter().map(print_pred)),
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
            let kw = keyword(JoinKind::KEYWORDS, *kind);
            let _ = write!(out, "{indent}(join {kw} {left_key} = {right_key}");
            if let Some(m) = node.memory_budget {
                let _ = write!(out, " :mem {m}");
            }
            if *kind == JoinKind::DoublePipelined {
                let method = keyword(OverflowMethod::KEYWORDS, *overflow);
                let _ = write!(out, " :overflow {method}");
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
        Condition::StateIs { subject, state } => format!(
            "(state {} {})",
            print_subject(*subject, names),
            keyword(OpState::KEYWORDS, *state)
        ),
        Condition::Cmp { lhs, op, rhs } => format!(
            "(cmp {} {} {})",
            print_qty(lhs, names),
            keyword(CmpOp::KEYWORDS, *op),
            print_qty(rhs, names)
        ),
        Condition::And(cs) => form("and", cs.iter().map(|c| print_cond(c, names))),
        Condition::Or(cs) => form("or", cs.iter().map(|c| print_cond(c, names))),
        Condition::Not(inner) => format!("(not {})", print_cond(inner, names)),
    }
}

fn print_action(a: &Action, names: &[(FragmentId, String)]) -> String {
    match a {
        Action::Replan => "replan".to_string(),
        Action::Reschedule => "reschedule".to_string(),
        Action::Activate(s) => format!("(activate {})", print_subject(*s, names)),
        Action::Deactivate(s) => format!("(deactivate {})", print_subject(*s, names)),
        Action::ReturnError(m) => format!("(error {})", quoted(m)),
        Action::SetOverflowMethod { op, method } => format!(
            "(set-overflow op{} {})",
            op.0,
            keyword(OverflowMethod::KEYWORDS, *method)
        ),
        Action::AlterMemory { op, bytes } => format!("(alter-memory op{} {bytes})", op.0),
    }
}

fn print_rule(rule: &Rule, names: &[(FragmentId, String)], indent: &str, out: &mut String) {
    let _ = write!(
        out,
        "{indent}(rule {} :owner {} :when {} {}",
        quoted(&rule.name),
        print_subject(rule.owner, names),
        keyword(EventKind::KEYWORDS, rule.event.kind),
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

/// Print a plan in the s-expression grammar of [`crate::parse`].
pub fn print_plan(plan: &QueryPlan) -> String {
    let names = frag_names(plan);
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
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::builder::PlanBuilder;
    use crate::ids::OpId;
    use crate::parse::parse_plan_unchecked;
    use crate::rules::EventPattern;

    /// The variants of a keyword enum. One list makes both the vector and an
    /// exhaustive `match`, so a variant missing here does not compile; the
    /// generator draws from these lists, so a variant its `KEYWORDS` table
    /// lacks prints as `?` and fails the round trip.
    macro_rules! every {
        ($t:ident: $($v:ident),+) => {{
            let exhaustive = |v: $t| match v {
                $($t::$v)|+ => v,
            };
            vec![$(exhaustive($t::$v)),+]
        }};
    }

    fn join_kinds() -> Vec<JoinKind> {
        every!(JoinKind: HybridHash, GraceHash, DoublePipelined)
    }

    fn overflow_methods() -> Vec<OverflowMethod> {
        every!(OverflowMethod: Fail, IncrementalLeftFlush, IncrementalSymmetricFlush, FlushAllLeft)
    }

    fn event_kinds() -> Vec<EventKind> {
        every!(EventKind: Opened, Closed, Error, Timeout, OutOfMemory, Threshold)
    }

    fn op_states() -> Vec<OpState> {
        every!(OpState: NotStarted, Open, Closed, Failed, Deactivated)
    }

    fn cmp_ops() -> Vec<CmpOp> {
        every!(CmpOp: Eq, Ne, Lt, Le, Gt, Ge)
    }

    /// Fragment names, none of the `f<N>` form the printer gives the output
    /// fragment nor the `op<N>` form that names an operator; some are
    /// keywords of the grammar.
    const FRAGMENT_NAMES: [&str; 9] = [
        "main",
        "alt",
        "stage_2",
        "contingent",
        "rule",
        "fragment",
        "op",
        "opx",
        "é.b",
    ];

    /// The choices of one generated plan, drawn from the proptest shim's
    /// per-case stream, with the builder that numbers its operators.
    struct Draw<'a> {
        gen: &'a mut Gen,
        b: PlanBuilder,
        fragments: u64,
    }

    impl Draw<'_> {
        fn below(&mut self, n: u64) -> u64 {
            self.gen.next_u64() % n
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 0
        }

        fn one<T: Clone>(&mut self, of: &[T]) -> T {
            of[self.below(of.len() as u64) as usize].clone()
        }

        fn maybe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
            if self.coin() {
                Some(f(self))
            } else {
                None
            }
        }

        fn list<T>(&mut self, max: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
            (0..self.below(max + 1)).map(|_| f(self)).collect()
        }

        /// A name the printer writes bare (column, table, source).
        fn ident(&mut self) -> String {
            self.one(&["a", "b.k", "l_suppkey", "K9", "x-y", "null", "true", "λ"])
                .to_string()
        }

        /// A string with the characters that need care inside quotes.
        fn string(&mut self) -> String {
            let chars = [
                '"', '\\', '(', ')', ';', ' ', '\n', 'a', 'Z', '9', 'é', '🦀',
            ];
            (0..self.below(9)).map(|_| self.one(&chars)).collect()
        }

        /// Any double but NaN: small values, and every bit pattern
        /// (infinities, subnormals, `-0.0`).
        fn float(&mut self) -> f64 {
            loop {
                let f = if self.coin() {
                    self.below(2000) as f64 / 8.0 - 100.0
                } else {
                    f64::from_bits(self.gen.next_u64())
                };
                if !f.is_nan() {
                    return f;
                }
            }
        }

        fn big(&mut self) -> u64 {
            self.gen.next_u64() >> self.below(64)
        }

        fn literal(&mut self) -> Value {
            match self.below(5) {
                0 => Value::Int(self.gen.next_u64() as i64),
                1 => Value::Double(self.float()),
                2 => Value::str(self.string()),
                3 => Value::Date(self.gen.next_u64() as i32),
                _ => Value::Null,
            }
        }

        fn pred(&mut self, depth: u32) -> Predicate {
            match self.below(if depth == 0 { 3 } else { 6 }) {
                0 => Predicate::True,
                1 => Predicate::ColLit {
                    col: self.ident(),
                    op: self.one(&cmp_ops()),
                    value: self.literal(),
                },
                2 => Predicate::ColCol {
                    left: self.ident(),
                    op: self.one(&cmp_ops()),
                    right: self.ident(),
                },
                3 => Predicate::And(self.list(3, |d| d.pred(depth - 1))),
                4 => Predicate::Or(self.list(3, |d| d.pred(depth - 1))),
                _ => Predicate::Not(Box::new(self.pred(depth - 1))),
            }
        }

        /// An operator tree, children drawn before their parent so ids come
        /// out in the parser's post-order.
        fn node(&mut self, depth: u32) -> OperatorNode {
            match self.below(if depth == 0 { 3 } else { 9 }) {
                0 => {
                    let table = self.ident();
                    self.b.table_scan(&table)
                }
                1 => {
                    let source = self.ident();
                    let timeout = self.maybe(Self::big);
                    let prefetch = self.maybe(|d| d.big() as usize);
                    self.b.wrapper_scan_opts(&source, timeout, prefetch)
                }
                2 => {
                    let quota = self.maybe(|d| d.big() as usize);
                    let timeout = self.maybe(Self::big);
                    let children: Vec<(String, bool)> = (0..1 + self.below(3))
                        .map(|_| (self.ident(), self.coin()))
                        .collect();
                    let specs: Vec<(&str, bool)> =
                        children.iter().map(|(s, a)| (s.as_str(), *a)).collect();
                    self.b.collector_with_timeout(&specs, quota, timeout).0
                }
                3 => {
                    let kind = self.one(&join_kinds());
                    let (lk, rk) = (self.ident(), self.ident());
                    let left = self.node(depth - 1);
                    let right = self.node(depth - 1);
                    let mut join = if kind == JoinKind::DoublePipelined && self.coin() {
                        let method = self.one(&overflow_methods());
                        self.b.dpj(left, right, &lk, &rk, method)
                    } else {
                        self.b.join(kind, left, right, &lk, &rk)
                    };
                    join.memory_budget = self.maybe(|d| d.big() as usize);
                    join
                }
                4 => {
                    let (source, bind, probe) = (self.ident(), self.ident(), self.ident());
                    let left = self.node(depth - 1);
                    self.b.dependent_join(left, &source, &bind, &probe)
                }
                5 => {
                    let predicate = self.pred(3);
                    let input = self.node(depth - 1);
                    self.b.select(input, predicate)
                }
                6 => {
                    let columns: Vec<String> =
                        (0..1 + self.below(3)).map(|_| self.ident()).collect();
                    let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
                    let input = self.node(depth - 1);
                    self.b.project(input, &refs)
                }
                7 => {
                    let inputs = (0..2 + self.below(2))
                        .map(|_| self.node(depth - 1))
                        .collect();
                    self.b.union(inputs)
                }
                _ => {
                    let partitions = 1 + self.below(64) as usize;
                    let input = self.node(depth - 1);
                    self.b.exchange(input, partitions)
                }
            }
        }

        fn fragment(&mut self) -> FragmentId {
            FragmentId(self.below(self.fragments) as u32)
        }

        fn subject(&mut self) -> SubjectRef {
            if self.coin() {
                SubjectRef::Op(OpId(self.below(64) as u32))
            } else {
                SubjectRef::Fragment(self.fragment())
            }
        }

        fn qty(&mut self, depth: u32) -> Quantity {
            match self.below(if depth == 0 { 6 } else { 7 }) {
                0 => Quantity::Const(self.float()),
                1 => Quantity::Card(self.subject()),
                2 => Quantity::EstCard(self.subject()),
                3 => Quantity::TimeWaitingMs(self.subject()),
                4 => Quantity::MemoryUsed(self.subject()),
                5 => Quantity::MemoryBudget(self.subject()),
                _ => Quantity::Scaled(self.float(), Box::new(self.qty(depth - 1))),
            }
        }

        fn cond(&mut self, depth: u32) -> Condition {
            match self.below(if depth == 0 { 4 } else { 7 }) {
                0 => Condition::True,
                1 => Condition::False,
                2 => Condition::StateIs {
                    subject: self.subject(),
                    state: self.one(&op_states()),
                },
                3 => Condition::Cmp {
                    lhs: self.qty(2),
                    op: self.one(&cmp_ops()),
                    rhs: self.qty(2),
                },
                4 => Condition::And(self.list(3, |d| d.cond(depth - 1))),
                5 => Condition::Or(self.list(3, |d| d.cond(depth - 1))),
                _ => Condition::Not(Box::new(self.cond(depth - 1))),
            }
        }

        fn action(&mut self) -> Action {
            match self.below(7) {
                0 => Action::Replan,
                1 => Action::Reschedule,
                2 => Action::Activate(self.subject()),
                3 => Action::Deactivate(self.subject()),
                4 => Action::ReturnError(self.string()),
                5 => Action::SetOverflowMethod {
                    op: OpId(self.below(64) as u32),
                    method: self.one(&overflow_methods()),
                },
                _ => Action::AlterMemory {
                    op: OpId(self.below(64) as u32),
                    bytes: self.big() as usize,
                },
            }
        }

        fn rule(&mut self) -> Rule {
            let name = self.string();
            let owner = self.subject();
            let event = EventPattern {
                kind: self.one(&event_kinds()),
                subject: self.subject(),
                value: self.maybe(Self::big),
            };
            Rule::new(name, owner, event, self.cond(3), self.list(3, Self::action))
        }
    }

    /// Random plans built through [`PlanBuilder`] in the form the parser
    /// produces: fragment `n` materializes as `mat_<n>`, the output as
    /// `result`, and only join nodes carry a memory budget.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct ArbPlan;

    impl Strategy for ArbPlan {
        type Value = QueryPlan;

        fn sample(&self, gen: &mut Gen) -> QueryPlan {
            let fragments = 1 + gen.next_u64() % 4;
            let mut d = Draw {
                gen,
                b: PlanBuilder::new(),
                fragments,
            };
            let first = d.below(FRAGMENT_NAMES.len() as u64) as usize;
            for i in 0..fragments as usize {
                let name = FRAGMENT_NAMES[(first + i) % FRAGMENT_NAMES.len()];
                let root = d.node(3);
                let mat = format!("mat_{name}");
                let id = if d.coin() {
                    d.b.contingent_fragment(root, &mat)
                } else {
                    d.b.fragment(root, &mat)
                };
                for rule in d.list(2, Draw::rule) {
                    d.b.add_local_rule(id, rule);
                }
            }
            for _ in 0..d.below(3) {
                let (before, after) = (d.fragment(), d.fragment());
                d.b.depends(before, after);
            }
            let global_rules = d.list(3, Draw::rule);
            let output = d.fragment();
            let mut plan = d.b.build(output);
            plan.global_rules = global_rules;
            plan.fragments[output.0 as usize].materialize_as = "result".into();
            plan
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse(print(p)) == p`, and printing the reparsed plan gives the
        /// same text.
        #[test]
        fn prop_print_parse_round_trip(plan in ArbPlan) {
            let text = print_plan(&plan);
            let reparsed = parse_plan_unchecked(&text)
                .map_err(|e| TestCaseError(format!("{e}\n{text}")))?;
            prop_assert_eq!(&reparsed, &plan);
            prop_assert_eq!(print_plan(&reparsed), text);
        }
    }

    /// The round trip's 256 cases draw every form of the grammar, every
    /// keyword and every literal type.
    #[test]
    fn generated_plans_cover_every_form() {
        let (mut texts, mut debug) = (String::new(), String::new());
        for case in 0..256 {
            let plan = ArbPlan.sample(&mut Gen::for_case(case));
            texts.push_str(&print_plan(&plan));
            debug.push_str(&format!("{plan:?}"));
        }
        let mut needles: Vec<String> = [
            "TableScan",
            "WrapperScan",
            "timeout_ms: Some",
            "prefetch: Some",
            "Select",
            "Project",
            "Union",
            "Exchange",
            "Collector",
            "quota: Some",
            "child_timeout_ms: Some",
            "memory_budget: Some",
            "True",
            "ColLit",
            "ColCol",
            "And([",
            "Or([",
            "Not(",
            "Int(",
            "Double(",
            "Str(",
            "Date(",
            "Null",
            "False",
            "StateIs",
            "Cmp {",
            "Const(",
            "Card(",
            "EstCard(",
            "TimeWaitingMs(",
            "MemoryUsed(",
            "MemoryBudget(",
            "Scaled(",
            "Replan",
            "Reschedule",
            "Activate(",
            "Deactivate(",
            "ReturnError(",
            "SetOverflowMethod",
            "AlterMemory",
            "Op(OpId",
            "Fragment(FragmentId",
            "value: Some",
            "local_rules: [Rule",
            "global_rules: [Rule",
            "dependencies: [(",
        ]
        .map(String::from)
        .into();
        needles.extend(join_kinds().iter().map(|k| format!("kind: {k:?}")));
        needles.extend(
            overflow_methods()
                .iter()
                .map(|m| format!("overflow: {m:?}")),
        );
        needles.extend(overflow_methods().iter().map(|m| format!("method: {m:?}")));
        needles.extend(event_kinds().iter().map(|k| format!("kind: {k:?}")));
        needles.extend(op_states().iter().map(|s| format!("state: {s:?}")));
        needles.extend(cmp_ops().iter().map(|o| format!("op: {o:?}")));
        for needle in &needles {
            assert!(
                debug.contains(needle.as_str()),
                "no generated plan has `{needle}`"
            );
        }
        for needle in [" contingent\n", " standby)", "(after ", r#"\""#, r"\\"] {
            assert!(texts.contains(needle), "no printed plan has `{needle}`");
        }
    }

    /// Each keyword table names every variant once, with distinct words.
    #[test]
    fn tables_name_every_variant_once() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(table: &[(&str, T)], all: Vec<T>) {
            assert_eq!(table.len(), all.len(), "{table:?}");
            for v in all {
                assert_eq!(table.iter().filter(|(_, t)| *t == v).count(), 1, "{v:?}");
            }
            for (k, _) in table {
                assert_eq!(table.iter().filter(|(w, _)| w == k).count(), 1, "{k}");
            }
        }
        check(JoinKind::KEYWORDS, join_kinds());
        check(OverflowMethod::KEYWORDS, overflow_methods());
        check(EventKind::KEYWORDS, event_kinds());
        check(OpState::KEYWORDS, op_states());
        check(CmpOp::KEYWORDS, cmp_ops());
    }

    /// The output fragment prints as `f<id>`; when another fragment has
    /// that name, `_` keeps the two apart.
    #[test]
    fn output_name_never_collides() {
        let text = "(fragment a (wrapper A)) (fragment f0 (wrapper B)) (after a f0) (output a)";
        let plan = parse_plan_unchecked(text).unwrap();
        let printed = print_plan(&plan);
        assert!(printed.contains("(after f0_ f0)"), "{printed}");
        assert_eq!(parse_plan_unchecked(&printed).unwrap(), plan);
    }
}

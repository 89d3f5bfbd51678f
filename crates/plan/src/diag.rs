//! Lint-style plan diagnostics.
//!
//! The static analyzer (the `validate` passes in this crate plus the
//! schema/exchange/memory passes in `tukwila-analyze`) reports through this
//! module instead of bailing on the first problem: every finding becomes a
//! [`Diagnostic`] with a stable `TA`-prefixed code, a severity, and a
//! *span* — the plan element (fragment, operator, or rule) the finding is
//! anchored to, rendered against the same labels [`crate::text`] prints so
//! a diagnostic can be matched to a plan listing by eye.
//!
//! The full code table lives in [`codes`] and is documented in DESIGN.md §9;
//! `tests/source_lint.rs` cross-checks that the two never drift.

use std::fmt;

use tukwila_common::JsonValue;

use crate::ids::{FragmentId, OpId};
use crate::plan::QueryPlan;
use crate::rules::SubjectRef;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no action needed.
    Info,
    /// Suspicious construct the engine tolerates (often by degrading, e.g.
    /// an exchange over a non-partitionable join runs as a passthrough).
    Warn,
    /// The plan is malformed and must not execute.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered output and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which analyzer pass a code belongs to (also decides the
/// [`tukwila_common::TukwilaError`] kind when an Error-severity finding is
/// converted into a hard failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Plan structure: ids, dependencies, fragment graph.
    Structure,
    /// ECA rule set: ownership, subjects, conflicts, reachability.
    Rules,
    /// Bottom-up schema/type inference.
    Schema,
    /// Exchange / parallelism discipline.
    Exchange,
    /// Memory-reservation discipline.
    Memory,
}

impl Pass {
    /// Name used in rendered output and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Pass::Structure => "structure",
            Pass::Rules => "rules",
            Pass::Schema => "schema",
            Pass::Exchange => "exchange",
            Pass::Memory => "memory",
        }
    }
}

/// Registry entry for one diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// Stable code, e.g. `"TA020"`.
    pub code: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// Owning pass.
    pub pass: Pass,
    /// One-line summary (shown by `plan-lint --codes`).
    pub summary: &'static str,
}

/// The full diagnostic code table. Stable: codes are never renumbered, only
/// retired. DESIGN.md §9 documents each entry; `tests/source_lint.rs`
/// fails the build if an entry here has no matching row there.
pub mod codes {
    use super::{CodeInfo, Pass, Severity};

    macro_rules! ta_codes {
        ($($name:ident = ($code:literal, $sev:ident, $pass:ident, $summary:literal);)*) => {
            $(
                /// See [`self`] module docs; summary:
                #[doc = $summary]
                pub const $name: CodeInfo = CodeInfo {
                    code: $code,
                    severity: Severity::$sev,
                    pass: Pass::$pass,
                    summary: $summary,
                };
            )*
            /// Every registered code, in numeric order.
            pub const ALL: &[CodeInfo] = &[$($name),*];
        };
    }

    ta_codes! {
        // -- structure ----------------------------------------------------
        DUPLICATE_FRAGMENT_ID = ("TA001", Error, Structure,
            "duplicate fragment id");
        DUPLICATE_OP_ID = ("TA002", Error, Structure,
            "duplicate operator id");
        MISSING_OUTPUT = ("TA003", Error, Structure,
            "output fragment does not exist");
        UNKNOWN_DEPENDENCY = ("TA004", Error, Structure,
            "dependency references an unknown fragment");
        SELF_DEPENDENCY = ("TA005", Error, Structure,
            "fragment depends on itself");
        DEPENDENCY_CYCLE = ("TA006", Error, Structure,
            "fragment dependency graph has a cycle");
        ORPHAN_FRAGMENT = ("TA007", Warn, Structure,
            "fragment result is never consumed");
        ORPHAN_CONTINGENT = ("TA008", Warn, Structure,
            "contingent fragment is never activated by any rule");
        // -- rules --------------------------------------------------------
        UNKNOWN_RULE_OWNER = ("TA010", Error, Rules,
            "rule owner is not a plan element");
        UNKNOWN_RULE_SUBJECT = ("TA011", Error, Rules,
            "rule listens on an unknown subject");
        UNKNOWN_ACTION_TARGET = ("TA012", Error, Rules,
            "rule action targets an unknown subject");
        CONFLICTING_RULES = ("TA013", Error, Rules,
            "two rules can fire on the same event and negate each other");
        DUPLICATE_RULE_NAME = ("TA014", Warn, Rules,
            "two rules share a name");
        UNREACHABLE_RULE = ("TA015", Warn, Rules,
            "rule condition is always false");
        SHADOWED_RULE = ("TA016", Warn, Rules,
            "rule duplicates an earlier rule's trigger, condition and actions");
        DEAD_TIMEOUT_RULE = ("TA017", Warn, Rules,
            "timeout rule on a subject that never emits timeout events");
        // -- schema -------------------------------------------------------
        UNKNOWN_COLUMN = ("TA020", Error, Schema,
            "column reference does not resolve in the input schema");
        AMBIGUOUS_COLUMN = ("TA021", Error, Schema,
            "column reference matches more than one input column");
        JOIN_KEY_TYPE_MISMATCH = ("TA022", Error, Schema,
            "join key columns have incomparable types");
        PREDICATE_TYPE_MISMATCH = ("TA023", Error, Schema,
            "predicate compares incomparable types");
        UNION_ARITY_MISMATCH = ("TA024", Error, Schema,
            "union inputs have different arities");
        UNION_TYPE_MISMATCH = ("TA025", Warn, Schema,
            "union inputs disagree on a column type");
        DUPLICATE_OUTPUT_COLUMN = ("TA026", Warn, Schema,
            "operator output schema repeats a qualified column name");
        // -- exchange -----------------------------------------------------
        EXCHANGE_OVER_NON_JOIN = ("TA030", Warn, Exchange,
            "exchange input is not a join (runs as a passthrough)");
        EXCHANGE_OVER_PARALLELISM = ("TA031", Warn, Exchange,
            "exchange partition count exceeds the configured max parallelism");
        NESTED_EXCHANGE = ("TA032", Error, Exchange,
            "exchange directly wraps another exchange");
        NULLABLE_EXCHANGE_KEY = ("TA033", Warn, Exchange,
            "partitioned join key may be NULL; NULL keys are dropped");
        EXCHANGE_PASSTHROUGH = ("TA034", Info, Exchange,
            "exchange with a single partition is a passthrough");
        // -- memory -------------------------------------------------------
        UNBUDGETED_STATEFUL_OP = ("TA040", Warn, Memory,
            "stateful operator has no memory budget; the governor cannot reach it");
        PARTITION_BUDGET_UNDERFLOW = ("TA041", Warn, Memory,
            "per-partition share of the memory budget rounds to zero bytes");
        OVERFLOW_WITHOUT_SPILL_CONTEXT = ("TA042", Warn, Memory,
            "overflow method set on a join kind that cannot spill incrementally");
        UNHANDLED_OVERFLOW = ("TA043", Warn, Memory,
            "budgeted join has no overflow strategy and no out_of_memory rule");
    }

    /// Look up a code by its string form.
    pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
        ALL.iter().find(|c| c.code == code)
    }
}

/// The plan element a diagnostic is anchored to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The plan as a whole.
    Plan,
    /// One fragment.
    Fragment(FragmentId),
    /// One operator node (with its owning fragment when known).
    Op {
        /// Fragment containing the operator, if resolvable.
        fragment: Option<FragmentId>,
        /// The operator.
        op: OpId,
    },
    /// One rule, identified by name (rule names are diagnostics anchors
    /// even when duplicated — TA014 flags the duplication itself).
    Rule {
        /// The rule's name.
        name: String,
        /// The rule's owner.
        owner: SubjectRef,
    },
}

impl Span {
    /// Anchor to an operator, resolving its fragment from the plan.
    pub fn op_in(plan: &QueryPlan, op: OpId) -> Span {
        let fragment = plan
            .fragments
            .iter()
            .find(|f| f.op_ids().contains(&op))
            .map(|f| f.id);
        Span::Op { fragment, op }
    }

    /// Render the span against the plan, naming an operator by its
    /// [`crate::ops::OperatorNode::label`].
    pub fn render(&self, plan: &QueryPlan) -> String {
        match self {
            Span::Plan => format!("plan(output={})", plan.output),
            Span::Fragment(id) => match plan.fragment(*id) {
                Some(f) => format!("fragment {} -> `{}`", f.id, f.materialize_as),
                None => format!("fragment {id} (not in plan)"),
            },
            Span::Op { fragment, op } => {
                let label = plan
                    .fragments
                    .iter()
                    .find_map(|f| f.root.find(*op))
                    .map(|n| n.label());
                match (fragment, label) {
                    (Some(f), Some(l)) => format!("{f} / {op} {l}"),
                    (Some(f), None) => format!("{f} / {op}"),
                    (None, Some(l)) => format!("{op} {l}"),
                    (None, None) => format!("{op} (not in plan)"),
                }
            }
            Span::Rule { name, owner } => format!("rule `{name}` (owner {owner})"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Severity (defaults to the code's registered severity).
    pub severity: Severity,
    /// Owning pass.
    pub pass: Pass,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Anchor.
    pub span: Span,
    /// Secondary context lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Build a diagnostic from a registry entry.
    pub fn new(info: CodeInfo, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code: info.code,
            severity: info.severity,
            pass: info.pass,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attach a context note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render one diagnostic in the `severity[code]: message` form.
    pub fn render(&self, plan: &QueryPlan) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}",
            self.severity,
            self.code,
            self.message,
            self.span.render(plan)
        );
        for n in &self.notes {
            out.push_str("\n  note: ");
            out.push_str(n);
        }
        out
    }
}

/// A full analysis report: the accumulated findings of every pass that ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append findings from one pass.
    pub fn extend(&mut self, diags: Vec<Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    /// Number of Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of Warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Whether the plan may execute (no Error-severity findings).
    pub fn is_executable(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether a specific code fired.
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The first Error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Render the whole report against a plan (one blank line between
    /// findings, then a summary line).
    pub fn render(&self, plan: &QueryPlan) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(plan));
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.error_count(),
            self.warn_count(),
            self.count(Severity::Info)
        ));
        out
    }

    /// Machine-readable form:
    /// `{"errors":N,"warnings":N,"infos":N,"diagnostics":[{...}]}` with each
    /// diagnostic carrying `code`, `severity`, `pass`, `message`,
    /// `fragment`/`op`/`rule` span fields (null when absent), and `notes`.
    pub fn json(&self) -> JsonValue {
        let text = |s: &str| JsonValue::Str(s.to_string());
        let opt = |s: Option<String>| s.map_or(JsonValue::Null, JsonValue::Str);
        let diagnostics = (self.diagnostics.iter())
            .map(|d| {
                let (frag, op, rule) = match &d.span {
                    Span::Plan => (None, None, None),
                    Span::Fragment(f) => (Some(f.to_string()), None, None),
                    Span::Op { fragment, op } => {
                        (fragment.map(|f| f.to_string()), Some(op.to_string()), None)
                    }
                    Span::Rule { name, .. } => (None, None, Some(name.clone())),
                };
                JsonValue::Obj(vec![
                    ("code".into(), text(d.code)),
                    ("severity".into(), text(d.severity.label())),
                    ("pass".into(), text(d.pass.label())),
                    ("message".into(), text(&d.message)),
                    ("fragment".into(), opt(frag)),
                    ("op".into(), opt(op)),
                    ("rule".into(), opt(rule)),
                    (
                        "notes".into(),
                        JsonValue::Arr(d.notes.iter().map(|n| text(n)).collect()),
                    ),
                ])
            })
            .collect();
        let count = |sev| JsonValue::UInt(self.count(sev) as u64);
        JsonValue::Obj(vec![
            ("errors".into(), count(Severity::Error)),
            ("warnings".into(), count(Severity::Warn)),
            ("infos".into(), count(Severity::Info)),
            ("diagnostics".into(), JsonValue::Arr(diagnostics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::ops::JoinKind;

    fn plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A");
        let s2 = b.wrapper_scan("B");
        let j = b.join(JoinKind::HybridHash, s1, s2, "k", "k");
        let f = b.fragment(j, "out");
        b.build(f)
    }

    #[test]
    fn codes_are_unique_and_sorted() {
        let mut seen = std::collections::BTreeSet::new();
        let mut prev = "";
        for c in codes::ALL {
            assert!(seen.insert(c.code), "duplicate code {}", c.code);
            assert!(c.code > prev, "codes out of order at {}", c.code);
            prev = c.code;
            assert!(c.code.starts_with("TA") && c.code.len() == 5);
        }
        assert!(codes::ALL.len() >= 10);
        assert_eq!(codes::lookup("TA020").unwrap().code, "TA020");
        assert!(codes::lookup("TA999").is_none());
    }

    #[test]
    fn span_renders_against_plan_labels() {
        let p = plan();
        let span = Span::op_in(&p, OpId(2));
        let s = span.render(&p);
        assert!(s.contains("frag0"), "{s}");
        assert!(s.contains("join[HybridHash]"), "{s}");
    }

    #[test]
    fn report_counts_and_gating() {
        let p = plan();
        let mut r = Report::new();
        assert!(r.is_executable());
        r.extend(vec![
            Diagnostic::new(codes::UNKNOWN_COLUMN, Span::op_in(&p, OpId(2)), "no `x`"),
            Diagnostic::new(codes::UNBUDGETED_STATEFUL_OP, Span::op_in(&p, OpId(2)), "m"),
        ]);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_executable());
        assert!(r.has("TA020"));
        assert_eq!(r.first_error().unwrap().code, "TA020");
        let text = r.render(&p);
        assert!(text.contains("error[TA020]"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
    }

    #[test]
    fn json_escapes_and_validates_shape() {
        let mut r = Report::new();
        r.extend(vec![Diagnostic::new(
            codes::UNKNOWN_COLUMN,
            Span::Rule {
                name: "has \"quotes\"\n".into(),
                owner: SubjectRef::Op(OpId(0)),
            },
            "msg with \\ backslash",
        )
        .with_note("a note")]);
        let j = r.json().to_json();
        assert!(j.contains(r#""code":"TA020""#), "{j}");
        assert!(j.contains(r#""rule":"has \"quotes\"\n""#), "{j}");
        assert!(j.contains(r#""message":"msg with \\ backslash""#), "{j}");
        assert!(j.contains(r#""notes":["a note"]"#), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}

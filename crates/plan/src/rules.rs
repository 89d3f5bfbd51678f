//! The event-condition-action rule language (§3.1.2).
//!
//! A rule is the paper's quintuple *(name, event, condition, actions,
//! owner)* with the published semantics:
//!
//! * only active rules with active owners may trigger;
//! * firing a rule once makes it inactive;
//! * all of a rule's actions execute before the next event is processed.
//!
//! Events ([`Event`]) are generated by the execution engine in response to
//! state changes (`opened`, `closed`, `error`, `timeout(n)`,
//! `out_of_memory`, `threshold(n)`); conditions are propositional formulae
//! over runtime quantities ([`Quantity`]) compared against constants or
//! each other; actions ([`Action`]) modify operator execution, reschedule,
//! re-optimize, or abort.
//!
//! Evaluation of conditions is decoupled from the engine through
//! [`QuantityProvider`], which the engine implements over its live operator
//! statistics.

use crate::ids::{FragmentId, OpId};
use crate::ops::OverflowMethod;
use crate::predicate::CmpOp;

/// What a rule or event refers to: an operator or a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubjectRef {
    /// A physical operator (including collector children).
    Op(OpId),
    /// A plan fragment.
    Fragment(FragmentId),
}

impl std::fmt::Display for SubjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubjectRef::Op(id) => write!(f, "{id}"),
            SubjectRef::Fragment(id) => write!(f, "{id}"),
        }
    }
}

/// Kinds of engine events (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Fragment/operator started.
    Opened,
    /// Fragment/operator completed.
    Closed,
    /// Operator failure (e.g. unable to contact source).
    Error,
    /// Data source has not responded in `value` msec.
    Timeout,
    /// Join has insufficient memory.
    OutOfMemory,
    /// `value` tuples processed by operator.
    Threshold,
}

impl EventKind {
    /// Plan-text keyword of each kind, read by the parser and the printer.
    pub const KEYWORDS: &[(&str, EventKind)] = &[
        ("opened", EventKind::Opened),
        ("closed", EventKind::Closed),
        ("error", EventKind::Error),
        ("timeout", EventKind::Timeout),
        ("oom", EventKind::OutOfMemory),
        ("threshold", EventKind::Threshold),
    ];
}

/// A runtime event instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// What the event is about.
    pub subject: SubjectRef,
    /// Kind-specific value: msec for `Timeout`, tuple count for
    /// `Threshold`, unused otherwise.
    pub value: Option<u64>,
}

impl Event {
    /// Build an event without a value.
    pub fn new(kind: EventKind, subject: SubjectRef) -> Self {
        Event {
            kind,
            subject,
            value: None,
        }
    }

    /// Build an event with a value.
    pub fn with_value(kind: EventKind, subject: SubjectRef, value: u64) -> Self {
        Event {
            kind,
            subject,
            value: Some(value),
        }
    }
}

/// Pattern a rule listens for.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPattern {
    /// Kind to match.
    pub kind: EventKind,
    /// Subject to match.
    pub subject: SubjectRef,
    /// If set, the event's value must equal this (e.g. `threshold(A, 10)`
    /// only matches the 10-tuple milestone).
    pub value: Option<u64>,
}

impl EventPattern {
    /// Pattern matching any value.
    pub fn new(kind: EventKind, subject: SubjectRef) -> Self {
        EventPattern {
            kind,
            subject,
            value: None,
        }
    }

    /// Pattern matching a specific value.
    pub fn with_value(kind: EventKind, subject: SubjectRef, value: u64) -> Self {
        EventPattern {
            kind,
            subject,
            value: Some(value),
        }
    }

    /// Whether `event` triggers this pattern.
    pub fn matches(&self, event: &Event) -> bool {
        self.kind == event.kind
            && self.subject == event.subject
            && (self.value.is_none() || self.value == event.value)
    }
}

/// Operator/fragment lifecycle state (comparable in conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpState {
    /// Not yet opened.
    NotStarted,
    /// Currently executing.
    Open,
    /// Completed normally.
    Closed,
    /// Failed.
    Failed,
    /// Deactivated by a rule action.
    Deactivated,
}

impl OpState {
    /// Plan-text keyword of each state, read by the parser and the printer.
    pub const KEYWORDS: &[(&str, OpState)] = &[
        ("notstarted", OpState::NotStarted),
        ("open", OpState::Open),
        ("closed", OpState::Closed),
        ("failed", OpState::Failed),
        ("deactivated", OpState::Deactivated),
    ];
}

/// Runtime quantities conditions may compare (§3.1.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Quantity {
    /// A constant.
    Const(f64),
    /// `card(subject)` — tuples produced so far (result cardinality once
    /// closed).
    Card(SubjectRef),
    /// `est_card(subject)` — the optimizer's estimate, precomputed in the
    /// plan.
    EstCard(SubjectRef),
    /// `time(subject)` — milliseconds since the subject last produced a
    /// tuple.
    TimeWaitingMs(SubjectRef),
    /// `memory(subject)` — bytes currently used.
    MemoryUsed(SubjectRef),
    /// The subject's memory budget from the plan.
    MemoryBudget(SubjectRef),
    /// A scaled quantity (`2 * est_card(join1)` in the paper's example
    /// rule).
    Scaled(f64, Box<Quantity>),
}

impl Quantity {
    /// `factor * q` helper.
    pub fn scaled(factor: f64, q: Quantity) -> Quantity {
        Quantity::Scaled(factor, Box::new(q))
    }
}

/// Source of runtime quantities — implemented by the execution engine.
pub trait QuantityProvider {
    /// Tuples produced so far by the subject.
    fn card(&self, subject: SubjectRef) -> Option<f64>;
    /// Plan estimate for the subject.
    fn est_card(&self, subject: SubjectRef) -> Option<f64>;
    /// Milliseconds since the subject last produced a tuple.
    fn time_waiting_ms(&self, subject: SubjectRef) -> Option<f64>;
    /// Bytes of memory the subject currently uses.
    fn memory_used(&self, subject: SubjectRef) -> Option<f64>;
    /// The subject's memory budget.
    fn memory_budget(&self, subject: SubjectRef) -> Option<f64>;
    /// Lifecycle state of the subject.
    fn state(&self, subject: SubjectRef) -> OpState;
}

/// Propositional conditions over quantities and states.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true.
    True,
    /// Always false (used to disable a rule without removing it).
    False,
    /// Quantity comparison. Unknown quantities make the comparison false
    /// (conservative: rules do not fire on missing data).
    Cmp {
        /// Left-hand quantity.
        lhs: Quantity,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand quantity.
        rhs: Quantity,
    },
    /// State comparison.
    StateIs {
        /// Subject whose state is examined.
        subject: SubjectRef,
        /// Expected state.
        state: OpState,
    },
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction.
    Or(Vec<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    fn eval_quantity(q: &Quantity, p: &dyn QuantityProvider) -> Option<f64> {
        match q {
            Quantity::Const(c) => Some(*c),
            Quantity::Card(s) => p.card(*s),
            Quantity::EstCard(s) => p.est_card(*s),
            Quantity::TimeWaitingMs(s) => p.time_waiting_ms(*s),
            Quantity::MemoryUsed(s) => p.memory_used(*s),
            Quantity::MemoryBudget(s) => p.memory_budget(*s),
            Quantity::Scaled(f, inner) => Some(f * Self::eval_quantity(inner, p)?),
        }
    }

    /// Evaluate against live quantities.
    pub fn eval(&self, p: &dyn QuantityProvider) -> bool {
        match self {
            Condition::True => true,
            Condition::False => false,
            Condition::Cmp { lhs, op, rhs } => {
                match (Self::eval_quantity(lhs, p), Self::eval_quantity(rhs, p)) {
                    (Some(a), Some(b)) => {
                        let ord = a.partial_cmp(&b);
                        match ord {
                            Some(o) => match op {
                                CmpOp::Eq => o == std::cmp::Ordering::Equal,
                                CmpOp::Ne => o != std::cmp::Ordering::Equal,
                                CmpOp::Lt => o == std::cmp::Ordering::Less,
                                CmpOp::Le => o != std::cmp::Ordering::Greater,
                                CmpOp::Gt => o == std::cmp::Ordering::Greater,
                                CmpOp::Ge => o != std::cmp::Ordering::Less,
                            },
                            None => false,
                        }
                    }
                    _ => false,
                }
            }
            Condition::StateIs { subject, state } => p.state(*subject) == *state,
            Condition::And(cs) => cs.iter().all(|c| c.eval(p)),
            Condition::Or(cs) => cs.iter().any(|c| c.eval(p)),
            Condition::Not(c) => !c.eval(p),
        }
    }
}

/// Rule actions (§3.1.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Set the overflow method for a double pipelined join.
    SetOverflowMethod {
        /// The join operator.
        op: OpId,
        /// Strategy to install.
        method: OverflowMethod,
    },
    /// Alter a memory allotment.
    AlterMemory {
        /// Target operator.
        op: OpId,
        /// New budget in bytes.
        bytes: usize,
    },
    /// Activate an operator, fragment, or collector child.
    Activate(SubjectRef),
    /// Deactivate an operator or fragment: stops its execution and
    /// deactivates its associated rules.
    Deactivate(SubjectRef),
    /// Reschedule the remaining fragments (query scrambling).
    Reschedule,
    /// Terminate the current plan and re-invoke the optimizer with
    /// statistics.
    Replan,
    /// Return an error to the user.
    ReturnError(String),
}

impl Action {
    /// The subject an activate/deactivate action targets, if any (used by
    /// the static conflict check).
    pub fn activation_target(&self) -> Option<(SubjectRef, bool)> {
        match self {
            Action::Activate(s) => Some((*s, true)),
            Action::Deactivate(s) => Some((*s, false)),
            _ => None,
        }
    }
}

/// A complete event-condition-action rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Diagnostic name.
    pub name: String,
    /// The operator or fragment this rule controls/monitors. A rule with a
    /// deactivated owner never triggers.
    pub owner: SubjectRef,
    /// Event pattern that triggers the rule.
    pub event: EventPattern,
    /// Condition checked when triggered.
    pub condition: Condition,
    /// Actions executed (atomically, in order) when the condition holds.
    pub actions: Vec<Action>,
}

impl Rule {
    /// Build a rule.
    pub fn new(
        name: impl Into<String>,
        owner: SubjectRef,
        event: EventPattern,
        condition: Condition,
        actions: Vec<Action>,
    ) -> Self {
        Rule {
            name: name.into(),
            owner,
            event,
            condition,
            actions,
        }
    }

    /// The paper's canonical re-optimization rule:
    /// `when closed(frag) if card(join) ≥ factor * est_card(join) or
    /// card(join) ≤ est_card(join) / factor then replan`.
    pub fn replan_on_misestimate(frag: FragmentId, join: OpId, factor: f64) -> Rule {
        let card = Quantity::Card(SubjectRef::Op(join));
        let est = Quantity::EstCard(SubjectRef::Op(join));
        Rule::new(
            format!("replan-misestimate-{frag}-{join}"),
            SubjectRef::Fragment(frag),
            EventPattern::new(EventKind::Closed, SubjectRef::Fragment(frag)),
            Condition::Or(vec![
                Condition::Cmp {
                    lhs: card.clone(),
                    op: CmpOp::Ge,
                    rhs: Quantity::scaled(factor, est.clone()),
                },
                Condition::Cmp {
                    lhs: Quantity::scaled(factor, card),
                    op: CmpOp::Le,
                    rhs: est,
                },
            ]),
            vec![Action::Replan],
        )
    }

    /// Rescheduling rule: `when timeout(scan) if true then reschedule`.
    pub fn reschedule_on_timeout(frag: FragmentId, scan: OpId) -> Rule {
        Rule::new(
            format!("reschedule-timeout-{frag}-{scan}"),
            SubjectRef::Fragment(frag),
            EventPattern::new(EventKind::Timeout, SubjectRef::Op(scan)),
            Condition::True,
            vec![Action::Reschedule],
        )
    }

    /// Overflow-method rule: `when out_of_memory(join) if true then set
    /// overflow method`.
    pub fn overflow_method(join: OpId, method: OverflowMethod) -> Rule {
        Rule::new(
            format!("overflow-{join}"),
            SubjectRef::Op(join),
            EventPattern::new(EventKind::OutOfMemory, SubjectRef::Op(join)),
            Condition::True,
            vec![Action::SetOverflowMethod { op: join, method }],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[derive(Default)]
    struct FakeProvider {
        cards: HashMap<SubjectRef, f64>,
        ests: HashMap<SubjectRef, f64>,
        states: HashMap<SubjectRef, OpState>,
    }

    impl QuantityProvider for FakeProvider {
        fn card(&self, s: SubjectRef) -> Option<f64> {
            self.cards.get(&s).copied()
        }
        fn est_card(&self, s: SubjectRef) -> Option<f64> {
            self.ests.get(&s).copied()
        }
        fn time_waiting_ms(&self, _: SubjectRef) -> Option<f64> {
            None
        }
        fn memory_used(&self, _: SubjectRef) -> Option<f64> {
            None
        }
        fn memory_budget(&self, _: SubjectRef) -> Option<f64> {
            None
        }
        fn state(&self, s: SubjectRef) -> OpState {
            self.states.get(&s).copied().unwrap_or(OpState::NotStarted)
        }
    }

    #[test]
    fn event_pattern_matching() {
        let pat = EventPattern::new(EventKind::Closed, SubjectRef::Fragment(FragmentId(1)));
        assert!(pat.matches(&Event::new(
            EventKind::Closed,
            SubjectRef::Fragment(FragmentId(1))
        )));
        assert!(!pat.matches(&Event::new(
            EventKind::Closed,
            SubjectRef::Fragment(FragmentId(2))
        )));
        assert!(!pat.matches(&Event::new(
            EventKind::Opened,
            SubjectRef::Fragment(FragmentId(1))
        )));
    }

    #[test]
    fn threshold_pattern_matches_specific_value() {
        let subject = SubjectRef::Op(OpId(3));
        let pat = EventPattern::with_value(EventKind::Threshold, subject, 10);
        assert!(pat.matches(&Event::with_value(EventKind::Threshold, subject, 10)));
        assert!(!pat.matches(&Event::with_value(EventKind::Threshold, subject, 20)));
        // pattern without value matches any milestone
        let any = EventPattern::new(EventKind::Threshold, subject);
        assert!(any.matches(&Event::with_value(EventKind::Threshold, subject, 20)));
    }

    #[test]
    fn paper_replan_rule_fires_on_2x_misestimate() {
        let frag = FragmentId(1);
        let join = OpId(7);
        let rule = Rule::replan_on_misestimate(frag, join, 2.0);

        let mut p = FakeProvider::default();
        p.ests.insert(SubjectRef::Op(join), 100.0);

        // actual = estimate → no fire
        p.cards.insert(SubjectRef::Op(join), 100.0);
        assert!(!rule.condition.eval(&p));

        // actual ≥ 2× estimate → fire
        p.cards.insert(SubjectRef::Op(join), 200.0);
        assert!(rule.condition.eval(&p));

        // actual ≤ estimate/2 → fire (underestimate also triggers)
        p.cards.insert(SubjectRef::Op(join), 50.0);
        assert!(rule.condition.eval(&p));

        // in between → no fire
        p.cards.insert(SubjectRef::Op(join), 150.0);
        assert!(!rule.condition.eval(&p));
        assert_eq!(rule.actions, vec![Action::Replan]);
    }

    #[test]
    fn missing_quantities_never_fire() {
        let rule = Rule::replan_on_misestimate(FragmentId(0), OpId(0), 2.0);
        let p = FakeProvider::default(); // nothing known
        assert!(!rule.condition.eval(&p));
    }

    #[test]
    fn state_condition() {
        let s = SubjectRef::Op(OpId(1));
        let mut p = FakeProvider::default();
        p.states.insert(s, OpState::Failed);
        let c = Condition::StateIs {
            subject: s,
            state: OpState::Failed,
        };
        assert!(c.eval(&p));
        assert!(!Condition::Not(Box::new(c)).eval(&p));
    }

    #[test]
    fn scaled_quantity_math() {
        let s = SubjectRef::Op(OpId(1));
        let mut p = FakeProvider::default();
        p.cards.insert(s, 30.0);
        let c = Condition::Cmp {
            lhs: Quantity::scaled(3.0, Quantity::Card(s)),
            op: CmpOp::Eq,
            rhs: Quantity::Const(90.0),
        };
        assert!(c.eval(&p));
    }

    #[test]
    fn activation_targets() {
        let s = SubjectRef::Op(OpId(2));
        assert_eq!(Action::Activate(s).activation_target(), Some((s, true)));
        assert_eq!(Action::Deactivate(s).activation_target(), Some((s, false)));
        assert_eq!(Action::Replan.activation_target(), None);
    }
}

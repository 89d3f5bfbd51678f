//! Fragments and whole query plans (§3.1).

use std::collections::{BTreeSet, HashMap};

use crate::ids::{FragmentId, OpId};
use crate::ops::OperatorNode;
use crate::rules::Rule;

/// A fully pipelined unit of execution: an operator tree plus local rules.
/// At the end of a fragment, pipelines terminate and the result is
/// materialized under [`Fragment::materialize_as`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Fragment id (rule subject).
    pub id: FragmentId,
    /// Root of the pipelined operator tree.
    pub root: OperatorNode,
    /// Name under which the result materializes in the local store.
    pub materialize_as: String,
    /// Whether the fragment is eligible to run from the start (contingent
    /// fragments start inactive and are enabled by `activate` actions —
    /// choose-node behaviour, §3.1.2 "contingent planning").
    pub initially_active: bool,
    /// Rules scoped to this fragment.
    pub local_rules: Vec<Rule>,
}

impl Fragment {
    /// Build an initially-active fragment with no rules.
    pub fn new(id: FragmentId, root: OperatorNode, materialize_as: impl Into<String>) -> Self {
        Fragment {
            id,
            root,
            materialize_as: materialize_as.into(),
            initially_active: true,
            local_rules: Vec::new(),
        }
    }

    /// Add a local rule.
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.local_rules.push(rule);
        self
    }

    /// Mark the fragment as contingent (starts inactive).
    pub fn contingent(mut self) -> Self {
        self.initially_active = false;
        self
    }

    /// All operator ids in the fragment.
    pub fn op_ids(&self) -> Vec<OpId> {
        self.root.all_ids()
    }
}

/// A Tukwila query execution plan: a partially-ordered set of fragments and
/// a set of global rules. Fragments unrelated in the partial order may
/// execute in parallel (§3.1); fragments with `initially_active == false`
/// wait for a rule to activate them.
///
/// A plan may be **partial** (§3): `complete == false` means the optimizer
/// deliberately planned only the first steps and must be re-invoked when the
/// planned fragments finish.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The fragments, in creation order.
    pub fragments: Vec<Fragment>,
    /// Partial order: `(before, after)` — `after` may not start until
    /// `before` completed.
    pub dependencies: Vec<(FragmentId, FragmentId)>,
    /// Plan-wide rules.
    pub global_rules: Vec<Rule>,
    /// The fragment whose output is the query answer (for a partial plan,
    /// the last planned fragment).
    pub output: FragmentId,
    /// False if this is a partial plan that requires re-invoking the
    /// optimizer after the planned fragments complete.
    pub complete: bool,
}

impl QueryPlan {
    /// Build a complete plan.
    pub fn new(fragments: Vec<Fragment>, output: FragmentId) -> Self {
        QueryPlan {
            fragments,
            dependencies: Vec::new(),
            global_rules: Vec::new(),
            output,
            complete: true,
        }
    }

    /// Mark as partial.
    pub fn partial(mut self) -> Self {
        self.complete = false;
        self
    }

    /// Add a dependency edge.
    pub fn with_dependency(mut self, before: FragmentId, after: FragmentId) -> Self {
        self.dependencies.push((before, after));
        self
    }

    /// Add a global rule.
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.global_rules.push(rule);
        self
    }

    /// Fragment lookup.
    pub fn fragment(&self, id: FragmentId) -> Option<&Fragment> {
        self.fragments.iter().find(|f| f.id == id)
    }

    /// All rules (global then per-fragment local).
    pub fn all_rules(&self) -> Vec<&Rule> {
        self.global_rules
            .iter()
            .chain(self.fragments.iter().flat_map(|f| f.local_rules.iter()))
            .collect()
    }

    /// Fragments ready to run: active, not yet completed, all predecessors
    /// completed. `completed` holds finished fragment ids; `active` the
    /// current activation set.
    pub fn ready_fragments(
        &self,
        completed: &BTreeSet<FragmentId>,
        active: &dyn Fn(FragmentId) -> bool,
    ) -> Vec<FragmentId> {
        self.fragments
            .iter()
            .filter(|f| !completed.contains(&f.id))
            .filter(|f| active(f.id))
            .filter(|f| {
                self.dependencies
                    .iter()
                    .filter(|(_, after)| *after == f.id)
                    .all(|(before, _)| completed.contains(before))
            })
            .map(|f| f.id)
            .collect()
    }

    /// Whether the dependency graph is acyclic (topological check).
    pub fn is_acyclic(&self) -> bool {
        let mut indegree: HashMap<FragmentId, usize> =
            self.fragments.iter().map(|f| (f.id, 0)).collect();
        for (_, after) in &self.dependencies {
            if let Some(d) = indegree.get_mut(after) {
                *d += 1;
            }
        }
        let mut queue: Vec<FragmentId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut seen = 0;
        while let Some(id) = queue.pop() {
            seen += 1;
            for (before, after) in &self.dependencies {
                if *before == id {
                    if let Some(d) = indegree.get_mut(after) {
                        *d -= 1;
                        if *d == 0 {
                            queue.push(*after);
                        }
                    }
                }
            }
        }
        seen == self.fragments.len()
    }

    /// Total number of operators across fragments.
    pub fn op_count(&self) -> usize {
        self.fragments.iter().map(|f| f.op_ids().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OperatorSpec;

    fn scan(id: u32, table: &str) -> OperatorNode {
        OperatorNode::new(
            OpId(id),
            OperatorSpec::TableScan {
                table: table.into(),
            },
        )
    }

    fn two_fragment_plan() -> QueryPlan {
        let f0 = Fragment::new(FragmentId(0), scan(0, "a"), "tmp0");
        let f1 = Fragment::new(FragmentId(1), scan(1, "tmp0"), "out");
        QueryPlan::new(vec![f0, f1], FragmentId(1)).with_dependency(FragmentId(0), FragmentId(1))
    }

    #[test]
    fn ready_respects_dependencies() {
        let plan = two_fragment_plan();
        let none = BTreeSet::new();
        let all_active = |_id: FragmentId| true;
        assert_eq!(
            plan.ready_fragments(&none, &all_active),
            vec![FragmentId(0)]
        );

        let mut done = BTreeSet::new();
        done.insert(FragmentId(0));
        assert_eq!(
            plan.ready_fragments(&done, &all_active),
            vec![FragmentId(1)]
        );

        done.insert(FragmentId(1));
        assert!(plan.ready_fragments(&done, &all_active).is_empty());
    }

    #[test]
    fn inactive_fragments_not_ready() {
        let plan = two_fragment_plan();
        let none = BTreeSet::new();
        let only_f1 = |id: FragmentId| id == FragmentId(1);
        assert!(plan.ready_fragments(&none, &only_f1).is_empty());
    }

    #[test]
    fn acyclic_detection() {
        let mut plan = two_fragment_plan();
        assert!(plan.is_acyclic());
        plan.dependencies.push((FragmentId(1), FragmentId(0)));
        assert!(!plan.is_acyclic());
    }

    #[test]
    fn contingent_fragments_marked() {
        let f = Fragment::new(FragmentId(2), scan(5, "x"), "alt").contingent();
        assert!(!f.initially_active);
    }

    #[test]
    fn partial_plans_flagged() {
        let plan = two_fragment_plan().partial();
        assert!(!plan.complete);
    }

    #[test]
    fn all_rules_concatenates_global_and_local() {
        use crate::rules::{Rule, SubjectRef};
        let f0 = Fragment::new(FragmentId(0), scan(0, "a"), "tmp0")
            .with_rule(Rule::reschedule_on_timeout(FragmentId(0), OpId(0)));
        let plan = QueryPlan::new(vec![f0], FragmentId(0)).with_rule(Rule::replan_on_misestimate(
            FragmentId(0),
            OpId(0),
            2.0,
        ));
        assert_eq!(plan.all_rules().len(), 2);
        assert!(matches!(plan.all_rules()[0].owner, SubjectRef::Fragment(_)));
    }

    #[test]
    fn op_count_sums_fragments() {
        assert_eq!(two_fragment_plan().op_count(), 2);
    }
}

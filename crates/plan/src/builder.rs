//! Fluent plan construction.
//!
//! The optimizer, the tests, and the benchmark harness all build plans; the
//! builder centralizes id allocation so operator and fragment ids stay
//! unique within a plan (a [`crate::validate::validate_plan`] invariant).

use crate::ids::{FragmentId, OpId};
use crate::ops::{CollectorChildSpec, JoinKind, OperatorNode, OperatorSpec, OverflowMethod};
use crate::plan::{Fragment, QueryPlan};
use crate::predicate::Predicate;

/// Allocates ids and assembles fragments into a [`QueryPlan`].
#[derive(Debug, Default)]
pub struct PlanBuilder {
    next_op: u32,
    next_fragment: u32,
    fragments: Vec<Fragment>,
    dependencies: Vec<(FragmentId, FragmentId)>,
}

impl PlanBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate an operator id.
    pub fn op_id(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        id
    }

    /// Local-store table scan.
    pub fn table_scan(&mut self, table: &str) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(
            id,
            OperatorSpec::TableScan {
                table: table.to_string(),
            },
        )
    }

    /// Wrapper scan with no timeout and direct pull.
    pub fn wrapper_scan(&mut self, source: &str) -> OperatorNode {
        self.wrapper_scan_opts(source, None, None)
    }

    /// Wrapper scan with timeout / prefetch options.
    pub fn wrapper_scan_opts(
        &mut self,
        source: &str,
        timeout_ms: Option<u64>,
        prefetch: Option<usize>,
    ) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(
            id,
            OperatorSpec::WrapperScan {
                source: source.to_string(),
                timeout_ms,
                prefetch,
            },
        )
    }

    /// Selection.
    pub fn select(&mut self, input: OperatorNode, predicate: Predicate) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(
            id,
            OperatorSpec::Select {
                input: Box::new(input),
                predicate,
            },
        )
    }

    /// Projection.
    pub fn project(&mut self, input: OperatorNode, columns: &[&str]) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(
            id,
            OperatorSpec::Project {
                input: Box::new(input),
                columns: columns.iter().map(|c| c.to_string()).collect(),
            },
        )
    }

    /// Equi-join of a given kind. Right child is the inner/build side for
    /// asymmetric kinds.
    pub fn join(
        &mut self,
        kind: JoinKind,
        left: OperatorNode,
        right: OperatorNode,
        left_key: &str,
        right_key: &str,
    ) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(
            id,
            OperatorSpec::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_key: left_key.to_string(),
                right_key: right_key.to_string(),
                kind,
                overflow: match kind {
                    JoinKind::DoublePipelined => OverflowMethod::IncrementalLeftFlush,
                    _ => OverflowMethod::Fail,
                },
            },
        )
    }

    /// Double pipelined join with an explicit overflow method.
    pub fn dpj(
        &mut self,
        left: OperatorNode,
        right: OperatorNode,
        left_key: &str,
        right_key: &str,
        overflow: OverflowMethod,
    ) -> OperatorNode {
        let mut node = self.join(JoinKind::DoublePipelined, left, right, left_key, right_key);
        if let OperatorSpec::Join { overflow: o, .. } = &mut node.spec {
            *o = overflow;
        }
        node
    }

    /// Dependent join against a source (§4): `left.bind_col =
    /// source.probe_col`. Wrappers answer only atomic fetches (§3.2,
    /// footnote 2), so the source is fetched once, indexed on `probe_col`
    /// and probed per driving tuple — a build-first hybrid hash join with
    /// the source's wrapper scan as its build (right) side.
    pub fn dependent_join(
        &mut self,
        left: OperatorNode,
        source: &str,
        bind_col: &str,
        probe_col: &str,
    ) -> OperatorNode {
        let scan = self.wrapper_scan(source);
        self.join(JoinKind::HybridHash, left, scan, bind_col, probe_col)
    }

    /// Standard union.
    pub fn union(&mut self, inputs: Vec<OperatorNode>) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(id, OperatorSpec::Union { inputs })
    }

    /// Partitioned exchange over a join: run `partitions` parallel
    /// instances of `input`, hash-partitioned on the join keys.
    pub fn exchange(&mut self, input: OperatorNode, partitions: usize) -> OperatorNode {
        let id = self.op_id();
        OperatorNode::new(
            id,
            OperatorSpec::Exchange {
                input: Box::new(input),
                partitions: partitions.max(1),
            },
        )
    }

    /// Dynamic collector over sources; returns the node and the child ids
    /// (for policy rules). `active` flags which children start active.
    pub fn collector(
        &mut self,
        sources: &[(&str, bool)],
        quota: Option<usize>,
    ) -> (OperatorNode, Vec<OpId>) {
        self.collector_with_timeout(sources, quota, None)
    }

    /// Dynamic collector with a per-child inactivity timeout.
    pub fn collector_with_timeout(
        &mut self,
        sources: &[(&str, bool)],
        quota: Option<usize>,
        child_timeout_ms: Option<u64>,
    ) -> (OperatorNode, Vec<OpId>) {
        let children: Vec<CollectorChildSpec> = sources
            .iter()
            .map(|(src, active)| CollectorChildSpec {
                id: self.op_id(),
                source: src.to_string(),
                initially_active: *active,
            })
            .collect();
        let ids = children.iter().map(|c| c.id).collect();
        let id = self.op_id();
        (
            OperatorNode::new(
                id,
                OperatorSpec::Collector {
                    children,
                    quota,
                    child_timeout_ms,
                },
            ),
            ids,
        )
    }

    /// Add a fragment materializing `root` as `name`; returns its id.
    pub fn fragment(&mut self, root: OperatorNode, name: &str) -> FragmentId {
        let id = FragmentId(self.next_fragment);
        self.next_fragment += 1;
        self.fragments.push(Fragment::new(id, root, name));
        id
    }

    /// Add a contingent fragment (starts inactive).
    pub fn contingent_fragment(&mut self, root: OperatorNode, name: &str) -> FragmentId {
        let id = self.fragment(root, name);
        if let Some(f) = self.fragments.iter_mut().find(|f| f.id == id) {
            f.initially_active = false;
        }
        id
    }

    /// Attach a local rule to a fragment.
    pub fn add_local_rule(&mut self, frag: FragmentId, rule: crate::rules::Rule) {
        if let Some(f) = self.fragments.iter_mut().find(|f| f.id == frag) {
            f.local_rules.push(rule);
        }
    }

    /// Record a dependency: `after` runs only once `before` completed.
    pub fn depends(&mut self, before: FragmentId, after: FragmentId) {
        self.dependencies.push((before, after));
    }

    /// Assemble the plan with `output` as the answer fragment.
    pub fn build(self, output: FragmentId) -> QueryPlan {
        let mut plan = QueryPlan::new(self.fragments, output);
        plan.dependencies = self.dependencies;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A");
        let s2 = b.wrapper_scan("B");
        let j = b.join(JoinKind::HybridHash, s1, s2, "k", "k");
        let f = b.fragment(j, "out");
        let plan = b.build(f);
        let mut ids = plan.fragments[0].op_ids();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn dpj_sets_overflow() {
        let mut b = PlanBuilder::new();
        let s1 = b.wrapper_scan("A");
        let s2 = b.wrapper_scan("B");
        let j = b.dpj(s1, s2, "k", "k", OverflowMethod::IncrementalSymmetricFlush);
        match j.spec {
            OperatorSpec::Join { overflow, kind, .. } => {
                assert_eq!(overflow, OverflowMethod::IncrementalSymmetricFlush);
                assert_eq!(kind, JoinKind::DoublePipelined);
            }
            _ => panic!("not a join"),
        }
    }

    #[test]
    fn collector_children_get_ids() {
        let mut b = PlanBuilder::new();
        let (node, ids) = b.collector(&[("m1", true), ("m2", false)], Some(100));
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        match node.spec {
            OperatorSpec::Collector {
                children, quota, ..
            } => {
                assert_eq!(children[0].source, "m1");
                assert!(children[0].initially_active);
                assert!(!children[1].initially_active);
                assert_eq!(quota, Some(100));
            }
            _ => panic!("not a collector"),
        }
    }

    #[test]
    fn contingent_fragment_inactive() {
        let mut b = PlanBuilder::new();
        let s = b.wrapper_scan("A");
        let f = b.contingent_fragment(s, "alt");
        let s2 = b.wrapper_scan("B");
        let f2 = b.fragment(s2, "main");
        b.depends(f2, f);
        let plan = b.build(f2);
        assert!(!plan.fragment(f).unwrap().initially_active);
        assert!(plan.fragment(f2).unwrap().initially_active);
        assert_eq!(plan.dependencies, vec![(f2, f)]);
    }
}

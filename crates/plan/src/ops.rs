//! Physical operator nodes.
//!
//! Each node carries the five annotations of §3.1.1: the algebraic operator
//! and its chosen physical implementation (together, [`OperatorSpec`]), the
//! children (inside the spec), the memory allocated to the operator, and an
//! estimate of result cardinality.

use crate::ids::OpId;
use crate::predicate::Predicate;

/// Physical join algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Hybrid hash join (§4.2.1): builds a table from the *right* (inner)
    /// child, lazily spilling buckets on overflow; probes with the left
    /// (outer) child. Asymmetric — inner choice matters.
    HybridHash,
    /// Grace/recursive hash join (§4.2.1): partitions both inputs to spill
    /// buckets up front when the inner overflows, then joins pairwise.
    GraceHash,
    /// The double pipelined hash join (§4.2.2): symmetric, multithreaded,
    /// produces tuples immediately; holds both inputs in memory and uses an
    /// [`OverflowMethod`] when it cannot.
    DoublePipelined,
}

impl JoinKind {
    /// Plan-text keyword of each kind, read by the parser and the printer.
    pub const KEYWORDS: &[(&str, JoinKind)] = &[
        ("dpj", JoinKind::DoublePipelined),
        ("hybrid", JoinKind::HybridHash),
        ("grace", JoinKind::GraceHash),
    ];
}

/// Memory-overflow resolution strategy for the double pipelined join
/// (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowMethod {
    /// No strategy: raise `out_of_memory` and fail if no rule resolves it.
    /// (The optimizer normally never emits this; it exists so tests can
    /// exercise the failure path.)
    Fail,
    /// Incremental Left Flush: on overflow, pause the left input, flush
    /// left-side buckets as needed while draining the right input, then
    /// resume the left — gradually degrading into hybrid hash.
    IncrementalLeftFlush,
    /// Incremental Symmetric Flush: on overflow, pick a bucket and flush it
    /// from *both* hash tables; both inputs keep streaming.
    IncrementalSymmetricFlush,
    /// Naive strategy rejected by the paper ("a conversion from double
    /// pipelined join to hybrid hash join, where we simply flush one hash
    /// table to disk") — kept as an ablation baseline.
    FlushAllLeft,
}

impl OverflowMethod {
    /// Plan-text keyword of each method, read by the parser and the printer.
    pub const KEYWORDS: &[(&str, OverflowMethod)] = &[
        ("left", OverflowMethod::IncrementalLeftFlush),
        ("symmetric", OverflowMethod::IncrementalSymmetricFlush),
        ("flushall", OverflowMethod::FlushAllLeft),
        ("fail", OverflowMethod::Fail),
    ];
}

/// One child of a dynamic collector: a wrapper call with its own [`OpId`]
/// so policy rules can activate/deactivate it individually (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorChildSpec {
    /// The child's operator id (rule subject).
    pub id: OpId,
    /// Source to fetch from.
    pub source: String,
    /// Whether the child starts active or waits for an `activate` action.
    pub initially_active: bool,
}

/// The physical operator algebra (standard operators of §4 plus the two
/// adaptive ones).
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorSpec {
    /// Scan a materialized table in the local store (fragment results,
    /// cached data).
    TableScan {
        /// Local-store table name.
        table: String,
    },
    /// Fetch a source relation through its wrapper (atomic fetch query).
    WrapperScan {
        /// Source name in the registry.
        source: String,
        /// Raise a `timeout` event if no tuple arrives for this long.
        timeout_ms: Option<u64>,
        /// Prefetch buffer size in tuples (None = direct pull).
        prefetch: Option<usize>,
    },
    /// Selection.
    Select {
        /// Input operator.
        input: Box<OperatorNode>,
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Projection onto named columns.
    Project {
        /// Input operator.
        input: Box<OperatorNode>,
        /// Output columns (possibly qualified names).
        columns: Vec<String>,
    },
    /// Equi-join. For asymmetric kinds the **right child is the inner
    /// (build) relation** — the one loaded into the hash table. A dependent
    /// join (§4) is this node too: a hybrid hash join whose build side is
    /// the probed source's wrapper scan ([`crate::PlanBuilder::dependent_join`]).
    Join {
        /// Outer / left child (probe side for hybrid hash).
        left: Box<OperatorNode>,
        /// Inner / right child (build side for hybrid hash).
        right: Box<OperatorNode>,
        /// Join column in the left child's schema.
        left_key: String,
        /// Join column in the right child's schema.
        right_key: String,
        /// Physical algorithm.
        kind: JoinKind,
        /// Overflow strategy (meaningful for `DoublePipelined`).
        overflow: OverflowMethod,
    },
    /// Standard union (baseline for the collector). Schemas must be
    /// arity-compatible.
    Union {
        /// Input operators.
        inputs: Vec<OperatorNode>,
    },
    /// Partitioned exchange: hash-partition the input join's two sides by
    /// their join-key prehash and run `partitions` parallel instances of
    /// the join, merging output batches through an order-insensitive
    /// union. The input must be a `Join` (every join kind partitions); any
    /// other input, or a single partition in process, executes as a
    /// transparent passthrough. The optimizer chooses `partitions` from
    /// catalog cardinalities, capped by the configured parallelism.
    Exchange {
        /// The join to parallelize.
        input: Box<OperatorNode>,
        /// Number of parallel partition instances (1 = passthrough).
        partitions: usize,
    },
    /// Dynamic collector (§4.1): policy-driven union over overlapping
    /// sources. The policy is expressed as rules owned by the collector and
    /// its children in the enclosing fragment.
    Collector {
        /// Children (wrapper calls) with their own ids.
        children: Vec<CollectorChildSpec>,
        /// Stop after this many tuples even if children remain active
        /// (policies like "first source to deliver the full data set
        /// wins"). `None` = drain all active children.
        quota: Option<usize>,
        /// Raise a `timeout(child)` event when an active child delivers
        /// nothing for this long — the trigger for fallback policies.
        child_timeout_ms: Option<u64>,
    },
}

/// A node in a fragment's operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorNode {
    /// Unique id within the plan.
    pub id: OpId,
    /// Operator + implementation + children.
    pub spec: OperatorSpec,
    /// Memory allocated to the operator in bytes (§3.1.1 annotation 4).
    pub memory_budget: Option<usize>,
    /// Optimizer's estimate of result cardinality (§3.1.1 annotation 5).
    pub est_cardinality: Option<f64>,
}

impl OperatorNode {
    /// Node with default annotations.
    pub fn new(id: OpId, spec: OperatorSpec) -> Self {
        OperatorNode {
            id,
            spec,
            memory_budget: None,
            est_cardinality: None,
        }
    }

    /// Attach a memory budget.
    pub fn with_memory(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Attach a cardinality estimate.
    pub fn with_est_cardinality(mut self, card: f64) -> Self {
        self.est_cardinality = Some(card);
        self
    }

    /// Direct children, in order.
    pub fn children(&self) -> Vec<&OperatorNode> {
        match &self.spec {
            OperatorSpec::Select { input, .. }
            | OperatorSpec::Project { input, .. }
            | OperatorSpec::Exchange { input, .. } => {
                vec![input]
            }
            OperatorSpec::Join { left, right, .. } => vec![left, right],
            OperatorSpec::Union { inputs } => inputs.iter().collect(),
            OperatorSpec::TableScan { .. }
            | OperatorSpec::WrapperScan { .. }
            | OperatorSpec::Collector { .. } => vec![],
        }
    }

    /// Pre-order walk over the subtree (self first).
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a OperatorNode)) {
        visit(self);
        for c in self.children() {
            c.walk(visit);
        }
    }

    /// All operator ids in the subtree, including collector children
    /// (which are rule subjects but not full nodes).
    pub fn all_ids(&self) -> Vec<OpId> {
        let mut ids = Vec::new();
        self.walk(&mut |n| {
            ids.push(n.id);
            if let OperatorSpec::Collector { children, .. } = &n.spec {
                ids.extend(children.iter().map(|c| c.id));
            }
        });
        ids
    }

    /// Find a node by id in the subtree.
    pub fn find(&self, id: OpId) -> Option<&OperatorNode> {
        if self.id == id {
            return Some(self);
        }
        for c in self.children() {
            if let Some(n) = c.find(id) {
                return Some(n);
            }
        }
        None
    }

    /// Names of all remote sources the subtree reads.
    pub fn sources(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |n| match &n.spec {
            OperatorSpec::WrapperScan { source, .. } => out.push(source.clone()),
            OperatorSpec::Collector { children, .. } => {
                out.extend(children.iter().map(|c| c.source.clone()))
            }
            _ => {}
        });
        out
    }

    /// One-line description for plan printing.
    pub fn label(&self) -> String {
        match &self.spec {
            OperatorSpec::TableScan { table } => format!("scan({table})"),
            OperatorSpec::WrapperScan { source, .. } => format!("wrapper({source})"),
            OperatorSpec::Select { .. } => "select".to_string(),
            OperatorSpec::Project { columns, .. } => format!("project({})", columns.join(",")),
            OperatorSpec::Join {
                kind,
                left_key,
                right_key,
                ..
            } => format!("join[{kind:?}]({left_key}={right_key})"),
            OperatorSpec::Union { inputs } => format!("union({})", inputs.len()),
            OperatorSpec::Collector { children, .. } => format!(
                "collector({})",
                children
                    .iter()
                    .map(|c| c.source.as_str())
                    .collect::<Vec<_>>()
                    .join("|")
            ),
            OperatorSpec::Exchange { partitions, .. } => format!("exchange(x{partitions})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(id: u32, src: &str) -> OperatorNode {
        OperatorNode::new(
            OpId(id),
            OperatorSpec::WrapperScan {
                source: src.into(),
                timeout_ms: None,
                prefetch: None,
            },
        )
    }

    fn join(id: u32, l: OperatorNode, r: OperatorNode) -> OperatorNode {
        OperatorNode::new(
            OpId(id),
            OperatorSpec::Join {
                left: Box::new(l),
                right: Box::new(r),
                left_key: "a".into(),
                right_key: "b".into(),
                kind: JoinKind::DoublePipelined,
                overflow: OverflowMethod::IncrementalLeftFlush,
            },
        )
    }

    #[test]
    fn walk_visits_preorder() {
        let tree = join(2, scan(0, "A"), scan(1, "B"));
        let mut seen = Vec::new();
        tree.walk(&mut |n| seen.push(n.id.0));
        assert_eq!(seen, vec![2, 0, 1]);
    }

    #[test]
    fn find_locates_nested_node() {
        let tree = join(4, join(2, scan(0, "A"), scan(1, "B")), scan(3, "C"));
        assert_eq!(tree.find(OpId(1)).unwrap().label(), "wrapper(B)");
        assert!(tree.find(OpId(9)).is_none());
    }

    #[test]
    fn sources_include_collector_children() {
        let coll = OperatorNode::new(
            OpId(5),
            OperatorSpec::Collector {
                children: vec![
                    CollectorChildSpec {
                        id: OpId(6),
                        source: "mirror1".into(),
                        initially_active: true,
                    },
                    CollectorChildSpec {
                        id: OpId(7),
                        source: "mirror2".into(),
                        initially_active: false,
                    },
                ],
                quota: None,
                child_timeout_ms: None,
            },
        );
        let tree = join(8, coll, scan(9, "C"));
        let mut s = tree.sources();
        s.sort();
        assert_eq!(s, vec!["C", "mirror1", "mirror2"]);
        assert!(tree.all_ids().contains(&OpId(6)));
    }

    #[test]
    fn annotations_attach() {
        let n = scan(0, "A").with_memory(1024).with_est_cardinality(50.0);
        assert_eq!(n.memory_budget, Some(1024));
        assert_eq!(n.est_cardinality, Some(50.0));
    }
}

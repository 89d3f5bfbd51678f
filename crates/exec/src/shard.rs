//! Remote shard execution support (DESIGN.md §12): what a
//! [`PartitionTransport`](crate::operators::PartitionTransport) that runs
//! its pipelines in worker processes needs from the engine. The transport
//! itself (`tukwila_net::Cluster`) lives in `tukwila-net`; this module is
//! the part that must agree with the in-process transport on semantics:
//!
//! * [`ShardSpec`] — the one shard description: made by the coordinator
//!   ([`ShardSpec::for_join`], with the same budget/N split as in-process
//!   partitions), carried whole in the wire's `Dispatch`, and read back by
//!   the worker ([`ShardSpec::control`], [`ShardSpec::build`]);
//! * [`ShardLease`] — a shard's slice of the join's memory reservation,
//!   charged at the coordinator while the shard runs elsewhere;
//! * [`ShardFilter`] keeps exactly the rows the in-process repartition
//!   feeders would route to one partition — same prehash, same
//!   [`fold_hash`] fold, same salt, same "NULL keys are dropped" rule;
//!
//! Each worker recomputes the join's input subtrees from its own sources
//! and keeps only its shard (shared-nothing scatter; inputs are never
//! shipped through the coordinator), so the union over all shards equals
//! the sequential join for any equi-join kind — including the kinds the
//! in-process transport does not split.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_common::{fold_hash, KeyVector, Relation, Result, Schema, TukwilaError, TupleBatch};
use tukwila_plan::{
    parse_plan, print_plan, Fragment, FragmentId, OperatorNode, OperatorSpec, QueryPlan, SubjectRef,
};
use tukwila_source::SourceRegistry;
use tukwila_storage::{MemoryManager, MemoryReservation};

use crate::build::{build_join, build_operator, join_descendants};
use crate::control::QueryControl;
use crate::operator::{Operator, OperatorBox};
use crate::operators::exchange::{
    partition_budget, partition_reservation, take_rows, EXCHANGE_SALT,
};
use crate::runtime::{ExecEnv, OpHarness, PlanRuntime};

/// Everything a worker needs to run one shard of a scattered exchange.
/// The same spec is dispatched to every shard; only the shard index
/// differs. A valid spec has `shard_count >= 1`.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The dispatched fragment as parseable plan text: a single fragment
    /// whose root is the join under the exchange.
    pub plan_text: String,
    /// Coordinator-local materializations the fragment's `TableScan`s
    /// reference, shipped to the worker's local store.
    pub tables: Vec<(String, Arc<Relation>)>,
    /// Total number of shards (the exchange's partition degree).
    pub shard_count: usize,
    /// Operator batch size the worker should execute with.
    pub batch_size: usize,
    /// Per-shard memory budget in bytes (0 = unbounded).
    pub shard_budget: usize,
    /// Remaining query deadline at dispatch time, forwarded so workers
    /// trip on their own clock instead of relying on a cancel message.
    pub deadline: Option<Duration>,
}

impl ShardSpec {
    /// The dispatch for `shard_count` shards of `join`, whose harness is
    /// `harness`: serialized at open so rule-driven annotation changes up
    /// to that point apply.
    pub fn for_join(join: &OperatorNode, shard_count: usize, harness: &OpHarness) -> Result<Self> {
        let rt = harness.runtime();
        let shard_budget =
            (harness.reservation()).map_or(0, |p| partition_budget(p.budget(), shard_count));
        let tables = subtree_table_deps(join)
            .into_iter()
            .map(|name| rt.env().local.get(&name).map(|rel| (name, rel)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardSpec {
            plan_text: subtree_plan_text(join, shard_budget),
            tables,
            shard_count,
            batch_size: rt.env().batch_size,
            shard_budget,
            deadline: (rt.control().deadline())
                .map(|d| d.saturating_duration_since(Instant::now())),
        })
    }

    /// The query control a worker runs its shard under: the forwarded
    /// deadline, counted from when the dispatch arrived.
    pub fn control(&self) -> Arc<QueryControl> {
        match self.deadline {
            Some(budget) => QueryControl::with_deadline(budget),
            None => QueryControl::unbounded(),
        }
    }

    /// The worker's half of [`ShardSpec::for_join`]: shard `shard_index`'s
    /// runtime (batch size, budget slice, shipped tables, `control`),
    /// fragment and root, ready for [`run_fragment`](crate::run_fragment).
    pub fn build(
        &self,
        shard_index: usize,
        sources: SourceRegistry,
        control: Arc<QueryControl>,
    ) -> Result<(Arc<PlanRuntime>, FragmentId, OperatorBox)> {
        let plan = parse_plan(&self.plan_text)?;
        let frag = (plan.fragment(plan.output))
            .ok_or_else(|| TukwilaError::Plan("shard: dispatched plan has no output".into()))?;
        let mut env = ExecEnv::new(sources).with_batch_size(self.batch_size.max(1));
        if self.shard_budget > 0 {
            env.memory = MemoryManager::new().with_budget(self.shard_budget);
        }
        for (name, rel) in &self.tables {
            env.local.put(name.clone(), (**rel).clone());
        }
        let rt = PlanRuntime::for_plan_controlled(&plan, env, control);
        let root = shard_root(&frag.root, &rt, shard_index, self.shard_count)?;
        Ok((rt, plan.output, root))
    }
}

/// One shard's coordinator-side lease on the join's memory reservation: its
/// partition slice, charged in full while the shard runs where this
/// process cannot see its memory, released when the lease drops — however
/// the stream ended, worker death included.
pub struct ShardLease {
    slice: MemoryReservation,
    bytes: usize,
}

impl ShardLease {
    /// Lease shard `i` of `n`'s slice; `None` for an unbudgeted join.
    pub fn take(harness: &OpHarness, i: usize, n: usize) -> Option<ShardLease> {
        partition_reservation(harness, i, n).map(|slice| {
            let bytes = slice.budget();
            slice.charge(bytes);
            ShardLease { slice, bytes }
        })
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        self.slice.release(self.bytes);
    }
}

/// Completion statistics one shard reports with its final message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Output rows the shard produced.
    pub rows: u64,
    /// Output batches the shard produced.
    pub batches: u64,
    /// Times the worker blocked waiting for send credit (backpressure).
    pub backpressure_stalls: u64,
    /// Tuples the worker spilled while executing the shard.
    pub spill_tuples: u64,
}

/// Render the join subtree under an exchange as a standalone
/// single-fragment plan, parseable by `tukwila_plan::parse_plan` on the
/// worker. `shard_budget` (when non-zero) replaces the root join's memory
/// annotation so each worker plans with its shard's slice, mirroring the
/// in-process budget/N split.
fn subtree_plan_text(node: &OperatorNode, shard_budget: usize) -> String {
    let mut root = node.clone();
    if shard_budget > 0 && root.memory_budget.is_some() {
        root.memory_budget = Some(shard_budget);
    }
    let frag = Fragment::new(FragmentId(0), root, "result");
    print_plan(&QueryPlan::new(vec![frag], FragmentId(0)))
}

/// Names of local-store tables the subtree scans (the coordinator must
/// ship these to workers alongside the plan).
fn subtree_table_deps(node: &OperatorNode) -> Vec<String> {
    fn walk(node: &OperatorNode, out: &mut Vec<String>) {
        match &node.spec {
            OperatorSpec::TableScan { table } => {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            OperatorSpec::WrapperScan { .. } | OperatorSpec::Collector { .. } => {}
            OperatorSpec::Select { input, .. }
            | OperatorSpec::Project { input, .. }
            | OperatorSpec::Exchange { input, .. } => walk(input, out),
            OperatorSpec::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            OperatorSpec::Union { inputs } => {
                for i in inputs {
                    walk(i, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(node, &mut out);
    out
}

/// Filter a child's output down to one shard: keep rows whose join-key
/// prehash folds to `shard_index`, drop NULL keys (identical routing to
/// the in-process repartition feeders).
pub struct ShardFilter {
    child: OperatorBox,
    key: String,
    key_idx: usize,
    shard_index: usize,
    shard_count: usize,
}

impl ShardFilter {
    /// Wrap `child`, keeping shard `shard_index` of `shard_count` by the
    /// (possibly qualified) key column `key`.
    pub fn new(child: OperatorBox, key: String, shard_index: usize, shard_count: usize) -> Self {
        ShardFilter {
            child,
            key,
            key_idx: 0,
            shard_index,
            shard_count: shard_count.max(1),
        }
    }
}

impl Operator for ShardFilter {
    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        match self.child.schema().index_of(&self.key) {
            Ok(idx) => {
                self.key_idx = idx;
                Ok(())
            }
            Err(e) => {
                let _ = self.child.close();
                Err(e)
            }
        }
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        while let Some(batch) = self.child.next_batch()? {
            let rows: Vec<u32> = (KeyVector::compute(&batch, self.key_idx).iter().enumerate())
                .filter(|(_, h)| {
                    h.is_some_and(|h| {
                        fold_hash(h, self.shard_count, EXCHANGE_SALT) == self.shard_index
                    })
                })
                .map(|(i, _)| i as u32)
                .collect();
            if rows.len() == batch.len() {
                return Ok(Some(batch));
            }
            if !rows.is_empty() {
                return Ok(Some(take_rows(&batch, &rows)));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }

    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn name(&self) -> &'static str {
        "shard-filter"
    }
}

/// A worker's operator tree for one shard of a dispatched fragment: the
/// root join with both inputs wrapped in [`ShardFilter`]s. With a single
/// shard there is nothing to filter and the tree builds as-is. Any
/// equi-join kind: hash partitioning by the join key is correct for all of
/// them.
fn shard_root(
    node: &OperatorNode,
    rt: &Arc<PlanRuntime>,
    shard_index: usize,
    shard_count: usize,
) -> Result<OperatorBox> {
    if shard_count <= 1 {
        return build_operator(node, rt);
    }
    let OperatorSpec::Join {
        left,
        right,
        left_key,
        right_key,
        kind,
        overflow: _,
    } = &node.spec
    else {
        return Err(TukwilaError::Plan(format!(
            "shard {shard_index}/{shard_count}: dispatched fragment root must be a join"
        )));
    };
    let shard = |child: &OperatorNode, key: &String| -> Result<OperatorBox> {
        let child = build_operator(child, rt)?;
        Ok(Box::new(ShardFilter::new(
            child,
            key.clone(),
            shard_index,
            shard_count,
        )))
    };
    Ok(build_join(
        *kind,
        shard(left, left_key)?,
        shard(right, right_key)?,
        left_key.clone(),
        right_key.clone(),
        OpHarness::new(rt.clone(), SubjectRef::Op(node.id)),
        join_descendants(left, right),
    ))
}

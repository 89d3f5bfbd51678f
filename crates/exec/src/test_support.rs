//! Shared helpers for exec-crate unit tests.

use std::sync::Arc;

use tukwila_common::{tuple, DataType, Relation, Schema};
use tukwila_plan::{JoinKind, OpId, OverflowMethod, PlanBuilder, QueryPlan, SubjectRef};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

use crate::operators::WrapperScan;
use crate::runtime::{ExecEnv, OpHarness, PlanRuntime};

/// `n` tuples `(i % dup, i)` under schema `name(k, v)`.
pub fn keyed_relation(name: &str, n: i64, dup: i64) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = (0..n).map(|i| tuple![i % dup.max(1), i]).collect();
    Relation::new(schema, rows).expect("integer rows fit the schema")
}

/// A two-source join fixture: registers `L`/`R`, builds a one-fragment plan
/// with a join of `kind`, returns the runtime plus the scan/join ids.
pub struct JoinFixture {
    pub rt: Arc<PlanRuntime>,
    pub plan: QueryPlan,
    pub left_id: OpId,
    pub right_id: OpId,
    pub join_id: OpId,
    pub gold: Relation,
}

impl JoinFixture {
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        l: Relation,
        r: Relation,
        l_link: LinkModel,
        r_link: LinkModel,
        kind: JoinKind,
        overflow: OverflowMethod,
        budget: Option<usize>,
    ) -> Self {
        let gold = l.nested_join(&r, 0, 0);
        let registry = SourceRegistry::new();
        registry.register(SimulatedSource::new("L", l, l_link));
        registry.register(SimulatedSource::new("R", r, r_link));

        let mut b = PlanBuilder::new();
        let ls = b.wrapper_scan("L");
        let rs = b.wrapper_scan("R");
        let (left_id, right_id) = (ls.id, rs.id);
        let mut j = match kind {
            JoinKind::DoublePipelined => b.dpj(ls, rs, "k", "k", overflow),
            other => b.join(other, ls, rs, "k", "k"),
        };
        if let Some(bytes) = budget {
            j = j.with_memory(bytes);
        }
        let join_id = j.id;
        let f = b.fragment(j, "out");
        let plan = b.build(f);
        let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(registry));
        JoinFixture {
            rt,
            plan,
            left_id,
            right_id,
            join_id,
            gold,
        }
    }

    /// Rebuild the runtime with a different operator batch size (1 =
    /// tuple-at-a-time), keeping plan and sources.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        let env = ExecEnv::new(self.rt.env().sources.clone()).with_batch_size(n);
        self.rt = PlanRuntime::for_plan(&self.plan, env);
        self
    }

    pub fn harness(&self, id: OpId) -> OpHarness {
        OpHarness::new(self.rt.clone(), SubjectRef::Op(id))
    }

    pub fn left_scan(&self) -> Box<WrapperScan> {
        Box::new(WrapperScan::new(
            "L".into(),
            None,
            None,
            self.harness(self.left_id),
        ))
    }

    pub fn right_scan(&self) -> Box<WrapperScan> {
        Box::new(WrapperScan::new(
            "R".into(),
            None,
            None,
            self.harness(self.right_id),
        ))
    }

    /// Assert a join result equals the gold standard as a bag.
    pub fn assert_gold(&self, out: Vec<tukwila_common::Tuple>) {
        let got = Relation::new(self.gold.schema().clone(), out).unwrap();
        assert!(
            got.bag_eq(&self.gold),
            "result mismatch: got {} tuples, want {}",
            got.len(),
            self.gold.len()
        );
    }
}

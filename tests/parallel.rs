//! Intra-query parallelism integration tests: the DAG fragment scheduler
//! and partitioned exchange pipelines must be pure parallelizations —
//! multiset-equal to sequential execution on real multi-join queries,
//! under spill pressure, and interruptible by deadlines and client
//! cancellation mid-parallel-run.

use std::time::{Duration, Instant};

use tukwila::core::execute_plan;
use tukwila::exec::ExecEnv;
use tukwila::plan::{JoinKind, PlanBuilder};
use tukwila::prelude::*;

const SF: f64 = 0.003;

fn config(threads: usize) -> OptimizerConfig {
    OptimizerConfig {
        max_parallelism: threads,
        // Low threshold so the small SF=0.003 joins actually partition.
        parallel_min_rows: 16,
        ..OptimizerConfig::default()
    }
}

/// Every pipeline policy, executed with a 4-thread budget and exchange
/// lowering enabled, must agree with the sequential gold result.
#[test]
fn parallel_execution_matches_gold_across_policies() {
    let tables = [
        TpchTable::Region,
        TpchTable::Nation,
        TpchTable::Supplier,
        TpchTable::Partsupp,
    ];
    let d = TpchDeployment::builder(SF, 5).tables(&tables).build();
    let q = d.query_for("q4", &tables);
    let gold = d.gold(&q).unwrap();
    for policy in [
        PipelinePolicy::FullyPipelined,
        PipelinePolicy::MaterializeEachJoin,
        PipelinePolicy::MaterializeAndReplan,
        PipelinePolicy::Adaptive,
    ] {
        let mut cfg = config(4);
        cfg.policy = policy;
        let sys = d.system_threads(cfg, 4);
        let result = sys.execute(&q).unwrap();
        assert!(
            result.relation.bag_eq_unordered(&gold),
            "{policy:?} under 4 threads diverged: got {} tuples, want {}",
            result.relation.len(),
            gold.len()
        );
    }
}

/// Parallel partitions under a starved memory budget spill per partition
/// and still produce the exact result; the partition counters surface in
/// the execution stats.
#[test]
fn parallel_spilling_is_exact_and_attributed() {
    let tables = [TpchTable::Nation, TpchTable::Supplier, TpchTable::Partsupp];
    let d = TpchDeployment::builder(0.01, 11).tables(&tables).build();
    let q = d.query_for("q-spill", &tables);
    let gold = d.gold(&q).unwrap();
    let mut cfg = config(4);
    cfg.policy = PipelinePolicy::FullyPipelined;
    cfg.join_memory_budget = 20_000; // far below the partsupp join's need
    cfg.estimate_driven_memory = false;
    let sys = d.system_threads(cfg, 4);
    let result = sys.execute(&q).unwrap();
    assert!(
        result.relation.bag_eq_unordered(&gold),
        "spilling parallel run diverged: got {} tuples, want {}",
        result.relation.len(),
        gold.len()
    );
    assert!(result.stats.partitions >= 2, "joins must have partitioned");
    assert!(
        result.stats.spill_tuples_written > 0,
        "a 20KB budget must force spilling"
    );
    assert!(
        result
            .stats
            .partition_spills
            .iter()
            .map(|e| e.total())
            .sum::<u64>()
            > 0,
        "spill must be attributed to partitions"
    );
}

/// Independent fragments overlap under the DAG scheduler: two slow-source
/// join fragments run concurrently, so the whole query takes roughly one
/// stall instead of two — the Layer-1 payoff measured by `par_speedup`.
#[test]
fn independent_fragments_overlap_and_cut_latency() {
    let paced = LinkModel {
        per_tuple: Duration::from_micros(400),
        ..LinkModel::instant()
    };
    let run = |threads: usize| {
        let reg = SourceRegistry::new();
        let mk = |name: &str, n: i64| {
            let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
            let mut r = Vec::new();
            for i in 0..n {
                r.push(Tuple::new(vec![Value::Int(i), Value::Int(i)]));
            }
            Relation::new(schema, r).unwrap()
        };
        for src in ["A", "B", "C", "D"] {
            reg.register(SimulatedSource::new(src, mk(src, 150), paced.clone()));
        }
        let mut b = PlanBuilder::new();
        let a = b.wrapper_scan("A");
        let bb = b.wrapper_scan("B");
        let j0 = b.join(JoinKind::DoublePipelined, a, bb, "k", "k");
        let f0 = b.fragment(j0, "mat0");
        let c = b.wrapper_scan("C");
        let dd = b.wrapper_scan("D");
        let j1 = b.join(JoinKind::DoublePipelined, c, dd, "k", "k");
        let f1 = b.fragment(j1, "mat1");
        let m0 = b.table_scan("mat0");
        let m1 = b.table_scan("mat1");
        let top = b.join(JoinKind::DoublePipelined, m0, m1, "A.k", "C.k");
        let f2 = b.fragment(top, "result");
        b.depends(f0, f2);
        b.depends(f1, f2);
        let plan = b.build(f2);
        let env = ExecEnv::new(reg).with_threads(threads);
        let start = Instant::now();
        let result = execute_plan(&plan, env).unwrap();
        (result.relation, result.stats, start.elapsed())
    };

    let (seq_rel, seq_stats, seq_time) = run(1);
    let (par_rel, par_stats, par_time) = run(4);
    assert!(seq_rel.bag_eq_unordered(&par_rel), "results diverged");
    assert_eq!(seq_stats.fragments_overlapped, 0);
    assert!(
        par_stats.fragments_overlapped >= 1,
        "independent fragments must have overlapped"
    );
    // Two ~60ms stalls overlapped into one; leave generous slack for a
    // noisy box but insist on a real cut.
    assert!(
        par_time.as_secs_f64() < seq_time.as_secs_f64() * 0.8,
        "parallel {par_time:?} should beat sequential {seq_time:?}"
    );
}

/// A deadline cancels a parallel multi-fragment run promptly and is
/// reported in the stats.
#[test]
fn deadline_cancels_parallel_fragments_promptly() {
    let stalling = LinkModel {
        stall_after: Some(5),
        stall_duration: Duration::from_secs(10),
        ..LinkModel::instant()
    };
    let tables = [TpchTable::Region, TpchTable::Nation, TpchTable::Supplier];
    let d = TpchDeployment::builder(SF, 29)
        .tables(&tables)
        .link(TpchTable::Supplier, stalling)
        .build();
    let q = d.query_for("q-deadline", &tables);
    let mut cfg = config(4);
    cfg.policy = PipelinePolicy::MaterializeEachJoin;
    let sys = d.system_threads(cfg, 4);
    let control = QueryControl::with_deadline(Duration::from_millis(100));
    let mut stats = tukwila::core::ExecutionStats::default();
    let started = Instant::now();
    let err = sys
        .execute_controlled(&q, &control, &mut stats)
        .unwrap_err();
    assert_eq!(err.kind(), "deadline_exceeded");
    assert!(stats.deadline_exceeded);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline must interrupt stalled parallel fragments promptly"
    );
}

/// A client cancel lands mid-run while parallel fragments are in flight.
#[test]
fn client_cancel_interrupts_parallel_run() {
    let stalling = LinkModel {
        stall_after: Some(5),
        stall_duration: Duration::from_secs(10),
        ..LinkModel::instant()
    };
    let tables = [TpchTable::Region, TpchTable::Nation, TpchTable::Supplier];
    let d = TpchDeployment::builder(SF, 37)
        .tables(&tables)
        .link(TpchTable::Nation, stalling)
        .build();
    let q = d.query_for("q-cancel", &tables);
    let mut cfg = config(4);
    cfg.policy = PipelinePolicy::MaterializeEachJoin;
    let sys = d.system_threads(cfg, 4);
    let control = QueryControl::unbounded();
    let canceller = {
        let control = control.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            control.cancel(CancelKind::User);
        })
    };
    let mut stats = tukwila::core::ExecutionStats::default();
    let started = Instant::now();
    let err = sys
        .execute_controlled(&q, &control, &mut stats)
        .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err.kind(), "cancelled");
    assert!(stats.cancelled);
    assert!(started.elapsed() < Duration::from_secs(5));
}

/// Rescheduling still works when the stalled fragment has concurrent
/// siblings: the transient stall is retried and the query recovers, while
/// the healthy fragments' work is never abandoned.
#[test]
fn transient_stall_recovers_under_parallel_scheduler() {
    let stalling = LinkModel {
        stall_after: Some(5),
        stall_duration: Duration::from_millis(300),
        ..LinkModel::instant()
    };
    let tables = [TpchTable::Region, TpchTable::Nation, TpchTable::Supplier];
    let d = TpchDeployment::builder(SF, 13)
        .tables(&tables)
        .link(TpchTable::Nation, stalling)
        .build();
    let q = d.query_for("q-stall", &tables);
    let gold = d.gold(&q).unwrap();
    let mut cfg = config(4);
    cfg.policy = PipelinePolicy::MaterializeEachJoin;
    cfg.source_timeout_ms = Some(50);
    cfg.reschedule_on_timeout = true;
    let mut sys = d.system_threads(cfg, 4);
    sys.max_fragment_retries = 5;
    let result = sys.execute(&q).unwrap();
    assert!(
        result.stats.reschedules >= 1,
        "the stalled fragment must have been rescheduled"
    );
    assert!(result.relation.bag_eq_unordered(&gold));
}

/// The output fragment emits rows, then its source stalls: a timeout rule
/// reschedules it and the retry completes. Under every thread budget the
/// answer is the gold one and the series is the completing attempt's, so
/// it never goes back in tuples or in time.
#[test]
fn rescheduled_output_fragment_keeps_the_completing_attempts_series() {
    // One supplier row per millisecond, then a 300 ms stall after five.
    // (Burst gaps, unlike per-tuple time, leave the optimizer's cost and so
    // its plan alone: supplier stays in the output fragment.)
    let stalling = LinkModel {
        burst_size: 1,
        burst_gap: Duration::from_millis(1),
        stall_after: Some(5),
        stall_duration: Duration::from_millis(300),
        ..LinkModel::instant()
    };
    let tables = [TpchTable::Region, TpchTable::Nation, TpchTable::Supplier];
    let d = TpchDeployment::builder(SF, 13)
        .tables(&tables)
        .link(TpchTable::Supplier, stalling)
        .build();
    let q = d.query_for("q-stall-output", &tables);
    let gold = d.gold(&q).unwrap();
    for threads in [1, 4] {
        let mut cfg = config(threads);
        cfg.policy = PipelinePolicy::MaterializeEachJoin;
        cfg.source_timeout_ms = Some(50);
        cfg.reschedule_on_timeout = true;
        let mut sys = d.system_threads(cfg, threads);
        sys.max_fragment_retries = 5;
        let result = sys.execute(&q).unwrap();
        assert!(
            result.relation.bag_eq_unordered(&gold),
            "threads {threads}: wrong answer"
        );
        assert!(
            result.stats.reschedules >= 1,
            "threads {threads}: the stalled output fragment must have been rescheduled"
        );
        if threads == 1 {
            assert_eq!(result.stats.fragments_overlapped, 0);
        }
        assert!(!result.series.is_empty());
        for w in result.series.windows(2) {
            assert!(
                w[0].0 <= w[1].0 && w[0].1 <= w[1].1,
                "threads {threads}: series goes back from {:?} to {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Every join kind agrees between sequential and parallel execution, and
/// both with the reference join (`Relation::nested_join`).
#[test]
fn all_join_kinds_parallel_equals_sequential() {
    use std::collections::HashMap;
    use tukwila::exec::{drain, PlanRuntime};

    let mk = |name: &str, n: i64, nulls: bool| {
        let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
        let mut r = Vec::new();
        for i in 0..n {
            let k = if nulls && i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 15)
            };
            r.push(Tuple::new(vec![k, Value::Int(i)]));
        }
        Relation::new(schema, r).unwrap()
    };
    let l = mk("l", 180, true);
    let r = mk("r", 150, true);
    let multiset = |ts: &[Tuple]| {
        let mut m: HashMap<Tuple, usize> = HashMap::new();
        for t in ts {
            *m.entry(t.clone()).or_insert(0) += 1;
        }
        m
    };

    let gold = multiset(&l.nested_join(&r, 0, 0).to_rows());
    for kind in [
        JoinKind::DoublePipelined,
        JoinKind::HybridHash,
        JoinKind::GraceHash,
    ] {
        let run = |partitions: Option<usize>| {
            let reg = SourceRegistry::new();
            reg.register(SimulatedSource::new("L", l.clone(), LinkModel::instant()));
            reg.register(SimulatedSource::new("R", r.clone(), LinkModel::instant()));
            let mut b = PlanBuilder::new();
            let ls = b.wrapper_scan("L");
            let rs = b.wrapper_scan("R");
            let j = b.join(kind, ls, rs, "k", "k");
            let root = match partitions {
                Some(n) => b.exchange(j, n),
                None => j,
            };
            let f = b.fragment(root, "out");
            let plan = b.build(f);
            let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(reg));
            let mut op = tukwila::exec::build_operator(&plan.fragments[0].root, &rt).unwrap();
            drain(op.as_mut()).unwrap()
        };
        let sequential = run(None);
        let parallel = run(Some(4));
        assert_eq!(
            multiset(&sequential),
            gold,
            "{kind:?}: sequential diverged from the reference"
        );
        assert_eq!(
            multiset(&parallel),
            gold,
            "{kind:?}: parallel diverged from the reference"
        );
    }
}

//! Measurement harness for the static-analyzer overhead numbers quoted in
//! EXPERIMENTS.md ("Static analyzer overhead"). Prints timings, asserts
//! nothing — run with
//!
//! ```text
//! cargo test -p tukwila-opt --release --test analyze_overhead -- --nocapture
//! ```
//!
//! Two measurements:
//!
//! 1. Optimizer chain queries (6/8/10 relations, exact stats): full
//!    `Optimizer::plan` time (which *includes* the in-lowering analysis)
//!    vs. standalone `Analyzer::analyze` time on the lowered plan.
//! 2. Three hand-built plan shapes (a 3-way DPJ pipeline, a spilling DPJ,
//!    and a fragment DAG under an exchange): standalone analysis time per
//!    plan — the cost `plan-lint` pays per fixture.

use std::time::Instant;
use tukwila_analyze::Analyzer;
use tukwila_catalog::{AccessCost, Catalog, SourceDesc, TableStats};
use tukwila_common::{DataType, Schema};
use tukwila_opt::{Optimizer, OptimizerConfig, PipelinePolicy};
use tukwila_plan::{JoinKind, OverflowMethod, PlanBuilder, QueryPlan};
use tukwila_query::{ConjunctiveQuery, MediatedSchema, Reformulator};

fn chain(n: usize) -> (Catalog, tukwila_query::ReformulatedQuery) {
    let mut m = MediatedSchema::new();
    let mut cat = Catalog::new();
    let rels: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
    for (i, r) in rels.iter().enumerate() {
        let schema = Schema::of(r, &[("x", DataType::Int), ("y", DataType::Int)]);
        m.add_relation(r, schema.clone());
        let d = SourceDesc::new(format!("src_{r}"), r, schema)
            .with_cost(AccessCost::new(5.0, 0.01))
            .with_stats(TableStats::new(10_000 + i * 1000, 16));
        cat.add_source(d);
    }
    let mut q = ConjunctiveQuery::new("q", rels.clone());
    for w in rels.windows(2) {
        cat.set_join_selectivity(&format!("{}.y", w[0]), &format!("{}.x", w[1]), 0.001);
        q = q.join(&format!("{}.y", w[0]), &format!("{}.x", w[1]));
    }
    let rq = Reformulator::new(m).reformulate(&q, &cat).unwrap();
    (cat, rq)
}

/// A 3-way double-pipelined join pipeline.
fn dpj3_plan() -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let a = pb.wrapper_scan("A");
    let b = pb.wrapper_scan("B");
    let c = pb.wrapper_scan("C");
    let j1 = pb.join(JoinKind::DoublePipelined, a, b, "k", "k");
    let top = pb.join(JoinKind::DoublePipelined, j1, c, "a.k", "k");
    let f = pb.fragment(top, "result");
    pb.build(f)
}

/// A double-pipelined join under a budget that forces overflow.
fn spill_plan() -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let l = pb.wrapper_scan("L");
    let r = pb.wrapper_scan("R");
    let j = pb
        .dpj(l, r, "k", "k", OverflowMethod::IncrementalSymmetricFlush)
        .with_memory(8_000);
    let f = pb.fragment(j, "result");
    pb.build(f)
}

/// A fragment DAG at 4 threads: two leaf join fragments feeding an
/// exchange-partitioned top join.
fn par_plan() -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let a = pb.wrapper_scan("A");
    let b = pb.wrapper_scan("B");
    let j0 = pb.join(JoinKind::DoublePipelined, a, b, "k", "k");
    let f0 = pb.fragment(j0, "mat0");
    let c = pb.wrapper_scan("C");
    let d = pb.wrapper_scan("D");
    let j1 = pb.join(JoinKind::DoublePipelined, c, d, "k", "k");
    let f1 = pb.fragment(j1, "mat1");
    let m0 = pb.table_scan("mat0");
    let m1 = pb.table_scan("mat1");
    let top = pb.join(JoinKind::DoublePipelined, m0, m1, "A.k", "C.k");
    let root = pb.exchange(top, 4);
    let f2 = pb.fragment(root, "result");
    pb.depends(f0, f2);
    pb.depends(f1, f2);
    pb.build(f2)
}

#[test]
fn measure() {
    let n = 200u32;
    for rels in [6usize, 8, 10] {
        let (cat, rq) = chain(rels);
        let config = OptimizerConfig {
            policy: PipelinePolicy::Adaptive,
            max_parallelism: 4,
            ..OptimizerConfig::default()
        };
        for _ in 0..3 {
            Optimizer::new(cat.clone(), config.clone())
                .plan(&rq)
                .unwrap();
        }
        let t0 = Instant::now();
        let mut pq = None;
        for _ in 0..n {
            pq = Some(
                Optimizer::new(cat.clone(), config.clone())
                    .plan(&rq)
                    .unwrap(),
            );
        }
        let opt_time = t0.elapsed();
        let plan = &pq.unwrap().lowered.plan;
        let analyzer = Analyzer::new().with_catalog(&cat).with_max_parallelism(4);
        let t1 = Instant::now();
        for _ in 0..n {
            let _ = analyzer.analyze(plan);
        }
        let an_time = t1.elapsed();
        println!(
            "chain{rels}: optimize {:?}/iter  analyze {:?}/iter  analyze share {:.1}%",
            opt_time / n,
            an_time / n,
            100.0 * an_time.as_secs_f64() / opt_time.as_secs_f64(),
        );
    }
    let analyzer = Analyzer::new().with_max_parallelism(4);
    for (name, plan) in [
        ("dpj3_join", dpj3_plan()),
        ("dpj_spill", spill_plan()),
        ("par_speedup", par_plan()),
    ] {
        for _ in 0..3 {
            let _ = analyzer.analyze(&plan);
        }
        let m = 1000u32;
        let t = Instant::now();
        for _ in 0..m {
            let _ = analyzer.analyze(&plan);
        }
        println!("{name}: analyze {:?}/iter", t.elapsed() / m);
    }
}

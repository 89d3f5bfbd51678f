//! `query-profile`: run one query with tracing on and export its trace.
//!
//! By default runs a built-in Figure-3-style scenario — a 3-way double
//! pipelined join over simulated sources with an initial delay and bursty
//! delivery, so the timeline shows first-tuple latency, bursts, and
//! fragment scheduling — and prints the human-readable timeline plus the
//! per-operator metrics table. Pass `--plan FILE` to profile a plan-text
//! file instead (sources referenced by the plan are synthesized as
//! instant `(k, v)` relations).
//!
//! ```text
//! query-profile [--plan FILE] [--json | --csv] [--level off|events|metrics]
//! ```
//!
//! * `--json` — print the [`tukwila_trace::TraceSnapshot::to_json`] document (and nothing
//!   else) to stdout, for machine consumption / CI validation;
//! * `--csv`  — print the events CSV, a blank line, then the operator CSV;
//! * `--level` — trace level to run at (default `metrics`).
//!
//! Exit status: 0 on success, 1 when execution fails, 2 on usage errors.

use std::process::ExitCode;
use std::time::Duration;

use tukwila_common::{tuple, DataType, Relation, Schema};
use tukwila_core::execute_plan_traced;
use tukwila_exec::ExecEnv;
use tukwila_plan::{parse_plan, JoinKind, OperatorSpec, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};
use tukwila_trace::TraceLevel;

/// `n` tuples `(i % dup, i)` under schema `name(k, v)`.
fn keyed(name: &str, n: i64, dup: i64) -> Relation {
    let schema = Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut r = Relation::empty(schema);
    for i in 0..n {
        r.push(tuple![i % dup.max(1), i]);
    }
    r
}

/// The built-in scenario: two delayed/bursty sources joined pipelined,
/// then joined against a small instant dimension source.
fn builtin() -> (QueryPlan, SourceRegistry) {
    let delayed = LinkModel {
        initial_delay: Duration::from_millis(30),
        burst_size: 500,
        burst_gap: Duration::from_millis(2),
        ..LinkModel::instant()
    };
    let reg = SourceRegistry::new();
    reg.register(SimulatedSource::new(
        "A",
        keyed("a", 4_000, 200),
        delayed.clone(),
    ));
    reg.register(SimulatedSource::new("B", keyed("b", 2_000, 200), delayed));
    reg.register(SimulatedSource::new(
        "C",
        keyed("c", 400, 200),
        LinkModel::instant(),
    ));
    let mut pb = PlanBuilder::new();
    let a = pb.wrapper_scan("A");
    let b = pb.wrapper_scan("B");
    let c = pb.wrapper_scan("C");
    let j1 = pb.join(JoinKind::DoublePipelined, a, b, "k", "k");
    let top = pb.join(JoinKind::DoublePipelined, j1, c, "a.k", "k");
    let f = pb.fragment(top, "result");
    (pb.build(f), reg)
}

/// Every source name a plan fetches from (wrapper scans, dependent joins,
/// collector children).
fn plan_sources(plan: &QueryPlan) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let seen = |names: &mut Vec<String>, s: &str| {
        if !names.iter().any(|n| n == s) {
            names.push(s.to_string());
        }
    };
    for frag in &plan.fragments {
        frag.root.walk(&mut |node| match &node.spec {
            OperatorSpec::WrapperScan { source, .. } => seen(&mut names, source),
            OperatorSpec::DependentJoin { source, .. } => seen(&mut names, source),
            OperatorSpec::Collector { children, .. } => {
                for c in children {
                    seen(&mut names, &c.source);
                }
            }
            _ => {}
        });
    }
    names
}

fn usage() -> ExitCode {
    eprintln!("usage: query-profile [--plan FILE] [--json | --csv] [--level off|events|metrics]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut plan_file: Option<String> = None;
    let mut json = false;
    let mut csv = false;
    let mut level = TraceLevel::Metrics;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--plan" => match args.next() {
                Some(f) => plan_file = Some(f),
                None => return usage(),
            },
            "--json" => json = true,
            "--csv" => csv = true,
            "--level" => match args.next().as_deref().and_then(TraceLevel::parse) {
                Some(l) => level = l,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if json && csv {
        return usage();
    }

    let (plan, reg) = match &plan_file {
        Some(file) => {
            let text = match std::fs::read_to_string(file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("query-profile: {file}: {e}");
                    return ExitCode::from(2);
                }
            };
            let plan = match parse_plan(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("query-profile: {file}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Synthesize an instant source for every name the plan
            // fetches; the schema qualifier is the lowercased source name
            // so qualified key references like `a.k` resolve.
            let reg = SourceRegistry::new();
            for name in plan_sources(&plan) {
                reg.register(SimulatedSource::new(
                    &name,
                    keyed(&name.to_lowercase(), 2_000, 50),
                    LinkModel::instant(),
                ));
            }
            (plan, reg)
        }
        None => builtin(),
    };

    let env = ExecEnv::new(reg).with_trace_level(level);
    let start = std::time::Instant::now();
    let (rel, _stats, trace) = match execute_plan_traced(&plan, env) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query-profile: execution failed: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "query-profile: {} rows in {:.3} ms (level {})",
        rel.len(),
        start.elapsed().as_secs_f64() * 1e3,
        level.as_str()
    );
    let Some(trace) = trace else {
        // Off: nothing recorded; the run itself is the measurement.
        return ExitCode::SUCCESS;
    };
    if json {
        println!("{}", trace.to_json());
    } else if csv {
        println!("{}", trace.events_csv());
        println!("{}", trace.ops_csv());
    } else {
        print!("{}", trace.render_timeline());
    }
    ExitCode::SUCCESS
}

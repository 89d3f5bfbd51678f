//! No feeder thread outlives its operator.
//!
//! One test in its own binary, so no other test's threads are alive in the
//! process: after each case, `/proc/self/task/*/comm` must list no thread
//! whose name carries the feeder prefix. Every case runs for the double
//! pipelined join, the dynamic collector and the in-process exchange. A
//! build-first (hybrid) join, which pulls its inputs inline, starts no
//! thread at all.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use tukwila_common::{DataType, Relation, Result, Schema, Tuple, Value};
use tukwila_exec::feeder::THREAD_PREFIX;
use tukwila_exec::runtime::{ExecEnv, PlanRuntime};
use tukwila_exec::{build_operator, Operator};
use tukwila_plan::{JoinKind, OverflowMethod, PlanBuilder, QueryPlan};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Dpj,
    Collector,
    Exchange,
    Hybrid,
}

/// Names of this process's live feeder threads.
fn feeder_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|name| name.starts_with(THREAD_PREFIX))
        .collect()
}

/// The feeder threads once `/proc` agrees with `none` (or 50 ms have
/// passed): a joined thread can stay listed for a moment while the kernel
/// reaps it, and one exiting during the listing can hide another.
fn settled_feeder_threads(none: bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_millis(50);
    loop {
        let names = feeder_threads();
        if names.is_empty() == none || Instant::now() > deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn registry() -> SourceRegistry {
    let schema = Schema::of("t", &[("k", DataType::Int), ("v", DataType::Int)]);
    let mut rel = Relation::empty(schema);
    for i in 0..200 {
        rel.push(Tuple::new(vec![Value::Int(i % 10), Value::Int(i)]));
    }
    let reg = SourceRegistry::new();
    for (name, link) in [
        ("fast", LinkModel::instant()),
        ("stalled", LinkModel::stalling(5)),
        ("failing", LinkModel::failing(10)),
        ("down", LinkModel::down()),
    ] {
        reg.register(SimulatedSource::new(name, rel.clone(), link));
    }
    reg // "ghost" is not registered: a scan of it fails at open
}

/// `shape` over sources `left` and `right`.
fn plan(shape: Shape, left: &str, right: &str) -> QueryPlan {
    let mut b = PlanBuilder::new();
    let root = match shape {
        Shape::Collector => (b.collector(&[(left, true), (right, true)], None)).0,
        Shape::Hybrid => {
            let (l, r) = (b.wrapper_scan(left), b.wrapper_scan(right));
            b.join(JoinKind::HybridHash, l, r, "k", "k")
        }
        Shape::Dpj | Shape::Exchange => {
            let (l, r) = (b.wrapper_scan(left), b.wrapper_scan(right));
            let join = b.dpj(l, r, "k", "k", OverflowMethod::IncrementalSymmetricFlush);
            match shape {
                Shape::Exchange => b.exchange(join, 3),
                _ => join,
            }
        }
    };
    let f = b.fragment(root, "out");
    b.build(f)
}

/// Open, pull to the end or the first error, close — as a fragment does.
fn run_to_end(op: &mut dyn Operator) -> Result<()> {
    let pulled = op.open().and_then(|()| {
        while op.next_batch()?.is_some() {}
        Ok(())
    });
    op.close()?;
    pulled
}

/// Open, take one batch while the sources still stream (or stall), close.
fn close_early(op: &mut dyn Operator) {
    op.open().expect("open");
    assert!(op.next_batch().expect("first batch").is_some());
    assert!(
        !settled_feeder_threads(false).is_empty(),
        "feeders run while open"
    );
    op.close().expect("close");
}

fn case(shape: Shape, what: &str, left: &str, right: &str, reg: &SourceRegistry) {
    let plan = plan(shape, left, right);
    let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(reg.clone()));
    let mut op = build_operator(&plan.fragments[0].root, &rt).expect("build");
    match what {
        "full drain" => run_to_end(op.as_mut()).expect("drain"),
        "close without drain" => close_early(op.as_mut()),
        "child error mid-stream" => {
            let result = run_to_end(op.as_mut());
            // A collector outlives a failed child: the policy decides.
            if shape == Shape::Collector {
                result.expect("collector over a failing child");
            } else {
                assert_eq!(result.expect_err("error").kind(), "source_unavailable");
            }
        }
        "one side fails at open, the other stalls" => match shape {
            // A collector child's source is contacted at its first pull.
            Shape::Collector => close_early(op.as_mut()),
            _ => {
                let err = run_to_end(op.as_mut()).expect_err("open fails");
                assert_eq!(err.kind(), "source_unavailable");
            }
        },
        other => unreachable!("{other}"),
    }
    drop(op);
    assert_eq!(
        settled_feeder_threads(true),
        Vec::<String>::new(),
        "{shape:?}, {what}: feeder threads outlived the operator"
    );
}

/// The number of this process's threads.
fn thread_count() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    tasks.count()
}

/// A build-first join, opened, drained and closed, never raises the
/// process's thread count.
fn build_first_starts_no_thread(reg: &SourceRegistry) {
    let plan = plan(Shape::Hybrid, "fast", "fast");
    let rt = PlanRuntime::for_plan(&plan, ExecEnv::new(reg.clone()));
    let mut op = build_operator(&plan.fragments[0].root, &rt).expect("build");
    let before = thread_count();
    let mut most = before;
    op.open().expect("open");
    while op.next_batch().expect("next batch").is_some() {
        most = most.max(thread_count());
    }
    op.close().expect("close");
    most = most.max(thread_count());
    assert_eq!(most, before, "a build-first join started a thread");
}

#[test]
fn no_feeder_thread_outlives_its_operator() {
    // Fail rather than hang if a close cannot stop a stalled feeder.
    let body = std::thread::spawn(|| {
        let reg = registry();
        for shape in [Shape::Dpj, Shape::Collector, Shape::Exchange] {
            case(shape, "full drain", "fast", "fast", &reg);
            case(shape, "close without drain", "stalled", "stalled", &reg);
            // A collector does not end while a child stalls, nor does it
            // fail when one child does; a join does both.
            let (other, failing_open) = match shape {
                Shape::Collector => ("fast", "down"),
                _ => ("stalled", "ghost"),
            };
            case(shape, "child error mid-stream", "failing", other, &reg);
            let what = "one side fails at open, the other stalls";
            case(shape, what, failing_open, "stalled", &reg);
        }
        build_first_starts_no_thread(&reg);
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while !body.is_finished() {
        assert!(Instant::now() < deadline, "a case did not finish in 60 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    body.join().expect("a case failed");
}

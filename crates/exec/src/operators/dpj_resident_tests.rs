//! The columnar-resident hash join through overflow, beyond its answers
//! (which `tests/oracle.rs` checks against the one reference): typed
//! errors, what is charged, what is copied, and — in one pinned run with a
//! fully ordered arrival — every spill counter and the peak against fixed
//! numbers.
//!
//! Inputs are scripted batches ([`crate::testing::Scripted`]) rather than
//! sources, so a test chooses the key type, the batch size and who arrives
//! first.

use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{DataType, Relation, Schema, Tuple, TupleBatch, Value};
use tukwila_plan::{JoinKind, OverflowMethod, SubjectRef};
use tukwila_source::LinkModel;
use tukwila_trace::TraceLevel;

use crate::operator::{drain, Operator};
use crate::operators::HashJoin;
use crate::runtime::{ExecEnv, PlanRuntime};
use crate::test_support::JoinFixture;
use crate::testing::{ordered_arrival, Pace, Scripted};

#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Int,
    Str,
}

/// `n` rows `(key(i % distinct), i, "payload-i")`; with `nulls`, every
/// fifth key is NULL.
fn keyed(name: &str, kind: KeyKind, n: i64, distinct: i64, nulls: bool) -> Relation {
    let key_type = match kind {
        KeyKind::Int => DataType::Int,
        KeyKind::Str => DataType::Str,
    };
    let schema = Schema::of(
        name,
        &[("k", key_type), ("v", DataType::Int), ("s", DataType::Str)],
    );
    let mut r = Vec::new();
    for i in 0..n {
        let k = i % distinct;
        let key = if nulls && i % 5 == 0 {
            Value::Null
        } else {
            match kind {
                KeyKind::Int => Value::Int(k),
                KeyKind::Str => Value::str(format!("key-{k}")),
            }
        };
        r.push(Tuple::new(vec![
            key,
            Value::Int(i),
            Value::str(format!("payload-{i}")),
        ]));
    }
    Relation::new(schema, r).unwrap()
}

/// A DPJ over two scripted inputs, registered in a one-join plan so the
/// harness, the reservation and the overflow method are the real ones.
struct Run {
    fx: JoinFixture,
    join: HashJoin,
}

fn run_of(
    l: &Relation,
    r: &Relation,
    method: OverflowMethod,
    budget: Option<usize>,
    batch_size: usize,
    trace: TraceLevel,
    inputs: impl FnOnce(&JoinFixture) -> [Scripted; 2],
) -> Run {
    let mut fx = JoinFixture::build(
        l.clone(),
        r.clone(),
        LinkModel::instant(),
        LinkModel::instant(),
        JoinKind::DoublePipelined,
        method,
        budget,
    );
    let env = ExecEnv::new(fx.rt.env().sources.clone())
        .with_batch_size(batch_size)
        .with_trace_level(trace);
    fx.rt = PlanRuntime::for_plan(&fx.plan, env);
    let [left, right] = inputs(&fx);
    let join = HashJoin::new(
        JoinKind::DoublePipelined,
        Box::new(left),
        Box::new(right),
        "k".into(),
        "k".into(),
        fx.harness(fx.join_id),
    )
    .with_buckets(8)
    .with_descendants(vec![
        SubjectRef::Op(fx.left_id),
        SubjectRef::Op(fx.right_id),
    ]);
    Run { fx, join }
}

/// A block of NULLs only is a typed column with a clear validity bitmap,
/// so it joins like any other block; a block whose column holds another
/// type than the earlier blocks' is a typed `Schema` error, and closing
/// the join returns every charged byte.
#[test]
fn a_block_of_another_column_type_is_a_typed_error() {
    let schema = |name| Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let row = |k: i64, v: Value| Tuple::new(vec![Value::Int(k), v]);
    let l_rows: Vec<Tuple> = (0..6)
        .map(|i| row(i % 3, if i < 3 { Value::Int(i) } else { Value::Null }))
        .collect();
    let l = Relation::new(schema("l"), l_rows).unwrap();
    let r = Relation::new(schema("r"), (0..3).map(|i| row(i, Value::Int(i))).collect()).unwrap();
    for strings in [false, true] {
        let mut run = run_of(
            &l,
            &r,
            OverflowMethod::IncrementalLeftFlush,
            Some(1 << 20),
            3,
            TraceLevel::Off,
            |_| {
                [(&l, Duration::ZERO), (&r, Duration::from_millis(5))].map(|(rel, wait)| {
                    let mut script = Scripted::new(rel, 3, Pace::After(wait));
                    if strings && rel.schema() == l.schema() {
                        let rows = [row(0, Value::str("x")), row(1, Value::Null)];
                        script.batches[1] = tukwila_common::testing::batch(&rows);
                    }
                    script
                })
            },
        );
        let out = drain(&mut run.join);
        if strings {
            let err = out.unwrap_err();
            assert_eq!(err.kind(), "schema", "{err}");
            run.join.close().expect("close after a failed pull");
        } else {
            let out = out.unwrap();
            assert_eq!(out.len(), 6);
            run.fx.assert_gold(out);
        }
        assert_eq!(run.fx.rt.env().memory.total_used(), 0);
    }
}

/// A spill store that cannot create a bucket (its directory was removed
/// under it) fails the overflowing query with a typed `Io` error — no
/// panic, no hang — and closing the join returns every charged byte.
#[test]
fn spill_bucket_creation_failure_is_a_typed_error() {
    use tukwila_storage::FileSpillStore;
    let l = keyed("l", KeyKind::Str, 200, 20, false);
    let r = keyed("r", KeyKind::Str, 200, 20, false);
    let mut fx = JoinFixture::build(
        l.clone(),
        r.clone(),
        LinkModel::instant(),
        LinkModel::instant(),
        JoinKind::DoublePipelined,
        OverflowMethod::IncrementalSymmetricFlush,
        Some((l.mem_size() + r.mem_size()) / 4),
    );
    let spill = FileSpillStore::new().unwrap();
    std::fs::remove_dir_all(spill.dir()).unwrap();
    let env = ExecEnv::new(fx.rt.env().sources.clone())
        .with_batch_size(16)
        .with_spill(Arc::new(spill));
    fx.rt = PlanRuntime::for_plan(&fx.plan, env);
    let mut join = HashJoin::new(
        JoinKind::DoublePipelined,
        Box::new(Scripted::new(&l, 16, Pace::After(Duration::ZERO))),
        Box::new(Scripted::new(&r, 16, Pace::After(Duration::ZERO))),
        "k".into(),
        "k".into(),
        fx.harness(fx.join_id),
    );
    let err = drain(&mut join).expect_err("the overflow cannot spill");
    assert_eq!(err.kind(), "io", "{err}");
    join.close().unwrap();
    assert_eq!(fx.rt.env().memory.total_used(), 0);
}

/// With the opposite input complete nothing is stored or charged
/// (footnote 3): the right input ends, empty, before the left starts.
#[test]
fn nothing_is_charged_once_the_opposite_input_is_complete() {
    let l = keyed("l", KeyKind::Str, 200, 7, true);
    let r = keyed("r", KeyKind::Str, 0, 1, false);
    let mut run = run_of(
        &l,
        &r,
        OverflowMethod::IncrementalLeftFlush,
        Some(1 << 20),
        16,
        TraceLevel::Off,
        |_| {
            [(&l, Duration::from_millis(20)), (&r, Duration::ZERO)]
                .map(|(rel, wait)| Scripted::new(rel, 16, Pace::After(wait)))
        },
    );
    assert!(drain(&mut run.join).unwrap().is_empty());
    assert_eq!(run.fx.rt.env().memory.peak_used(), 0);
}

/// The joins the pinned-counter run covers.
#[derive(Clone, Copy, Debug)]
enum Pinned {
    Dpj(OverflowMethod),
    Hybrid,
    Grace,
}

/// Everything the paper's overflow analysis counts for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counters {
    tuple_io: usize,
    written: usize,
    read: usize,
    bytes_written: usize,
    bytes_read: usize,
    flushes: usize,
    peak: usize,
}

/// Pinned data (keys from a seed-23 LCG, every 40th NULL), 7-row batches
/// in a fully ordered arrival, run under every overflow strategy and both
/// hash joins, through the in-memory and the file spill store: every spill
/// counter and the governor's peak are the absolute constants below. The
/// DPJ sees l0 r0 l1 r1 … with both ends last; under Left Flush, whose
/// pause would stall an interleaved script, half the left comes first,
/// then the whole right input (overflowing, so the left is paused before
/// the right ends), then the rest of the left. The last row is a budget
/// that never overflows, where the peak is every charge made (NULL keys
/// are never charged).
#[test]
fn spill_counters_are_pinned() {
    use tukwila_storage::{FileSpillStore, InMemorySpillStore, SpillStore};
    let mut state = 23u64;
    let mut next_key = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 40
    };
    let schema = |name| {
        Schema::of(
            name,
            &[
                ("k", DataType::Int),
                ("v", DataType::Int),
                ("s", DataType::Str),
            ],
        )
    };
    let mut rows = |n: i64| -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let k = next_key() as i64;
                Tuple::new(vec![
                    if k == 0 { Value::Null } else { Value::Int(k) },
                    Value::Int(i),
                    Value::str(format!("row-{i}-of-key-{k}")),
                ])
            })
            .collect()
    };
    let l = Relation::new(schema("l"), rows(400)).unwrap();
    let r = Relation::new(schema("r"), rows(300)).unwrap();
    let tight = (l.mem_size() + r.mem_size()) / 3;
    // Room for the whole right input but not for it beside half the left.
    let right_fits = (l.mem_size() + r.mem_size()) * 2 / 3;
    let batch = 7usize;
    let sizes = |rel: &Relation| -> Vec<u64> {
        rel.to_rows()
            .chunks(batch)
            .map(|c| c.len() as u64)
            .collect()
    };
    let (ls, rs) = (sizes(&l), sizes(&r));

    let measure = |join: Pinned, budget: usize, file: bool| -> Counters {
        let (kind, method) = match join {
            Pinned::Dpj(m) => (JoinKind::DoublePipelined, m),
            Pinned::Hybrid => (JoinKind::HybridHash, OverflowMethod::IncrementalLeftFlush),
            Pinned::Grace => (JoinKind::GraceHash, OverflowMethod::IncrementalLeftFlush),
        };
        let mut fx = JoinFixture::build(
            l.clone(),
            r.clone(),
            LinkModel::instant(),
            LinkModel::instant(),
            kind,
            method,
            Some(budget),
        );
        let spill: Arc<dyn SpillStore> = if file {
            Arc::new(FileSpillStore::new().unwrap())
        } else {
            Arc::new(InMemorySpillStore::new())
        };
        let env = ExecEnv::new(fx.rt.env().sources.clone())
            .with_batch_size(batch)
            .with_trace_level(TraceLevel::Metrics)
            .with_spill(spill);
        fx.rt = PlanRuntime::for_plan(&fx.plan, env);
        let script = |rel: &Relation, pace| Scripted::new(rel, batch, pace);
        // The double pipelined join sees the ordered arrival; the build-first
        // joins drain the right input, then the left.
        let [pace_l, pace_r] = match join {
            Pinned::Dpj(method) => {
                let received = fx
                    .harness(fx.join_id)
                    .metrics("dpj")
                    .expect("metrics are on");
                let left_flush = method == OverflowMethod::IncrementalLeftFlush;
                let [at_l, at_r] = ordered_arrival(&ls, &rs, left_flush.then_some(ls.len() / 2));
                [
                    Pace::Ordered(received.clone(), at_l),
                    Pace::Ordered(received, at_r),
                ]
            }
            Pinned::Hybrid | Pinned::Grace => {
                [Pace::After(Duration::ZERO), Pace::After(Duration::ZERO)]
            }
        };
        let mut op = HashJoin::new(
            kind,
            Box::new(script(&l, pace_l)),
            Box::new(script(&r, pace_r)),
            "k".into(),
            "k".into(),
            fx.harness(fx.join_id),
        )
        .with_buckets(8);
        let out = drain(&mut op).unwrap();
        fx.assert_gold(out);
        let env = fx.rt.env();
        assert_eq!(env.memory.total_used(), 0);
        let io = env.spill.stats();
        Counters {
            tuple_io: io.total_tuple_io(),
            written: io.tuples_written(),
            read: io.tuples_read(),
            bytes_written: io.bytes_written(),
            bytes_read: io.bytes_read(),
            flushes: io.flush_events(),
            peak: env.memory.peak_used(),
        }
    };
    let pinned = |tuple_io, written, read, bytes_written, bytes_read, flushes, peak| Counters {
        tuple_io,
        written,
        read,
        bytes_written,
        bytes_read,
        flushes,
        peak,
    };
    let cases = [
        (
            Pinned::Dpj(OverflowMethod::IncrementalLeftFlush),
            right_fits,
            pinned(144, 72, 72, 9_241, 9_241, 1, 60_040),
        ),
        (
            Pinned::Dpj(OverflowMethod::IncrementalSymmetricFlush),
            tight,
            pinned(902, 451, 451, 57_891, 57_891, 8, 30_084),
        ),
        (
            Pinned::Dpj(OverflowMethod::FlushAllLeft),
            tight,
            pinned(886, 443, 443, 56_915, 56_915, 9, 30_042),
        ),
        (
            Pinned::Hybrid,
            tight,
            pinned(258, 129, 129, 16_560, 16_560, 1, 30_022),
        ),
        // Grace partitions before the first row: nothing is ever charged.
        (
            Pinned::Grace,
            tight,
            pinned(1_350, 675, 675, 86_695, 86_695, 8, 0),
        ),
        (
            Pinned::Dpj(OverflowMethod::IncrementalSymmetricFlush),
            1 << 24,
            pinned(0, 0, 0, 0, 0, 0, 86_695),
        ),
    ];
    let mut wrong = Vec::new();
    for (join, budget, want) in cases {
        for file in [false, true] {
            let got = measure(join, budget, file);
            if got != want {
                wrong.push(format!(
                    "{join:?}, budget {budget}, file store {file}:\n  got  {got:?}\n  want {want:?}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// Inputs whose batches each bring their own strings (what another join,
/// a builder or the wire hands over), a consumer that keeps every output
/// batch in columnar form: the stored sides grow and the outputs reference
/// them, yet no string is copied — with everything alive each input string
/// has the holders it had before the join ran — so the work an arriving
/// batch causes does not depend on how much is already stored.
#[test]
fn held_outputs_of_own_segment_inputs_copy_no_strings() {
    let n = 4_000i64;
    let l = keyed("l", KeyKind::Int, n, n, false);
    let r = keyed("r", KeyKind::Int, n, n, false);
    let strings = |rel: &Relation| -> Vec<Arc<str>> {
        rel.to_rows()
            .iter()
            .map(|t| match t.value(2) {
                Value::Str(s) => s.clone(),
                other => panic!("payload column holds strings, got {other:?}"),
            })
            .collect()
    };
    let inputs = [strings(&l), strings(&r)].concat();
    let holders = || -> Vec<usize> { inputs.iter().map(Arc::strong_count).collect() };
    let mut run = run_of(
        &l,
        &r,
        OverflowMethod::IncrementalLeftFlush,
        None,
        64,
        TraceLevel::Off,
        |_| [&l, &r].map(|rel| Scripted::new(rel, 64, Pace::After(Duration::ZERO))),
    );
    // The scripted batches hold each string once more, in their own segment.
    let staged: Vec<usize> = holders();
    run.join.open().unwrap();
    let mut held = Vec::new();
    while let Some(batch) = run.join.next_batch().unwrap() {
        held.push(batch);
    }
    assert_eq!(held.iter().map(TupleBatch::len).sum::<usize>(), n as usize);
    assert_eq!(
        holders(),
        staged,
        "stored sides and held outputs share the inputs' segments"
    );
    run.join.close().unwrap();
    let rows: Vec<Tuple> = held.iter().flat_map(|b| b.to_rows().to_vec()).collect();
    run.fx.assert_gold(rows);
}

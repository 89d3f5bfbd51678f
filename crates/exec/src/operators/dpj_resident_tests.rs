//! The columnar-resident hash join against the nested-loop reference, in
//! memory and through overflow.
//!
//! Inputs are scripted batches rather than sources, so a test chooses the
//! key type, the batch size, the representation (typed columnar batches,
//! or row-form ones the join converts to columns on arrival) and roughly
//! who arrives first. The matrix checks answers and that the governor ends
//! at zero; one pinned run with a fully ordered arrival checks every spill
//! counter and the peak against fixed numbers.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use tukwila_common::{
    ColumnarAssembler, DataType, Relation, Result, Schema, Tuple, TupleBatch, Value,
};
use tukwila_plan::{JoinKind, OverflowMethod, SubjectRef};
use tukwila_source::LinkModel;
use tukwila_trace::{OpMetrics, TraceLevel};

use crate::operator::{drain, Operator};
use crate::operators::HashJoin;
use crate::runtime::{ExecEnv, PlanRuntime};
use crate::test_support::JoinFixture;

/// When a scripted input hands over its next batch.
enum Pace {
    /// Sleep once before the first batch (the other input goes first).
    After(Duration),
    /// Hand over batch `i` once the join has received `at[i]` rows in
    /// total, and end once it has received `at[len]`: with at most one
    /// message in flight the join sees exactly the scripted order.
    Ordered(Arc<OpMetrics>, Vec<u64>),
}

/// An operator that plays back prepared batches.
struct Scripted {
    schema: Schema,
    batches: VecDeque<TupleBatch>,
    pace: Pace,
    served: usize,
}

impl Operator for Scripted {
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        match &self.pace {
            Pace::After(delay) if self.served == 0 => std::thread::sleep(*delay),
            Pace::After(_) => {}
            Pace::Ordered(received, at) => {
                while received.snapshot().rows_in < at[self.served] {
                    std::thread::yield_now();
                }
            }
        }
        self.served += 1;
        Ok(self.batches.pop_front())
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

/// Cut `rel` into batches of `size` rows: typed columnar (schema-typed
/// columns, so every batch of one input has the same layout) or row-form.
fn batches_of(rel: &Relation, size: usize, columnar: bool) -> VecDeque<TupleBatch> {
    rel.tuples()
        .chunks(size)
        .map(|rows| {
            if !columnar {
                return TupleBatch::from_tuples(rows.to_vec());
            }
            let mut asm = ColumnarAssembler::from_schema(rows.len(), rel.schema());
            for t in rows {
                asm.push_tuple(t);
            }
            TupleBatch::from_columns(asm.seal().expect("non-empty chunk"))
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Int,
    Str,
    Double,
}

/// `n` rows `(key(i % distinct), i, "payload-i")`; with `nulls`, every
/// fifth key is NULL.
fn keyed(name: &str, kind: KeyKind, n: i64, distinct: i64, nulls: bool) -> Relation {
    let key_type = match kind {
        KeyKind::Int => DataType::Int,
        KeyKind::Str => DataType::Str,
        KeyKind::Double => DataType::Double,
    };
    let schema = Schema::of(
        name,
        &[("k", key_type), ("v", DataType::Int), ("s", DataType::Str)],
    );
    let mut r = Relation::empty(schema);
    for i in 0..n {
        let k = i % distinct;
        let key = if nulls && i % 5 == 0 {
            Value::Null
        } else {
            match kind {
                KeyKind::Int => Value::Int(k),
                KeyKind::Str => Value::str(format!("key-{k}")),
                // -0.0 and 0.0 are different keys, as in `Value` equality.
                KeyKind::Double => Value::Double(if k == 0 { -0.0 } else { k as f64 / 2.0 }),
            }
        };
        r.push(Tuple::new(vec![
            key,
            Value::Int(i),
            Value::str(format!("payload-{i}")),
        ]));
    }
    r
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

#[derive(Clone, Copy, Debug)]
enum Arrival {
    LeftFirst,
    RightFirst,
    Interleaved,
}

/// {Int, Str, Double keys} × {duplicate keys, NULL keys, one empty side} ×
/// {batch 1, 7, 256} × {no budget, a budget that overflows mid-stream
/// under every overflow method} × {left-first, right-first, interleaved}:
/// the answer is the nested-loop reference's and the governor ends at 0.
#[test]
fn resident_join_matches_reference_across_the_matrix() {
    let head_start = Duration::from_millis(5);
    for kind in [KeyKind::Int, KeyKind::Str, KeyKind::Double] {
        let shapes = [
            (
                "duplicates",
                keyed("l", kind, 90, 9, false),
                keyed("r", kind, 60, 12, false),
            ),
            (
                "null keys",
                keyed("l", kind, 90, 9, true),
                keyed("r", kind, 60, 12, true),
            ),
            (
                "empty side",
                keyed("l", kind, 90, 9, false),
                keyed("r", kind, 0, 1, false),
            ),
        ];
        for (shape, l, r) in &shapes {
            let tight = (l.mem_size() + r.mem_size()) / 4;
            let budgets = [
                (OverflowMethod::IncrementalLeftFlush, None),
                (OverflowMethod::IncrementalLeftFlush, Some(tight)),
                (OverflowMethod::IncrementalSymmetricFlush, Some(tight)),
                (OverflowMethod::FlushAllLeft, Some(tight)),
                (OverflowMethod::Fail, Some(tight)),
            ];
            for batch_size in [1usize, 7, 256] {
                for (method, budget) in budgets {
                    for arrival in [
                        Arrival::LeftFirst,
                        Arrival::RightFirst,
                        Arrival::Interleaved,
                    ] {
                        let case = format!(
                            "{kind:?} keys, {shape}, batch {batch_size}, {method:?} budget {budget:?}, {arrival:?}"
                        );
                        let (wait_l, wait_r) = match arrival {
                            Arrival::LeftFirst => (Duration::ZERO, head_start),
                            Arrival::RightFirst => (head_start, Duration::ZERO),
                            Arrival::Interleaved => (Duration::ZERO, Duration::ZERO),
                        };
                        let mut run =
                            run_of(l, r, method, budget, batch_size, TraceLevel::Off, |_| {
                                [(l, wait_l), (r, wait_r)].map(|(rel, wait)| Scripted {
                                    schema: rel.schema().clone(),
                                    batches: batches_of(rel, batch_size, true),
                                    pace: Pace::After(wait),
                                    served: 0,
                                })
                            });
                        let out = drain(&mut run.join);
                        if out.is_err() {
                            run.join.close().expect("close after a failed pull");
                        }
                        let memory = &run.fx.rt.env().memory;
                        assert_eq!(memory.total_used(), 0, "{case}: governor not back at 0");
                        // With both inputs non-empty the budget is exceeded
                        // whatever the arrival order; with one side empty it
                        // depends on whether that side's end came first.
                        let must_overflow = budget.is_some() && !r.is_empty();
                        let spilled = run.fx.rt.env().spill.stats().tuples_written();
                        match out {
                            Err(e) => {
                                assert_eq!(method, OverflowMethod::Fail, "{case}: {e}");
                                assert_eq!(e.kind(), "out_of_memory", "{case}");
                            }
                            Ok(rows) => {
                                run.fx.assert_gold(rows);
                                if method == OverflowMethod::Fail || budget.is_none() {
                                    assert!(!must_overflow, "{case}: Fail must fail");
                                    assert_eq!(spilled, 0, "{case}");
                                } else if must_overflow {
                                    assert!(spilled > 0, "{case}: the budget must overflow");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A column whose variant changes mid-stream (an all-NULL block infers
/// `Values` where earlier blocks were `Int64`) is widened in place: the
/// join stays columnar, the answer is exact and the books balance.
#[test]
fn layout_change_mid_stream_widens_the_column() {
    let schema = |name| Schema::of(name, &[("k", DataType::Int), ("v", DataType::Int)]);
    let row = |k: i64, v: Value| Tuple::new(vec![Value::Int(k), v]);
    let l_rows: Vec<Tuple> = (0..6)
        .map(|i| row(i % 3, if i < 3 { Value::Int(i) } else { Value::Null }))
        .collect();
    let l = Relation::new(schema("l"), l_rows).unwrap();
    let r = Relation::new(schema("r"), (0..3).map(|i| row(i, Value::Int(i))).collect()).unwrap();
    let mut run = run_of(
        &l,
        &r,
        OverflowMethod::IncrementalLeftFlush,
        Some(1 << 20),
        3,
        TraceLevel::Off,
        |_| {
            [(&l, Duration::ZERO), (&r, Duration::from_millis(5))].map(|(rel, wait)| Scripted {
                schema: rel.schema().clone(),
                // Types inferred per block: l's second block has an
                // all-NULL `v`, so its column is `Values`, not `Int64`.
                batches: rel
                    .tuples()
                    .chunks(3)
                    .map(|c| TupleBatch::from_columns(tukwila_common::ColumnarBatch::from_rows(c)))
                    .collect(),
                pace: Pace::After(wait),
                served: 0,
            })
        },
    );
    run.join.open().unwrap();
    let mut out = Vec::new();
    while let Some(batch) = run.join.next_batch().unwrap() {
        assert!(batch.columns().is_some(), "the join stays columnar");
        out.extend(batch);
    }
    run.join.close().unwrap();
    assert_eq!(out.len(), 6);
    run.fx.assert_gold(out);
    assert_eq!(run.fx.rt.env().memory.total_used(), 0);
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
        Box::new(Scripted {
            schema: l.schema().clone(),
            batches: batches_of(&l, 16, true),
            pace: Pace::After(Duration::ZERO),
            served: 0,
        }),
        Box::new(Scripted {
            schema: r.schema().clone(),
            batches: batches_of(&r, 16, true),
            pace: Pace::After(Duration::ZERO),
            served: 0,
        }),
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
            [(&l, Duration::from_millis(20)), (&r, Duration::ZERO)].map(|(rel, wait)| Scripted {
                schema: rel.schema().clone(),
                batches: batches_of(rel, 16, true),
                pace: Pace::After(wait),
                served: 0,
            })
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
/// hash joins, through the in-memory and the file spill store, with the
/// inputs as typed columnar batches and again in row form: every spill
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
        rel.tuples().chunks(batch).map(|c| c.len() as u64).collect()
    };
    let (ls, rs) = (sizes(&l), sizes(&r));

    // `at` vectors of the ordered arrival (see `Pace::Ordered`): batches
    // alternate and both inputs end last, or (`lead`) that many left
    // batches come first, then the whole right input and its end, then
    // the rest of the left.
    let schedule = |lead: Option<usize>| -> [Vec<u64>; 2] {
        let order: Vec<usize> = match lead {
            Some(n) => std::iter::repeat_n(0, n)
                .chain(std::iter::repeat_n(1, rs.len()))
                .chain(std::iter::repeat_n(0, ls.len() - n))
                .collect(),
            None => (0..ls.len().max(rs.len()))
                .flat_map(|i| [(i < ls.len()).then_some(0), (i < rs.len()).then_some(1)])
                .flatten()
                .collect(),
        };
        let (mut at, mut next, mut sent) = ([Vec::new(), Vec::new()], [0, 0], 0u64);
        for side in order {
            at[side].push(sent);
            sent += [&ls, &rs][side][next[side]];
            next[side] += 1;
            if lead.is_some() && side == 1 && next[1] == rs.len() {
                at[1].push(sent);
            }
        }
        at[0].push(sent);
        if lead.is_none() {
            at[1].push(sent);
        }
        at
    };
    let measure = |join: Pinned, budget: usize, columnar: bool, file: bool| -> Counters {
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
        let script = |rel: &Relation, pace| Scripted {
            schema: rel.schema().clone(),
            batches: batches_of(rel, batch, columnar),
            pace,
            served: 0,
        };
        // The double pipelined join sees the ordered arrival; the build-first
        // joins drain the right input, then the left.
        let [pace_l, pace_r] = match join {
            Pinned::Dpj(method) => {
                let received = fx
                    .harness(fx.join_id)
                    .metrics("dpj")
                    .expect("metrics are on");
                let left_flush = method == OverflowMethod::IncrementalLeftFlush;
                let [at_l, at_r] = schedule(left_flush.then_some(ls.len() / 2));
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
            for columnar in [true, false] {
                let got = measure(join, budget, columnar, file);
                if got != want {
                    wrong.push(format!(
                        "{join:?}, budget {budget}, file store {file}, columnar inputs \
                         {columnar}:\n  got  {got:?}\n  want {want:?}"
                    ));
                }
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
        rel.tuples()
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
        |_| {
            [&l, &r].map(|rel| Scripted {
                schema: rel.schema().clone(),
                batches: batches_of(rel, 64, true),
                pace: Pace::After(Duration::ZERO),
                served: 0,
            })
        },
    );
    // The scripted batches hold each string once more, in their own segment.
    let staged: Vec<usize> = holders();
    run.join.open().unwrap();
    let mut held = Vec::new();
    while let Some(batch) = run.join.next_batch().unwrap() {
        assert!(batch.columns().is_some(), "the resident path emits columns");
        held.push(batch);
    }
    assert_eq!(held.iter().map(TupleBatch::len).sum::<usize>(), n as usize);
    assert_eq!(
        holders(),
        staged,
        "stored sides and held outputs share the inputs' segments"
    );
    run.join.close().unwrap();
    let rows: Vec<Tuple> = held.iter().flat_map(|b| b.tuples().to_vec()).collect();
    run.fx.assert_gold(rows);
}

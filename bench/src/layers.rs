//! The traced pass: per-layer metrics from spans around the benchmark's
//! own calls into each crate.
//!
//! Tracing *inside* the engine is a later change; here every span wraps a
//! public function called from this file. Each traced query runs three
//! ways under one root span — through `QueryService::execute`, through
//! `TukwilaSystem::{prepare, run_prepared}` on the service's own system,
//! and through the planning layers one call at a time — so a layer's cost
//! and the service's overhead come from the same query. End-to-end numbers
//! never come from this pass: it costs more than twice the untraced one.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tukwila_analyze::analyze_plan;
use tukwila_common::{Relation, TupleBatch};
use tukwila_core::{ExecutionStats, QueryResult};
use tukwila_exec::QueryControl;
use tukwila_net::{Cluster, FrameReader, FrameWriter};
use tukwila_opt::Optimizer;
use tukwila_plan::{parse_plan, print_plan, OperatorSpec, QueryPlan};
use tukwila_query::Reformulator;
use tukwila_source::{LinkModel, SimulatedSource, SourceBatchEvent};
use tukwila_storage::codec::{decode_batch, encode_batch_frame};
use tukwila_trace::{TraceEvent, TraceLevel};

use crate::drive::{self, Running};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, per_round, percentile};
use crate::workloads::{Ctx, Spec};

/// Repetitions of each once-per-workload probe; its metric is the median.
const PROBE_REPS: usize = 5;
/// Times the result batches cross the loopback socket in the frame probe.
const FRAME_REPS: usize = 200;
/// Engine batch size (`TUKWILA_BATCH` is cleared by `run.sh`).
const BATCH_ROWS: usize = 256;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// What the traced pass produced.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    pub attempted: usize,
    pub failed: usize,
}

/// Per-query observations by metric name; a metric is their median, and 0
/// when the workload never enters the layer.
#[derive(Default)]
struct Observations(Mutex<BTreeMap<&'static str, Vec<f64>>>);

impl Observations {
    fn add(&self, name: &'static str, value: f64) {
        self.0
            .lock()
            .expect("a client thread panicked while observing")
            .entry(name)
            .or_default()
            .push(value);
    }

    fn median(&self, name: &str) -> f64 {
        let map = self
            .0
            .lock()
            .expect("a client thread panicked while observing");
        map.get(name).map_or(0.0, |v| median(v))
    }
}

/// Largest exchange partition degree in the plan (0 = no exchange).
fn exchange_degree(plan: &QueryPlan) -> usize {
    let mut degree = 0;
    for fragment in &plan.fragments {
        fragment.root.walk(&mut |node| {
            if let OperatorSpec::Exchange { partitions, .. } = &node.spec {
                degree = degree.max(*partitions);
            }
        });
    }
    degree
}

/// What `QueryService::execute` reported for one traced query.
fn observe_service(obs: &Observations, stats: &ExecutionStats, result: &QueryResult) {
    obs.add(
        "service.queue_wait_us",
        stats.queue_wait.as_secs_f64() * 1e6,
    );
    obs.add("core.fragments_run", stats.fragments_run as f64);
    obs.add("core.replans", stats.replans as f64);
    obs.add("storage.spill_tuple_io", stats.spill_tuple_io() as f64);
    obs.add(
        "storage.spill_bytes_written",
        stats.spill_bytes_written as f64,
    );
    obs.add("storage.spill_bytes_read", stats.spill_bytes_read as f64);
    obs.add("storage.mem_peak_bytes", stats.peak_memory as f64);

    let Some(trace) = &result.trace else { return };
    let sum = |f: fn(&tukwila_trace::OpMetricsSnapshot) -> u64| -> f64 {
        trace.ops.iter().map(f).sum::<u64>() as f64
    };
    obs.add("exec.build_ms", sum(|o| o.build_ns) / 1e6);
    obs.add("exec.probe_ms", sum(|o| o.probe_ns) / 1e6);
    obs.add("exec.queue_stall_ms", sum(|o| o.queue_stall_ns) / 1e6);
    obs.add("exec.rows_in", sum(|o| o.rows_in));
    obs.add("exec.rows_out", sum(|o| o.rows_out));
    obs.add("exec.batches_out", sum(|o| o.batches_out));

    let (mut batches, mut bytes, mut stalls) = (0u64, 0u64, 0u64);
    for record in &trace.events {
        match &record.event {
            TraceEvent::NetBatchReceived { bytes: b, .. } => {
                batches += 1;
                bytes += b;
            }
            TraceEvent::BackpressureStall { stalls: s, .. } => stalls += s,
            _ => {}
        }
    }
    if batches > 0 {
        obs.add("net.batches_received", batches as f64);
        obs.add(
            "net.bytes_per_row",
            bytes as f64 / result.relation.len().max(1) as f64,
        );
        obs.add("net.backpressure_stalls", stalls as f64);
    }
}

/// The traced round: `per_client` queries per client, every call into a
/// layer under a span.
fn traced_round(
    spec: &Spec,
    ctx: &Ctx,
    per_client: usize,
    tracer: &Tracer,
    obs: &Observations,
) -> drive::Round {
    let service = ctx.service(spec, TraceLevel::Metrics);
    let system = service.system();
    let threads = service.stats().intra_query_threads;
    let reformulator = Reformulator::new(ctx.deployment.mediated.clone());
    let optimizer = Mutex::new(Optimizer::new(
        ctx.deployment.catalog.clone(),
        spec.optimizer.clone(),
    ));
    let layer_failures = AtomicUsize::new(0);

    let mut round = drive::run_round(ctx, spec.clients, per_client, false, |id, query| {
        let q = Some(id);
        tracer.span("bench.query", None, q, |root| {
            let root = Some(root);
            let resp = tracer.span("service.execute", root, q, |_| service.execute(query));
            if let Ok(result) = &resp.outcome {
                observe_service(obs, &resp.stats, result);
            }

            // the same query on the service's own system, stage by stage
            let control = QueryControl::unbounded_traced(TraceLevel::Off);
            let env = system.env().for_query().with_threads(threads);
            let mut stats = ExecutionStats::default();
            let ran = tracer
                .span("core.prepare", root, q, |_| system.prepare(query))
                .and_then(|mut prepared| {
                    tracer.span("core.run_prepared", root, q, |_| {
                        system.run_prepared(
                            &mut prepared,
                            &control,
                            &env,
                            &mut stats,
                            &mut Vec::new(),
                        )
                    })
                });

            // the planning layers, one public call each
            let planned = tracer
                .span("query.reformulate", root, q, |_| {
                    let optimizer = optimizer.lock().expect("planning panicked");
                    reformulator.reformulate(query, optimizer.catalog())
                })
                .and_then(|rq| {
                    tracer.span("opt.plan", root, q, |_| {
                        optimizer.lock().expect("planning panicked").plan(&rq)
                    })
                });
            match (&ran, &planned) {
                (Ok(_), Ok(planned)) => {
                    let plan = &planned.lowered.plan;
                    let report = tracer.span("analyze.plan", root, q, |_| analyze_plan(plan));
                    let text = tracer.span("plan.text_roundtrip", root, q, |_| {
                        let text = print_plan(plan);
                        if parse_plan(&text).is_err() {
                            layer_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        text
                    });
                    obs.add("opt.fragments", plan.fragments.len() as f64);
                    obs.add("opt.exchange_degree", exchange_degree(plan) as f64);
                    obs.add("analyze.diag_count", report.diagnostics.len() as f64);
                    obs.add("plan.text_bytes", text.len() as f64);
                }
                _ => {
                    layer_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            resp
        })
    });
    round.failed += layer_failures.into_inner();
    obs.add("service.rejected", service.stats().rejected as f64);
    let hit_ratio = service
        .cache_stats()
        .map_or(0.0, |c| c.hits as f64 / (c.hits + c.misses).max(1) as f64);
    obs.add("source.cache_hit_ratio", hit_ratio);
    round
}

/// Split `relation` into engine-sized batches the way a source serves it.
fn batches_of(relation: &Relation) -> Vec<TupleBatch> {
    let source = SimulatedSource::new("answer", relation.clone(), LinkModel::instant());
    let mut conn = source.connect(0);
    let mut out = Vec::new();
    while let SourceBatchEvent::Batch(b) = conn.next_batch_event(BATCH_ROWS) {
        out.push(b);
    }
    out
}

/// `source.*`: connect to every table of the workload over its own link
/// and drain it, one table after another.
fn probe_sources(spec: &Spec, ctx: &Ctx, tracer: &Tracer, root: u64, obs: &Observations) {
    let sources: Vec<SimulatedSource> = spec
        .tables
        .iter()
        .map(|&t| {
            let link = spec
                .links
                .iter()
                .find(|(table, _)| *table == t)
                .map_or(&spec.default_link, |(_, link)| link);
            SimulatedSource::new(t.name(), ctx.deployment.db.table(t).clone(), link.clone())
        })
        .collect();
    for rep in 0..PROBE_REPS {
        let (mut rows, mut seconds, mut slowest_first_ms) = (0usize, 0.0, 0.0f64);
        for source in &sources {
            tracer.span("source.drain", Some(root), None, |_| {
                let started = Instant::now();
                let mut conn = source.connect(rep as u64);
                let mut first_ms = None;
                while let SourceBatchEvent::Batch(b) = conn.next_batch_event(BATCH_ROWS) {
                    first_ms.get_or_insert_with(|| started.elapsed().as_secs_f64() * 1e3);
                    rows += b.len();
                }
                seconds += started.elapsed().as_secs_f64();
                slowest_first_ms = slowest_first_ms.max(first_ms.unwrap_or(0.0));
            });
        }
        obs.add("source.drain_rows_per_s", rows as f64 / seconds);
        obs.add("source.first_event_ms", slowest_first_ms);
    }
}

/// `storage.*`: the spill/wire codec over the answer to the workload's
/// last (largest) query.
fn probe_codec(batches: &[TupleBatch], tracer: &Tracer, root: u64, obs: &Observations) {
    let rows: usize = batches.iter().map(TupleBatch::len).sum();
    let mut frames = Vec::new();
    for _ in 0..PROBE_REPS {
        frames.clear();
        let started = Instant::now();
        tracer.span("storage.encode", Some(root), None, |_| {
            for b in batches {
                encode_batch_frame(b, &mut frames);
            }
        });
        let mb = frames.len() as f64 / 1e6;
        obs.add(
            "storage.encode_mb_per_s",
            mb / started.elapsed().as_secs_f64(),
        );

        let started = Instant::now();
        let decoded = tracer.span("storage.decode", Some(root), None, |_| {
            let mut pos = 0;
            let mut rows = 0;
            while pos < frames.len() {
                rows += decode_batch(&frames, &mut pos).map_or(0, |b| b.len());
            }
            rows
        });
        assert_eq!(decoded, rows, "codec round trip lost rows");
        obs.add(
            "storage.decode_mb_per_s",
            mb / started.elapsed().as_secs_f64(),
        );
    }
    obs.add(
        "storage.frame_bytes_per_row",
        frames.len() as f64 / rows.max(1) as f64,
    );
}

/// `net.*` without a query: dial + handshake to the worker, and the frame
/// writer/reader over a loopback socket pair.
fn probe_net(addr: &str, batches: &[TupleBatch], tracer: &Tracer, root: u64, obs: &Observations) {
    for _ in 0..10 * PROBE_REPS {
        let started = Instant::now();
        tracer.span("net.dial", Some(root), None, |_| {
            Cluster::connect(&[addr]).expect("dial the worker");
        });
        obs.add("net.dial_us", started.elapsed().as_secs_f64() * 1e6);
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let port = listener.local_addr().expect("bound address").port();
    let outbound = TcpStream::connect(("127.0.0.1", port)).expect("connect to loopback");
    outbound.set_nodelay(true).expect("set nodelay");
    let (inbound, _) = listener.accept().expect("accept the loopback connection");
    std::thread::scope(|s| {
        s.spawn(|| {
            tracer.span("net.frame_write", Some(root), None, |_| {
                let mut writer = FrameWriter::new(outbound);
                let started = Instant::now();
                for _ in 0..FRAME_REPS {
                    for b in batches {
                        writer.send_batch(b).expect("write a batch frame");
                    }
                }
                let mb = writer.bytes_sent() as f64 / 1e6;
                obs.add(
                    "net.frame_write_mb_per_s",
                    mb / started.elapsed().as_secs_f64(),
                );
            });
        });
        tracer.span("net.frame_read", Some(root), None, |_| {
            let mut reader = FrameReader::new(inbound);
            let started = Instant::now();
            for _ in 0..FRAME_REPS * batches.len() {
                reader.read_frame().expect("read a batch frame");
            }
            let mb = reader.bytes_received() as f64 / 1e6;
            obs.add(
                "net.frame_read_mb_per_s",
                mb / started.elapsed().as_secs_f64(),
            );
        });
    });
}

/// Span-derived metrics: medians of durations, the service's overhead on
/// the same query, and how much of a traced query the spans explain.
fn span_metrics(spans: &[Span], obs: &Observations) -> f64 {
    for (name, metric, ns_per_unit) in [
        ("query.reformulate", "query.reformulate_us", 1e3),
        ("opt.plan", "opt.plan_us", 1e3),
        ("analyze.plan", "analyze.plan_us", 1e3),
        ("plan.text_roundtrip", "plan.text_roundtrip_us", 1e3),
        ("core.prepare", "core.prepare_us", 1e3),
        ("core.run_prepared", "core.run_prepared_ms", 1e6),
    ] {
        for ns in spans::durations_ns(spans, name) {
            obs.add(metric, ns / ns_per_unit);
        }
    }

    // service.execute minus prepare + run_prepared, on the same query
    let mut by_query: HashMap<u64, (f64, f64)> = HashMap::new();
    for s in spans {
        let (Some(q), ns) = (s.query_id, s.duration_ns() as f64) else {
            continue;
        };
        match s.name {
            "service.execute" => by_query.entry(q).or_default().0 += ns,
            "core.prepare" | "core.run_prepared" => by_query.entry(q).or_default().1 += ns,
            _ => {}
        }
    }
    for (service_ns, core_ns) in by_query.values() {
        obs.add("service.overhead_us", (service_ns - core_ns) / 1e3);
    }

    let mut traced = spans::durations_ns(spans, "service.execute");
    traced.sort_by(f64::total_cmp);
    let traced_p50_ns = percentile(&traced, 0.5);
    let selfs = spans::self_times_ns(spans);
    let explained_ns = median(&spans::self_ns(spans, &selfs, "core.prepare"))
        + median(&spans::self_ns(spans, &selfs, "core.run_prepared"));
    obs.add("bench.span_coverage", explained_ns / traced_p50_ns);
    traced_p50_ns / 1e6
}

/// The traced pass. Half of `seconds` goes to an untraced reference (five
/// short rounds, which also give `bench.round_spread`), the rest to one
/// traced round and the once-per-workload probes.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Layers {
    let (warmup, per_client_round) = drive::counts(spec, seconds);
    let cycle = spec.queries.len();
    let running = drive::set_up(spec, seed, spec.service.trace_level, warmup);
    let reference = drive::measure(spec, &running, per_round(per_client_round / 2, 1, cycle));
    let Running { service, ctx, .. } = running;
    drop(service); // one service at a time on a deployment

    let tracer = Tracer::default();
    let obs = Observations::default();
    let round = traced_round(spec, &ctx, per_client_round, &tracer, &obs);

    let batches = batches_of(&ctx.gold[cycle - 1]);
    tracer.span("bench.probes", None, None, |root| {
        probe_sources(spec, &ctx, &tracer, root, &obs);
        probe_codec(&batches, &tracer, root, &obs);
        if let Some(worker) = &ctx.worker {
            probe_net(&worker.addr, &batches, &tracer, root, &obs);
        }
    });

    let spans = tracer.finish();
    let traced_p50 = span_metrics(&spans, &obs);
    let attempted = reference.attempted + round.samples.len();
    let failed = reference.failed + round.failed;
    obs.add(
        "trace.overhead_ratio",
        traced_p50 / reference.median_of(|r| r.query_p50_ms),
    );
    obs.add("bench.round_spread", reference.round_spread());
    obs.add(
        "bench.rss_peak_mb",
        drive::rss_peak_bytes(&ctx) as f64 / 1e6,
    );
    obs.add("bench.fail_ratio", failed as f64 / attempted as f64);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, obs.median(name), unit))
        .collect();
    Layers {
        metrics,
        spans,
        attempted,
        failed,
    }
}

/// Every per-layer metric, prefix = crate name, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("query.reformulate_us", "us"),
    ("opt.plan_us", "us"),
    ("opt.fragments", "count"),
    ("opt.exchange_degree", "count"),
    ("analyze.plan_us", "us"),
    ("analyze.diag_count", "count"),
    ("plan.text_roundtrip_us", "us"),
    ("plan.text_bytes", "bytes"),
    ("core.prepare_us", "us"),
    ("core.run_prepared_ms", "ms"),
    ("core.fragments_run", "count"),
    ("core.replans", "count"),
    ("service.overhead_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.rejected", "count"),
    ("source.drain_rows_per_s", "rows/s"),
    ("source.first_event_ms", "ms"),
    ("source.cache_hit_ratio", "ratio"),
    ("exec.build_ms", "ms"),
    ("exec.probe_ms", "ms"),
    ("exec.queue_stall_ms", "ms"),
    ("exec.rows_in", "rows"),
    ("exec.rows_out", "rows"),
    ("exec.batches_out", "count"),
    ("storage.encode_mb_per_s", "MB/s"),
    ("storage.decode_mb_per_s", "MB/s"),
    ("storage.frame_bytes_per_row", "bytes"),
    ("storage.spill_tuple_io", "count"),
    ("storage.spill_bytes_written", "bytes"),
    ("storage.spill_bytes_read", "bytes"),
    ("storage.mem_peak_bytes", "bytes"),
    ("net.dial_us", "us"),
    ("net.frame_write_mb_per_s", "MB/s"),
    ("net.frame_read_mb_per_s", "MB/s"),
    ("net.bytes_per_row", "bytes"),
    ("net.batches_received", "count"),
    ("net.backpressure_stalls", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.round_spread", "ratio"),
    ("bench.rss_peak_mb", "MB"),
    ("bench.span_coverage", "ratio"),
    ("bench.fail_ratio", "ratio"),
];

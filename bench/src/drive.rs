//! The closed-loop driver and the untraced end-to-end pass.
//!
//! Protocol (README, "Measurement protocol"): a fixed number of queries
//! derived from `--seconds`, split into [`ROUNDS`] equal rounds; every
//! timing metric is computed per round and the run reports the median of
//! the round values. Answers are checked outside the timed window.

use std::sync::Arc;
use std::time::Instant;

use tukwila_common::Relation;
use tukwila_query::ConjunctiveQuery;
use tukwila_service::{QueryResponse, QueryService};
use tukwila_trace::TraceLevel;

use crate::procstat;
use crate::stats::{median, per_round, percentile, spread};
use crate::workloads::{Ctx, Spec};

/// Rounds a measured phase is split into.
pub const ROUNDS: usize = 5;
/// Every this-many-th measured query gets the full multiset check (every
/// query gets the row-count check).
pub const VERIFY_EVERY: usize = 100;
/// Times the whole set-up is repeated; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One query as its client saw it. A failed query has infinite latency:
/// it counts as missing every latency sample.
pub struct Sample {
    /// Client clock, submit to response: queue wait + optimize + execute.
    pub lat_ms: f64,
    /// Queue wait + time to the first tuple of the output fragment.
    pub ttf_ms: f64,
    pub rows: usize,
    /// `ExecutionStats::peak_memory`: the query pool's high-water mark.
    pub peak_mem: usize,
}

/// One round of the closed loop, all clients together.
pub struct Round {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// user + sys of this process and the worker child over the round.
    pub cpu_ms: f64,
    /// Errors, rejections and wrong answers.
    pub failed: usize,
}

fn cpu_ms_now(ctx: &Ctx) -> f64 {
    ctx.pids().map(procstat::cpu_ms).sum()
}

/// Run `per_client` queries on each of `clients` closed-loop threads,
/// round-robin over the workload's mix. `exec(query_id, query)` performs
/// one query. Row counts are checked on every answer; the full multiset
/// check runs after the clients have stopped, on every
/// [`VERIFY_EVERY`]-th answer and — when `first_cycle` — on the first
/// answer to each distinct query.
pub fn run_round<E>(
    ctx: &Ctx,
    clients: usize,
    per_client: usize,
    first_cycle: bool,
    exec: E,
) -> Round
where
    E: Fn(u64, &ConjunctiveQuery) -> QueryResponse + Sync,
{
    let cycle = ctx.queries.len();
    let cpu_before = cpu_ms_now(ctx);
    let started = Instant::now();
    let per_thread: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let exec = &exec;
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(per_client);
                    let mut held: Vec<(usize, Arc<Relation>)> = Vec::new();
                    let mut failed = 0;
                    for i in 0..per_client {
                        let qi = (client + i) % cycle;
                        let id = (i * clients + client) as u64;
                        let submitted = Instant::now();
                        let resp = exec(id, &ctx.queries[qi]);
                        let lat_ms = submitted.elapsed().as_secs_f64() * 1e3;
                        let stats = &resp.stats;
                        let first =
                            stats.queue_wait + stats.time_to_first.unwrap_or(stats.duration);
                        let rows = match &resp.outcome {
                            Ok(result) => result.relation.len(),
                            Err(e) => {
                                if failed == 0 {
                                    eprintln!("query {id} failed: {e}");
                                }
                                usize::MAX
                            }
                        };
                        let ok = rows == ctx.gold[qi].len();
                        if !ok {
                            failed += 1;
                        } else if i % VERIFY_EVERY == 0 || (first_cycle && i < cycle) {
                            let result = resp.outcome.as_ref().expect("row count matched");
                            held.push((qi, result.relation.clone()));
                        }
                        samples.push(Sample {
                            lat_ms: if ok { lat_ms } else { f64::INFINITY },
                            ttf_ms: if ok {
                                first.as_secs_f64() * 1e3
                            } else {
                                f64::INFINITY
                            },
                            rows: if ok { rows } else { 0 },
                            peak_mem: stats.peak_memory,
                        });
                    }
                    (samples, held, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = cpu_ms_now(ctx) - cpu_before;

    let mut round = Round {
        samples: Vec::with_capacity(clients * per_client),
        wall_s,
        cpu_ms,
        failed: 0,
    };
    for (samples, held, failed) in per_thread {
        round.samples.extend(samples);
        round.failed += failed;
        for (qi, answer) in held {
            if !answer.bag_eq_unordered(&ctx.gold[qi]) {
                eprintln!("wrong answer to query `{}`", ctx.queries[qi].name);
                round.failed += 1;
            }
        }
    }
    round
}

/// The timing metrics of one round.
pub struct RoundMetrics {
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
    pub ttf_p50_ms: f64,
    pub rows_per_s: f64,
}

impl RoundMetrics {
    pub fn of(round: &Round) -> RoundMetrics {
        let sorted = |f: fn(&Sample) -> f64| {
            let mut v: Vec<f64> = round.samples.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let lat = sorted(|s| s.lat_ms);
        let rows: usize = round.samples.iter().map(|s| s.rows).sum();
        RoundMetrics {
            query_p50_ms: percentile(&lat, 0.5),
            query_p90_ms: percentile(&lat, 0.9),
            ttf_p50_ms: percentile(&sorted(|s| s.ttf_ms), 0.5),
            rows_per_s: rows as f64 / round.wall_s,
        }
    }
}

/// A workload set up and warmed: ready for its first measured query.
/// Fields drop in order, the service before the worker it may be using.
pub struct Running {
    pub service: QueryService,
    pub ctx: Ctx,
    /// Seconds from the start of set-up to the end of warm-up.
    pub setup_s: f64,
    pub warmup_failed: usize,
    pub warmup_queries: usize,
}

/// Everything before the first measured query: data generation, gold
/// answers, service (and worker process) start, and a warm-up of
/// `warmup_per_client` queries that also checks every distinct query's
/// answer in full.
pub fn set_up(spec: &Spec, seed: u64, level: TraceLevel, warmup_per_client: usize) -> Running {
    let started = Instant::now();
    let ctx = Ctx::start(spec, seed);
    let service = ctx.service(spec, level);
    let warmup = run_round(&ctx, spec.clients, warmup_per_client, true, |_, q| {
        service.execute(q)
    });
    Running {
        service,
        ctx,
        setup_s: started.elapsed().as_secs_f64(),
        warmup_failed: warmup.failed,
        warmup_queries: warmup.samples.len(),
    }
}

/// Per-client query counts for a run of `seconds`: `(warm-up, one round)`.
/// The warm-up is a tenth of the measured count, which makes `setup_s`
/// query-shaped instead of 40 ms of process start-up.
pub fn counts(spec: &Spec, seconds: f64) -> (usize, usize) {
    let per_client = spec.measured_queries(seconds) / spec.clients;
    let cycle = spec.queries.len();
    (
        per_round(per_client / 10, 1, cycle),
        per_round(per_client, ROUNDS, cycle),
    )
}

/// What the untraced pass measured.
pub struct EndToEnd {
    pub setup_s: f64,
    pub rounds: Vec<RoundMetrics>,
    /// CPU over the measured rounds (answer checks excluded) per query.
    /// Whole-phase, not per round: `/proc` counts CPU in 10 ms ticks.
    pub cpu_ms_per_query: f64,
    /// Mean over measured queries of the engine-accounted pool peak. The
    /// mean, not the median: a pipelined join's peak steps between a few
    /// levels with thread timing (cpu_join: 0.97, 1.13, 1.29 MB ...), and
    /// the median of such a sample flips from one level to the next.
    pub peak_mem_bytes: f64,
    /// Warm-up and measured queries.
    pub attempted: usize,
    pub warmup_queries: usize,
    pub failed: usize,
    /// Wall time of the measured rounds together.
    pub measured_s: f64,
}

impl EndToEnd {
    /// Median over the rounds of one per-round metric.
    pub fn median_of(&self, f: fn(&RoundMetrics) -> f64) -> f64 {
        median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// `(max - min) / median` of the round p50s: the run's own noise.
    pub fn round_spread(&self) -> f64 {
        spread(
            &self
                .rounds
                .iter()
                .map(|r| r.query_p50_ms)
                .collect::<Vec<_>>(),
        )
    }
}

/// Drive `running` through [`ROUNDS`] rounds of `per_client_round`.
pub fn measure(spec: &Spec, running: &Running, per_client_round: usize) -> EndToEnd {
    let mut out = EndToEnd {
        setup_s: running.setup_s,
        rounds: Vec::with_capacity(ROUNDS),
        cpu_ms_per_query: 0.0,
        peak_mem_bytes: 0.0,
        attempted: running.warmup_queries,
        warmup_queries: running.warmup_queries,
        failed: running.warmup_failed,
        measured_s: 0.0,
    };
    let mut peaks = Vec::new();
    let mut cpu_ms = 0.0;
    for _ in 0..ROUNDS {
        let round = run_round(
            &running.ctx,
            spec.clients,
            per_client_round,
            false,
            |_, q| running.service.execute(q),
        );
        out.attempted += round.samples.len();
        out.failed += round.failed;
        out.measured_s += round.wall_s;
        cpu_ms += round.cpu_ms;
        peaks.extend(round.samples.iter().map(|s| s.peak_mem as f64));
        out.rounds.push(RoundMetrics::of(&round));
    }
    out.cpu_ms_per_query = cpu_ms / peaks.len() as f64;
    out.peak_mem_bytes = peaks.iter().sum::<f64>() / peaks.len() as f64;
    out
}

/// `VmHWM` of this process plus the worker child's.
pub fn rss_peak_bytes(ctx: &Ctx) -> u64 {
    ctx.pids().map(procstat::vm_hwm_bytes).sum()
}

/// The untraced pass: set up [`SETUPS`] times (reporting the median), then
/// measure on the last one.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> EndToEnd {
    let (warmup, per_client_round) = counts(spec, seconds);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut running = None;
    for _ in 0..SETUPS {
        drop(running.take()); // one deployment, one worker child at a time
        let r = set_up(spec, seed, spec.service.trace_level, warmup);
        setups.push(r.setup_s);
        running = Some(r);
    }
    let mut measured = measure(spec, &running.expect("SETUPS > 0"), per_client_round);
    measured.setup_s = median(&setups);
    measured
}

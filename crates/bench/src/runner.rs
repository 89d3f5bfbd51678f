//! Shared measurement machinery: run one plan fragment, record the
//! tuples-vs-time series the paper's figures plot, and the [`Claim`] every
//! scenario checks its measurements against.

use std::fmt;
use std::time::Duration;

use tukwila_core::execute_plan;
use tukwila_exec::ExecEnv;
use tukwila_plan::QueryPlan;
use tukwila_source::SourceRegistry;

/// One measured execution of a join pipeline.
#[derive(Debug, Clone)]
pub struct JoinRunResult {
    /// Configuration label (legend entry in the paper's figure).
    pub label: String,
    /// Time until the first output tuple.
    pub time_to_first: Duration,
    /// Total completion time.
    pub total: Duration,
    /// Output cardinality.
    pub tuples: u64,
    /// `(tuples, elapsed)` samples.
    pub series: Vec<(u64, Duration)>,
    /// Spill I/O in tuples (written + read).
    pub spill_tuple_io: usize,
    /// Peak engine memory during the run, bytes.
    pub peak_memory: usize,
}

impl JoinRunResult {
    /// Downsample the series to ≤ `points` evenly spaced samples (figures
    /// don't need every tuple).
    pub fn downsampled(&self, points: usize) -> Vec<(u64, Duration)> {
        if self.series.len() <= points || points == 0 {
            return self.series.clone();
        }
        let step = self.series.len() as f64 / points as f64;
        (0..points)
            .map(|i| self.series[(i as f64 * step) as usize])
            .chain(self.series.last().copied())
            .collect()
    }
}

/// Execute one single-fragment plan against `registry`, recording the
/// output series. Time to first and total come from the fragment's own
/// report.
pub fn run_single_fragment(
    label: &str,
    registry: &SourceRegistry,
    plan: &QueryPlan,
) -> JoinRunResult {
    let result = execute_plan(plan, ExecEnv::new(registry.clone()))
        .unwrap_or_else(|e| panic!("{label}: plan failed: {e}"));
    let report = result
        .stats
        .fragment_reports
        .last()
        .unwrap_or_else(|| panic!("{label}: no fragment report"));
    JoinRunResult {
        label: label.to_string(),
        time_to_first: report.time_to_first.unwrap_or(report.duration),
        total: report.duration,
        tuples: report.produced,
        spill_tuple_io: result.stats.spill_tuple_io(),
        peak_memory: result.stats.peak_memory,
        series: result.series,
    }
}

/// Print results as the figure's CSV: one column block per configuration.
pub fn print_series_csv(results: &[JoinRunResult], points: usize) {
    println!("# series: tuples_output, elapsed_ms (per configuration)");
    for r in results {
        println!("## {}", r.label);
        for (n, d) in r.downsampled(points) {
            println!("{n},{:.3}", d.as_secs_f64() * 1e3);
        }
    }
    println!("# summary: label, time_to_first_ms, total_ms, tuples, spill_tuple_io");
    for r in results {
        println!(
            "{}, {:.3}, {:.3}, {}, {}",
            r.label,
            r.time_to_first.as_secs_f64() * 1e3,
            r.total.as_secs_f64() * 1e3,
            r.tuples,
            r.spill_tuple_io
        );
    }
}

/// One of the paper's claims, checked against a scenario's measurements
/// by that scenario's `claims` function.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable name, e.g. `dpj-first-tuple`.
    pub name: &'static str,
    /// Whether the measurement satisfies the claim.
    pub holds: bool,
    /// The measured ratio or count against its threshold.
    pub margin: String,
    /// What the paper reports.
    pub paper: &'static str,
}

impl Claim {
    /// A checked claim.
    pub fn new(name: &'static str, holds: bool, margin: String, paper: &'static str) -> Claim {
        Claim {
            name,
            holds,
            margin,
            paper,
        }
    }

    /// The claim that `ratio`, described by `what`, stays below `bound`.
    pub fn below(
        name: &'static str,
        what: &str,
        ratio: f64,
        bound: f64,
        paper: &'static str,
    ) -> Claim {
        let margin = format!("{what} = {ratio:.3}x (needs < {bound}x)");
        Claim::new(name, ratio < bound, margin, paper)
    }

    /// The claim that `ratio`, described by `what`, stays above `bound`.
    pub fn above(
        name: &'static str,
        what: &str,
        ratio: f64,
        bound: f64,
        paper: &'static str,
    ) -> Claim {
        let margin = format!("{what} = {ratio:.3}x (needs > {bound}x)");
        Claim::new(name, ratio > bound, margin, paper)
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claim [{}] {}: {} (paper: {})",
            if self.holds { "PASS" } else { "FAIL" },
            self.name,
            self.margin,
            self.paper
        )
    }
}

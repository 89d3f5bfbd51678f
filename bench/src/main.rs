//! `e2e_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]`
//!
//! Runs one workload. `--trace 0` (default) is the untraced end-to-end
//! pass; `--trace 1` is the traced per-layer pass, which also writes
//! `DIR/trace-<workload>.json`. Prints `workload metric value unit` lines,
//! then one JSON object as the last line of stdout. Exits 1 after printing
//! if any query failed or answered wrongly.

use std::fmt::Write as _;
use std::process::ExitCode;

use tukwila_e2e_bench::layers::{self, Metric};
use tukwila_e2e_bench::stats::samples_beyond;
use tukwila_e2e_bench::workloads::{self, WORKLOADS};
use tukwila_e2e_bench::{arg, drive, procstat, spans};

/// A JSON number with every digit measured (JSON has no infinity: a run
/// whose every sample failed prints the largest finite magnitude).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_string()
    }
}

/// The number following `--name`, or `default` when the flag is absent.
fn number_arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg(args, name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name} wants a number, got {v:?}"))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(spec) = arg(&args, "--workload").and_then(workloads::spec) else {
        eprintln!(
            "usage: e2e_bench --workload <one of {}>",
            WORKLOADS.join(" ")
        );
        return ExitCode::from(2);
    };
    let seed: u64 = number_arg(&args, "--seed", 23);
    let seconds: f64 = number_arg(&args, "--seconds", 12.0);
    let trace = number_arg(&args, "--trace", 0u8) != 0;
    let out_dir = arg(&args, "--out").unwrap_or("bench/out");
    if spec.one_core && !procstat::confine_to_last_core() {
        eprintln!("{}: could not confine the process to one core", spec.name);
    }

    let (metrics, attempted, failed): (Vec<Metric>, usize, usize) = if trace {
        let layers = layers::traced(&spec, seed, seconds);
        std::fs::create_dir_all(out_dir).expect("create the span directory");
        let path = format!("{out_dir}/trace-{}.json", spec.name);
        std::fs::write(&path, spans::to_json(spec.name, &layers.spans))
            .expect("write the span file");
        eprintln!(
            "{}: {} spans written to {path}",
            spec.name,
            layers.spans.len()
        );
        (layers.metrics, layers.attempted, layers.failed)
    } else {
        let e = drive::end_to_end(&spec, seed, seconds);
        let per_round = (e.attempted - e.warmup_queries) / drive::ROUNDS;
        eprintln!(
            "{}: {} queries, measured phase {:.1} s in {} rounds of {per_round} \
             ({} samples beyond each round's p90), {} cores",
            spec.name,
            e.attempted,
            e.measured_s,
            drive::ROUNDS,
            samples_beyond(per_round, 0.9),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        let metrics = vec![
            ("setup_s", e.setup_s, "s"),
            ("query_p50_ms", e.median_of(|r| r.query_p50_ms), "ms"),
            ("query_p90_ms", e.median_of(|r| r.query_p90_ms), "ms"),
            ("ttf_p50_ms", e.median_of(|r| r.ttf_p50_ms), "ms"),
            ("rows_per_s", e.median_of(|r| r.rows_per_s), "rows/s"),
            ("cpu_ms_per_query", e.cpu_ms_per_query, "ms"),
            ("peak_mem_bytes", e.peak_mem_bytes, "bytes"),
        ];
        (metrics, e.attempted, e.failed)
    };

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{} {name} {} {unit}", spec.name, number(*value));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    println!(
        "{} fail_ratio {} ratio",
        spec.name,
        failed as f64 / attempted as f64
    );
    println!("{json}}}}}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `BENCHMARK.json` names the workloads and metrics the binary emits; the
//! lists live in different files, so check they agree.

use tukwila_e2e_bench::layers::PER_LAYER;
use tukwila_e2e_bench::workloads::WORKLOADS;

/// The end-to-end metrics `e2e_bench --trace 0` prints.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "ttf_p50_ms",
    "rows_per_s",
    "cpu_ms_per_query",
    "peak_mem_bytes",
];

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let names = WORKLOADS
        .iter()
        .chain(PER_LAYER.iter().map(|(name, _)| name));
    for name in names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json does not list `{name}`"
        );
    }
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "extra names"
    );
}

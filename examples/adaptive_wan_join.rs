//! Wide-area adaptive join: the double pipelined join versus hybrid hash
//! over slow links (the Figure 3b scenario).
//!
//! Runs `partsupp ⋈ part` twice over a WAN-like link — once with the
//! double pipelined join, once with hybrid hash — and prints when each
//! produced its first tuple and when it finished. The DPJ's first tuple
//! arrives while data is still trickling in; the hybrid join cannot emit
//! anything until the entire inner relation has crossed the network.
//!
//! ```sh
//! cargo run --release --example adaptive_wan_join
//! ```

use std::time::Duration;

use tukwila::core::execute_plan;
use tukwila::plan::{JoinKind, PlanBuilder};
use tukwila::prelude::*;

/// Run the join once; returns (first tuple, completion, tuples) from the
/// fragment's report.
fn run(kind: JoinKind, deployment: &TpchDeployment) -> (Duration, Duration, u64) {
    let mut b = PlanBuilder::new();
    let ps = b.wrapper_scan("partsupp");
    let p = b.wrapper_scan("part");
    let join = b.join(kind, ps, p, "ps_partkey", "p_partkey");
    let frag = b.fragment(join, "result");
    let plan = b.build(frag);

    let result = execute_plan(&plan, ExecEnv::new(deployment.registry.clone())).expect("plan run");
    let report = result
        .stats
        .fragment_reports
        .last()
        .expect("one fragment report");
    let first = report.time_to_first.unwrap_or(report.duration);
    (first, report.duration, report.produced)
}

fn main() {
    // partsupp is the larger relation; both sources sit behind a slow
    // wide-area link (scaled from the paper's 82 KB/s / 145 ms RTT path).
    let deployment = TpchDeployment::builder(0.004, 99)
        .tables(&[TpchTable::Partsupp, TpchTable::Part])
        .default_link(LinkModel::wide_area(0.3))
        .build();

    println!("partsupp ⋈ part over a wide-area link:");
    for (label, kind) in [
        ("double pipelined", JoinKind::DoublePipelined),
        ("hybrid hash     ", JoinKind::HybridHash),
    ] {
        let (first, total, n) = run(kind, &deployment);
        println!("  {label}: first tuple {first:>10.2?}   completed {total:>10.2?}   ({n} tuples)");
    }
    println!("(the DPJ streams results while the network is still busy)");
}

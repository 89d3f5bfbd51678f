//! Quickstart: deploy a small TPC-D-style scenario and run an adaptive
//! query end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tukwila::prelude::*;

fn main() {
    // 1. Deploy: generate data and serve it through simulated network
    //    sources (a LAN-like link), with exact catalog statistics.
    let deployment = TpchDeployment::builder(0.01, 42)
        .tables(&[
            TpchTable::Region,
            TpchTable::Nation,
            TpchTable::Supplier,
            TpchTable::Partsupp,
        ])
        .default_link(LinkModel::lan(0.05))
        .build();

    // 2. Pose a conjunctive query over the mediated schema: which parts do
    //    suppliers in each region supply? (region ⋈ nation ⋈ supplier ⋈
    //    partsupp along the foreign keys.)
    let query = deployment.query_for(
        "supply_chain",
        &[
            TpchTable::Region,
            TpchTable::Nation,
            TpchTable::Supplier,
            TpchTable::Partsupp,
        ],
    );

    // 3. Execute with the adaptive policy: double pipelined joins while
    //    memory estimates allow, hybrid hash with materialization above,
    //    replan rules at every materialization point.
    let system = deployment.system(OptimizerConfig::default());
    let result = system.execute(&query).expect("query should succeed");

    println!(
        "query `{}` returned {} tuples",
        query.name,
        result.cardinality()
    );
    println!("  fragments run:    {}", result.stats.fragments_run);
    println!("  re-optimizations: {}", result.stats.replans);
    println!("  reschedules:      {}", result.stats.reschedules);
    println!("  time to first:    {:?}", result.stats.time_to_first);
    println!("  total time:       {:?}", result.stats.duration);
    println!(
        "  spill I/O:        {} tuples",
        result.stats.spill_tuple_io()
    );

    // First few rows.
    for t in result.relation.to_rows().iter().take(5) {
        println!("  {t}");
    }

    // The adaptive result matches a trusted nested-loop evaluation.
    let gold = deployment.gold(&query).expect("gold evaluation");
    assert!(
        result.relation.bag_eq_unordered(&gold),
        "result must match gold"
    );
    println!("verified against gold evaluation ✓");
}

//! The paper's claims, one test each. Every scenario of
//! `tukwila_bench::scenarios` runs once per process, at the scale the
//! `paper` bin defaults to, and its claims are shared by its tests. Each
//! claim is a ratio dominated by link-model time or an exact count, and a
//! failing assert prints the measured margin and the paper's number.
//!
//! `cargo run -p tukwila-bench --bin paper <scenario>` prints the same
//! claims together with the series behind them.

use std::collections::HashMap;
use std::panic;
use std::sync::OnceLock;

use tukwila_bench::scenarios::{exp65, fig3a, fig3b, fig4, fig5, overflow_io, table62};
use tukwila_bench::Claim;

/// A scenario's run, yielding its claims.
type Run = fn() -> Vec<Claim>;

/// Each scenario's claims, or the message of the panic that stopped it.
type Outcomes = HashMap<&'static str, Result<Vec<Claim>, String>>;

const SCENARIOS: [(&str, Run); 7] = [
    ("fig3a", || fig3a::claims(&fig3a::run(fig3a::SCALE))),
    ("fig3b", || {
        fig3b::claims(&fig3b::run(fig3b::SCALE), fig3b::SCALE)
    }),
    ("table62", || table62::claims(&table62::run(table62::SCALE))),
    ("fig4", || fig4::claims(&fig4::run(fig4::SCALE))),
    ("overflow_io", || overflow_io::claims(&overflow_io::run())),
    ("fig5", || fig5::claims(&fig5::run(fig5::SCALE))),
    ("exp65", || exp65::claims(&exp65::run(exp65::ITERS))),
];

/// Every scenario's outcome. The first test to ask runs the scenarios one
/// after another — concurrent runs would compete for the cores whose
/// scheduling the timing claims assume idle — and the other tests wait.
fn all_claims() -> &'static Outcomes {
    static ALL: OnceLock<Outcomes> = OnceLock::new();
    ALL.get_or_init(|| {
        SCENARIOS
            .iter()
            .map(|&(name, run)| {
                let claims = panic::catch_unwind(run).map_err(|panic| {
                    (panic.downcast_ref::<String>().cloned())
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default()
                });
                (name, claims)
            })
            .collect()
    })
}

/// Assert `scenario`'s claim called `name`.
fn check(scenario: &str, name: &str) {
    let claims = match &all_claims()[scenario] {
        Ok(claims) => claims,
        Err(panic) => panic!("scenario {scenario} panicked: {panic}"),
    };
    let claim = claims
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("{scenario} has no claim named {name}"));
    assert!(claim.holds, "{claim}");
}

// Figure 3a (§6.2): DPJ vs hybrid hash, 3-way LAN join.

#[test]
fn fig3a_dpj_first_tuple() {
    check("fig3a", "dpj-first-tuple");
}

#[test]
fn fig3a_dpj_completion() {
    check("fig3a", "dpj-completion");
}

#[test]
fn fig3a_hybrid_asymmetry() {
    check("fig3a", "hybrid-asymmetry");
}

// Figure 3b (§6.2): DPJ vs hybrid hash over a WAN.

#[test]
fn fig3b_dpj_first_tuple_both_slow() {
    check("fig3b", "dpj-first-tuple-both-slow");
}

#[test]
fn fig3b_dpj_completes_faster_both_slow() {
    check("fig3b", "dpj-completes-faster-both-slow");
}

#[test]
fn fig3b_hybrid_inner_slow_delays_first_output() {
    check("fig3b", "hybrid-inner-slow-delays-first-output");
}

#[test]
fn fig3b_dpj_insensitive_to_slow_side() {
    check("fig3b", "dpj-insensitive-to-slow-side");
}

// §6.2 table: every 2- and 3-way join without lineitem.

#[test]
fn table62_dpj_first_tuple_wins() {
    check("table62", "dpj-first-tuple-wins");
}

#[test]
fn table62_dpj_total_no_slower() {
    check("table62", "dpj-total-no-slower");
}

// Figure 4 (§6.3): overflow strategies under memory limits.

#[test]
fn fig4_fits_has_no_spill() {
    check("fig4", "fits-has-no-spill");
}

#[test]
fn fig4_overflow_costs_io() {
    check("fig4", "overflow-costs-io");
}

#[test]
fn fig4_less_memory_more_io() {
    check("fig4", "less-memory-more-io");
}

#[test]
fn fig4_left_flush_stalls_longer_than_symmetric() {
    check("fig4", "left-flush-stalls-longer-than-symmetric");
}

#[test]
fn fig4_overall_times_similar() {
    check("fig4", "overall-times-similar");
}

// §4.2.3: analytical I/O of the overflow strategies.

#[test]
fn overflow_io_left_flush_at_most_symmetric() {
    check("overflow_io", "left-flush-at-most-symmetric");
}

#[test]
fn overflow_io_flush_all_worst_on_mild_overflow() {
    check("overflow_io", "flush-all-worst-on-mild-overflow");
}

#[test]
fn overflow_io_io_grows_with_n() {
    check("overflow_io", "io-grows-with-n");
}

// Figure 5 (§6.4): interleaved planning strategies.

#[test]
fn fig5_replanning_occurred() {
    check("fig5", "replanning-occurred");
}

#[test]
fn fig5_replan_beats_materialize() {
    check("fig5", "replan-beats-materialize");
}

#[test]
fn fig5_replan_beats_or_ties_pipeline() {
    check("fig5", "replan-beats-or-ties-pipeline");
}

// §6.5: optimizer state saving and usage pointers.

#[test]
fn exp65_pointers_beat_scratch() {
    check("exp65", "pointers-beat-scratch");
}

#[test]
fn exp65_no_pointers_never_beats_pointers_and_trends_worse_than_scratch() {
    check(
        "exp65",
        "no-pointers-never-beats-pointers-and-trends-worse-than-scratch",
    );
}

#[test]
fn exp65_pointers_touch_fewer_entries() {
    check("exp65", "pointers-touch-fewer-entries");
}

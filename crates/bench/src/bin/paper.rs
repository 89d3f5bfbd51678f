//! Runs one of the paper's scenarios: prints the rows or tuples-vs-time
//! series the paper reports, then every claim with its measured margin and
//! the paper's number, and exits 1 if a claim fails.
//!
//! ```text
//! paper <fig3a|fig3b|fig4|fig5|table62|overflow_io|exp65> [scale]
//! ```
//!
//! `scale` is the TPC-H scale factor, by default the one
//! `tests/paper_claims.rs` runs at. For `exp65` it is the number of
//! interleaved iterations per query size; `overflow_io` takes none.

use std::process::ExitCode;
use std::str::FromStr;

use tukwila_bench::scenarios::{exp65, fig3a, fig3b, fig4, fig5, overflow_io, table62};
use tukwila_bench::{print_series_csv, Claim};

const USAGE: &str = "usage: paper <fig3a|fig3b|fig4|fig5|table62|overflow_io|exp65> [scale]";

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `scenario` with its optional size argument; `None` on bad usage.
fn run(scenario: &str, size: Option<&str>) -> Option<Vec<Claim>> {
    fn or<T: FromStr>(size: Option<&str>, default: T) -> Option<T> {
        size.map_or(Some(default), |s| s.parse().ok())
    }
    Some(match scenario {
        "fig3a" => {
            let r = fig3a::run(or(size, fig3a::SCALE)?);
            print_series_csv(&r, 40);
            fig3a::claims(&r)
        }
        "fig3b" => {
            let scale = or(size, fig3b::SCALE)?;
            let r = fig3b::run(scale);
            print_series_csv(&r, 40);
            fig3b::claims(&r, scale)
        }
        "fig4" => {
            let r = fig4::run(or(size, fig4::SCALE)?);
            print_series_csv(&r, 50);
            fig4::claims(&r)
        }
        "table62" => {
            let rows = table62::run(or(size, table62::SCALE)?);
            println!(
                "# join, dpj_first_ms, hybrid_first_ms, dpj_total_ms, hybrid_total_ms, tuples"
            );
            for r in &rows {
                println!(
                    "{}, {:.2}, {:.2}, {:.2}, {:.2}, {}",
                    r.name,
                    ms(r.dpj.time_to_first),
                    ms(r.hybrid.time_to_first),
                    ms(r.dpj.total),
                    ms(r.hybrid.total),
                    r.dpj.tuples
                );
            }
            table62::claims(&rows)
        }
        "fig5" => {
            let rows = fig5::run(or(size, fig5::SCALE)?);
            println!("# query, materialize_ms, materialize_and_replan_ms, pipeline_ms, replans");
            for r in &rows {
                println!(
                    "{}, {:.1}, {:.1}, {:.1}, {}",
                    r.query,
                    ms(r.materialize),
                    ms(r.replan),
                    ms(r.pipeline),
                    r.replan_count
                );
            }
            fig5::claims(&rows)
        }
        "overflow_io" if size.is_none() => {
            let points = overflow_io::run();
            println!("# N, M, left_io, symmetric_io, flush_all_io (tuples written+read)");
            for p in &points {
                let [left, symmetric, flush_all] = p.io;
                println!(
                    "{}, {}, {left}, {symmetric}, {flush_all}",
                    p.n,
                    overflow_io::M
                );
            }
            overflow_io::claims(&points)
        }
        "exp65" => {
            let rows = exp65::run(or(size, exp65::ITERS)?.max(1));
            println!(
                "# relations, scratch_us, with_pointers_us, without_pointers_us, \
                 entries_touched_with, entries_touched_without (medians)"
            );
            for r in &rows {
                println!(
                    "{}, {:.1}, {:.1}, {:.1}, {}, {}",
                    r.relations,
                    ms(r.scratch) * 1e3,
                    ms(r.with_pointers) * 1e3,
                    ms(r.without_pointers) * 1e3,
                    r.touched_with,
                    r.touched_without
                );
            }
            exp65::claims(&rows)
        }
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let claims = match args.as_slice() {
        [scenario] => run(scenario, None),
        [scenario, size] => run(scenario, Some(size)),
        _ => None,
    };
    let Some(claims) = claims else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    for c in &claims {
        println!("{c}");
    }
    if claims.iter().all(|c| c.holds) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

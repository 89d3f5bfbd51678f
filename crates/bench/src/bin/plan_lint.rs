//! `plan-lint`: static analysis for plan-text files, suitable for CI.
//!
//! Parses each file with [`tukwila_plan::parse_plan_unchecked`] (so a
//! semantically malformed plan still yields a full report instead of the
//! first parse-stage validation error) and runs the complete
//! [`tukwila_analyze::Analyzer`] pass stack over it. Without a catalog the
//! schema pass degrades gracefully: wrapper schemas are opaque and checks
//! resume wherever a `project` fixes the column set.
//!
//! ```text
//! plan-lint [--json] [--max-parallelism N] [--codes] <file.plan>...
//! ```
//!
//! * `--json` — one machine-readable report object per file (the
//!   [`tukwila_plan::diag::Report::json`] shape, wrapped with the file
//!   name) instead of rustc-style rendered diagnostics;
//! * `--max-parallelism N` — enable the TA031 partition-count bound;
//! * `--codes` — print the diagnostic code registry and exit.
//!
//! Exit status: 0 when no file has Error-severity findings, 1 when any
//! does, 2 on usage or unreadable/unparseable input.

use std::process::ExitCode;

use tukwila_analyze::Analyzer;
use tukwila_common::JsonValue;
use tukwila_plan::diag::codes;
use tukwila_plan::parse_plan_unchecked;

fn usage() -> ExitCode {
    eprintln!("usage: plan-lint [--json] [--max-parallelism N] [--codes] <file.plan>...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut max_parallelism: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--max-parallelism" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                max_parallelism = Some(n);
            }
            "--codes" => {
                for c in codes::ALL {
                    println!(
                        "{}  {:5}  {:9}  {}",
                        c.code,
                        c.severity.label(),
                        c.pass.label(),
                        c.summary
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(),
            _ if arg.starts_with("--") => return usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage();
    }

    let mut analyzer = Analyzer::new();
    if let Some(n) = max_parallelism {
        analyzer = analyzer.with_max_parallelism(n);
    }

    let mut any_error = false;
    let mut broken = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("plan-lint: {file}: {e}");
                broken = true;
                continue;
            }
        };
        let plan = match parse_plan_unchecked(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("plan-lint: {file}: parse error: {e}");
                broken = true;
                continue;
            }
        };
        let report = analyzer.analyze(&plan);
        any_error |= report.error_count() > 0;
        if json {
            // `{"file": ..., "report": <Report::json shape>}`
            let line = JsonValue::Obj(vec![
                ("file".into(), JsonValue::Str(file.clone())),
                ("report".into(), report.json()),
            ]);
            println!("{}", line.to_json());
        } else if report.diagnostics.is_empty() {
            println!("{file}: clean");
        } else {
            println!("{file}:");
            println!("{}", report.render(&plan));
        }
    }
    if broken {
        ExitCode::from(2)
    } else if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

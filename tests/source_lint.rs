//! Repo-invariant source lints, enforced as a test so they run in the
//! normal `cargo test` matrix with no extra tooling:
//!
//! 1. **No `.unwrap()` / `.expect(` in operator hot paths or the storage
//!    layer** — `crates/exec/src/operators/*.rs` and `crates/storage/src/*.rs`
//!    outside test code: a failure there is a typed error.
//! 2. **No std `Mutex`, `Condvar` or `mpsc` in non-test code** — named by
//!    path or in a `use std::sync::{…}` list — and no lock guard held
//!    across a channel `send`/`recv`: the workspace standardizes on the
//!    `parking_lot` and `crossbeam-channel` shims, and a guard held across
//!    a blocking channel op is the classic shape of the pipeline deadlock.
//! 3. **Every `TA` diagnostic code registered in
//!    `crates/plan/src/diag.rs` is documented in DESIGN.md §9** — the code
//!    table and the docs cannot drift apart.
//! 4. **One exchange operator.** The separate remote-exchange operator and
//!    its `ExecEnv` switch are gone; nothing under `crates/`, `src/`,
//!    `tests/` or `examples/` (tests included) may name them again — the
//!    engine-side mirror of `bench/tests/api_surface.rs`.
//! 5. **Only the feeder starts an operator's threads.** No non-test file
//!    under `crates/exec/src/operators/` calls `thread::spawn` or
//!    `thread::Builder`; an operator runs a child on a thread through
//!    `crates/exec/src/feeder.rs`.
//! 6. **One join-side representation, through overflow.** The hash join,
//!    its join side and the spill store never name the row type `Tuple`;
//!    no `SpillStore` method takes or returns rows; nothing is called
//!    `thaw`.
//! 7. **One hash join operator.** The double pipelined, hybrid and Grace
//!    joins are one operator, a schedule and a flush policy over one join
//!    side: nothing under `crates/`, `src/`, `tests/` or `examples/` names
//!    the two operators it replaced, and `build_join` builds it in one arm.
//!
//! All checks are text-based (no extra dependencies); 1–3, 5 and 6 skip `*_tests.rs`
//! files, `tests/` directories, and everything at or below the first
//! `#[cfg(test)]` line of a file (test modules sit at file end by
//! convention here).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The non-test prefix of a source file.
fn non_test_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        out.push(line.to_string());
    }
    out
}

/// Every `.rs` file under `dir`, recursively; `tests/` directories and
/// `*_tests.rs` files only when `with_tests`.
fn rust_sources(dir: &Path, with_tests: bool, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        if path.is_dir() {
            if (with_tests || name != "tests") && name != "target" {
                rust_sources(&path, with_tests, out);
            }
        } else if name.ends_with(".rs") && (with_tests || !name.ends_with("_tests.rs")) {
            out.push(path);
        }
    }
}

/// Strip line comments and string literals well enough for token checks
/// (not a full lexer: multi-line strings are out of idiom here).
fn code_only(line: &str) -> String {
    let line = line.split("//").next().unwrap_or(line);
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut prev = ' ';
    for c in line.chars() {
        if c == '"' && prev != '\\' {
            in_str = !in_str;
            prev = c;
            continue;
        }
        if !in_str {
            out.push(c);
        }
        prev = c;
    }
    out
}

#[test]
fn no_new_unwraps_in_operator_hot_paths() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates/exec/src/operators", "crates/storage/src"] {
        rust_sources(&root.join(dir), false, &mut files);
    }
    let mut hits = Vec::new();
    for file in files {
        for (i, line) in non_test_lines(&file).iter().enumerate() {
            let code = code_only(line);
            if code.contains(".unwrap()") || code.contains(".expect(") {
                let rel = file.strip_prefix(&root).unwrap().display();
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "operator and storage code returns a typed error instead of panicking:\n{}",
        hits.join("\n")
    );
}

/// The leading identifier of `s`.
fn ident(s: &str) -> String {
    (s.trim_start().chars())
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// The names `code` (comment- and string-free, lines joined by `\n`) takes
/// from `std::sync`, each with its 1-based line: `std::sync::Mutex` by
/// path, and every top-level name of a `use std::sync::{…}` list, however
/// many lines it spans.
fn std_sync_names(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, prefix) in code.match_indices("std::sync::") {
        let line = code[..at].matches('\n').count() + 1;
        let rest = &code[at + prefix.len()..];
        let Some(list) = rest.strip_prefix('{') else {
            out.push((line, ident(rest)));
            continue;
        };
        let mut depth = 1;
        let mut items = vec![String::new()];
        for c in list.chars() {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => break,
                '}' => depth -= 1,
                ',' if depth == 1 => {
                    items.push(String::new());
                    continue;
                }
                _ => {}
            }
            items.last_mut().unwrap().push(c);
        }
        out.extend(items.iter().map(|item| (line, ident(item))));
    }
    out
}

#[test]
fn std_sync_names_sees_paths_and_brace_lists() {
    let code = "use std::sync::{Arc, Condvar,\n    Mutex as M, atomic::{AtomicBool, Ordering}};\nlet m = std::sync::Mutex::new(0);\nuse std::sync::{mpsc::Sender, Arc};\nlet (tx, rx) = std::sync::mpsc::channel();";
    let names: Vec<(usize, String)> = std_sync_names(code);
    let want = [
        (1, "Arc"),
        (1, "Condvar"),
        (1, "Mutex"),
        (1, "atomic"),
        (3, "Mutex"),
        (4, "mpsc"),
        (4, "Arc"),
        (5, "mpsc"),
    ];
    assert_eq!(names, want.map(|(l, n)| (l, n.to_string())));
}

#[test]
fn no_std_mutex_and_no_guard_across_channel_ops() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), false, &mut files);
    rust_sources(&root.join("src"), false, &mut files);
    let mut failures = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap().display().to_string();
        // The in-tree shims legitimately wrap std primitives.
        if rel.starts_with("crates/shims/") {
            continue;
        }
        let lines = non_test_lines(file);
        let code: Vec<String> = lines.iter().map(|l| code_only(l)).collect();
        for (line, name) in std_sync_names(&code.join("\n")) {
            if name == "Mutex" || name == "Condvar" {
                failures.push(format!(
                    "{rel}:{line}: std::sync::{name} — use the parking_lot shim"
                ));
            }
            if name == "mpsc" {
                failures.push(format!(
                    "{rel}:{line}: std::sync::mpsc — use the crossbeam-channel shim"
                ));
            }
        }
        for (i, raw) in lines.iter().enumerate() {
            let line = &code[i];
            // `let guard = <expr>.lock();` … guard must not live across a
            // channel send/recv. Scan until the binding's indentation level
            // closes or the guard is dropped.
            let trimmed = line.trim_start();
            let Some(rest) = trimmed.strip_prefix("let ") else {
                continue;
            };
            if !line.contains(".lock()") || line.contains(".lock().") {
                continue; // temporary guard, dropped at end of statement
            }
            let Some(name) = rest
                .split(['=', ':'])
                .next()
                .map(|s| s.trim().trim_start_matches("mut ").trim().to_string())
            else {
                continue;
            };
            if name.is_empty()
                || name == "_"
                || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            let indent = raw.len() - raw.trim_start().len();
            for later in lines.iter().skip(i + 1).take(60) {
                let lcode = code_only(later);
                let ltrim = later.trim_start();
                if ltrim.is_empty() {
                    continue;
                }
                let lindent = later.len() - ltrim.len();
                if lindent < indent || lcode.contains(&format!("drop({name})")) {
                    break; // scope closed or guard released
                }
                if ["send(", ".recv(", "try_send(", "try_recv(", "recv_timeout("]
                    .iter()
                    .any(|p| lcode.contains(p))
                {
                    failures.push(format!(
                        "{rel}:{}: lock guard `{name}` (bound line {}) held across a \
                         channel send/recv — release it first",
                        i + 1,
                        i + 1
                    ));
                    break;
                }
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn only_the_feeder_starts_operator_threads() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates/exec/src/operators"), false, &mut files);
    let mut hits = Vec::new();
    for file in &files {
        for (i, line) in non_test_lines(file).iter().enumerate() {
            let code = code_only(line);
            if code.contains("thread::spawn") || code.contains("thread::Builder") {
                let rel = file.strip_prefix(&root).unwrap().display();
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "operators run children on threads through crates/exec/src/feeder.rs:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_exchange_operator_and_no_transport_switch() {
    // Spelled in halves so this file passes its own check.
    let forbidden = [
        ["Remote", "Exchange"].concat(),
        ["with_shard", "_executor"].concat(),
    ];
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), true, &mut files);
    }
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            for needle in &forbidden {
                if line.contains(needle.as_str()) {
                    let rel = file.strip_prefix(&root).unwrap().display();
                    hits.push(format!("{rel}:{}: {needle}", n + 1));
                }
            }
        }
    }
    assert!(
        hits.is_empty(),
        "the exchange is one operator over a transport (DESIGN.md §12):\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_hash_join_operator() {
    // Spelled in halves so this file passes its own check.
    let forbidden = [
        ["HashJoin", "Op"].concat(),
        ["DoublePipelined", "Join"].concat(),
    ];
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), true, &mut files);
    }
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            for needle in &forbidden {
                if line.contains(needle.as_str()) {
                    let rel = file.strip_prefix(&root).unwrap().display();
                    hits.push(format!("{rel}:{}: {needle}", n + 1));
                }
            }
        }
    }
    // `build_join` builds the hash join in exactly one arm.
    let build = non_test_lines(&root.join("crates/exec/src/build.rs"));
    let start = (build.iter())
        .position(|l| l.starts_with("pub fn build_join("))
        .expect("build_join");
    let len = (build[start..].iter())
        .position(|l| l.starts_with('}'))
        .expect("the end of build_join");
    let arms = build[start..start + len]
        .iter()
        .filter(|l| code_only(l).contains("HashJoin::new("))
        .count();
    if arms != 1 {
        hits.push(format!("build_join builds the hash join in {arms} arms"));
    }
    assert!(
        hits.is_empty(),
        "the hash joins are one operator with a schedule and a flush policy \
         (DESIGN.md §11):\n{}",
        hits.join("\n")
    );
}

#[test]
fn every_ta_code_is_documented_in_design_md() {
    let root = repo_root();
    // Only the registry itself (tests may use fabricated codes).
    let diag = non_test_lines(&root.join("crates/plan/src/diag.rs")).join("\n");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let mut missing = Vec::new();
    let mut found_any = false;
    for (i, _) in diag.match_indices("(\"TA") {
        let code: String = diag[i + 2..].chars().take_while(|c| *c != '"').collect();
        if code.len() != 5 || !code[2..].chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        found_any = true;
        if !design.contains(&code) {
            missing.push(code);
        }
    }
    assert!(
        found_any,
        "no TA codes found in diag.rs — lint out of date?"
    );
    missing.sort();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "TA codes registered in crates/plan/src/diag.rs but undocumented in DESIGN.md §9: \
         {missing:?}"
    );
}

/// Whether `text` holds `word` as a whole identifier.
fn has_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn has_word_matches_whole_identifiers_only() {
    assert!(has_word("fn f(t: &Tuple) {}", "Tuple"));
    assert!(has_word("Vec<Tuple>", "Tuple"));
    assert!(!has_word("TupleBatch::new()", "Tuple"));
    assert!(!has_word("batch.tuples()", "Tuple"));
    assert!(has_word("self.thaw();", "thaw"));
    assert!(!has_word("thawed", "thaw"));
}

#[test]
fn overflow_stays_columnar() {
    let root = repo_root();
    let files = [
        "crates/exec/src/operators/join.rs",
        "crates/exec/src/operators/join_side.rs",
        "crates/storage/src/spill.rs",
    ];
    let mut hits = Vec::new();
    for rel in files {
        for (i, line) in non_test_lines(&root.join(rel)).iter().enumerate() {
            for word in ["Tuple", "thaw"] {
                if has_word(line, word) {
                    hits.push(format!("{rel}:{}: names `{word}`: {}", i + 1, line.trim()));
                }
            }
        }
    }
    // The store's trait speaks batches only: no method takes or returns
    // rows (`Tuple`, a row-form `TupleBatch`, or a slice of either).
    let spill = non_test_lines(&root.join("crates/storage/src/spill.rs"));
    let start = spill
        .iter()
        .position(|l| l.starts_with("pub trait SpillStore"))
        .expect("the SpillStore trait");
    let len = spill[start..]
        .iter()
        .position(|l| l.starts_with('}'))
        .expect("the trait's end");
    for (i, line) in spill[start..start + len].iter().enumerate() {
        if code_only(line).contains("Tuple") {
            hits.push(format!(
                "spill.rs:{}: a row type in SpillStore: {}",
                start + i + 1,
                line.trim()
            ));
        }
    }
    // No code anywhere in the engine is called `thaw` again.
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), false, &mut sources);
    for file in &sources {
        for (i, line) in non_test_lines(file).iter().enumerate() {
            if has_word(&code_only(line), "thaw") {
                let rel = file.strip_prefix(&root).unwrap().display();
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "the join side is columnar from arrival through flush and cleanup \
         (DESIGN.md §11):\n{}",
        hits.join("\n")
    );
}

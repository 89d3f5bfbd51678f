//! Repo-invariant source lints, enforced as a test so they run in the
//! normal `cargo test` matrix with no extra tooling:
//!
//! 1. **No `.unwrap()` / `.expect(` in operator hot paths, the storage
//!    layer or the wire** — `crates/exec/src/operators/*.rs`,
//!    `crates/storage/src/*.rs` and `crates/net/src/*.rs` outside test
//!    code: a failure there is a typed error.
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
//! 8. **Sources start no threads.** No non-test file under
//!    `crates/source/src` calls `thread::spawn` or `thread::Builder`: a
//!    scan that reads a source ahead or with a deadline runs it on a
//!    feeder (rule 5).
//! 9. **No timer on the wire.** No non-test file under `crates/net/src`
//!    calls `thread::sleep` or `set_nonblocking(true)`, or names the
//!    deleted `ACCEPT_TICK`, `CREDIT_TICK` or `READ_TICK`: the worker
//!    blocks in `accept`, in a socket read or on a condvar, and is woken
//!    by a connection, a frame or a notify. (Left: the coordinator's
//!    `STREAM_TICK` read timeout, and a bare `WorkerServer::run`'s stop
//!    watcher, which no query waits on.)
//! 10. **One batch representation** (rule 6 widened). No non-test file
//!     under `crates/storage/src` or `crates/net/src` names the row type
//!     `Tuple`, and no non-test file under `crates/` names `Repr::`,
//!     `BatchAssembler`, `from_tuples`, `materialize_rows` or
//!     `Column::Values`: a batch is typed columns from source to sink, on
//!     the wire and in spill files (DESIGN.md §11).
//! 11. **One fragment runner.** No non-test file under `crates/net/src` or
//!     `crates/core/src` calls `.next_batch()`: a fragment's root, at the
//!     coordinator or in a worker, is driven only by `run_fragment` in
//!     `crates/exec/src/fragment.rs`, into a sink (DESIGN.md §8, §12).
//! 12. **One oracle.** Answers are compared as bags by
//!     `tukwila_common::testing::multiset` alone: no other file under
//!     `crates/`, `src/`, `tests/` or `examples/` (tests included) defines
//!     a `multiset` function, and none names the deleted row-key API (the
//!     owned join key, the single-tuple cursor and its drain, the
//!     composite key prehash) — generated plans against one reference
//!     interpreter (`tests/oracle.rs`) replaced the suites that kept it.
//!
//! All checks are text-based (no extra dependencies); 1–3, 5, 6 and 8–11
//! skip `*_tests.rs` files, `tests/` directories, and everything at or
//! below the first `#[cfg(test)]` line of a file (test modules sit at
//! file end by convention here).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The non-test prefix of a source file: everything before its first
/// `#[cfg(test)]` item with a body. A test-only module declaration
/// (`#[cfg(test)] mod x;`) is blanked, not taken for the end, so indices
/// stay line numbers.
fn non_test_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            match lines.next() {
                Some(item) if item.trim_end().ends_with(';') => {
                    out.extend([String::new(), String::new()]);
                    continue;
                }
                _ => break,
            }
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
    for dir in [
        "crates/exec/src/operators",
        "crates/storage/src",
        "crates/net/src",
    ] {
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
        "operator, storage and wire code returns a typed error instead of panicking:\n{}",
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
fn sources_start_no_threads() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates/source/src"), false, &mut files);
    assert!(files.len() > 3, "source crate files not found");
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
        "a source is read ahead on a feeder, not a thread of its own:\n{}",
        hits.join("\n")
    );
}

#[test]
fn no_timer_on_the_wire() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates/net/src"), false, &mut files);
    assert!(files.len() > 3, "net crate files not found");
    let mut hits = Vec::new();
    for file in &files {
        for (i, line) in non_test_lines(file).iter().enumerate() {
            let code = code_only(line);
            let timed = ["thread::sleep", "set_nonblocking(true)"]
                .iter()
                .any(|call| code.contains(call))
                || ["ACCEPT_TICK", "CREDIT_TICK", "READ_TICK"]
                    .iter()
                    .any(|tick| has_word(&code, tick));
            if timed {
                let rel = file.strip_prefix(&root).unwrap().display();
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "the wire waits on connections, frames and condvars, not timers:\n{}",
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
    // Every operator (the one hash join and its sides included) and the
    // spill store: no row type in their non-test code.
    let mut files = Vec::new();
    rust_sources(&root.join("crates/exec/src/operators"), false, &mut files);
    assert!(files.len() > 5, "operator sources not found");
    files.push(root.join("crates/storage/src/spill.rs"));
    let mut hits = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap().display();
        for (i, line) in non_test_lines(file).iter().enumerate() {
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

#[test]
fn one_batch_representation() {
    let root = repo_root();
    let mut hits = Vec::new();
    let rel = |file: &Path| file.strip_prefix(&root).unwrap().display().to_string();
    let mut wire = Vec::new();
    for dir in ["crates/storage/src", "crates/net/src"] {
        rust_sources(&root.join(dir), false, &mut wire);
    }
    assert!(wire.len() > 5, "storage and net sources not found");
    for file in &wire {
        for (i, line) in non_test_lines(file).iter().enumerate() {
            if has_word(line, "Tuple") {
                hits.push(format!(
                    "{}:{}: names `Tuple`: {}",
                    rel(file),
                    i + 1,
                    line.trim()
                ));
            }
        }
    }
    let mut engine = Vec::new();
    rust_sources(&root.join("crates"), false, &mut engine);
    for file in &engine {
        for (i, line) in non_test_lines(file).iter().enumerate() {
            for needle in [
                "Repr::",
                "BatchAssembler",
                "from_tuples",
                "materialize_rows",
                "Column::Values",
            ] {
                if line.contains(needle) {
                    hits.push(format!(
                        "{}:{}: names `{needle}`: {}",
                        rel(file),
                        i + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        hits.is_empty(),
        "batches are typed columns from source to sink, on the wire and in \
         spill files (DESIGN.md §11):\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_fragment_runner() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates/net/src", "crates/core/src"] {
        rust_sources(&root.join(dir), false, &mut files);
    }
    assert!(files.len() > 5, "net and core sources not found");
    let mut hits = Vec::new();
    for file in &files {
        for (i, line) in non_test_lines(file).iter().enumerate() {
            if code_only(line).contains(".next_batch()") {
                let rel = file.strip_prefix(&root).unwrap().display();
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "fragment roots are driven only by run_fragment in \
         crates/exec/src/fragment.rs (DESIGN.md §8, §12):\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_oracle() {
    // Spelled in halves so this file passes its own check.
    let definition = ["fn mult", "iset"].concat();
    let deleted = [
        ["Join", "Key"].concat(),
        ["Tuple", "Cursor"].concat(),
        ["drain", "_tuples"].concat(),
        ["compute", "_composite"].concat(),
    ];
    let root = repo_root();
    let shared = root.join("crates/common/src/testing.rs");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), true, &mut files);
    }
    assert!(files.contains(&shared), "the shared multiset is gone");
    let mut hits = Vec::new();
    for file in files.iter().filter(|f| **f != shared) {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if line.contains(definition.as_str()) || deleted.iter().any(|w| has_word(line, w)) {
                let rel = file.strip_prefix(&root).unwrap().display();
                hits.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "answers are compared by tukwila_common::testing::multiset against \
         one reference (tests/oracle.rs), and the row-key API stays gone:\n{}",
        hits.join("\n")
    );
}

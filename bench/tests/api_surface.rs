//! Later changes refactor the engine and may not edit `bench/`, so the
//! benchmark must not lean on what ROADMAP items 2 and 3 delete: the row
//! view of a batch, the dual batch representation, the `Values` column
//! fallback, and the separate remote-exchange operator with its `ExecEnv`
//! switch. This test reads the benchmark's own sources and fails on any
//! mention of them.

use std::path::Path;

const FORBIDDEN: [&str; 5] = [
    ".tuples()",
    "Repr::",
    "Column::Values",
    "RemoteExchange",
    "with_shard_executor",
];

fn check(dir: &Path, hits: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("read the source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            check(&path, hits);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read a source file");
            for (n, line) in text.lines().enumerate() {
                for needle in FORBIDDEN {
                    if line.contains(needle) {
                        hits.push(format!("{}:{}: {needle}", path.display(), n + 1));
                    }
                }
            }
        }
    }
}

#[test]
fn sources_stay_on_the_refactor_proof_surface() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut hits = Vec::new();
    check(&src, &mut hits);
    assert!(
        hits.is_empty(),
        "engine internals used:\n{}",
        hits.join("\n")
    );
}

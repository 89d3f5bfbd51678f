//! `plan-lint --json` writes one valid JSON object per file, whatever
//! characters the file name holds.

use std::path::PathBuf;
use std::process::Command;

use tukwila_common::JsonValue;

#[test]
fn json_output_escapes_any_file_name() {
    let dir = std::env::temp_dir().join(format!("plan-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp directory");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../plans/ok/pipeline.plan");
    let odd = dir.join("it's \"quoted\" back\\slash é.plan");
    std::fs::copy(&fixture, &odd).expect("copy the fixture");
    let plain = dir.join("plain.plan");
    std::fs::copy(&fixture, &plain).expect("copy the fixture");

    let out = Command::new(env!("CARGO_BIN_EXE_plan-lint"))
        .arg("--json")
        .arg(&odd)
        .arg(&plain)
        .output()
        .expect("run plan-lint");
    std::fs::remove_dir_all(&dir).expect("remove the temp directory");
    assert!(out.status.success(), "plan-lint failed: {out:?}");

    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let files: Vec<String> = stdout
        .lines()
        .map(|line| {
            let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("invalid JSON {line}: {e}"));
            assert!(v.get("report").is_some(), "no report in {line}");
            v.get("file")
                .and_then(JsonValue::as_str)
                .expect("a file name")
                .to_string()
        })
        .collect();
    let want: Vec<String> = [&odd, &plain]
        .iter()
        .map(|p| p.to_str().expect("UTF-8 path").to_string())
        .collect();
    assert_eq!(files, want);
}

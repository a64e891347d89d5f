//! Golden-corpus pin: the default round-robin scheduler must keep the
//! harness's observable output **byte-identical** to the streams captured
//! before the scheduling seam existed.
//!
//! The two files under `tests/golden/` were generated at the commit
//! immediately preceding the seam, with:
//!
//! ```text
//! ISF_EMIT_REDACT_WALL=1 isf-harness --scale smoke --jobs 2 \
//!     --emit json --emit-path roundrobin_all_smoke.jsonl all \
//!     > roundrobin_all_smoke.txt
//! ```
//!
//! Wall-clock redaction zeroes the only machine-dependent fields, so the
//! comparison is exact on any host. If this test fails, the scheduling
//! refactor changed an observable of the default round-robin policy —
//! that is a regression, not a reason to regenerate the goldens.
//!
//! The second test drives `--explore` end to end through the binary: the
//! report renders, the exit code is clean, and the emitted stream (with
//! its `explore` records) passes `validate-jsonl`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_isf-harness");

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

struct Output {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs the harness with redacted wall clocks and quiet logging, so every
/// byte of output is deterministic and comparable.
fn harness(args: &[&str]) -> Output {
    let out = Command::new(BIN)
        .args(args)
        .env("ISF_EMIT_REDACT_WALL", "1")
        .env("ISF_LOG", "off")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn isf-harness");
    Output {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        stderr: String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    }
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("isf-golden-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn round_robin_all_experiments_match_the_pre_seam_goldens() {
    let jsonl_path = temp_file("all");
    let out = harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "2",
        "--emit",
        "json",
        "--emit-path",
        &jsonl_path.display().to_string(),
        "all",
    ]);
    assert_eq!(out.code, Some(0), "harness failed: {}", out.stderr);

    assert_eq!(
        out.stdout,
        golden("roundrobin_all_smoke.txt"),
        "stdout tables diverged from the pre-seam golden capture"
    );
    let stream = std::fs::read_to_string(&jsonl_path).expect("read emitted stream");
    std::fs::remove_file(&jsonl_path).ok();
    assert_eq!(
        stream,
        golden("roundrobin_all_smoke.jsonl"),
        "JSONL stream diverged from the pre-seam golden capture"
    );
}

#[test]
fn explore_mode_verifies_a_benchmark_and_emits_valid_jsonl() {
    let jsonl_path = temp_file("explore");
    let path_str = jsonl_path.display().to_string();
    let out = harness(&[
        "--explore",
        "schedules=2,seed=5",
        "--scale",
        "smoke",
        "--jobs",
        "2",
        "--emit",
        "json",
        "--emit-path",
        &path_str,
        "pbob",
    ]);
    assert_eq!(out.code, Some(0), "explore failed: {}", out.stderr);
    assert!(
        out.stdout.contains("1 of 1 benchmark(s) verified"),
        "unexpected report:\n{}",
        out.stdout
    );
    assert!(out.stdout.contains("pbob"), "{}", out.stdout);

    let stream = std::fs::read_to_string(&jsonl_path).expect("read emitted stream");
    assert!(
        stream.contains("\"type\":\"explore\",\"bench\":\"pbob\",\"seed\":\"0x5\""),
        "missing explore record:\n{stream}"
    );
    let validated = harness(&["validate-jsonl", &path_str]);
    std::fs::remove_file(&jsonl_path).ok();
    assert_eq!(
        validated.code,
        Some(0),
        "explore stream failed validation: {}",
        validated.stderr
    );
}

#[test]
fn explore_runs_are_byte_deterministic() {
    let args = [
        "--explore",
        "schedules=2,seed=9",
        "--scale",
        "smoke",
        "pbob",
    ];
    let a = harness(&args);
    let b = harness(&args);
    assert_eq!(a.code, Some(0), "explore failed: {}", a.stderr);
    assert_eq!(a.stdout, b.stdout, "explore report is not deterministic");
}

//! End-to-end tests of the self-profiling surface driving the
//! `isf-harness` binary: `--profile` must never change the tables or the
//! pre-existing JSONL records (only append `metrics` / `span-summary`
//! ones), the profiled stream must be byte-deterministic across worker
//! counts under wall-clock redaction, and `--trace-out` must produce a
//! Chrome trace-event document.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_isf-harness");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("isf-profile-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

struct Output {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs the harness with redacted wall clocks and quiet logging, so
/// every byte of output is deterministic and comparable.
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

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_ok(out: &Output) {
    assert_eq!(out.code, Some(0), "harness failed: {}", out.stderr);
}

#[test]
fn profile_flag_keeps_tables_identical_and_appends_new_records() {
    let dir = TempDir::new("flag");
    let plain_jsonl = dir.path("plain.jsonl");
    let prof_jsonl = dir.path("profiled.jsonl");

    let base = |jsonl: &PathBuf| {
        vec![
            "--scale".to_owned(),
            "smoke".to_owned(),
            "--emit".to_owned(),
            "json".to_owned(),
            "--emit-path".to_owned(),
            jsonl.display().to_string(),
            "table1".to_owned(),
        ]
    };

    let plain_args = base(&plain_jsonl);
    let plain = harness(&plain_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_ok(&plain);

    let mut prof_args = base(&prof_jsonl);
    prof_args.insert(0, "--profile".to_owned());
    let prof = harness(&prof_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_ok(&prof);

    // The human-facing tables must be unaffected by profiling: identical
    // cycles, traps, and formatting, byte for byte.
    assert_eq!(
        prof.stdout, plain.stdout,
        "--profile changed the stdout tables"
    );

    let plain_stream = read(&plain_jsonl);
    let prof_stream = read(&prof_jsonl);
    for ty in ["\"type\":\"metrics\"", "\"type\":\"span-summary\""] {
        assert!(
            !plain_stream.contains(ty),
            "unprofiled stream contains {ty}"
        );
        assert_eq!(
            prof_stream.matches(ty).count(),
            1,
            "profiled stream should hold exactly one {ty} record"
        );
    }
    // The profile layer's own counters should show up in the snapshot.
    assert!(
        prof_stream.contains("prep.cache."),
        "metrics record lacks preparation-cache counters"
    );
    // The fusion-coverage report goes to stderr, never stdout.
    assert!(
        prof.stderr.is_empty() || !prof.stdout.contains("fusion coverage"),
        "fusion coverage leaked into stdout"
    );

    // Both streams must satisfy the schema validator.
    for path in [&plain_jsonl, &prof_jsonl] {
        let v = harness(&["validate-jsonl", &path.display().to_string()]);
        assert_eq!(
            v.code,
            Some(0),
            "validate-jsonl rejected {}: {}",
            path.display(),
            v.stderr
        );
    }
}

#[test]
fn profiled_stream_is_byte_identical_across_job_counts() {
    let dir = TempDir::new("jobs");
    let mut streams = Vec::new();
    let mut stdouts = Vec::new();
    for jobs in ["1", "4"] {
        let jsonl = dir.path(&format!("j{jobs}.jsonl"));
        let out = harness(&[
            "--profile",
            "--scale",
            "smoke",
            "--jobs",
            jobs,
            "--emit",
            "json",
            "--emit-path",
            &jsonl.display().to_string(),
            // The full suite: per-experiment summaries snapshot the
            // metrics registry mid-run, which is where worker-count
            // nondeterminism would show up first.
            "all",
        ]);
        assert_ok(&out);
        streams.push(read(&jsonl));
        stdouts.push(out.stdout);
    }
    assert_eq!(
        streams[0], streams[1],
        "profiled JSONL (metrics + span summaries included) must not depend on worker count"
    );
    assert_eq!(
        stdouts[0], stdouts[1],
        "tables must not depend on worker count"
    );
}

#[test]
fn trace_out_writes_a_chrome_trace_document() {
    let dir = TempDir::new("trace");
    let trace = dir.path("trace.json");

    // Tracing alone (no --profile) must also leave stdout untouched.
    let plain = harness(&["--scale", "smoke", "table1"]);
    assert_ok(&plain);
    let traced = harness(&[
        "--trace-out",
        &trace.display().to_string(),
        "--scale",
        "smoke",
        "table1",
    ]);
    assert_ok(&traced);
    assert_eq!(
        traced.stdout, plain.stdout,
        "--trace-out changed the stdout tables"
    );

    let doc = read(&trace);
    let trimmed = doc.trim();
    assert!(
        trimmed.starts_with('{') && trimmed.ends_with('}'),
        "trace is not a JSON object"
    );
    assert!(
        doc.contains("\"traceEvents\":["),
        "trace lacks the traceEvents array"
    );
    // Complete events for the span hierarchy, with thread ids for
    // Perfetto's track layout.
    for key in [
        "\"ph\":\"X\"",
        "\"pid\":",
        "\"tid\":",
        "\"cell\"",
        "\"run\"",
    ] {
        assert!(doc.contains(key), "trace lacks {key}");
    }
}

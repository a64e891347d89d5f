//! End-to-end deadline tests driving the `isf-harness` binary: a hung
//! cell under `--cell-deadline` is cooperatively cancelled and annotated
//! while its siblings complete, the whole-run `--run-deadline` drains to
//! the resumable exit code, and both compose with `--journal`/`--resume`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_isf-harness");

/// Exit code of a deadlined (or drained) but resumable run; mirrors
/// `isf_harness::journal::RESUMABLE_EXIT`.
const RESUMABLE_EXIT: i32 = 75;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("isf-watchdog-{tag}-{}", std::process::id()));
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

/// Runs the harness with deterministic output: wall-clock fields
/// redacted, per-cell logging off so stderr stays small.
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

/// Drops the `,"resumed":true` marker a resumed stream's meta record
/// carries; everything else must already match the uninterrupted run.
fn strip_resumed_marker(stream: &str) -> String {
    stream.replacen(",\"resumed\":true", "", 1)
}

#[test]
fn a_hung_cell_deadlines_while_its_siblings_complete() {
    let dir = TempDir::new("hang");
    let jsonl = dir.path("spin.jsonl");
    let out = harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "4",
        "--cell-deadline",
        "500",
        "--emit",
        "json",
        "--emit-path",
        &jsonl.display().to_string(),
        "spin",
    ]);
    assert_eq!(
        out.code,
        Some(RESUMABLE_EXIT),
        "a deadlined run must exit resumable: {}",
        out.stderr
    );
    // The table reports every sibling and annotates the hung cell.
    for sibling in ["count-a", "count-b", "count-c"] {
        assert!(
            out.stdout.contains(sibling),
            "missing {sibling}: {}",
            out.stdout
        );
    }
    assert!(
        out.stdout
            .contains("!! spin/hang [deadline]: cell deadline of 500 ms exceeded"),
        "missing deadline annotation: {}",
        out.stdout
    );
    assert!(
        out.stdout.contains("3 of 4 cells completed"),
        "{}",
        out.stdout
    );
    // The JSONL stream carries a typed error record and still validates.
    let stream = std::fs::read_to_string(&jsonl).expect("read emitted stream");
    assert!(
        stream.contains(
            "{\"type\":\"error\",\"label\":\"spin/hang\",\"kind\":\"deadline\",\
             \"detail\":\"cell deadline of 500 ms exceeded\",\"attempts\":1}"
        ),
        "missing deadline error record: {stream}"
    );
    isf_harness::jsonl::validate(&stream).expect("deadline stream validates");
}

#[test]
fn deadline_output_is_byte_identical_across_job_counts() {
    let dir = TempDir::new("jobs");
    let run = |jobs: &str| {
        let jsonl = dir.path(&format!("spin-{jobs}.jsonl"));
        let out = harness(&[
            "--scale",
            "smoke",
            "--jobs",
            jobs,
            "--cell-deadline",
            "500",
            "--emit",
            "json",
            "--emit-path",
            &jsonl.display().to_string(),
            "spin",
        ]);
        assert_eq!(out.code, Some(RESUMABLE_EXIT), "{}", out.stderr);
        let stream = std::fs::read_to_string(&jsonl).expect("read emitted stream");
        (out.stdout, stream)
    };
    let (serial_stdout, serial_stream) = run("1");
    let (parallel_stdout, parallel_stream) = run("4");
    assert_eq!(
        serial_stdout, parallel_stdout,
        "deadlined table depends on the job count"
    );
    assert_eq!(
        serial_stream, parallel_stream,
        "deadlined JSONL depends on the job count"
    );
}

#[test]
fn a_deadlined_journaled_run_resumes_cleanly() {
    let dir = TempDir::new("journal");
    let journal = dir.path("spin.journal");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "--scale".to_owned(),
            "smoke".to_owned(),
            "--jobs".to_owned(),
            "2".to_owned(),
            "--cell-deadline".to_owned(),
            "500".to_owned(),
            "--emit".to_owned(),
            "json".to_owned(),
            "--journal".to_owned(),
            journal.display().to_string(),
            "spin".to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };

    let first_args = args(&[]);
    let first = harness(&first_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(first.code, Some(RESUMABLE_EXIT), "{}", first.stderr);

    // Every cell — the deadlined one included — was journaled, so the
    // resume replays the whole run without fresh deadlines and exits 0,
    // byte-identical modulo the resumed marker.
    let resume_args = args(&["--resume"]);
    let resumed = harness(&resume_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(
        resumed.code,
        Some(0),
        "replaying a journaled deadline must not exit resumable again: {}",
        resumed.stderr
    );
    assert!(resumed.stdout.contains("\"resumed\":true"));
    assert_eq!(strip_resumed_marker(&resumed.stdout), first.stdout);
}

#[test]
fn run_deadline_drains_and_resume_completes_byte_identically() {
    let dir = TempDir::new("run-deadline");
    let reference = harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "2",
        "--emit",
        "json",
        "--journal",
        &dir.path("reference.journal").display().to_string(),
        "table1",
    ]);
    assert_eq!(reference.code, Some(0), "{}", reference.stderr);

    // A 1 ms run deadline fires before the first cell can be claimed:
    // the run drains through the interrupt machinery and exits 75.
    let journal = dir.path("deadline.journal");
    let journal_str = journal.display().to_string();
    let cut = harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "2",
        "--run-deadline",
        "1",
        "--emit",
        "json",
        "--journal",
        &journal_str,
        "table1",
    ]);
    assert_eq!(
        cut.code,
        Some(RESUMABLE_EXIT),
        "a run past its deadline must exit resumable: {}",
        cut.stderr
    );
    assert!(
        cut.stderr.contains("interrupted"),
        "the drain should report itself: {}",
        cut.stderr
    );

    // Resuming (without the deadline) completes the run, byte-identical
    // to the uninterrupted reference.
    let resumed = harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "2",
        "--emit",
        "json",
        "--journal",
        &journal_str,
        "--resume",
        "table1",
    ]);
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(strip_resumed_marker(&resumed.stdout), reference.stdout);
}

//! End-to-end durability tests driving the `isf-harness` binary: a run
//! killed or interrupted partway leaves a journal from which `--resume`
//! reproduces the uninterrupted run's output byte for byte.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_isf-harness");

/// Exit code of a drained (interrupted but resumable) run; mirrors
/// `isf_harness::journal::RESUMABLE_EXIT`.
const RESUMABLE_EXIT: i32 = 75;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("isf-resume-{tag}-{}", std::process::id()));
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

/// A harness invocation with deterministic output: wall-clock fields
/// redacted, per-cell logging off so stderr stays small.
fn harness(args: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(args)
        .env("ISF_EMIT_REDACT_WALL", "1")
        .env("ISF_LOG", "off")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

struct Output {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run_to_end(mut cmd: Command) -> Output {
    let out = cmd.output().expect("spawn isf-harness");
    Output {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        stderr: String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    }
}

/// Waits until the journal at `path` holds at least `lines` complete
/// lines (header included), so a kill lands after real progress.
fn wait_for_journal_lines(path: &Path, lines: usize, child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let have = std::fs::read(path)
            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
            .unwrap_or(0);
        if have >= lines {
            return;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("harness exited ({status:?}) before the journal reached {lines} lines");
        }
        assert!(
            Instant::now() < deadline,
            "journal {} never reached {lines} lines",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Drops the `,"resumed":true` marker a resumed stream's meta record
/// carries; everything else must already match the uninterrupted run.
fn strip_resumed_marker(stream: &str) -> String {
    stream.replacen(",\"resumed\":true", "", 1)
}

#[test]
fn resume_after_sigkill_is_byte_identical_across_job_counts() {
    for jobs in ["1", "4"] {
        let dir = TempDir::new(&format!("kill{jobs}"));
        let args = |journal: &Path| {
            vec![
                "--scale".to_owned(),
                "smoke".to_owned(),
                "--jobs".to_owned(),
                jobs.to_owned(),
                "--emit".to_owned(),
                "json".to_owned(),
                "--journal".to_owned(),
                journal.display().to_string(),
                "table1".to_owned(),
                "table3".to_owned(),
            ]
        };

        // The uninterrupted reference.
        let ref_journal = dir.path("reference.journal");
        let reference = run_to_end(harness(
            &args(&ref_journal)
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        ));
        assert_eq!(
            reference.code,
            Some(0),
            "reference run failed: {}",
            reference.stderr
        );
        assert!(!reference.stdout.is_empty());

        // The victim: SIGKILL once the journal shows a finished cell —
        // no drain, no cleanup, exactly what a crash or OOM kill leaves.
        let victim_journal = dir.path("victim.journal");
        let mut child = harness(
            &args(&victim_journal)
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        )
        .spawn()
        .expect("spawn victim");
        wait_for_journal_lines(&victim_journal, 2, &mut child);
        child.kill().expect("SIGKILL victim");
        child.wait().expect("reap victim");

        // Resume must replay the journal and complete, and the completed
        // stream must be byte-identical to the uninterrupted one (modulo
        // the resumed marker on the meta record).
        let mut resume_args = args(&victim_journal);
        resume_args.push("--resume".to_owned());
        let resumed = run_to_end(harness(
            &resume_args.iter().map(String::as_str).collect::<Vec<_>>(),
        ));
        assert_eq!(
            resumed.code,
            Some(0),
            "resumed run failed: {}",
            resumed.stderr
        );
        assert!(
            resumed.stdout.contains("\"resumed\":true"),
            "--resume must mark the meta record"
        );
        assert_eq!(
            strip_resumed_marker(&resumed.stdout),
            reference.stdout,
            "--jobs {jobs}: resumed stream differs from the uninterrupted run"
        );
    }
}

#[test]
fn sigint_drains_to_the_resumable_exit_code_and_resume_completes() {
    let dir = TempDir::new("drain");
    let journal = dir.path("drain.journal");
    let journal_str = journal.display().to_string();
    let args = [
        "--scale",
        "smoke",
        "--jobs",
        "1",
        "--emit",
        "json",
        "--journal",
        &journal_str,
        "table4",
    ];

    let reference = run_to_end(harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "1",
        "--emit",
        "json",
        "--journal",
        &dir.path("reference.journal").display().to_string(),
        "table4",
    ]));
    assert_eq!(
        reference.code,
        Some(0),
        "reference run failed: {}",
        reference.stderr
    );

    let mut child = harness(&args).spawn().expect("spawn victim");
    wait_for_journal_lines(&journal, 2, &mut child);
    let interrupted = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT")
        .success();
    assert!(interrupted, "kill -INT failed");
    let status = child.wait().expect("reap victim");
    assert_eq!(
        status.code(),
        Some(RESUMABLE_EXIT),
        "a drained run must exit with the resumable code"
    );
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        stderr.contains("interrupted"),
        "drain should say it was interrupted: {stderr}"
    );

    let resumed = run_to_end(harness(
        &args.iter().copied().chain(["--resume"]).collect::<Vec<_>>(),
    ));
    assert_eq!(
        resumed.code,
        Some(0),
        "resumed run failed: {}",
        resumed.stderr
    );
    assert_eq!(
        strip_resumed_marker(&resumed.stdout),
        reference.stdout,
        "resumed stream differs from the uninterrupted run"
    );
}

#[test]
fn stale_journal_is_refused_with_a_field_diagnostic() {
    let dir = TempDir::new("stale");
    let journal = dir.path("stale.journal");
    let journal_str = journal.display().to_string();

    let first = run_to_end(harness(&[
        "--scale",
        "smoke",
        "--journal",
        &journal_str,
        "table1",
    ]));
    assert_eq!(first.code, Some(0), "seed run failed: {}", first.stderr);

    // Same journal, different scale: a silent reuse would replay smoke
    // results into a default-scale table.
    let stale = run_to_end(harness(&[
        "--scale",
        "default",
        "--journal",
        &journal_str,
        "--resume",
        "table1",
    ]));
    assert_eq!(stale.code, Some(1), "stale resume must fail");
    assert!(
        stale.stderr.contains("stale journal"),
        "diagnostic must name the refusal class: {}",
        stale.stderr
    );
    assert!(
        stale
            .stderr
            .contains("scale: journal has smoke, this run has default"),
        "diagnostic must name the changed field: {}",
        stale.stderr
    );
    assert!(
        stale.stdout.is_empty(),
        "a refused resume must not run any experiment"
    );
}

#[test]
fn resume_without_a_journal_is_a_clear_error() {
    let out = run_to_end(harness(&["--resume", "table1"]));
    assert_eq!(out.code, Some(1));
    assert!(
        out.stderr.contains("--resume needs a journal"),
        "{}",
        out.stderr
    );

    let missing = run_to_end(harness(&[
        "--resume",
        "--journal",
        "/nonexistent/isf.journal",
        "table1",
    ]));
    assert_eq!(missing.code, Some(1));
    assert!(
        missing.stderr.contains("cannot resume from"),
        "{}",
        missing.stderr
    );
}

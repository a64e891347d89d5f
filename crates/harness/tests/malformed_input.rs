//! No damaged journal or JSONL stream may abort the process. Seeded
//! mutations of a real smoke-scale journal and stream — byte flips,
//! truncations, duplicated lines and deleted lines — go through
//! `journal::open_resume` and `jsonl::validate`, which must return `Ok`
//! or an error but never panic; a few go through the binary's
//! `validate-jsonl` and `--resume`, which must exit 0 or 1. Nor may the
//! environment reach a setting: hostile values of `ISF_*` variables named
//! like harness settings leave a run byte-identical to a clean one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use isf_harness::runner::HarnessConfig;
use isf_harness::{journal, jsonl, Scale};

const BIN: &str = env!("CARGO_BIN_EXE_isf-harness");

/// Mutations of each kind per input.
const PER_KIND: usize = 500;

const KINDS: [&str; 4] = ["byte flip", "truncation", "duplicated line", "deleted line"];

/// The splitmix64 generator: seeded, so a failing mutation reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `bytes` with one mutation of kind `KINDS[kind]`.
fn mutate(bytes: &[u8], kind: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    match kind {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(out.len());
                out[i] ^= 1 + rng.below(255) as u8;
            }
        }
        1 => out.truncate(rng.below(out.len())),
        2 => {
            let i = rng.below(lines.len());
            out = lines[..=i].concat();
            out.extend(lines[i..].concat());
        }
        _ => {
            let i = rng.below(lines.len());
            out = [&lines[..i], &lines[i + 1..]].concat().concat();
        }
    }
    out
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("isf-malformed-{tag}-{}", std::process::id()));
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

/// An `isf-harness` run under the built-in defaults, so its journal
/// header matches `HarnessConfig::default()`'s run inputs.
fn harness(args: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(args).env("ISF_LOG", "off").stderr(Stdio::null());
    cmd
}

/// A smoke-scale `table1` journal and the JSONL stream of the same run,
/// cut to what a mutation needs to reach every parser path at a debug
/// build's speed: the journal's header and first three cells (a run
/// interrupted there), and the first record of each type in the stream.
fn smoke_inputs(dir: &TempDir) -> (Vec<u8>, Vec<u8>) {
    let path = dir.path("base.journal");
    let out = harness(&[
        "--scale",
        "smoke",
        "--jobs",
        "1",
        "--emit",
        "json",
        "--journal",
    ])
    .arg(&path)
    .arg("table1")
    .output()
    .expect("spawn isf-harness");
    assert!(out.status.success(), "the smoke run failed: {out:?}");
    let journal = std::fs::read_to_string(&path).expect("read the journal");
    let journal: String = journal.split_inclusive('\n').take(4).collect();
    let mut types = Vec::new();
    let stream: String = String::from_utf8(out.stdout)
        .expect("the stream is UTF-8")
        .split_inclusive('\n')
        .filter(|line| {
            // Every record starts `{"type":"<type>"`.
            let ty = line.split('"').nth(3).unwrap_or_default().to_owned();
            let first = !types.contains(&ty);
            if first {
                types.push(ty);
            }
            first
        })
        .collect();
    (journal.into_bytes(), stream.into_bytes())
}

/// Fails with the mutation's identity if `f` panics.
fn no_panic(what: &str, kind: usize, n: usize, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("{what}: {} #{n} panicked", KINDS[kind]);
    }
}

fn resume_in_process(path: &Path, bytes: &[u8], inputs: &journal::RunInputs) {
    std::fs::write(path, bytes).expect("write the mutated journal");
    let _ = journal::open_resume(path, inputs);
    journal::deactivate();
}

#[test]
fn mutated_journals_and_streams_are_errors_not_panics() {
    let dir = TempDir::new("in-process");
    let (journal_bytes, stream) = smoke_inputs(&dir);
    let inputs = HarnessConfig::default().run_inputs(Scale::Smoke, &["table1".to_owned()]);
    let path = dir.path("mutated.journal");
    std::fs::write(&path, &journal_bytes).expect("write the journal");
    let cells = journal::open_resume(&path, &inputs);
    journal::deactivate();
    assert!(
        matches!(cells, Ok(n) if n > 0),
        "the unmutated journal must resume, or the mutations never reach its cells: {cells:?}"
    );
    jsonl::validate(std::str::from_utf8(&stream).unwrap()).expect("the unmutated stream is valid");

    let mut rng = Rng(0x15f_2024);
    for kind in 0..KINDS.len() {
        for n in 0..PER_KIND {
            let bytes = mutate(&journal_bytes, kind, &mut rng);
            no_panic("journal", kind, n, || {
                resume_in_process(&path, &bytes, &inputs);
            });
            let bytes = mutate(&stream, kind, &mut rng);
            no_panic("stream", kind, n, || {
                let _ = jsonl::validate(&String::from_utf8_lossy(&bytes));
            });
        }
    }
}

#[test]
fn the_binary_exits_0_or_1_on_mutated_inputs() {
    let dir = TempDir::new("spawned");
    let (journal_bytes, stream) = smoke_inputs(&dir);
    let mut rng = Rng(0x15f_2025);
    for (kind, name) in KINDS.iter().enumerate() {
        let file = dir.path(&format!("mutated-{kind}.jsonl"));
        std::fs::write(&file, mutate(&stream, kind, &mut rng)).expect("write the stream");
        let status = harness(&["validate-jsonl"])
            .arg(&file)
            .stdout(Stdio::null())
            .status()
            .expect("spawn isf-harness");
        assert!(
            matches!(status.code(), Some(0 | 1)),
            "validate-jsonl on a {name}: {status:?}"
        );

        let file = dir.path(&format!("mutated-{kind}.journal"));
        std::fs::write(&file, mutate(&journal_bytes, kind, &mut rng)).expect("write the journal");
        let status = harness(&["--scale", "smoke", "--jobs", "1", "--resume", "--journal"])
            .arg(&file)
            .arg("table1")
            .stdout(Stdio::null())
            .status()
            .expect("spawn isf-harness");
        assert!(
            matches!(status.code(), Some(0 | 1)),
            "--resume on a {name}: {status:?}"
        );
    }
}

#[test]
fn ambient_setting_variables_change_nothing() {
    // A harness setting's one knob is its flag: none of these is read.
    let dir = TempDir::new("ambient");
    let journal = dir.path("ambient.journal");
    let args = ["--scale", "smoke", "--jobs", "1", "table1"];
    let clean = harness(&args).output().expect("spawn isf-harness");
    let hostile = harness(&args)
        .envs([
            ("ISF_JOBS", "0"),
            ("ISF_RETRIES", "x"),
            ("ISF_CELL_BUDGET", "1e6"),
            ("ISF_CELL_DEADLINE", "soon"),
            ("ISF_FUSE", "no"),
            ("ISF_PROFILE", "2"),
            ("ISF_EMIT", "json"),
        ])
        .env("ISF_JOURNAL", &journal)
        .output()
        .expect("spawn isf-harness");
    assert!(clean.status.success(), "{clean:?}");
    assert!(hostile.status.success(), "{hostile:?}");
    assert!(!clean.stdout.is_empty());
    assert!(
        clean.stdout == hostile.stdout,
        "the environment changed stdout"
    );
    assert!(!journal.exists(), "ISF_JOURNAL started a journal");
}

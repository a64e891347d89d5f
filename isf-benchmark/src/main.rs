//! `isf-benchmark`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! isf-benchmark --workload suite|suite-jobs2|suite-pgo|pipeline --seed N
//!               --seconds S --trace 0|1 [--runs R] [--scale default|smoke]
//! isf-benchmark compare A.ndjson B.ndjson
//! isf-benchmark pipeline [--seed N] [--scale default|smoke] [--chunk I]
//!               [--probe] [--trace-out FILE]
//! isf-benchmark setup --workload W [--seed N] [--scale default|smoke]
//! ```
//!
//! A run makes passes over the workload for `--seconds` (at least
//! [`MIN_PASSES`], or exactly `--runs R`). A pass runs each of the
//! workload's units once, each in a fresh child process: the suite
//! workloads run the `isf-harness` found next to this executable once per
//! experiment, `pipeline` re-executes this executable once per chunk of its
//! draws. The calibration kernel runs between every two children, and each
//! child's wall time is divided by the machine's slowdown around it
//! ([`isf_benchmark::calibrate`]). After each pass a `setup` child times
//! the workload's set-up. With `--trace 1` a whole repetition then runs
//! in one child untraced and once more traced, and the per-layer metrics
//! are printed instead of the end-to-end ones. The last stdout line is the
//! result: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. The
//! exit code is non-zero when any correctness gate fails.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use isf_benchmark::draws::{self, CHUNKS, DEFAULT_DRAWS, SMOKE_DRAWS};
use isf_benchmark::pipeline::{self, Guidance, PipelineReport};
use isf_benchmark::records::{self, Records, Traced};
use isf_benchmark::spec::{self, Metric, Workload};
use isf_benchmark::stats::Summary;
use isf_benchmark::{calibrate, compare};
use isf_exec::{run_naive, VmConfig};
use isf_obs::{span, Json};
use isf_workloads::Scale;

/// Passes a time-boxed run makes at least.
const MIN_PASSES: usize = 3;

/// Set-up repetitions behind `setup_s`, at least.
const SETUP_REPS: usize = 15;

/// Timed set-ups per `setup` child, after one untimed warm-up. One child
/// runs after each pass: in-process set-up time is bimodal per process
/// (13 ms or 17–21 ms for `pipeline`, whichever a process gets), so the
/// median needs several processes, spread over the run.
const SETUP_REPS_PER_CHILD: usize = 4;

/// A child that runs longer than this is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("pipeline") => pipeline_cmd(&args[1..]),
        Some("setup") => setup_cmd(&args[1..]),
        _ => bench_cmd(&args),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("isf-benchmark: {msg}");
        ExitCode::FAILURE
    })
}

/// Collects `--flag value` pairs and bare `--switch`es.
fn flags(args: &[String], switches: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument `{arg}`"));
        }
        let value = if switches.contains(&arg.as_str()) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))?
                .clone()
        };
        out.insert(arg.clone(), value);
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(flag) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} must be a number, got `{v}`")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    }
}

fn scale_flag(flags: &BTreeMap<String, String>) -> Result<Scale, String> {
    let name = flags.get("--scale").map_or("default", String::as_str);
    spec::parse_scale(name).ok_or_else(|| format!("--scale must be default or smoke, got `{name}`"))
}

fn draw_count(scale: Scale) -> usize {
    if scale == Scale::Smoke {
        SMOKE_DRAWS
    } else {
        DEFAULT_DRAWS
    }
}

// ---------------------------------------------------------------------
// `pipeline`: one repetition of the pipeline workload (or the probe).
// ---------------------------------------------------------------------

fn pipeline_cmd(args: &[String]) -> Result<ExitCode, String> {
    const ALLOWED: [&str; 5] = ["--seed", "--scale", "--chunk", "--probe", "--trace-out"];
    let f = flags(args, &["--probe"])?;
    if let Some(bad) = f.keys().find(|k| !ALLOWED.contains(&k.as_str())) {
        return Err(format!("pipeline: unknown flag {bad}"));
    }
    let seed: u64 = number(&f, "--seed", Some(1))?;
    let scale = scale_flag(&f)?;
    let chunk: Option<usize> = f
        .contains_key("--chunk")
        .then(|| number(&f, "--chunk", None))
        .transpose()?;
    if chunk.is_some_and(|i| i >= CHUNKS) {
        return Err(format!("pipeline: --chunk must be below {CHUNKS}"));
    }
    let trace_out = f.get("--trace-out").map(PathBuf::from);
    span::set_enabled(trace_out.is_some());
    let probe = f.contains_key("--probe");
    let report = pipeline::run(scale, || {
        if probe {
            return draws::probe_draws();
        }
        let all = draws::draws(seed, draw_count(scale));
        match chunk {
            Some(i) => draws::chunk(&all, i).to_vec(),
            None => all,
        }
    });
    println!("{}", report.to_json());
    if let Some(path) = trace_out {
        let events = span::take_events();
        fs::write(&path, format!("{}\n", span::chrome_trace(&events)))
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
        println!("{}", span::summary_record(&span::summarize(&events)));
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// `compare`.
// ---------------------------------------------------------------------

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: isf-benchmark compare A.ndjson B.ndjson".into());
    };
    let read = |p: &String| {
        let text = fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        compare::read_set(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (sa, sb) = (read(a)?, read(b)?);
    let rows = compare::compare(&sa, &sb);
    print!("{}", compare::render(&rows));
    let incorrect = sa.iter().chain(&sb).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} run(s) failed their correctness gates");
    }
    let failing = rows.iter().filter(|r| !r.verdict.passes()).count();
    println!("{} row(s), {failing} not ok", rows.len());
    Ok(if failing == 0 && incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------
// The benchmark run.
// ---------------------------------------------------------------------

struct BenchArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    scale: Scale,
}

fn bench_args(args: &[String]) -> Result<BenchArgs, String> {
    const ALLOWED: [&str; 6] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--runs",
        "--scale",
    ];
    let f = flags(args, &[])?;
    if let Some(bad) = f.keys().find(|k| !ALLOWED.contains(&k.as_str())) {
        return Err(format!("unknown flag {bad}"));
    }
    let name = f.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{name}` (expected one of: {})",
            names.join(" ")
        )
    })?;
    let trace: u8 = number(&f, "--trace", Some(0))?;
    if trace > 1 {
        return Err(format!("--trace must be 0 or 1, got {trace}"));
    }
    let runs: Option<usize> = f
        .contains_key("--runs")
        .then(|| number(&f, "--runs", None))
        .transpose()?;
    if runs == Some(0) {
        return Err("--runs must be positive".into());
    }
    Ok(BenchArgs {
        workload,
        seed: number(&f, "--seed", Some(1))?,
        seconds: number(&f, "--seconds", Some(28.0))?,
        trace: trace == 1,
        runs,
        scale: scale_flag(&f)?,
    })
}

/// One finished child process.
struct Finished {
    wall_s: f64,
    stdout: String,
    stderr: String,
}

/// Runs `cmd` to completion with its output captured in files under
/// `work`, timing it from spawn to exit. Inherited `ISF_*` variables are
/// removed so the environment cannot change what is measured.
fn run_child(mut cmd: Command, work: &Path, tag: &str) -> Result<Finished, String> {
    let out_path = work.join(format!("{tag}.stdout"));
    let err_path = work.join(format!("{tag}.stderr"));
    let create = |p: &Path| fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ISF_") {
            cmd.env_remove(key);
        }
    }
    cmd.stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("{tag}: cannot start: {e}"))?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("{tag}: {e}"))? {
            break status;
        }
        if start.elapsed() > CHILD_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{tag}: killed after {CHILD_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let wall_s = start.elapsed().as_secs_f64();
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (stdout, stderr) = (read(&out_path)?, read(&err_path)?);
    let _ = fs::remove_file(&out_path);
    let _ = fs::remove_file(&err_path);
    if !status.success() {
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!("{tag}: exited with {status}: {}", tail.join(" | ")));
    }
    Ok(Finished {
        wall_s,
        stdout,
        stderr,
    })
}

/// Peak resident set of any waited-for child, in MiB.
#[cfg(target_os = "linux")]
fn peak_child_rss_mb() -> Result<f64, String> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the 64-bit
    // Linux `struct rusage`, which is all `getrusage(2)` writes through
    // the pointer; the call retains no reference to it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err("getrusage(RUSAGE_CHILDREN) failed".into());
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

#[cfg(not(target_os = "linux"))]
fn peak_child_rss_mb() -> Result<f64, String> {
    Err("peak_rss_mb needs Linux getrusage".into())
}

/// What a workload's children run and are checked against. A workload has
/// [`Target::units`] units, numbered from 0; the number after the last,
/// [`Target::whole`], is a whole repetition in one child.
enum Target {
    Suite {
        harness: PathBuf,
        /// The experiments in the seed's order: one per unit.
        order: Vec<&'static str>,
        /// Expected stdout of each unit, then of the whole repetition.
        expected: Vec<String>,
        /// Per program: naive-interpreter (cycles, instructions).
        baselines: BTreeMap<String, (u64, u64)>,
    },
    Pipeline {
        exe: PathBuf,
        /// Draws of each unit (one chunk each), then of the whole repetition.
        draws: Vec<u64>,
        /// The deterministic part of each unit's first report, then of the
        /// whole repetition's.
        first: Vec<Option<PipelineReport>>,
    },
}

/// A checked child.
struct Rep {
    wall_s: f64,
    ops: u64,
    failed: u64,
    stdout: String,
}

impl Target {
    fn units(&self) -> usize {
        match self {
            Target::Suite { order, .. } => order.len(),
            Target::Pipeline { .. } => CHUNKS,
        }
    }

    fn whole(&self) -> usize {
        self.units()
    }

    fn label(&self, unit: usize) -> String {
        match self {
            _ if unit == self.whole() => "whole".into(),
            Target::Suite { order, .. } => order[unit].into(),
            Target::Pipeline { .. } => format!("chunk{unit}"),
        }
    }

    fn command(&self, a: &BenchArgs, unit: usize, trace: Option<(&Path, &Path)>) -> Command {
        let scale = spec::scale_name(a.scale);
        match self {
            Target::Suite { harness, order, .. } => {
                let mut cmd = Command::new(harness);
                let jobs = a.workload.jobs().to_string();
                cmd.args(["--scale", scale, "--jobs", &jobs]);
                if a.workload == Workload::SuitePgo {
                    cmd.arg("--pgo");
                }
                if let Some((trace_out, emit)) = trace {
                    cmd.args(["--profile", "--emit", "json"])
                        .arg("--trace-out")
                        .arg(trace_out)
                        .arg("--emit-path")
                        .arg(emit);
                }
                match order.get(unit) {
                    Some(experiment) => cmd.arg(experiment),
                    None => cmd.args(order),
                };
                cmd
            }
            Target::Pipeline { exe, .. } => {
                let mut cmd = Command::new(exe);
                let seed = a.seed.to_string();
                cmd.args(["pipeline", "--scale", scale, "--seed", &seed]);
                if unit < CHUNKS {
                    cmd.args(["--chunk", &unit.to_string()]);
                }
                if let Some((trace_out, _)) = trace {
                    cmd.arg("--trace-out").arg(trace_out);
                }
                cmd
            }
        }
    }

    /// Checks one child's outputs, recording each failed gate.
    fn check(&mut self, run: Finished, unit: usize, tag: &str, errors: &mut Vec<String>) -> Rep {
        match self {
            Target::Suite {
                expected,
                baselines,
                ..
            } => {
                let expected = &expected[unit];
                if run.stdout != *expected {
                    let line = run
                        .stdout
                        .lines()
                        .zip(expected.lines())
                        .position(|(x, y)| x != y)
                        .map_or(String::from("length"), |i| format!("line {}", i + 1));
                    errors.push(format!("{tag}: stdout differs from the reference ({line})"));
                }
                let mut cells = 0;
                for line in run.stderr.lines() {
                    let Some((label, rest)) = line
                        .strip_prefix("[cell] ")
                        .and_then(|l| l.split_once(": "))
                    else {
                        continue;
                    };
                    cells += 1;
                    let Some(bench) = label.strip_prefix("prepare/") else {
                        continue;
                    };
                    let cycles = rest.split_whitespace().next().and_then(|c| c.parse().ok());
                    if cycles != baselines.get(bench).map(|b| b.0) {
                        errors.push(format!(
                            "{tag}: {label} ran {cycles:?} cycles, the naive interpreter {:?}",
                            baselines.get(bench).map(|b| b.0)
                        ));
                    }
                }
                let failed = run.stdout.lines().filter(|l| l.starts_with("!! ")).count();
                Rep {
                    wall_s: run.wall_s,
                    ops: cells,
                    failed: failed as u64,
                    stdout: run.stdout,
                }
            }
            Target::Pipeline { draws, first, .. } => {
                let report = Records::parse(&run.stdout)
                    .map_err(|e| format!("{tag}: {e}"))
                    .and_then(|r| r.pipeline.ok_or(format!("{tag}: no pipeline record")));
                let report = match report {
                    Ok(r) => r,
                    Err(e) => {
                        errors.push(e);
                        PipelineReport::default()
                    }
                };
                let expected = draws[unit];
                if report.draws != expected {
                    errors.push(format!(
                        "{tag}: {} draws, expected {expected}",
                        report.draws
                    ));
                }
                let det = report.deterministic();
                match &mut first[unit] {
                    Some(f) if *f != det => errors.push(format!(
                        "{tag}: outputs differ from the first run's (digest {:016x} vs {:016x})",
                        det.digest, f.digest
                    )),
                    Some(_) => {}
                    slot => *slot = Some(det),
                }
                Rep {
                    wall_s: run.wall_s,
                    ops: report.draws,
                    failed: report.failed,
                    stdout: run.stdout,
                }
            }
        }
    }
}

/// `setup`: one warm-up, then [`SETUP_REPS_PER_CHILD`] timed set-ups
/// between calibrations, one duration in reference seconds per stdout line.
fn setup_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = bench_args(args)?;
    setup_once(&a);
    let mut before = calibrate::slowdown(1);
    for _ in 0..SETUP_REPS_PER_CHILD {
        let t = setup_once(&a);
        let after = calibrate::slowdown(1);
        println!("{}", t / ((before + after) / 2.0));
        before = after;
    }
    Ok(ExitCode::SUCCESS)
}

/// Times the set-ups of one `setup` child.
fn setup_child(a: &BenchArgs, exe: &Path, work: &Path) -> Result<Vec<f64>, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["setup", "--workload", a.workload.name(), "--seed"])
        .arg(a.seed.to_string())
        .args(["--scale", spec::scale_name(a.scale)]);
    run_child(cmd, work, "setup")?
        .stdout
        .lines()
        .map(|l| l.parse().map_err(|_| format!("setup: bad output `{l}`")))
        .collect()
}

/// One set-up: the seconds it takes to generate the workload's inputs and
/// bring each program to its first runnable form.
fn setup_once(a: &BenchArgs) -> f64 {
    let guidance = match a.workload {
        Workload::Suite | Workload::SuiteJobs2 => Guidance::None,
        Workload::SuitePgo => Guidance::WarmupAndPrepare,
        Workload::Pipeline => Guidance::Warmup,
    };
    let start = Instant::now();
    let draws =
        (a.workload == Workload::Pipeline).then(|| draws::draws(a.seed, draw_count(a.scale)));
    let programs = pipeline::set_up(a.scale, guidance);
    let t = start.elapsed().as_secs_f64();
    drop(std::hint::black_box((draws, programs)));
    t
}

/// The naive interpreter's (cycles, instructions) for each uninstrumented
/// program: the independent reference for the harness's baseline cells.
fn naive_baselines(scale: Scale) -> Result<BTreeMap<String, (u64, u64)>, String> {
    isf_workloads::suite(scale)
        .iter()
        .map(|w| {
            let o = run_naive(&w.compile(), &VmConfig::default())
                .map_err(|e| format!("naive baseline of {} trapped: {e}", w.name()))?;
            Ok((w.name().to_owned(), (o.cycles, o.instructions)))
        })
        .collect()
}

/// One unit's child: its wall time and the machine's slowdown around it.
#[derive(Copy, Clone)]
struct Timed {
    wall_s: f64,
    slowdown: f64,
}

impl Timed {
    /// The child's wall time on the reference machine.
    fn reference_s(self) -> f64 {
        self.wall_s / self.slowdown
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    Summary::of(&values.collect::<Vec<_>>()).map_or(f64::NAN, |s| s.median)
}

struct Measured {
    /// Per unit, one entry per pass.
    timed: Vec<Vec<Timed>>,
    labels: Vec<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static Metric, f64)>,
}

fn bench_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = bench_args(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let work = bin_dir.join(format!("isf-benchmark-work-{}", std::process::id()));
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = bench(&a, &exe, &work);
    let _ = fs::remove_dir_all(&work);
    let o = outcome?;

    println!(
        "isf-benchmark: workload {} seed {} scale {}: {} pass(es) over {} unit(s)",
        a.workload.name(),
        a.seed,
        spec::scale_name(a.scale),
        o.timed.first().map_or(0, Vec::len),
        o.timed.len()
    );
    let passes: Vec<f64> = (0..o.timed.first().map_or(0, Vec::len))
        .map(|p| o.timed.iter().map(|t| t[p].reference_s()).sum())
        .collect();
    if let Some(s) = Summary::of(&passes) {
        println!(
            "  pass, reference s: median {:.4}  q1 {:.4}  q3 {:.4}  min {:.4}  n {}",
            s.median, s.q1, s.q3, s.min, s.n
        );
    }
    for (label, t) in o.labels.iter().zip(&o.timed) {
        println!(
            "  {label:<8} wall median {:.4} s  slowdown median {:.3}  reference median {:.4} s",
            median_of(t.iter().map(|t| t.wall_s)),
            median_of(t.iter().map(|t| t.slowdown)),
            median_of(t.iter().map(|t| t.reference_s())),
        );
    }
    for (m, v) in &o.metrics {
        println!("  {:<30} {v} {}", m.name, m.unit);
    }
    for e in &o.errors {
        eprintln!("isf-benchmark: FAILED: {e}");
    }
    let correct = o.errors.is_empty();
    let metrics = o
        .metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.to_owned(),
                Json::obj([("value", Json::Num(*v)), ("unit", m.unit.into())]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj([
            ("correct", correct.into()),
            ("attempted", o.attempted.into()),
            ("failed", o.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn bench(a: &BenchArgs, exe: &Path, work: &Path) -> Result<Measured, String> {
    let mut errors = Vec::new();
    let mut target = match a.workload {
        Workload::Pipeline => {
            let draws = draws::draws(a.seed, draw_count(a.scale));
            if let Err(e) = pipeline::gate(&draws) {
                errors.push(format!("pipeline gate: {e}"));
            }
            let mut counts: Vec<u64> = (0..CHUNKS)
                .map(|i| draws::chunk(&draws, i).len() as u64)
                .collect();
            counts.push(draws.len() as u64);
            Target::Pipeline {
                exe: exe.to_owned(),
                first: vec![None; counts.len()],
                draws: counts,
            }
        }
        _ => {
            let harness =
                exe.with_file_name(format!("isf-harness{}", std::env::consts::EXE_SUFFIX));
            if !harness.is_file() {
                return Err(format!(
                    "{} not found: build isf-harness into the same target directory",
                    harness.display()
                ));
            }
            let order = draws::experiment_order(a.seed);
            let mut expected: Vec<String> = order
                .iter()
                .map(|e| spec::expected_stdout(a.scale, &[e]))
                .collect();
            expected.push(spec::expected_stdout(a.scale, &order));
            Target::Suite {
                harness,
                expected,
                order,
                baselines: naive_baselines(a.scale)?,
            }
        }
    };
    let threads = a.workload.jobs();
    let started = Instant::now();
    let mut timed = vec![Vec::new(); target.units()];
    let (mut setups, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let mut slowdown = calibrate::slowdown(threads);
    loop {
        let pass_started = Instant::now();
        for (unit, samples) in timed.iter_mut().enumerate() {
            let tag = format!("pass{}-{}", samples.len() + 1, target.label(unit));
            let run = run_child(target.command(a, unit, None), work, &tag)?;
            let after = calibrate::slowdown(threads);
            let rep = target.check(run, unit, &tag, &mut errors);
            attempted += rep.ops;
            failed += rep.failed;
            samples.push(Timed {
                wall_s: rep.wall_s,
                slowdown: (slowdown + after) / 2.0,
            });
            slowdown = after;
        }
        if !a.trace {
            setups.extend(setup_child(a, exe, work)?);
            slowdown = calibrate::slowdown(threads);
        }
        let passes = timed[0].len();
        let done = match a.runs {
            Some(r) => passes >= r,
            None => {
                passes >= MIN_PASSES
                    && started.elapsed().as_secs_f64() + pass_started.elapsed().as_secs_f64()
                        > a.seconds
            }
        };
        if done {
            break;
        }
    }

    let metrics = if a.trace {
        let layers = traced_layers(a, &mut target, exe, work, &mut errors)?;
        attempted += layers.1;
        failed += layers.2;
        spec::PER_LAYER
            .iter()
            .map(|m| {
                layers
                    .0
                    .get(m.name)
                    .map(|&v| (m, v))
                    .ok_or_else(|| format!("no value for per-layer metric {}", m.name))
            })
            .collect::<Result<_, _>>()?
    } else {
        while setups.len() < SETUP_REPS {
            setups.extend(setup_child(a, exe, work)?);
        }
        let setup_s = Summary::of(&setups).ok_or("no set-up ran")?.median;
        // Unit by unit, the median over passes: a pass that a slow spell
        // caught on one unit is outvoted on that unit alone.
        let wall_s = timed
            .iter()
            .map(|t| median_of(t.iter().map(|t| t.reference_s())))
            .sum();
        let pass = attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64;
        vec![wall_s, setup_s, peak_child_rss_mb()?, pass]
            .into_iter()
            .zip(spec::END_TO_END)
            .map(|(v, m)| (m, v))
            .collect()
    };
    Ok(Measured {
        labels: (0..target.units()).map(|u| target.label(u)).collect(),
        timed,
        attempted,
        failed,
        errors,
        metrics,
    })
}

/// A whole repetition in one child, untraced and then traced, each between
/// two calibrations, and for the suite workloads the probe: returns the
/// per-layer metrics and the two repetitions' operation and failure counts.
fn traced_layers(
    a: &BenchArgs,
    target: &mut Target,
    exe: &Path,
    work: &Path,
    errors: &mut Vec<String>,
) -> Result<(records::Layers, u64, u64), String> {
    let threads = a.workload.jobs();
    let whole = target.whole();
    let trace_out = work.join("trace.json");
    let emit = work.join("records.ndjson");
    let before = calibrate::slowdown(threads);
    let run = run_child(target.command(a, whole, None), work, "untraced")?;
    let between = calibrate::slowdown(threads);
    let untraced = target.check(run, whole, "untraced", errors);
    let run = run_child(
        target.command(a, whole, Some((&trace_out, &emit))),
        work,
        "traced",
    )?;
    let after = calibrate::slowdown(threads);
    let rep = target.check(run, whole, "traced", errors);
    let wrote_trace = fs::metadata(&trace_out).is_ok_and(|m| m.len() > 0);
    if !wrote_trace {
        errors.push("traced: no trace written".into());
    }
    let traced = Traced {
        wall_s: rep.wall_s / ((between + after) / 2.0),
        untraced_s: untraced.wall_s / ((before + between) / 2.0),
        failed: rep.failed,
    };
    let layers = match target {
        Target::Suite { baselines, .. } => {
            let stream =
                fs::read_to_string(&emit).map_err(|e| format!("{}: {e}", emit.display()))?;
            let harness = Records::parse(&stream).map_err(|e| format!("traced records: {e}"))?;
            if harness.cells.len() as u64 != rep.ops {
                errors.push(format!(
                    "traced: {} cell records for {} logged cells",
                    harness.cells.len(),
                    rep.ops
                ));
            }
            for c in &harness.cells {
                let Some(bench) = c.label.strip_prefix("prepare/") else {
                    continue;
                };
                if baselines.get(bench) != Some(&(c.sim_cycles, c.instructions)) {
                    errors.push(format!(
                        "traced: {} ran ({}, {}) cycles/instructions, the naive interpreter {:?}",
                        c.label,
                        c.sim_cycles,
                        c.instructions,
                        baselines.get(bench)
                    ));
                }
            }
            let probe_trace = work.join("probe-trace.json");
            let mut cmd = Command::new(exe);
            cmd.args(["pipeline", "--probe", "--scale", spec::scale_name(a.scale)])
                .arg("--trace-out")
                .arg(&probe_trace);
            let probe = run_child(cmd, work, "probe")?;
            let probe = Records::parse(&probe.stdout).map_err(|e| format!("probe: {e}"))?;
            records::suite_layers(&harness, &probe, a.workload.jobs(), &traced)?
        }
        Target::Pipeline { .. } => {
            let run = Records::parse(&rep.stdout).map_err(|e| format!("traced: {e}"))?;
            records::pipeline_layers(&run, &traced)?
        }
    };
    Ok((layers, untraced.ops + rep.ops, untraced.failed + rep.failed))
}

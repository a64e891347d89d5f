//! Schedule exploration (`--explore`): runs each benchmark under many
//! recorded thread schedules and proves the scheduling seam's contract
//! end to end.
//!
//! For every benchmark the mode records a round-robin baseline, then `N`
//! seeded-random schedules (plus a handful of PCT priority schedules and,
//! for programs with at most [`DFS_DECISION_CEILING`] round-robin decision
//! points, a bounded exhaustive DFS over the schedule tree), asserting on
//! each one:
//!
//! * the recorded [`ScheduleTrace`] replays **byte-identically** on every
//!   [`Engine`] — naive, prepared-unfused and prepared-fused, each with
//!   no sink, with a dispatch profile and with a burst trace — and every
//!   replay reports the same result ([`verify_replays`], which the
//!   integration tests' differential oracle shares);
//! * naive and unfused-prepared per-opcode profiles are equal, every
//!   engine's profiled totals reconcile with the outcome's `cycles` /
//!   `instructions` / `samples_taken` counters, and every engine records
//!   the same burst trace;
//! * the schedule-independent observables ([`Outcome::schedule_invariant_eq`]:
//!   stdout, the aggregated profile, check/sample/yield/entry/backedge
//!   counters) match the round-robin baseline;
//! * per-thread `CounterPerThread` sample counts are a
//!   schedule-independent multiset (permutation-equivalent across
//!   schedules).
//!
//! A violated assertion panics with the benchmark, the schedule's seed,
//! and the trace's compact form; the cell engine catches it, annotates the
//! benchmark with a `!!` line (and an `error` JSONL record), and the run
//! exits nonzero — re-running with the printed seed reproduces the exact
//! schedule deterministically on every engine configuration.

use std::collections::BTreeMap;
use std::fmt;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{
    BurstRecord, Code, Engine, ExecLimits, OpProfile, Outcome, Request, SchedControl, SchedPolicy,
    ScheduleTrace, TraceBuffer, Trigger, VmConfig, VmError,
};
use isf_ir::Module;
use isf_obs::Json;
use isf_workloads::Workload;

use crate::runner::{cell, plan_for, split_results, AttemptCancel, CellError, Harness, Kinds};
use crate::{write_errors, Scale};

/// Programs whose round-robin run has at most this many decision points
/// also get a bounded exhaustive DFS over the schedule tree.
pub const DFS_DECISION_CEILING: usize = 10;

/// Cap on DFS-enumerated schedules, so a bushy tree stays bounded.
pub const DFS_SCHEDULE_CAP: usize = 128;

/// Sampling interval of the per-thread counter trigger exploration runs
/// execute under — per-thread, so sample counts are schedule-invariant.
const SAMPLE_INTERVAL: u64 = 13;

/// Fuel cap for exploration runs: generous, since instrumented workloads
/// at paper scale stay well below it, but finite so a scheduling bug that
/// livelocks a program is reported instead of hanging the harness.
const EXPLORE_FUEL: u64 = 50_000_000_000;

/// A parsed `--explore schedules=N[,seed=S]` spec.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Number of seeded-random schedules per benchmark.
    pub schedules: u32,
    /// Base seed the per-schedule seeds are derived from.
    pub seed: u64,
}

/// Parses `schedules=N[,seed=S]` (either order, `seed` optional, default
/// seed `0x5EED`).
///
/// # Errors
///
/// Returns a one-line message naming what is wrong with the spec.
pub fn parse_spec(spec: &str) -> Result<ExploreSpec, String> {
    let mut schedules = None;
    let mut seed = 0x5EED;
    for part in spec.split(',') {
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!(
                "expected `schedules=N[,seed=S]`, got `{part}` in `{spec}`"
            ));
        };
        match key {
            "schedules" => {
                let n = value
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| (1..=100_000).contains(&n))
                    .ok_or_else(|| {
                        format!("`schedules` must be an integer in 1..=100000, got `{value}`")
                    })?;
                schedules = Some(n);
            }
            "seed" => {
                // Accept the `0x` form too: failure reports print the seed in
                // hex, and `seed=<copied value>` must replay them verbatim.
                let parsed = match value
                    .strip_prefix("0x")
                    .or_else(|| value.strip_prefix("0X"))
                {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse::<u64>(),
                };
                seed = parsed.map_err(|_| {
                    format!(
                        "`seed` must be a non-negative integer (decimal or 0x-hex), got `{value}`"
                    )
                })?;
            }
            other => {
                return Err(format!(
                    "unknown key `{other}` in `{spec}` (expected `schedules` and optional `seed`)"
                ));
            }
        }
    }
    let schedules = schedules.ok_or_else(|| format!("`{spec}` is missing `schedules=N`"))?;
    Ok(ExploreSpec { schedules, seed })
}

/// splitmix64-style derivation of schedule `i`'s seed from the base seed,
/// so neighbouring indices get decorrelated streams.
fn derive_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One benchmark's exploration report.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Decision points in the round-robin baseline schedule.
    pub decisions: usize,
    /// Seeded-random schedules recorded and verified.
    pub random: u32,
    /// PCT priority schedules recorded and verified.
    pub pct: u32,
    /// DFS-enumerated schedules verified (0 when the tree was too deep).
    pub dfs: usize,
    /// Whether the DFS enumerated the whole tree (as opposed to being
    /// skipped for depth or stopped by [`DFS_SCHEDULE_CAP`]).
    pub dfs_exhausted: bool,
}

/// The exploration's outcome across all requested benchmarks.
#[derive(Clone, Debug)]
pub struct Explore {
    /// The spec the run used.
    pub spec: ExploreSpec,
    /// Per-benchmark reports, submission order.
    pub rows: Vec<Row>,
    /// Benchmarks whose exploration failed an assertion (or trapped).
    pub errors: Vec<CellError>,
}

/// Runs schedule exploration over `benches`, one isolated cell per
/// benchmark.
pub fn run(h: &Harness, scale: Scale, spec: ExploreSpec, benches: &[String]) -> Explore {
    let workloads: Vec<Workload> = benches
        .iter()
        .map(|name| {
            isf_workloads::by_name(name, scale)
                .unwrap_or_else(|| panic!("benchmark `{name}` was validated by the CLI"))
        })
        .collect();
    let results = h.par_cells_isolated(
        workloads
            .iter()
            .map(|w| {
                cell(format!("explore/{}", w.name()), move || {
                    explore_bench(w, spec)
                })
            })
            .collect(),
    );
    let (rows, errors) = split_results(results);
    Explore { spec, rows, errors }
}

/// Instruments a program with call-edge profiling under Full-Duplication,
/// so runs execute checks and the per-thread trigger has something to fire
/// on (an uninstrumented module never samples).
#[must_use]
pub fn instrumented(module: &Module) -> Module {
    let plan = plan_for(module, Kinds::CallEdge);
    let (out, _) = instrument_module(module, &plan, &Options::new(Strategy::FullDuplication))
        .expect("call-edge Full-Duplication is a valid configuration");
    out
}

/// One recorded schedule: the run result, its trace, and the sorted
/// multiset of per-thread sample counts (from the burst-trace sink).
struct Recorded {
    result: Result<Outcome, VmError>,
    trace: ScheduleTrace,
    samples_by_thread: Vec<u64>,
}

/// Every engine's code for one benchmark, loaded once and replayed under
/// every schedule.
type Engines = Vec<(Engine, Code<'static>)>;

/// Records one schedule on the fused prepared engine under `ctl`,
/// collecting burst records for the per-thread sample multiset (that they
/// account for every sample is [`verify_replays`]'s to check).
fn record(fused: &Code, cfg: &VmConfig, mut ctl: SchedControl) -> Recorded {
    let mut buf = TraceBuffer::new();
    let cancel = AttemptCancel::current();
    let request = cancel.apply(Request::new(cfg));
    let result = fused.execute(request.trace(&mut buf).sched(&mut ctl));
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for r in buf.records() {
        *counts.entry(r.thread).or_insert(0) += 1;
    }
    let mut samples_by_thread: Vec<u64> = counts.into_values().collect();
    samples_by_thread.sort_unstable();
    Recorded {
        result,
        trace: ctl.take_trace(),
        samples_by_thread,
    }
}

/// One replay of a recorded schedule on one engine, with at most one sink.
struct Replay {
    /// The engine replayed on.
    engine: Engine,
    /// The engine's label, suffixed with the replay's sink.
    label: String,
    /// The replayed run's result.
    result: Result<Outcome, VmError>,
    /// The schedule the replay consumed.
    trace: ScheduleTrace,
    /// The dispatch profile, for the profiled replay of each engine.
    profile: Option<OpProfile>,
    /// The burst records, for the traced replay of each engine.
    bursts: Option<Vec<BurstRecord>>,
}

/// Replays `trace` on every engine in `engines` three times: with no
/// sink, with a dispatch profile and with a burst trace.
fn replay_all(engines: &[(Engine, Code)], cfg: &VmConfig, trace: &ScheduleTrace) -> Vec<Replay> {
    let cancel = AttemptCancel::current();
    let mut replays = Vec::new();
    for (engine, code) in engines {
        for sink in 0..3 {
            let mut profile = OpProfile::new();
            let mut bursts = TraceBuffer::new();
            let mut ctl = SchedControl::replay(trace.clone());
            let request = cancel.apply(Request::new(cfg)).sched(&mut ctl);
            let result = match sink {
                0 => code.execute(request),
                1 => code.execute(request.profile(&mut profile)),
                _ => code.execute(request.trace(&mut bursts)),
            };
            replays.push(Replay {
                engine: *engine,
                label: engine.label().to_owned() + ["", "+profiled", "+traced"][sink],
                result,
                trace: ctl.take_trace(),
                profile: (sink == 1).then_some(profile),
                bursts: (sink == 2).then(|| bursts.into_records()),
            });
        }
    }
    replays
}

/// Replays `trace`, recorded with `result`, on every engine — the
/// reference first — and asserts the cross-engine contract. Each engine
/// replays with no sink, with a dispatch profile and with a burst trace,
/// and every replay must:
///
/// * consume the trace byte for byte and report `result` exactly;
/// * for a profiled replay, have the reference's dynamic instruction,
///   cycle and sample totals (traps included) and, when the run
///   completed, reconcile them with the outcome's counters;
/// * for a traced replay, record the reference's burst trace, which for
///   a completed run holds one record per sample and tiles the run.
///
/// Naive and unfused per-opcode profiles must be equal. `what` names the
/// program and schedule for failure messages.
///
/// # Panics
///
/// Panics, naming `what` and the trace, if the contract is violated.
pub fn verify_replays(
    engines: &[(Engine, Code)],
    cfg: &VmConfig,
    result: &Result<Outcome, VmError>,
    trace: &ScheduleTrace,
    what: &str,
) {
    let compact = trace.to_compact_string();
    let replays = replay_all(engines, cfg, trace);
    let reference = replays[0].engine.label();
    let totals = |p: &OpProfile| {
        let samples = p.checks_per_sample().len() as u64;
        (p.total_instructions(), p.total_cycles(), samples)
    };
    let ref_totals = replays.iter().find_map(|r| r.profile.as_ref()).map(totals);
    let ref_bursts = replays.iter().find_map(|r| r.bursts.as_ref());
    for r in &replays {
        let label = &r.label;
        assert_eq!(
            &r.trace, trace,
            "{what}: {label}: replayed trace diverged from recording (trace {compact})"
        );
        assert_eq!(
            &r.result, result,
            "{what}: {label}: replayed result diverged (trace {compact})"
        );
        if let Some(profile) = &r.profile {
            assert_eq!(
                Some(totals(profile)),
                ref_totals,
                "{what}: {label}: profile totals diverged from {reference} (trace {compact})"
            );
            if let Ok(o) = result {
                assert_eq!(
                    totals(profile),
                    (o.instructions, o.cycles, o.samples_taken),
                    "{what}: {label}: profile doesn't reconcile with the outcome (trace {compact})"
                );
            }
        }
        if let Some(bursts) = &r.bursts {
            assert_eq!(
                Some(bursts),
                ref_bursts,
                "{what}: {label}: burst trace diverged from {reference} (trace {compact})"
            );
        }
    }
    if let (Ok(o), Some(bursts)) = (result, ref_bursts) {
        let cycles: u64 = bursts.iter().map(|b| b.len_cycles).sum();
        let instructions: u64 = bursts.iter().map(|b| b.len_instructions).sum();
        assert!(
            bursts.len() as u64 == o.samples_taken
                && cycles <= o.cycles
                && instructions <= o.instructions
                && bursts.iter().all(|b| b.len_cycles > 0),
            "{what}: burst trace doesn't tile the run (trace {compact})"
        );
    }
    let profile_of = |engine| {
        replays
            .iter()
            .find_map(|r| r.profile.as_ref().filter(|_| r.engine == engine))
    };
    assert_eq!(
        profile_of(Engine::Naive),
        profile_of(Engine::Unfused),
        "{what}: naive vs unfused per-opcode profiles diverged (trace {compact})"
    );
}

/// Asserts the cross-schedule invariants of `rec` against the round-robin
/// baseline, then the cross-engine replay contract.
fn verify_schedule(
    engines: &Engines,
    cfg: &VmConfig,
    baseline: &Recorded,
    rec: &Recorded,
    what: &str,
) {
    let compact = rec.trace.to_compact_string();
    let base = baseline
        .result
        .as_ref()
        .expect("the baseline completed (checked before exploring)");
    let outcome = rec.result.as_ref().unwrap_or_else(|e| {
        panic!("{what}: run failed under this schedule: {e} (trace {compact})")
    });
    assert!(
        base.schedule_invariant_eq(outcome),
        "{what}: a schedule-independent observable changed (trace {compact})"
    );
    assert_eq!(
        rec.samples_by_thread, baseline.samples_by_thread,
        "{what}: per-thread sample counts are not permutation-equivalent (trace {compact})"
    );
    verify_replays(engines, cfg, &rec.result, &rec.trace, what);
}

/// Bounded exhaustive DFS over the schedule tree: enumerates schedules in
/// lexicographic order by forcing choice prefixes, verifying each one,
/// until the tree is exhausted or [`DFS_SCHEDULE_CAP`] is reached.
/// Returns the number of schedules verified and whether the tree was
/// fully enumerated.
fn dfs_explore(
    bench: &str,
    engines: &Engines,
    cfg: &VmConfig,
    fused: &Code,
    baseline: &Recorded,
) -> (usize, bool) {
    let mut prefix: Vec<u32> = Vec::new();
    let mut runs = 0;
    loop {
        if runs >= DFS_SCHEDULE_CAP {
            return (runs, false);
        }
        let rec = record(fused, cfg, SchedControl::prefix(prefix.clone()));
        runs += 1;
        let what = format!("{bench}: dfs schedule #{runs}");
        verify_schedule(engines, cfg, baseline, &rec, &what);
        // Backtrack: bump the deepest choice that still has an untried
        // sibling; the tree is exhausted when none does.
        let choices = &rec.trace.choices;
        let Some(i) = (0..choices.len()).rfind(|&i| choices[i].pos + 1 < choices[i].count) else {
            return (runs, true);
        };
        prefix = choices[..i].iter().map(|c| c.pos).collect();
        prefix.push(choices[i].pos + 1);
    }
}

/// Explores one benchmark: round-robin baseline, seeded-random and PCT
/// schedules, and the bounded DFS where the tree is shallow enough.
fn explore_bench(w: &Workload, spec: ExploreSpec) -> Row {
    let bench = w.name();
    let module = instrumented(&w.compile());
    let cfg = VmConfig {
        trigger: Trigger::CounterPerThread {
            interval: SAMPLE_INTERVAL,
        },
        limits: ExecLimits::cycles(EXPLORE_FUEL),
        ..VmConfig::default()
    };
    let engines: Engines = Engine::ALL
        .iter()
        .map(|&engine| (engine, engine.load(&module, &cfg.cost)))
        .collect();
    let fused = &Engine::Fused.load(&module, &cfg.cost);

    let baseline = record(
        fused,
        &cfg,
        SchedControl::recording(SchedPolicy::RoundRobin),
    );
    if let Err(e) = &baseline.result {
        panic!("{bench}: round-robin baseline failed: {e}");
    }
    let what = format!("{bench}: round-robin baseline");
    verify_replays(&engines, &cfg, &baseline.result, &baseline.trace, &what);
    let decisions = baseline.trace.len();

    // A run with no decision points is the same execution under every
    // policy; one confirming schedule proves that, the rest would be
    // byte-for-byte repeats.
    let random_schedules = if decisions == 0 { 1 } else { spec.schedules };
    for i in 0..random_schedules {
        let seed = derive_seed(spec.seed, u64::from(i));
        let what = format!("{bench}: seeded-random schedule seed={seed:#x}");
        let rec = record(
            fused,
            &cfg,
            SchedControl::recording(SchedPolicy::SeededRandom { seed }),
        );
        if decisions == 0 {
            assert!(
                rec.trace.is_empty(),
                "{what}: recorded a decision the round-robin baseline never hit"
            );
        }
        verify_schedule(&engines, &cfg, &baseline, &rec, &what);
    }

    let pct_schedules = if decisions == 0 {
        1
    } else {
        spec.schedules.div_ceil(4).min(8)
    };
    for i in 0..pct_schedules {
        let seed = derive_seed(spec.seed ^ 0x9C7_9C7, u64::from(i));
        let depth = 1 + i % 3;
        let what = format!("{bench}: pct schedule seed={seed:#x} depth={depth}");
        let rec = record(
            fused,
            &cfg,
            SchedControl::recording(SchedPolicy::PctPriority { seed, depth }),
        );
        verify_schedule(&engines, &cfg, &baseline, &rec, &what);
    }

    let (dfs, dfs_exhausted) = if decisions <= DFS_DECISION_CEILING {
        dfs_explore(bench, &engines, &cfg, fused, &baseline)
    } else {
        (0, false)
    };

    Row {
        bench,
        decisions,
        random: random_schedules,
        pct: pct_schedules,
        dfs,
        dfs_exhausted,
    }
}

impl Explore {
    /// Emits the report as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::emit;
        if !emit::enabled() {
            return;
        }
        for r in &self.rows {
            emit::record(&Json::obj([
                ("type", "explore".into()),
                ("bench", r.bench.into()),
                ("seed", format!("{:#x}", self.spec.seed).into()),
                ("decisions", r.decisions.into()),
                ("random_schedules", u64::from(r.random).into()),
                ("pct_schedules", u64::from(r.pct).into()),
                ("dfs_schedules", r.dfs.into()),
                ("dfs_exhausted", r.dfs_exhausted.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "explore".into()),
            ("verified", self.rows.len().into()),
            ("failed", self.errors.len().into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Explore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Schedule exploration: {} random schedule(s) per benchmark, seed {:#x}",
            self.spec.schedules, self.spec.seed
        )?;
        writeln!(
            f,
            "{:<14} {:>10} {:>8} {:>6} {:>10}",
            "benchmark", "decisions", "random", "pct", "dfs"
        )?;
        for r in &self.rows {
            let dfs = if r.dfs == 0 && !r.dfs_exhausted {
                "-".to_owned()
            } else if r.dfs_exhausted {
                format!("{} (all)", r.dfs)
            } else {
                format!("{} (cap)", r.dfs)
            };
            writeln!(
                f,
                "{:<14} {:>10} {:>8} {:>6} {:>10}",
                r.bench, r.decisions, r.random, r.pct, dfs
            )?;
        }
        writeln!(
            f,
            "{} of {} benchmark(s) verified on all {} engine configurations",
            self.rows.len(),
            self.rows.len() + self.errors.len(),
            Engine::ALL.len()
        )?;
        write_errors(f, &self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isf_exec::{CancelToken, TrapKind};

    #[test]
    fn a_fired_attempt_token_reaches_recordings_and_replays() {
        // The token a cell attempt's watchdog fires must stop `--explore`'s
        // runs too, not just `Harness::run_prepared_module`'s.
        let token = CancelToken::new();
        token.cancel();
        AttemptCancel::set(Some(token));
        let module = instrumented(
            &isf_workloads::by_name("db", Scale::Smoke)
                .unwrap()
                .compile(),
        );
        let cfg = VmConfig::default();
        let engines: Engines = Engine::ALL
            .iter()
            .map(|&engine| (engine, engine.load(&module, &cfg.cost)))
            .collect();
        let fused = &Engine::Fused.load(&module, &cfg.cost);
        let rec = record(
            fused,
            &cfg,
            SchedControl::recording(SchedPolicy::RoundRobin),
        );
        let replays = replay_all(&engines, &cfg, &rec.trace);
        AttemptCancel::set(None);
        let cancelled =
            |r: &Result<Outcome, VmError>| matches!(r, Err(e) if e.kind == TrapKind::Cancelled);
        assert!(cancelled(&rec.result), "recording: {:?}", rec.result);
        assert_eq!(replays.len(), 9);
        for r in &replays {
            assert!(cancelled(&r.result), "{}: {:?}", r.label, r.result);
        }
    }

    #[test]
    fn spec_parses_with_and_without_seed() {
        assert_eq!(
            parse_spec("schedules=32"),
            Ok(ExploreSpec {
                schedules: 32,
                seed: 0x5EED
            })
        );
        assert_eq!(
            parse_spec("schedules=4,seed=99"),
            Ok(ExploreSpec {
                schedules: 4,
                seed: 99
            })
        );
        assert_eq!(
            parse_spec("seed=7,schedules=1"),
            Ok(ExploreSpec {
                schedules: 1,
                seed: 7
            })
        );
        // The hex form round-trips the seed a failure report prints.
        assert_eq!(
            parse_spec("schedules=1,seed=0xfeed"),
            Ok(ExploreSpec {
                schedules: 1,
                seed: 0xFEED
            })
        );
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "",
            "schedules=0",
            "schedules=-1",
            "schedules=many",
            "schedules=100001",
            "seed=7",
            "schedules=4,seed=x",
            "schedules=4,bogus=1",
            "32",
        ] {
            let e = parse_spec(bad).expect_err(bad);
            assert!(!e.contains('\n'), "`{bad}`: must be one line: {e}");
        }
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0), "derivation is deterministic");
    }

    /// End-to-end over the in-process API: a multithreaded benchmark with
    /// real decision points and a single-threaded one (empty traces, DFS
    /// exhausts immediately) both verify clean at smoke scale. `pbob`'s
    /// schedule tree is small enough for the DFS to enumerate it whole.
    #[test]
    fn explores_one_threaded_and_one_single_threaded_benchmark() {
        let spec = ExploreSpec {
            schedules: 2,
            seed: 0xA5,
        };
        let benches = ["pbob".to_owned(), "db".to_owned()];
        let report = run(&Harness::default(), Scale::Smoke, spec, &benches);
        assert!(
            report.errors.is_empty(),
            "exploration failed: {:?}",
            report.errors
        );
        assert_eq!(report.rows.len(), 2);
        let pbob = &report.rows[0];
        assert!(pbob.decisions > 0, "pbob must interleave");
        assert_eq!(pbob.random, 2);
        if pbob.decisions <= DFS_DECISION_CEILING {
            assert!(pbob.dfs >= 1, "a shallow tree must be DFS-explored");
        } else {
            assert_eq!(pbob.dfs, 0, "a deep tree skips the DFS");
        }
        let db = &report.rows[1];
        assert_eq!(db.decisions, 0, "db is single-threaded");
        assert_eq!(db.random, 1, "no decisions: one confirming schedule");
        assert_eq!(db.dfs, 1, "the empty tree has exactly one schedule");
        assert!(db.dfs_exhausted);
        let rendered = report.to_string();
        assert!(rendered.contains("pbob"), "{rendered}");
        assert!(rendered.contains("2 of 2"), "{rendered}");
    }
}

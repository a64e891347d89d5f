//! Command-line entry point: regenerate any table or figure of the paper,
//! optionally as a machine-readable JSONL stream, with crash-safe
//! durability for long runs.
//!
//! ```text
//! isf-harness [--scale smoke|default|paper] [--jobs N]
//!             [--emit json|off] [--emit-path FILE]
//!             [--retries N] [--cell-budget CYCLES]
//!             [--cell-deadline MS] [--run-deadline MS]
//!             [--cancel-after-cycles CYCLES]
//!             [--fault-inject p=<prob>[,seed=<s>]]
//!             [--journal FILE] [--resume] [--no-fuse] [--pgo]
//!             [--profile] [--trace-out FILE] <experiment>...
//! isf-harness --explore schedules=N[,seed=S] [--scale ...] [--jobs N]
//!             [--emit json|off] [--emit-path FILE] <benchmark>...|all
//! isf-harness validate-jsonl <FILE>
//! experiments: table1 table2 table3 table4 table5 fig7 fig8 extras all
//! ```
//!
//! The harness settings (`--jobs`, `--retries`, `--cell-budget`,
//! `--cell-deadline`, `--cancel-after-cycles`, `--fault-inject`,
//! `--no-fuse`, `--pgo`) are resolved once by `cli::parse` into a
//! `HarnessConfig` — flag, else `ISF_*` variable, else default; a
//! malformed variable exits 1 with the flag's diagnostic — and `main`
//! passes it down inside a `Harness`, which also owns the preparation
//! cache and the deadline-hit flag read at exit. Only the observation
//! sinks (emit mode, span and metrics gates, log level) and the attached
//! journal stay process-wide.
//!
//! Experiment cells run on `N` worker threads (default: `ISF_JOBS` or the
//! machine's available parallelism). The VM is deterministic, so the
//! tables on stdout are byte-identical for every job count; per-cell
//! statistics go to stderr through the leveled logger
//! (`ISF_LOG=off|cells|debug`).
//!
//! With `--emit json` (or `ISF_EMIT=json`) the run also produces a JSONL
//! stream — one `meta` record, then per-cell metrics, table rows,
//! summaries, and phase timings — written to stdout (replacing the human
//! tables) or, with `--emit-path FILE`, to the file while the tables stay
//! on stdout. The stream is byte-stable across `--jobs` counts when
//! wall-clock fields are redacted (`ISF_EMIT_REDACT_WALL=1`); see
//! `schemas/harness-jsonl.schema.json` for the record contract.
//!
//! With `--journal FILE` (or `ISF_JOURNAL`) every finished cell is
//! appended to a crash-safe journal; SIGINT/SIGTERM drain in-flight cells
//! and exit with code 75 (resumable), and `--resume` replays the journal
//! so the completed run's stdout and JSONL are byte-identical to an
//! uninterrupted run's.
//!
//! With `--cell-deadline MS` (or `ISF_CELL_DEADLINE`) a watchdog thread
//! cooperatively cancels any cell attempt that runs longer than `MS`
//! wall-clock milliseconds; the cell is annotated (`!!`, a `deadline`
//! error record) while its siblings complete, and the run exits 75.
//! `--run-deadline MS` bounds the whole run: when it elapses the harness
//! stops claiming new cells, drains in-flight ones through the same
//! machinery as SIGINT, and exits 75 — with `--journal`, a later
//! `--resume` picks up exactly where the deadline stopped it.
//! `--cancel-after-cycles CYCLES` (or `ISF_CANCEL_AFTER`) cancels every
//! cell run at a fixed *simulated* cycle instead — deterministic, so
//! tests can exercise the deadline plumbing byte-reproducibly.
//!
//! With `--no-fuse` (or `ISF_FUSE=0`) the prepared engine skips the
//! superinstruction fusion pass. Fusion is observably equivalent — every
//! table, cycle count, and JSONL record is byte-identical either way —
//! so the flag exists for ablation measurements and the CI equivalence
//! diff, not for correctness.
//!
//! With `--pgo` (or `ISF_PGO=1`) the preparation cache serves each module
//! through a warmup-then-reprepare flow: a short profiling cell runs the
//! statically fused form, its folded profile is distilled into fusion
//! guidance, and the module is re-prepared with guided superinstructions
//! covering the call-dense sequences the static catalogue cannot express.
//! Observable results are byte-identical to a statically-fused (or
//! unfused) run; only fusion coverage moves.
//!
//! With `--profile` (or `ISF_PROFILE=1`) the VM self-profiles: engines
//! run through the per-opcode `ProfileSink`, dispatch/cycle attribution
//! and trigger gap histograms land in the metrics registry, a
//! fusion-coverage report prints to stderr, and the JSONL stream gains a
//! `metrics` and a `span-summary` record plus preparation-cache counters
//! on each `summary`. Cycle counts and traps are identical with and
//! without profiling; with it off, output is byte-identical to a build
//! without the subsystem. `--trace-out FILE` additionally records
//! hierarchical spans (run → phase → experiment → cell → attempt) and
//! writes them as Chrome trace-event JSON, loadable in Perfetto.
//!
//! With `--explore schedules=N[,seed=S]` the harness fuzzes the
//! green-thread scheduler instead of running experiments: for each named
//! benchmark it records a round-robin baseline, `N` seeded-random and a
//! smaller set of PCT-priority schedules, plus a bounded exhaustive DFS
//! when the schedule tree is shallow, replaying every schedule trace
//! byte-identically on all four engine configurations and asserting the
//! schedule-independent observables never vary. A failure prints the
//! benchmark, seed, and compact trace that reproduce the interleaving
//! deterministically; `--emit json` adds one `explore` record per
//! benchmark.

use std::path::PathBuf;
use std::process::ExitCode;

use isf_harness::cli::{self, CliError, Command, ExploreConfig, RunConfig};
use isf_harness::runner::Harness;
use isf_harness::{
    explore, extras, fig7, fig8, journal, jsonl, spin, table1, table2, table3, table4, table5,
};
use isf_obs::{emit, log, metrics, span, Json};

/// Registers a drain request for SIGINT/SIGTERM. The handler only flips
/// an atomic flag — async-signal-safe — and the worker pool does the
/// actual draining: in-flight cells finish, get journaled, and the
/// process exits with [`journal::RESUMABLE_EXIT`].
extern "C" fn on_interrupt(_sig: i32) {
    journal::request_drain();
}

fn install_drain_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_interrupt` is async-signal-safe (a single atomic store)
    // and matches the handler ABI `signal(2)` expects.
    unsafe {
        signal(SIGINT, on_interrupt);
        signal(SIGTERM, on_interrupt);
    }
}

fn usage_failure() -> ExitCode {
    log::error(cli::USAGE);
    ExitCode::FAILURE
}

/// Emits one `phase` record per accumulated phase, draining the global
/// accumulator. Called after each experiment so the timings attribute to
/// it. When span tracing is on, each phase total also enters the trace as
/// a completed span under the experiment it belongs to.
fn emit_phases(experiment: &str) {
    for p in emit::take_phases() {
        span::record_completed("phase", format!("{experiment}/{}", p.name), p.wall_ns);
        if !emit::enabled() {
            continue;
        }
        emit::record(&Json::obj([
            ("type", "phase".into()),
            ("experiment", experiment.to_owned().into()),
            ("name", p.name.into()),
            ("count", p.count.into()),
            ("wall_ns", emit::wall_ns(p.wall_ns)),
        ]));
    }
}

/// Derives and logs the fusion-coverage report: the share of each
/// benchmark's dynamic instruction stream the prepared engine executed
/// through fused superinstructions. Goes to stderr (never stdout, which
/// must stay byte-identical to a profiling-disabled run) and into the
/// metrics registry as `fusion.<bench>.*` counters.
fn report_fusion_coverage(harness: &Harness, scale: isf_harness::Scale) {
    log::cells("[profile] fusion coverage (dynamic instructions executed fused):");
    for c in harness.fusion_coverage(scale) {
        if harness.config.pgo {
            log::cells(&format!(
                "[profile]   {:<10} {:>5.1}%  ({} / {} instructions, {} guided = {:.1}%)",
                c.name,
                c.coverage_pct,
                c.fused_instructions,
                c.total_instructions,
                c.guided_instructions,
                c.guided_pct()
            ));
        } else {
            log::cells(&format!(
                "[profile]   {:<10} {:>5.1}%  ({} / {} instructions)",
                c.name, c.coverage_pct, c.fused_instructions, c.total_instructions
            ));
        }
    }
}

/// Drains the span tracer and metrics registry at the end of a run:
/// writes the Chrome trace file (`--trace-out`) and appends the `metrics`
/// and `span-summary` records to the JSONL stream when profiling is
/// enabled. Entirely a no-op when neither profiling nor tracing was
/// requested, so default runs stay byte-identical.
fn finish_observability(cfg: &RunConfig) -> Result<(), ExitCode> {
    if !cfg.profile && cfg.trace_out.is_none() {
        return Ok(());
    }
    let events = span::take_events();
    if let Some(path) = &cfg.trace_out {
        let trace = span::chrome_trace(&events);
        if let Err(e) = std::fs::write(path, format!("{trace}\n")) {
            log::error(&format!("--trace-out {}: {e}", path.display()));
            return Err(ExitCode::FAILURE);
        }
        log::cells(&format!(
            "[trace] wrote {} span(s) to {}",
            events.len(),
            path.display()
        ));
    }
    if cfg.profile && emit::enabled() {
        emit::record(&metrics::snapshot().to_json());
        emit::record(&span::summary_record(&span::summarize(&events)));
    }
    Ok(())
}

fn validate_jsonl(path: &str) -> ExitCode {
    let stream = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            log::error(&format!("validate-jsonl: {path}: {e}"));
            return ExitCode::FAILURE;
        }
    };
    match jsonl::validate(&stream) {
        Ok(n) => {
            println!("{path}: {n} records OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            log::error(&format!("validate-jsonl: {path}: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// Attaches the cell journal when one is configured (`--journal` or
/// `ISF_JOURNAL`): fresh for a normal run, replaying for `--resume`.
/// Returns an error message when the run must not proceed.
fn attach_journal(cfg: &RunConfig) -> Result<(), String> {
    let journal_path = cfg.journal.clone().or_else(|| {
        std::env::var("ISF_JOURNAL")
            .ok()
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
    });
    let Some(path) = journal_path else {
        if cfg.resume {
            return Err("--resume needs a journal: pass --journal FILE or set ISF_JOURNAL".into());
        }
        return Ok(());
    };
    let inputs = cfg.harness.run_inputs(cfg.scale, &cfg.experiments);
    if cfg.resume {
        let replayable = journal::open_resume(&path, &inputs)
            .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
        log::cells(&format!(
            "[journal] resuming from {}: {replayable} finished cell(s) will be replayed",
            path.display()
        ));
    } else {
        journal::start_fresh(&path, &inputs)
            .map_err(|e| format!("cannot start journal {}: {e}", path.display()))?;
    }
    install_drain_handlers();
    Ok(())
}

/// Runs schedule exploration (`--explore`): one isolated cell per
/// benchmark, the report on stdout (or emitted as `explore` JSONL
/// records), nonzero exit when any benchmark failed verification — the
/// `!!` annotation and `error` record carry the seed and trace that
/// reproduce the failing schedule.
fn run_explore(cfg: &ExploreConfig) -> ExitCode {
    if let Some(json) = cfg.emit_json {
        emit::set_mode(if json {
            emit::EmitMode::Json
        } else {
            emit::EmitMode::Off
        });
    }
    let emitting = emit::enabled();
    let report_to_stdout = !emitting || cfg.emit_path.is_some();
    if emitting {
        emit::take_phases();
        emit::record(&Json::obj([
            ("type", "meta".into()),
            ("schema", "isf-harness-jsonl/1".into()),
            ("scale", isf_harness::scale_name(cfg.scale).into()),
            (
                "experiments",
                Json::Arr(cfg.benches.iter().map(|e| e.as_str().into()).collect()),
            ),
        ]));
    }
    let harness = Harness::new(cfg.harness.clone());
    let report = explore::run(&harness, cfg.scale, cfg.spec, &cfg.benches);
    if report_to_stdout {
        println!("{report}");
    }
    report.emit_jsonl();
    for e in &report.errors {
        log::error(&format!(
            "isf-harness: explore: {e} (the seed in the message replays this schedule deterministically)"
        ));
    }
    if emitting {
        let stream = emit::drain();
        match &cfg.emit_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &stream) {
                    log::error(&format!("--emit-path {}: {e}", path.display()));
                    return ExitCode::FAILURE;
                }
            }
            None => print!("{stream}"),
        }
    }
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(cfg: &RunConfig) -> ExitCode {
    let harness = Harness::new(cfg.harness.clone());
    if cfg.profile {
        metrics::set_enabled(true);
    }
    if cfg.profile || cfg.trace_out.is_some() {
        span::set_enabled(true);
    }
    if let Some(json) = cfg.emit_json {
        emit::set_mode(if json {
            emit::EmitMode::Json
        } else {
            emit::EmitMode::Off
        });
    }
    if let Err(msg) = attach_journal(cfg) {
        log::error(&format!("isf-harness: {msg}"));
        return ExitCode::FAILURE;
    }
    if let Some(ms) = cfg.run_deadline.filter(|&ms| ms > 0) {
        // A detached timer: when the run deadline elapses it requests the
        // same drain SIGINT does — stop claiming cells, finish (and
        // journal) in-flight ones, exit resumable. If the run finishes
        // first the process exits and the timer dies with it.
        std::thread::Builder::new()
            .name("isf-run-deadline".into())
            .spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                journal::request_drain();
            })
            .expect("spawn run-deadline timer");
    }

    let emitting = emit::enabled();
    // When the JSONL stream goes to stdout, stdout must stay pure JSONL;
    // a file target keeps the human tables on stdout.
    let tables_to_stdout = !emitting || cfg.emit_path.is_some();
    if emitting {
        emit::take_phases(); // start the accumulator fresh
        let mut meta: Vec<(&'static str, Json)> = vec![
            ("type", "meta".into()),
            ("schema", "isf-harness-jsonl/1".into()),
            ("scale", isf_harness::scale_name(cfg.scale).into()),
            (
                "experiments",
                Json::Arr(cfg.experiments.iter().map(|e| e.as_str().into()).collect()),
            ),
        ];
        // Only resumed runs carry the marker, so failure-free non-journal
        // runs stay byte-identical to pre-journal streams.
        if cfg.resume {
            meta.push(("resumed", true.into()));
        }
        emit::record(&Json::obj(meta));
    }

    let run_span = span::begin("run", "isf-harness");
    for (i, e) in cfg.experiments.iter().enumerate() {
        if i > 0 && tables_to_stdout {
            println!();
        }
        let _experiment_span = span::begin("experiment", e.as_str());
        macro_rules! experiment {
            ($module:ident) => {{
                let t = $module::run(&harness, cfg.scale);
                if tables_to_stdout {
                    println!("{t}");
                }
                t.emit_jsonl();
            }};
        }
        match e.as_str() {
            "table1" => experiment!(table1),
            "table2" => experiment!(table2),
            "table3" => experiment!(table3),
            "table4" => experiment!(table4),
            "table5" => experiment!(table5),
            "fig7" => experiment!(fig7),
            "extras" => experiment!(extras),
            "spin" => experiment!(spin),
            "fig8" | "fig8a" | "fig8b" => experiment!(fig8),
            other => {
                log::error(&format!("isf-harness: unknown experiment `{other}`"));
                return ExitCode::FAILURE;
            }
        }
        emit_phases(e);
    }
    drop(run_span);

    if cfg.profile {
        report_fusion_coverage(&harness, cfg.scale);
    }
    if let Err(code) = finish_observability(cfg) {
        return code;
    }

    if emitting {
        let stream = emit::drain();
        match &cfg.emit_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &stream) {
                    log::error(&format!("--emit-path {}: {e}", path.display()));
                    return ExitCode::FAILURE;
                }
            }
            None => print!("{stream}"),
        }
    }
    journal::deactivate();
    if harness.deadline_hit() {
        // The run *completed* — every cell ran or was cancelled, tables
        // and JSONL were written — but at least one fresh cell was lost
        // to the deadline, so signal resumable like an interrupted run.
        let code = u8::try_from(journal::RESUMABLE_EXIT).expect("exit code fits u8");
        return ExitCode::from(code);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args, &|k| std::env::var(k).ok()) {
        Ok(Command::Run(cfg)) => run(&cfg),
        Ok(Command::Explore(cfg)) => run_explore(&cfg),
        Ok(Command::ValidateJsonl { path }) => validate_jsonl(&path),
        Ok(Command::Help) => {
            log::error(cli::USAGE);
            ExitCode::SUCCESS
        }
        Err(CliError::Bad(msg)) => {
            log::error(&format!("isf-harness: {msg}"));
            ExitCode::FAILURE
        }
        Err(CliError::Usage) => usage_failure(),
    }
}

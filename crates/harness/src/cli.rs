//! Command-line parsing for `isf-harness`, as a pure function from the
//! argument list to [`Command`] so every flag's validation is
//! unit-testable without spawning the binary.
//!
//! The harness settings resolve here, once, into a [`HarnessConfig`]:
//! each is its flag if given, else the built-in default. A setting has
//! exactly one knob, its flag; no environment variable stands in for one
//! (DESIGN.md decision 31), so the same arguments always parse the same.
//!
//! Error policy: a *structurally* wrong invocation (no experiments, an
//! unknown flag, a misshapen subcommand) gets the full usage text; a flag
//! with a *bad value* (`--jobs 0`, an overflowing `--retries`, a garbage
//! `--fault-inject` spec) gets a one-line diagnostic naming it, the
//! offending value, and what would be accepted — never a panic, never a
//! silent fallback.

use std::path::PathBuf;

use crate::explore::{self, ExploreSpec};
use crate::runner::{self, HarnessConfig};
use crate::Scale;

/// The canonical experiment list `all` expands to, in run order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "fig7", "fig8",
];

/// Every name accepted as an experiment argument, besides `all`.
const KNOWN_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "fig7", "fig8", "extras", "spin",
];

/// Flags that only make sense for an experiment run; `--explore` rejects
/// them rather than silently ignoring them.
const RUN_ONLY_FLAGS: &[&str] = &[
    "--retries",
    "--cell-budget",
    "--cell-deadline",
    "--run-deadline",
    "--fault-inject",
    "--journal",
    "--resume",
    "--no-fuse",
    "--pgo",
    "--profile",
    "--trace-out",
];

/// The full usage text (structural errors and `--help`).
pub const USAGE: &str = "usage: isf-harness [--scale smoke|default|paper] [--jobs N]\n\
     \x20                  [--emit json|off] [--emit-path FILE]\n\
     \x20                  [--retries N] [--cell-budget CYCLES]\n\
     \x20                  [--cell-deadline MS] [--run-deadline MS]\n\
     \x20                  [--fault-inject p=<prob>[,seed=<s>]]\n\
     \x20                  [--journal FILE] [--resume] [--no-fuse] [--pgo]\n\
     \x20                  [--profile] [--trace-out FILE] <experiment>...\n\
     \x20      isf-harness --explore schedules=N[,seed=S] [--scale smoke|default|paper]\n\
     \x20                  [--jobs N] [--emit json|off] [--emit-path FILE] <benchmark>...|all\n\
     \x20      isf-harness validate-jsonl <FILE>\n\
     experiments: table1 table2 table3 table4 table5 fig7 fig8 extras all\n\
     N defaults to the machine's available parallelism; --retries defaults to 0,\n\
     --cell-budget to uncapped (0); --cell-deadline cancels any cell attempt running\n\
     longer than MS wall-clock milliseconds (0 = off) — the cell is annotated and the\n\
     run exits 75; --run-deadline stops claiming new cells after MS milliseconds and\n\
     drains (journaled runs resume with --resume);\n\
     --journal is off by default; --resume replays a journal's finished cells;\n\
     --no-fuse disables superinstruction fusion — results are identical;\n\
     --pgo is accepted and does nothing: profile-guided fusion was removed, and the flag\n\
     stays only until the benchmark's `suite-pgo` workload retires;\n\
     --profile enables VM self-profiling: per-opcode dispatch\n\
     profiles, fusion coverage, and `metrics`/`span-summary` JSONL records;\n\
     --trace-out writes a Chrome trace-event JSON file (open in Perfetto);\n\
     --explore records N seeded-random thread schedules per benchmark (plus PCT\n\
     priority schedules and a bounded exhaustive DFS for shallow schedule trees) and\n\
     verifies each replays byte-identically on all three engine configurations with\n\
     schedule-independent observables intact — a failure prints the seed that\n\
     reproduces the schedule deterministically";

/// A fully parsed experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Workload scale.
    pub scale: Scale,
    /// The resolved harness settings (`--jobs`, `--retries`,
    /// `--cell-budget`, `--cell-deadline`, `--fault-inject`, `--no-fuse`).
    pub harness: HarnessConfig,
    /// `--emit json` (`true`) / `--emit off` (`false`, the default).
    pub emit_json: bool,
    /// `--emit-path`: write the JSONL stream here, tables stay on stdout.
    pub emit_path: Option<PathBuf>,
    /// `--run-deadline`: whole-run wall-clock deadline in milliseconds
    /// (`0` = off). When it elapses, the harness stops claiming new
    /// cells, drains in-flight ones, and exits 75 — journaled runs pick
    /// up where they left off with `--resume`.
    pub run_deadline: Option<u64>,
    /// `--journal`: the crash-safe cell journal path.
    pub journal: Option<PathBuf>,
    /// `--resume`: replay the journal's finished cells.
    pub resume: bool,
    /// `--profile`: enable VM self-profiling (the
    /// metrics registry, per-opcode dispatch profiles, fusion coverage,
    /// and the `metrics`/`span-summary` JSONL records). Cycle counts and
    /// traps are identical either way; tables and the
    /// profiling-independent JSONL records stay byte-identical.
    pub profile: bool,
    /// `--trace-out`: write the run's hierarchical span trace here as
    /// Chrome trace-event JSON (loadable in Perfetto). Implies span
    /// recording but not the metrics registry.
    pub trace_out: Option<PathBuf>,
    /// Validated, `all`-expanded experiment list, in run order.
    pub experiments: Vec<String>,
}

/// A parsed `--explore` invocation: schedule exploration over benchmarks
/// instead of an experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreConfig {
    /// Workload scale.
    pub scale: Scale,
    /// The resolved harness settings (only `--jobs` is a flag here).
    pub harness: HarnessConfig,
    /// `--emit json` (`true`) / `--emit off` (`false`, the default).
    pub emit_json: bool,
    /// `--emit-path`: write the JSONL stream here, the report stays on
    /// stdout.
    pub emit_path: Option<PathBuf>,
    /// The `schedules=N[,seed=S]` spec.
    pub spec: ExploreSpec,
    /// Validated, `all`-expanded benchmark list, in suite order.
    pub benches: Vec<String>,
}

/// What the command line asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run experiments.
    Run(RunConfig),
    /// Explore thread schedules over benchmarks (`--explore`).
    Explore(ExploreConfig),
    /// Validate a JSONL stream against the record contract.
    ValidateJsonl {
        /// The stream file to validate.
        path: String,
    },
    /// `--help` / `-h`.
    Help,
}

/// Why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag got a bad value: a one-line diagnostic, nonzero exit.
    Bad(String),
    /// The invocation is structurally wrong: show the full usage text.
    Usage,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Bad(m) => write!(f, "{m}"),
            CliError::Usage => write!(f, "{USAGE}"),
        }
    }
}

fn bad(msg: impl Into<String>) -> CliError {
    CliError::Bad(msg.into())
}

fn parse_scale(v: &str) -> Result<Scale, CliError> {
    match v {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "paper" => Ok(Scale::Paper),
        _ => Err(bad(format!(
            "--scale must be `smoke`, `default`, or `paper`, got `{v}`"
        ))),
    }
}

fn parse_jobs(v: &str) -> Result<usize, CliError> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| bad(format!("--jobs must be a positive integer, got `{v}`")))
}

/// Parses a non-negative count for `flag`; `what` names its unit.
fn parse_count<T: std::str::FromStr>(flag: &str, what: &str, v: &str) -> Result<T, CliError> {
    v.parse::<T>().map_err(|_| {
        let ty = std::any::type_name::<T>();
        bad(format!(
            "{flag} must be a non-negative {what} (fitting {ty}), got `{v}`"
        ))
    })
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| bad(format!("{flag} needs a value")))
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// [`CliError::Bad`] for a flag with an invalid value (one-line
/// diagnostic); [`CliError::Usage`] for a structurally wrong invocation.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    if args.first().map(String::as_str) == Some("validate-jsonl") {
        let [path] = &args[1..] else {
            return Err(CliError::Usage);
        };
        return Ok(Command::ValidateJsonl { path: path.clone() });
    }

    let mut scale = Scale::Default;
    let mut harness = HarnessConfig::default();
    let mut profile = false;
    let mut emit_json = false;
    let mut emit_path = None;
    let mut run_deadline = None;
    let mut journal = None;
    let mut resume = false;
    let mut trace_out = None;
    let mut run_only: Option<&str> = None;
    let mut explore_spec: Option<ExploreSpec> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if RUN_ONLY_FLAGS.contains(&arg.as_str()) {
            run_only.get_or_insert(arg.as_str());
        }
        match arg.as_str() {
            "--scale" => scale = parse_scale(next_value(&mut it, "--scale")?)?,
            "--jobs" => harness.jobs = parse_jobs(next_value(&mut it, arg)?)?,
            "--emit" => {
                emit_json = match next_value(&mut it, "--emit")? {
                    "json" => true,
                    "off" => false,
                    v => return Err(bad(format!("--emit must be `json` or `off`, got `{v}`"))),
                };
            }
            "--emit-path" => {
                emit_path = Some(PathBuf::from(next_value(&mut it, "--emit-path")?));
            }
            "--retries" => {
                harness.retries = parse_count(arg, "integer", next_value(&mut it, arg)?)?
            }
            "--cell-budget" => {
                harness.cell_budget = parse_count(arg, "cycle count", next_value(&mut it, arg)?)?;
            }
            "--cell-deadline" => {
                let v = next_value(&mut it, arg)?;
                harness.cell_deadline_ms = parse_count(arg, "millisecond count", v)?;
            }
            "--run-deadline" => {
                let v = next_value(&mut it, arg)?;
                run_deadline = Some(parse_count(arg, "millisecond count", v)?);
            }
            "--fault-inject" => {
                let v = next_value(&mut it, "--fault-inject")?;
                harness.fault =
                    runner::parse_fault_spec(v).map_err(|e| bad(format!("--fault-inject: {e}")))?;
            }
            "--journal" => journal = Some(PathBuf::from(next_value(&mut it, "--journal")?)),
            "--resume" => resume = true,
            "--no-fuse" => harness.fuse = false,
            // Kept as a no-op for the benchmark's `suite-pgo` workload.
            "--pgo" => {}
            "--profile" => profile = true,
            "--trace-out" => {
                trace_out = Some(PathBuf::from(next_value(&mut it, "--trace-out")?));
            }
            "--explore" => {
                let v = next_value(&mut it, "--explore")?;
                explore_spec =
                    Some(explore::parse_spec(v).map_err(|e| bad(format!("--explore: {e}")))?);
            }
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with('-') => return Err(CliError::Usage),
            other => positionals.push(other.to_owned()),
        }
    }
    if positionals.is_empty() {
        return Err(CliError::Usage);
    }

    if let Some(spec) = explore_spec {
        if let Some(flag) = run_only {
            return Err(bad(format!(
                "--explore cannot be combined with {flag} (exploration runs all three engine configurations itself)"
            )));
        }
        let names = isf_workloads::names();
        return Ok(Command::Explore(ExploreConfig {
            scale,
            harness,
            emit_json,
            emit_path,
            spec,
            benches: expand_names(positionals, "benchmark", &names, &names)?,
        }));
    }

    let experiments = expand_names(
        positionals,
        "experiment",
        KNOWN_EXPERIMENTS,
        ALL_EXPERIMENTS,
    )?;
    Ok(Command::Run(RunConfig {
        scale,
        harness,
        emit_json,
        emit_path,
        run_deadline,
        journal,
        resume,
        profile,
        trace_out,
        experiments,
    }))
}

/// Validates positional `what` names against `known`, expanding `all`
/// to `all_names`.
fn expand_names(
    names: Vec<String>,
    what: &str,
    known: &[&str],
    all_names: &[&str],
) -> Result<Vec<String>, CliError> {
    if let Some(name) = names
        .iter()
        .find(|n| *n != "all" && !known.contains(&n.as_str()))
    {
        return Err(bad(format!(
            "unknown {what} `{name}` (expected one of: {} all)",
            known.join(" ")
        )));
    }
    Ok(if names.iter().any(|n| n == "all") {
        all_names.iter().map(|s| (*s).to_owned()).collect()
    } else {
        names
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Command, CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse(&args)
    }

    fn run_cfg(args: &[&str]) -> RunConfig {
        match parse_args(args) {
            Ok(Command::Run(cfg)) => cfg,
            other => panic!("expected a run, got {other:?}"),
        }
    }

    fn err(args: &[&str]) -> CliError {
        parse_args(args).expect_err("parse should fail")
    }

    #[test]
    fn parses_a_full_run_invocation() {
        let cfg = run_cfg(&[
            "--scale",
            "smoke",
            "--jobs",
            "4",
            "--emit",
            "json",
            "--emit-path",
            "out.jsonl",
            "--retries",
            "2",
            "--cell-budget",
            "1000",
            "--cell-deadline",
            "250",
            "--run-deadline",
            "60000",
            "--fault-inject",
            "p=0.25,seed=7",
            "--journal",
            "j.jsonl",
            "--resume",
            "--no-fuse",
            "--pgo",
            "--profile",
            "--trace-out",
            "trace.json",
            "table4",
            "table1",
        ]);
        assert_eq!(cfg.scale, Scale::Smoke);
        assert_eq!(
            cfg.harness,
            HarnessConfig {
                jobs: 4,
                retries: 2,
                cell_budget: 1000,
                cell_deadline_ms: 250,
                fault: (0.25, 7),
                fuse: false,
            }
        );
        assert!(cfg.emit_json);
        assert_eq!(cfg.emit_path, Some(PathBuf::from("out.jsonl")));
        assert_eq!(cfg.run_deadline, Some(60000));
        assert_eq!(cfg.journal, Some(PathBuf::from("j.jsonl")));
        assert!(cfg.resume);
        assert!(cfg.profile);
        assert_eq!(cfg.trace_out, Some(PathBuf::from("trace.json")));
        assert_eq!(cfg.experiments, vec!["table4", "table1"]);
    }

    #[test]
    fn all_expands_to_the_canonical_list() {
        let cfg = run_cfg(&["all"]);
        assert_eq!(cfg.experiments, ALL_EXPERIMENTS);
        assert!(
            !ALL_EXPERIMENTS.contains(&"spin"),
            "the spin diagnostic must stay out of `all`"
        );
        assert_eq!(
            run_cfg(&["spin"]).experiments,
            vec!["spin"],
            "spin is runnable by name"
        );
        assert_eq!(cfg.scale, Scale::Default);
        assert!(!cfg.resume);
        assert_eq!(
            cfg.harness,
            HarnessConfig::default(),
            "no flags: the built-in defaults"
        );
        assert!(cfg.harness.fuse, "fusion is on by default");
        assert!(!cfg.emit_json, "JSONL is off by default");
        assert_eq!(
            run_cfg(&["--emit", "off", "all"]),
            cfg,
            "--emit off is the default"
        );
        assert_eq!(run_cfg(&["--pgo", "all"]), cfg, "--pgo changes nothing");
        assert!(!cfg.profile, "self-profiling is off by default");
        assert_eq!(cfg.trace_out, None);
    }

    #[test]
    fn jobs_zero_is_a_one_line_value_error() {
        let CliError::Bad(msg) = err(&["--jobs", "0", "table1"]) else {
            panic!("expected a one-line error, got full usage");
        };
        assert!(msg.contains("--jobs"), "{msg}");
        assert!(msg.contains("`0`"), "{msg}");
        assert!(!msg.contains('\n'), "must be one line: {msg}");
    }

    #[test]
    fn garbage_and_overflowing_counters_are_one_line_value_errors() {
        for (args, flag, value) in [
            (vec!["--retries", "many", "table1"], "--retries", "`many`"),
            (
                vec!["--retries", "99999999999999999999999999", "table1"],
                "--retries",
                "`99999999999999999999999999`",
            ),
            (
                vec!["--cell-budget", "-3", "table1"],
                "--cell-budget",
                "`-3`",
            ),
            (
                vec!["--cell-budget", "18446744073709551616", "table1"],
                "--cell-budget",
                "`18446744073709551616`",
            ),
            (
                vec!["--cell-deadline", "soon", "table1"],
                "--cell-deadline",
                "`soon`",
            ),
            (
                vec!["--run-deadline", "-1", "table1"],
                "--run-deadline",
                "`-1`",
            ),
            (vec!["--jobs", "4x", "table1"], "--jobs", "`4x`"),
        ] {
            let CliError::Bad(msg) = err(&args) else {
                panic!("{args:?}: expected a one-line error");
            };
            assert!(msg.contains(flag), "{args:?}: {msg}");
            assert!(msg.contains(value), "{args:?}: {msg}");
            assert!(!msg.contains('\n'), "{args:?}: must be one line: {msg}");
        }
    }

    #[test]
    fn malformed_fault_inject_specs_are_one_line_value_errors() {
        for spec in ["p=2", "p=x", "seed=1", "bogus", ""] {
            let CliError::Bad(msg) = err(&["--fault-inject", spec, "table1"]) else {
                panic!("spec `{spec}`: expected a one-line error");
            };
            assert!(msg.starts_with("--fault-inject:"), "{msg}");
            assert!(!msg.contains('\n'), "must be one line: {msg}");
        }
    }

    #[test]
    fn missing_values_and_unknown_names_fail_cleanly() {
        assert!(matches!(err(&["--jobs"]), CliError::Bad(_)));
        assert!(matches!(err(&["table1", "--trace-out"]), CliError::Bad(_)));
        assert!(matches!(
            err(&["--scale", "huge", "table1"]),
            CliError::Bad(_)
        ));
        assert!(matches!(
            err(&["--emit", "xml", "table1"]),
            CliError::Bad(_)
        ));
        let CliError::Bad(msg) = err(&["table9"]) else {
            panic!("unknown experiment should be a one-line error");
        };
        assert!(msg.contains("table9"), "{msg}");
        // One name per experiment: Figure 8 runs as `fig8` only.
        for alias in ["fig8a", "fig8b"] {
            assert!(matches!(err(&[alias]), CliError::Bad(_)), "{alias}");
        }
        assert_eq!(err(&[]), CliError::Usage, "no experiments: full usage");
        assert_eq!(err(&["--wat", "table1"]), CliError::Usage, "unknown flag");
        // A removed flag is unknown like any other: fuel (`--cell-budget`)
        // is the one simulated-cycle stop.
        assert_eq!(
            err(&["--cancel-after-cycles", "5", "table1"]),
            CliError::Usage,
            "removed flag"
        );
    }

    #[test]
    fn explore_parses_benchmarks_and_expands_all() {
        let Ok(Command::Explore(cfg)) = parse_args(&[
            "--explore",
            "schedules=32,seed=7",
            "--scale",
            "smoke",
            "--jobs",
            "2",
            "--emit",
            "json",
            "--emit-path",
            "x.jsonl",
            "pbob",
            "volano",
        ]) else {
            panic!("explore invocation should parse");
        };
        assert_eq!(cfg.scale, Scale::Smoke);
        assert_eq!(cfg.harness.jobs, 2);
        assert!(cfg.emit_json);
        assert_eq!(cfg.emit_path, Some(PathBuf::from("x.jsonl")));
        assert_eq!(cfg.spec.schedules, 32);
        assert_eq!(cfg.spec.seed, 7);
        assert_eq!(cfg.benches, vec!["pbob", "volano"]);

        let Ok(Command::Explore(all)) = parse_args(&["--explore", "schedules=1", "all"]) else {
            panic!("explore all should parse");
        };
        assert_eq!(all.benches, isf_workloads::names());
    }

    #[test]
    fn explore_rejects_bad_specs_and_unknown_benchmarks() {
        for args in [
            vec!["--explore", "schedules=0", "pbob"],
            vec!["--explore", "seed=7", "pbob"],
            vec!["--explore", "nonsense", "pbob"],
        ] {
            let CliError::Bad(msg) = err(&args) else {
                panic!("{args:?}: expected a one-line error");
            };
            assert!(msg.starts_with("--explore:"), "{args:?}: {msg}");
            assert!(!msg.contains('\n'), "{args:?}: must be one line: {msg}");
        }
        let CliError::Bad(msg) = err(&["--explore", "schedules=4", "table1"]) else {
            panic!("experiment names are not benchmarks");
        };
        assert!(msg.contains("unknown benchmark `table1`"), "{msg}");
        assert_eq!(
            err(&["--explore", "schedules=4"]),
            CliError::Usage,
            "no benchmarks: full usage"
        );
    }

    #[test]
    fn explore_rejects_run_only_flags() {
        for (args, flag) in [
            (
                vec!["--explore", "schedules=4", "--journal", "j", "pbob"],
                "--journal",
            ),
            (
                vec!["--explore", "schedules=4", "--resume", "pbob"],
                "--resume",
            ),
            (
                vec!["--explore", "schedules=4", "--no-fuse", "pbob"],
                "--no-fuse",
            ),
            (vec!["--explore", "schedules=4", "--pgo", "pbob"], "--pgo"),
            (
                vec!["--explore", "schedules=4", "--retries", "2", "pbob"],
                "--retries",
            ),
        ] {
            let CliError::Bad(msg) = err(&args) else {
                panic!("{args:?}: expected a one-line error");
            };
            assert!(msg.contains(flag), "{args:?}: {msg}");
            assert!(!msg.contains('\n'), "{args:?}: must be one line: {msg}");
        }
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            parse_args(&["validate-jsonl", "s.jsonl"]),
            Ok(Command::ValidateJsonl {
                path: "s.jsonl".to_owned()
            })
        );
        assert_eq!(parse_args(&["validate-jsonl"]), Err(CliError::Usage));
        assert_eq!(parse_args(&["--help"]), Ok(Command::Help));
    }
}

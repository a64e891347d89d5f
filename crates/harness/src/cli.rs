//! Command-line parsing for `isf-harness`, as a pure function from
//! argument list and environment to [`Command`] so every flag's
//! validation is unit-testable without spawning the binary.
//!
//! The harness settings resolve here, once, into a [`HarnessConfig`]:
//! each is its flag if given, else its `ISF_*` environment variable, else
//! the built-in default. The variables are applied to the defaults
//! first, each parsed by its flag's own parser, so a malformed value is
//! rejected (even when the flag is also given) with the flag's
//! diagnostic, prefixed with the variable's name; an empty variable
//! counts as unset. The flags are applied on top. The environment
//! arrives as a lookup closure ([`Env`]), so tests can pass a fake one.
//!
//! Error policy: a *structurally* wrong invocation (no experiments, an
//! unknown flag, a misshapen subcommand) gets the full usage text; a flag
//! or variable with a *bad value* (`--jobs 0`, an overflowing
//! `--retries`, `ISF_CELL_BUDGET=1e6`, a garbage `--fault-inject` spec)
//! gets a one-line diagnostic naming it, the offending value, and what
//! would be accepted — never a panic, never a silent fallback.

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
    "table1", "table2", "table3", "table4", "table5", "fig7", "fig8", "fig8a", "fig8b", "extras",
    "spin",
];

/// Flags that only make sense for an experiment run; `--explore` rejects
/// them rather than silently ignoring them.
const RUN_ONLY_FLAGS: &[&str] = &[
    "--retries",
    "--cell-budget",
    "--cell-deadline",
    "--run-deadline",
    "--cancel-after-cycles",
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
     \x20                  [--cancel-after-cycles CYCLES]\n\
     \x20                  [--fault-inject p=<prob>[,seed=<s>]]\n\
     \x20                  [--journal FILE] [--resume] [--no-fuse] [--pgo]\n\
     \x20                  [--profile] [--trace-out FILE] <experiment>...\n\
     \x20      isf-harness --explore schedules=N[,seed=S] [--scale smoke|default|paper]\n\
     \x20                  [--jobs N] [--emit json|off] [--emit-path FILE] <benchmark>...|all\n\
     \x20      isf-harness validate-jsonl <FILE>\n\
     experiments: table1 table2 table3 table4 table5 fig7 fig8 extras all\n\
     a flag beats its environment variable, which beats the default; a malformed\n\
     variable is an error. N defaults to $ISF_JOBS, then the machine's available parallelism;\n\
     --retries defaults to $ISF_RETRIES (0), --cell-budget to $ISF_CELL_BUDGET (uncapped);\n\
     --cell-deadline cancels any cell attempt running longer than MS wall-clock\n\
     milliseconds (also $ISF_CELL_DEADLINE; 0 = off) — the cell is annotated and the\n\
     run exits 75; --run-deadline stops claiming new cells after MS milliseconds and\n\
     drains (journaled runs resume with --resume); --cancel-after-cycles cancels every\n\
     cell run at a fixed simulated cycle (also $ISF_CANCEL_AFTER) — the deterministic\n\
     stand-in for --cell-deadline in tests;\n\
     --journal defaults to $ISF_JOURNAL (off); --resume replays a journal's finished cells;\n\
     --no-fuse disables superinstruction fusion (also $ISF_FUSE=0) — results are identical;\n\
     --pgo enables profile-guided fusion (also $ISF_PGO=1): each module runs a short\n\
     warmup cell and is re-prepared with guided superinstructions — results are identical;\n\
     --profile enables VM self-profiling (also $ISF_PROFILE=1): per-opcode dispatch\n\
     profiles, fusion coverage, and `metrics`/`span-summary` JSONL records;\n\
     --trace-out writes a Chrome trace-event JSON file (open in Perfetto);\n\
     --explore records N seeded-random thread schedules per benchmark (plus PCT\n\
     priority schedules and a bounded exhaustive DFS for shallow schedule trees) and\n\
     verifies each replays byte-identically on all four engine configurations with\n\
     schedule-independent observables intact — a failure prints the seed that\n\
     reproduces the schedule deterministically";

/// The environment as the parser sees it: variable name to value.
/// `main` passes `|k| std::env::var(k).ok()`.
pub type Env<'a> = &'a dyn Fn(&str) -> Option<String>;

/// A fully parsed experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Workload scale.
    pub scale: Scale,
    /// The resolved harness settings (`--jobs`, `--retries`,
    /// `--cell-budget`, `--cell-deadline`, `--cancel-after-cycles`,
    /// `--fault-inject`, `--no-fuse`, `--pgo` and their variables).
    pub harness: HarnessConfig,
    /// `--emit json` (`Some(true)`) / `--emit off` (`Some(false)`).
    pub emit_json: Option<bool>,
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
    /// `--profile` or `ISF_PROFILE`: enable VM self-profiling (the
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
    /// `--emit json` / `--emit off`.
    pub emit_json: Option<bool>,
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
    /// A flag or variable got a bad value: a one-line diagnostic, nonzero
    /// exit.
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

/// The one boolean parser of the `ISF_FUSE` / `ISF_PGO` / `ISF_PROFILE`
/// switches.
fn parse_switch(v: &str) -> Result<bool, CliError> {
    match v {
        "1" | "on" | "true" => Ok(true),
        "0" | "off" | "false" => Ok(false),
        _ => Err(bad(format!(
            "must be `1`, `on` or `true` (or `0`, `off`, `false`), got `{v}`"
        ))),
    }
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| bad(format!("{flag} needs a value")))
}

/// Applies the variable `var`, parsed by its flag's parser, to `slot`;
/// a malformed value is an error that names the variable. An unset or
/// empty variable leaves the default.
fn from_env<T>(
    env: Env,
    var: &str,
    slot: &mut T,
    parse: impl Fn(&str) -> Result<T, CliError>,
) -> Result<(), CliError> {
    if let Some(v) = env(var).filter(|v| !v.trim().is_empty()) {
        *slot = parse(v.trim()).map_err(|e| bad(format!("{var}: {e}")))?;
    }
    Ok(())
}

/// The built-in defaults with the `ISF_*` variables applied. Callers
/// apply the flags on top, so a flag beats its variable.
fn env_config(env: Env) -> Result<HarnessConfig, CliError> {
    let mut c = HarnessConfig::default();
    from_env(env, "ISF_JOBS", &mut c.jobs, parse_jobs)?;
    from_env(env, "ISF_RETRIES", &mut c.retries, |v| {
        parse_count("--retries", "integer", v)
    })?;
    from_env(env, "ISF_CELL_BUDGET", &mut c.cell_budget, |v| {
        parse_count("--cell-budget", "cycle count", v)
    })?;
    from_env(env, "ISF_CELL_DEADLINE", &mut c.cell_deadline_ms, |v| {
        parse_count("--cell-deadline", "millisecond count", v)
    })?;
    from_env(env, "ISF_CANCEL_AFTER", &mut c.cancel_after, |v| {
        parse_count("--cancel-after-cycles", "cycle count", v)
    })?;
    from_env(env, "ISF_FUSE", &mut c.fuse, parse_switch)?;
    from_env(env, "ISF_PGO", &mut c.pgo, parse_switch)?;
    Ok(c)
}

/// Parses the argument list (without the program name), resolving the
/// harness settings against `env`.
///
/// # Errors
///
/// [`CliError::Bad`] for a flag or variable with an invalid value
/// (one-line diagnostic); [`CliError::Usage`] for a structurally wrong
/// invocation.
pub fn parse(args: &[String], env: Env) -> Result<Command, CliError> {
    if args.first().map(String::as_str) == Some("validate-jsonl") {
        let [path] = &args[1..] else {
            return Err(CliError::Usage);
        };
        return Ok(Command::ValidateJsonl { path: path.clone() });
    }

    let mut scale = Scale::Default;
    let mut harness = env_config(env)?;
    let mut profile = false;
    from_env(env, "ISF_PROFILE", &mut profile, parse_switch)?;
    let mut emit_json = None;
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
                emit_json = Some(match next_value(&mut it, "--emit")? {
                    "json" => true,
                    "off" => false,
                    v => return Err(bad(format!("--emit must be `json` or `off`, got `{v}`"))),
                });
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
            "--cancel-after-cycles" => {
                harness.cancel_after = parse_count(arg, "cycle count", next_value(&mut it, arg)?)?;
            }
            "--fault-inject" => {
                let v = next_value(&mut it, "--fault-inject")?;
                harness.fault =
                    runner::parse_fault_spec(v).map_err(|e| bad(format!("--fault-inject: {e}")))?;
            }
            "--journal" => journal = Some(PathBuf::from(next_value(&mut it, "--journal")?)),
            "--resume" => resume = true,
            "--no-fuse" => harness.fuse = false,
            "--pgo" => harness.pgo = true,
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
                "--explore cannot be combined with {flag} (exploration runs all four engine configurations itself)"
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

    /// Parses `args` against the environment `vars`.
    fn parse_in(vars: &[(&str, &str)], args: &[&str]) -> Result<Command, CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let env = |k: &str| {
            vars.iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| (*v).to_owned())
        };
        parse(&args, &env)
    }

    fn parse_args(args: &[&str]) -> Result<Command, CliError> {
        parse_in(&[], args)
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
            "--cancel-after-cycles",
            "5000",
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
                cancel_after: 5000,
                fault: (0.25, 7),
                fuse: false,
                pgo: true,
            }
        );
        assert_eq!(cfg.emit_json, Some(true));
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
            "no flags and no variables: the built-in defaults"
        );
        assert!(!cfg.harness.pgo, "profile-guided fusion is opt-in");
        assert!(!cfg.profile, "self-profiling is off by default");
        assert_eq!(cfg.trace_out, None);
    }

    #[test]
    fn variables_fill_in_below_their_flags() {
        let vars = [
            ("ISF_JOBS", "3"),
            ("ISF_RETRIES", " 2 "),
            ("ISF_CELL_BUDGET", "1000"),
            ("ISF_CELL_DEADLINE", "250"),
            ("ISF_CANCEL_AFTER", "5000"),
            ("ISF_FUSE", "off"),
            ("ISF_PGO", "on"),
            ("ISF_PROFILE", "true"),
        ];
        let Ok(Command::Run(cfg)) = parse_in(&vars, &["table1"]) else {
            panic!("valid variables must parse");
        };
        assert_eq!(
            cfg.harness,
            HarnessConfig {
                jobs: 3,
                retries: 2,
                cell_budget: 1000,
                cell_deadline_ms: 250,
                cancel_after: 5000,
                fuse: false,
                pgo: true,
                ..HarnessConfig::default()
            }
        );
        assert!(cfg.profile);
        let Ok(Command::Explore(explore)) = parse_in(&vars, &["--explore", "schedules=1", "all"])
        else {
            panic!("--explore reads the variables too");
        };
        assert_eq!(explore.harness, cfg.harness);
        // A flag beats its variable; an empty variable counts as unset.
        let Ok(Command::Run(cfg)) = parse_in(
            &[
                ("ISF_JOBS", "3"),
                ("ISF_RETRIES", ""),
                ("ISF_FUSE", "1"),
                ("ISF_PGO", "0"),
            ],
            &["--jobs", "5", "--no-fuse", "table1"],
        ) else {
            panic!("flags over variables must parse");
        };
        assert_eq!((cfg.harness.jobs, cfg.harness.retries), (5, 0));
        assert!(!cfg.harness.fuse, "--no-fuse beats ISF_FUSE=1");
        assert!(!cfg.harness.pgo);
        let Ok(Command::Run(cfg)) = parse_in(&[("ISF_FUSE", "on")], &["table1"]) else {
            panic!("ISF_FUSE=on must parse");
        };
        assert!(cfg.harness.fuse);
    }

    #[test]
    fn malformed_variables_are_one_line_errors_naming_the_variable() {
        for (var, value, flag) in [
            ("ISF_JOBS", "0", "--jobs"),
            ("ISF_RETRIES", "x", "--retries"),
            ("ISF_CELL_BUDGET", "1e6", "--cell-budget"),
            ("ISF_CELL_DEADLINE", "soon", "--cell-deadline"),
            ("ISF_CANCEL_AFTER", "-1", "--cancel-after-cycles"),
            ("ISF_FUSE", "no", ""),
            ("ISF_PGO", "yes", ""),
            ("ISF_PROFILE", "2", ""),
        ] {
            let Err(CliError::Bad(msg)) = parse_in(&[(var, value)], &["table1"]) else {
                panic!("{var}={value}: expected a one-line error");
            };
            assert!(msg.starts_with(&format!("{var}: {flag}")), "{msg}");
            assert!(msg.contains(&format!("`{value}`")), "{msg}");
            assert!(!msg.contains('\n'), "must be one line: {msg}");
        }
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
            (
                vec!["--cancel-after-cycles", "1e9", "table1"],
                "--cancel-after-cycles",
                "`1e9`",
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
        assert_eq!(err(&[]), CliError::Usage, "no experiments: full usage");
        assert_eq!(err(&["--wat", "table1"]), CliError::Usage, "unknown flag");
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
        assert_eq!(cfg.emit_json, Some(true));
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
            (
                vec![
                    "--explore",
                    "schedules=4",
                    "--cancel-after-cycles",
                    "9",
                    "pbob",
                ],
                "--cancel-after-cycles",
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

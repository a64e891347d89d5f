//! What the benchmark measures: its workloads, the metrics it prints, and
//! the reference outputs its correctness gates compare against.
//!
//! Units, directions and bounds are declared in the repository's
//! `BENCHMARK.json`; the tables here carry the same names and units plus
//! what the JSON cannot say: which metrics are deterministic counts that
//! must repeat exactly.

use isf_obs::Json;
use isf_workloads::Scale;

/// The benchmark declaration, embedded so bounds and names have one source.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The experiments `isf-harness all` runs, in paper order.
pub const EXPERIMENTS: [&str; 7] = [
    "table1", "table2", "table3", "table4", "table5", "fig7", "fig8",
];

/// One named set of inputs the benchmark can run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `isf-harness --jobs 1` over the seven experiments.
    Suite,
    /// The same run at `--jobs 2`.
    SuiteJobs2,
    /// The same run with `--pgo`.
    SuitePgo,
    /// Seeded compile → plan → instrument → prepare draws, no dispatch.
    Pipeline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::SuiteJobs2,
        Workload::SuitePgo,
        Workload::Pipeline,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::SuiteJobs2 => "suite-jobs2",
            Workload::SuitePgo => "suite-pgo",
            Workload::Pipeline => "pipeline",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The harness worker count, for the suite workloads.
    #[must_use]
    pub fn jobs(self) -> usize {
        if self == Workload::SuiteJobs2 {
            2
        } else {
            1
        }
    }
}

/// Which way a metric improves.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark prints.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A deterministic value that must repeat exactly across runs of the
    /// same code and seed (counts, and ratios of counts).
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// Metrics of a run with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", Lower, false),
    m("setup_s", "s", Lower, false),
    m("peak_rss_mb", "MB", Lower, false),
    m("pass_frac", "ratio", Higher, false),
];

/// Metrics of single layers, from the traced repetition.
pub const PER_LAYER: &[Metric] = &[
    m("exec.run_s", "s", Lower, false),
    m("exec.runs", "count", Lower, true),
    m("exec.instructions", "count", Lower, true),
    m("exec.sim_cycles", "count", Lower, true),
    m("exec.dispatches", "count", Lower, true),
    m("exec.dispatches_per_instr", "ratio", Lower, true),
    m("exec.fused_pct", "%", Higher, true),
    m("exec.guided_pct", "%", Higher, true),
    m("exec.samples_taken", "count", Lower, true),
    m("exec.minstr_per_s", "Minstr/s", Higher, false),
    m("exec.prepare_s", "s", Lower, false),
    m("exec.prepare_off_s", "s", Lower, false),
    m("exec.prepare_fuse_s", "s", Lower, false),
    m("exec.prepare_guided_s", "s", Lower, false),
    m("exec.prepares", "count", Lower, true),
    m("exec.prep_cache_hits", "count", Higher, true),
    m("exec.prep_hit_ratio", "ratio", Higher, true),
    m("exec.pgo_warmups", "count", Lower, true),
    m("exec.pgo_warmup_instructions", "count", Lower, true),
    m("frontend.compile_s", "s", Lower, false),
    m("frontend.compiles", "count", Lower, true),
    m("frontend.source_mb_per_s", "MB/s", Higher, false),
    m("instr.plan_s", "s", Lower, false),
    m("instr.plans", "count", Lower, true),
    m("core.instrument_s", "s", Lower, false),
    m("core.instruments", "count", Lower, true),
    m("core.ir_growth_pct", "%", Lower, true),
    m("harness.cells", "count", Lower, true),
    m("harness.cells_failed", "count", Lower, true),
    m("harness.prepare_cells", "count", Lower, true),
    m("harness.prepare_cells_pct", "%", Lower, false),
    m("harness.cell_max_s", "s", Lower, false),
    m("harness.worker_busy_pct", "%", Higher, false),
    m("harness.exp.table1_pct", "%", Lower, false),
    m("harness.exp.table2_pct", "%", Lower, false),
    m("harness.exp.table3_pct", "%", Lower, false),
    m("harness.exp.table4_pct", "%", Lower, false),
    m("harness.exp.table5_pct", "%", Lower, false),
    m("harness.exp.fig7_pct", "%", Lower, false),
    m("harness.exp.fig8_pct", "%", Lower, false),
    m("workloads.gen_s", "s", Lower, false),
    m("obs.trace_overhead_pct", "%", Lower, false),
    m("obs.records", "count", Lower, true),
    m("obs.spans", "count", Lower, true),
];

/// The regression bound `BENCHMARK.json` declares for an end-to-end
/// metric (`None` for per-layer metrics, which have none).
///
/// # Panics
///
/// Panics if the embedded `BENCHMARK.json` is malformed — it is compiled
/// in, so that is a build defect the declaration test catches.
#[must_use]
pub fn bound(name: &str) -> Option<f64> {
    let spec = isf_obs::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has end_to_end")
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|e| e.get("bound"))
        .and_then(Json::as_f64)
}

/// The scale's name on the command line.
#[must_use]
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Default => "default",
        Scale::Paper => "paper",
    }
}

/// Parses a scale the benchmark supports (references exist for these two).
#[must_use]
pub fn parse_scale(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::Smoke),
        "default" => Some(Scale::Default),
        _ => None,
    }
}

macro_rules! references {
    ($scale:literal) => {
        [
            include_str!(concat!("../reference/", $scale, "/table1.txt")),
            include_str!(concat!("../reference/", $scale, "/table2.txt")),
            include_str!(concat!("../reference/", $scale, "/table3.txt")),
            include_str!(concat!("../reference/", $scale, "/table4.txt")),
            include_str!(concat!("../reference/", $scale, "/table5.txt")),
            include_str!(concat!("../reference/", $scale, "/fig7.txt")),
            include_str!(concat!("../reference/", $scale, "/fig8.txt")),
        ]
    };
}

/// The harness's stdout for `experiments`, in that order, reassembled from
/// the committed per-experiment captures: the harness prints one blank
/// line between experiments.
///
/// # Panics
///
/// Panics on an experiment outside [`EXPERIMENTS`] or a scale without
/// references.
#[must_use]
pub fn expected_stdout(scale: Scale, experiments: &[&str]) -> String {
    let refs: [&str; 7] = match scale {
        Scale::Smoke => references!("smoke"),
        Scale::Default => references!("default"),
        Scale::Paper => panic!("no paper-scale references"),
    };
    experiments
        .iter()
        .map(|e| {
            let i = EXPERIMENTS
                .iter()
                .position(|x| x == e)
                .unwrap_or_else(|| panic!("unknown experiment `{e}`"));
            refs[i]
        })
        .collect::<Vec<_>>()
        .join("\n")
}

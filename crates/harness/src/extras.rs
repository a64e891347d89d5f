//! Experiments beyond the paper's tables, for the features its deployment
//! story assumes: sampled Ball–Larus path profiling and selective
//! (hot-methods-only) instrumentation. Run with `isf-harness -- extras`.

use std::collections::HashSet;
use std::fmt;

use isf_core::{instrument_module, instrument_module_selective, Options, Strategy};
use isf_exec::Trigger;
use isf_instr::{ModulePlan, PathProfileInstrumentation};
use isf_profile::hotness;
use isf_profile::overlap::path_overlap;

use isf_obs::Json;

use crate::runner::{
    cell, instrument, plan_for, split_results, CellError, Harness, JournalPayload, Kinds,
};
use crate::{mean, pct, write_errors, Scale};

/// The sample intervals of the path-profiling sweep.
const PATH_INTERVALS: [u64; 4] = [1, 10, 100, 1_000];

/// One row of the path-profiling sweep.
#[derive(Clone, Debug)]
pub struct PathRow {
    /// The sample interval.
    pub interval: u64,
    /// Total overhead over the baseline, percent (suite average).
    pub total: f64,
    /// Path-profile overlap accuracy, percent (suite average).
    pub accuracy: f64,
    /// Mean complete paths recorded per benchmark.
    pub paths_recorded: f64,
}

/// One benchmark's path measurements at one interval — an extras cell
/// produces one per swept interval alongside its selective row.
#[derive(Clone, Debug)]
struct PathMeas {
    total: f64,
    accuracy: f64,
    events: f64,
}

/// One row of the selective-instrumentation comparison.
#[derive(Clone, Debug)]
pub struct SelectiveRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Total sampling overhead with every method instrumented, percent.
    pub all_methods: f64,
    /// Total sampling overhead with only the 90%-heat methods, percent.
    pub hot_only: f64,
    /// Space increase with every method instrumented, bytes.
    pub all_space: usize,
    /// Space increase with only the hot methods, bytes.
    pub hot_space: usize,
    /// Number of hot methods selected.
    pub hot_count: usize,
}

impl JournalPayload for (Vec<PathMeas>, SelectiveRow) {
    fn encode(&self) -> Json {
        let (path, s) = self;
        Json::obj([
            (
                "path",
                Json::Arr(
                    path.iter()
                        .map(|m| {
                            Json::obj([
                                ("total", m.total.into()),
                                ("accuracy", m.accuracy.into()),
                                ("events", m.events.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("bench", s.bench.into()),
            ("all_methods", s.all_methods.into()),
            ("hot_only", s.hot_only.into()),
            ("all_space", s.all_space.into()),
            ("hot_space", s.hot_space.into()),
            ("hot_count", s.hot_count.into()),
        ])
    }

    fn decode(v: &Json) -> Option<Self> {
        let path = v
            .get("path")?
            .as_arr()?
            .iter()
            .map(|m| {
                Some(PathMeas {
                    total: m.get("total")?.as_f64()?,
                    accuracy: m.get("accuracy")?.as_f64()?,
                    events: m.get("events")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<PathMeas>>>()?;
        let selective = SelectiveRow {
            bench: isf_workloads::canonical_name(v.get("bench")?.as_str()?)?,
            all_methods: v.get("all_methods")?.as_f64()?,
            hot_only: v.get("hot_only")?.as_f64()?,
            all_space: usize::try_from(v.get("all_space")?.as_u64()?).ok()?,
            hot_space: usize::try_from(v.get("hot_space")?.as_u64()?).ok()?,
            hot_count: usize::try_from(v.get("hot_count")?.as_u64()?).ok()?,
        };
        Some((path, selective))
    }
}

/// The extras report.
#[derive(Clone, Debug)]
pub struct Extras {
    /// Path-profiling sweep (Full-Duplication, exhaustive-vs-sampled).
    pub path_rows: Vec<PathRow>,
    /// Selective instrumentation per benchmark.
    pub selective_rows: Vec<SelectiveRow>,
    /// Cells that failed (prepare or experiment), suite order.
    pub errors: Vec<CellError>,
}

/// Runs both extra experiments, one cell per benchmark: the benchmark's
/// path-profiling interval series (averaged across the suite afterwards)
/// plus its selective-instrumentation row.
pub fn run(h: &Harness, scale: Scale) -> Extras {
    let suite = h.prepare_suite(scale);

    let results = h.par_cells_journaled(
        suite
            .benches
            .iter()
            .map(|b| {
                cell(format!("extras/{}", b.name), move || {
                    // --- Sampled path profiling. --------------------------
                    let plan = ModulePlan::build(&b.module, &[&PathProfileInstrumentation]);
                    let (exh, _) =
                        instrument_module(&b.module, &plan, &Options::new(Strategy::Exhaustive))
                            .expect("valid options");
                    let perfect = h.run_module(&exh, Trigger::Never).profile;
                    let (full, _) = instrument_module(
                        &b.module,
                        &plan,
                        &Options::new(Strategy::FullDuplication),
                    )
                    .expect("valid options");
                    let prepared = h.prepare_for_runs(&full);
                    let baseline_cycles = b.baseline.cycles as f64;
                    let triggers = PATH_INTERVALS.map(|interval| Trigger::Counter { interval });
                    let path: Vec<PathMeas> = h
                        .run_sweep(&prepared, &triggers)
                        .iter()
                        .map(|o| PathMeas {
                            total: (o.cycles as f64 - baseline_cycles) / baseline_cycles * 100.0,
                            accuracy: path_overlap(&perfect, &o.profile),
                            events: o.profile.total_path_events() as f64,
                        })
                        .collect();

                    // --- Selective instrumentation. -----------------------
                    let (all, all_stats, _) = instrument(
                        &b.module,
                        Kinds::Both,
                        &Options::new(Strategy::FullDuplication),
                    );
                    // One decode serves the scout and measurement runs.
                    let prepared_all = h.prepare_for_runs(&all);
                    let scout =
                        h.run_prepared_module(&prepared_all, Trigger::Counter { interval: 13 });
                    let mut hot: HashSet<_> = hotness::functions_covering(&scout.profile, 0.9)
                        .into_iter()
                        .collect();
                    if hot.is_empty() {
                        // A scout epoch too short to see any method entry:
                        // an adaptive system would simply keep everything
                        // instrumented for another epoch.
                        hot = b.module.func_ids().collect();
                    }
                    let plan = plan_for(&b.module, Kinds::Both);
                    let (sel, sel_stats) = instrument_module_selective(
                        &b.module,
                        &plan,
                        &Options::new(Strategy::FullDuplication),
                        &hot,
                    )
                    .expect("valid options");
                    let o_all =
                        h.run_prepared_module(&prepared_all, Trigger::Counter { interval: 499 });
                    let o_sel = h.run_module(&sel, Trigger::Counter { interval: 499 });
                    let selective = SelectiveRow {
                        bench: b.name,
                        all_methods: o_all.overhead_vs(&b.baseline),
                        hot_only: o_sel.overhead_vs(&b.baseline),
                        all_space: all_stats.space_increase_bytes(),
                        hot_space: sel_stats.space_increase_bytes(),
                        hot_count: hot.len(),
                    };
                    (path, selective)
                })
            })
            .collect(),
    );
    let (per_bench, cell_errors) = split_results(results);
    let mut errors = suite.errors;
    errors.extend(cell_errors);

    let path_rows = PATH_INTERVALS
        .iter()
        .enumerate()
        .map(|(k, &interval)| PathRow {
            interval,
            total: mean(per_bench.iter().map(|(p, _)| p[k].total)),
            accuracy: mean(per_bench.iter().map(|(p, _)| p[k].accuracy)),
            paths_recorded: mean(per_bench.iter().map(|(p, _)| p[k].events)),
        })
        .collect();
    let selective_rows = per_bench.into_iter().map(|(_, s)| s).collect();

    Extras {
        path_rows,
        selective_rows,
        errors,
    }
}

impl Extras {
    /// Emits the report as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::{emit, Json};
        if !emit::enabled() {
            return;
        }
        for r in &self.path_rows {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "extras".into()),
                ("part", "path_profiling".into()),
                ("interval", r.interval.into()),
                ("total_pct", r.total.into()),
                ("accuracy_pct", r.accuracy.into()),
                ("paths_recorded", r.paths_recorded.into()),
            ]));
        }
        for r in &self.selective_rows {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "extras".into()),
                ("part", "selective".into()),
                ("bench", r.bench.into()),
                ("all_methods_pct", r.all_methods.into()),
                ("hot_only_pct", r.hot_only.into()),
                ("all_space_bytes", r.all_space.into()),
                ("hot_space_bytes", r.hot_space.into()),
                ("hot_count", r.hot_count.into()),
            ]));
        }
    }
}

impl fmt::Display for Extras {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extras (beyond the paper): sampled Ball-Larus path profiling"
        )?;
        writeln!(
            f,
            "{:>9} {:>11} {:>13} {:>12}",
            "interval", "total (%)", "accuracy (%)", "paths"
        )?;
        for r in &self.path_rows {
            writeln!(
                f,
                "{:>9} {:>11} {:>13.0} {:>12.0}",
                r.interval,
                pct(r.total),
                r.accuracy,
                r.paths_recorded
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Extras: selective instrumentation (hot methods covering 90% of heat)"
        )?;
        writeln!(
            f,
            "{:<14} {:>8} {:>9} {:>12} {:>12} {:>5}",
            "benchmark", "all (%)", "hot (%)", "all (bytes)", "hot (bytes)", "n"
        )?;
        for r in &self.selective_rows {
            writeln!(
                f,
                "{:<14} {:>8} {:>9} {:>12} {:>12} {:>5}",
                r.bench,
                pct(r.all_methods),
                pct(r.hot_only),
                r.all_space,
                r.hot_space,
                r.hot_count
            )?;
        }
        write_errors(f, &self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extras_shapes_hold() {
        let e = run(&Harness::default(), Scale::Smoke);
        // Path profiling: interval 1 is perfect; accuracy decays with the
        // interval; overhead decreases.
        assert!(e.path_rows[0].accuracy > 99.9);
        for w in e.path_rows.windows(2) {
            assert!(w[1].total <= w[0].total + 1e-6);
        }
        // Selective instrumentation never costs more than instrumenting
        // everything, in space or in cycles.
        for r in &e.selective_rows {
            assert!(r.hot_space <= r.all_space, "{}: space", r.bench);
            assert!(
                r.hot_only <= r.all_methods + 0.5,
                "{}: {:.1}% hot vs {:.1}% all",
                r.bench,
                r.hot_only,
                r.all_methods
            );
            assert!(r.hot_count >= 1);
        }
    }
}

//! Figure 8: the Jalapeño-specific yieldpoint optimization (§4.5).
//!
//! Part (A): framework overhead per benchmark with the checking code's
//! yieldpoints folded into the sampling checks (paper average: 1.4%,
//! vs 4.9% without the optimization).
//! Part (B): total sampling overhead vs interval with both example
//! instrumentations (paper: converges to ~1.5% instead of ~5%).

use std::fmt;

use isf_core::{Options, Strategy};
use isf_exec::Trigger;

use isf_obs::Json;

use crate::runner::{cell, instrument, split_results, CellError, Harness, JournalPayload, Kinds};
use crate::{mean, pct, write_errors, Scale};

/// One row of part (A).
#[derive(Clone, Debug)]
pub struct RowA {
    /// Benchmark name.
    pub bench: &'static str,
    /// Framework overhead with the yieldpoint optimization, percent.
    pub framework: f64,
    /// Framework overhead without it (Table 2's total), for the ratio.
    pub unoptimized: f64,
}

impl JournalPayload for (RowA, Vec<f64>) {
    fn encode(&self) -> Json {
        Json::obj([
            ("bench", self.0.bench.into()),
            ("framework", self.0.framework.into()),
            ("unoptimized", self.0.unoptimized.into()),
            (
                "totals",
                Json::Arr(self.1.iter().map(|&t| t.into()).collect()),
            ),
        ])
    }

    fn decode(v: &Json) -> Option<Self> {
        let row_a = RowA {
            bench: isf_workloads::canonical_name(v.get("bench")?.as_str()?)?,
            framework: v.get("framework")?.as_f64()?,
            unoptimized: v.get("unoptimized")?.as_f64()?,
        };
        let totals = v
            .get("totals")?
            .as_arr()?
            .iter()
            .map(|t| t.as_f64())
            .collect::<Option<Vec<f64>>>()?;
        Some((row_a, totals))
    }
}

/// One row of part (B).
#[derive(Clone, Debug)]
pub struct RowB {
    /// The sample interval.
    pub interval: u64,
    /// Total sampling overhead averaged over the suite, percent.
    pub total: f64,
}

/// The reproduced Figure 8 (both tables).
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// Part (A): per-benchmark framework overhead.
    pub rows_a: Vec<RowA>,
    /// Average of part (A).
    pub avg_framework: f64,
    /// Average unoptimized framework overhead, for the ratio.
    pub avg_unoptimized: f64,
    /// Part (B): total sampling overhead per interval.
    pub rows_b: Vec<RowB>,
    /// Cells that failed (prepare or experiment), suite order.
    pub errors: Vec<CellError>,
}

fn yieldpoint_options() -> Options {
    Options::new(Strategy::FullDuplication).with_yieldpoint_optimization()
}

/// Runs both parts, one cell per benchmark: part (A)'s two framework
/// measurements plus the benchmark's part (B) interval series, which is
/// averaged across benchmarks afterwards.
pub fn run(h: &Harness, scale: Scale) -> Fig8 {
    let suite = h.prepare_suite(scale);

    let results = h.par_cells_journaled(
        suite
            .benches
            .iter()
            .map(|b| {
                cell(format!("fig8/{}", b.name), move || {
                    let (opt, _, _) = instrument(&b.module, Kinds::None, &yieldpoint_options());
                    let framework = h.run_module(&opt, Trigger::Never).overhead_vs(&b.baseline);
                    let (plain, _, _) = instrument(
                        &b.module,
                        Kinds::None,
                        &Options::new(Strategy::FullDuplication),
                    );
                    let unoptimized = h
                        .run_module(&plain, Trigger::Never)
                        .overhead_vs(&b.baseline);
                    let row_a = RowA {
                        bench: b.name,
                        framework,
                        unoptimized,
                    };

                    let (m, _, _) = instrument(&b.module, Kinds::Both, &yieldpoint_options());
                    let prepared = h.prepare_for_runs(&m);
                    let baseline = b.baseline.cycles as f64;
                    let triggers =
                        crate::table4::INTERVALS.map(|interval| Trigger::Counter { interval });
                    let totals: Vec<f64> = h
                        .run_sweep(&prepared, &triggers)
                        .iter()
                        .map(|o| (o.cycles as f64 - baseline) / baseline * 100.0)
                        .collect();
                    (row_a, totals)
                })
            })
            .collect(),
    );
    let (per_bench, cell_errors) = split_results(results);
    let mut errors = suite.errors;
    errors.extend(cell_errors);

    let rows_a: Vec<RowA> = per_bench.iter().map(|(a, _)| a.clone()).collect();
    let rows_b: Vec<RowB> = crate::table4::INTERVALS
        .iter()
        .enumerate()
        .map(|(k, &interval)| RowB {
            interval,
            total: mean(per_bench.iter().map(|(_, totals)| totals[k])),
        })
        .collect();

    Fig8 {
        avg_framework: mean(rows_a.iter().map(|r| r.framework)),
        avg_unoptimized: mean(rows_a.iter().map(|r| r.unoptimized)),
        rows_a,
        rows_b,
        errors,
    }
}

impl Fig8 {
    /// Emits the figure as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::{emit, Json};
        if !emit::enabled() {
            return;
        }
        for r in &self.rows_a {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "fig8".into()),
                ("part", "a".into()),
                ("bench", r.bench.into()),
                ("framework_pct", r.framework.into()),
                ("unoptimized_pct", r.unoptimized.into()),
            ]));
        }
        for r in &self.rows_b {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "fig8".into()),
                ("part", "b".into()),
                ("interval", r.interval.into()),
                ("total_pct", r.total.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "fig8".into()),
            ("avg_framework_pct", self.avg_framework.into()),
            ("avg_unoptimized_pct", self.avg_unoptimized.into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8 (A): yieldpoint-optimized framework overhead")?;
        writeln!(
            f,
            "{:<14} {:>14} {:>18}",
            "benchmark", "framework (%)", "unoptimized (%)"
        )?;
        for r in &self.rows_a {
            writeln!(
                f,
                "{:<14} {:>14} {:>18}",
                r.bench,
                pct(r.framework),
                pct(r.unoptimized)
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>14} {:>18}",
            "average",
            pct(self.avg_framework),
            pct(self.avg_unoptimized)
        )?;
        writeln!(f, "(paper: 1.4% average, vs 4.9% unoptimized)")?;
        writeln!(f)?;
        writeln!(f, "Figure 8 (B): total sampling overhead, both kinds")?;
        writeln!(f, "{:>9} {:>11}", "interval", "total (%)")?;
        for r in &self.rows_b {
            writeln!(f, "{:>9} {:>11}", r.interval, pct(r.total))?;
        }
        writeln!(f, "(paper: 179.9% at interval 1, converging to ~1.5%)")?;
        write_errors(f, &self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run(&Harness::default(), Scale::Smoke);
        assert_eq!(fig.rows_a.len(), 10);
        // The optimization pays: optimized average well below unoptimized.
        assert!(
            fig.avg_framework < fig.avg_unoptimized / 2.0,
            "optimized {:.1}% vs unoptimized {:.1}%",
            fig.avg_framework,
            fig.avg_unoptimized
        );
        assert!(fig.avg_framework >= 0.0);
        // Part (B): overhead decreases with the interval and converges
        // below the unoptimized framework average.
        for w in fig.rows_b.windows(2) {
            assert!(w[1].total <= w[0].total + 1e-6);
        }
        let floor = fig.rows_b.last().unwrap().total;
        assert!(
            floor < fig.avg_unoptimized,
            "converged overhead {floor:.1}% should undercut the plain framework"
        );
    }
}

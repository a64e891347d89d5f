//! Table 5: accuracy of the timer-based vs the counter-based trigger,
//! field-access instrumentation under Full-Duplication (§4.6).
//!
//! The paper matched the two by sample count (counter interval 30,000 ≈
//! the 10 ms timer's sample count) and found the counter far more accurate
//! (84% vs 63% average overlap): the timer mis-attributes samples to
//! whatever check happens to follow a long-latency stretch, and its period
//! can alias with loop periods.

use std::fmt;

use isf_core::{Options, Strategy};
use isf_exec::Trigger;
use isf_profile::overlap::field_access_overlap;

use isf_obs::Json;

use crate::runner::{cell, instrument, split_results, CellError, Harness, JournalPayload, Kinds};
use crate::{mean, write_errors, Scale};

/// One benchmark row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Timer-based trigger accuracy (overlap %, field access).
    pub time_based: f64,
    /// Counter-based trigger accuracy (overlap %, field access).
    pub counter_based: f64,
    /// Samples taken by the counter run (the matching target).
    pub counter_samples: u64,
    /// Samples taken by the timer run.
    pub timer_samples: u64,
}

impl JournalPayload for Row {
    fn encode(&self) -> Json {
        Json::obj([
            ("bench", self.bench.into()),
            ("time_based", self.time_based.into()),
            ("counter_based", self.counter_based.into()),
            ("counter_samples", self.counter_samples.into()),
            ("timer_samples", self.timer_samples.into()),
        ])
    }

    fn decode(v: &Json) -> Option<Self> {
        Some(Row {
            bench: isf_workloads::canonical_name(v.get("bench")?.as_str()?)?,
            time_based: v.get("time_based")?.as_f64()?,
            counter_based: v.get("counter_based")?.as_f64()?,
            counter_samples: v.get("counter_samples")?.as_u64()?,
            timer_samples: v.get("timer_samples")?.as_u64()?,
        })
    }
}

/// The reproduced Table 5.
#[derive(Clone, Debug)]
pub struct Table5 {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<Row>,
    /// Average timer-based accuracy.
    pub avg_time_based: f64,
    /// Average counter-based accuracy.
    pub avg_counter_based: f64,
    /// Cells that failed (prepare or experiment), suite order.
    pub errors: Vec<CellError>,
}

/// Runs the experiment. The counter interval is chosen per scale so that
/// roughly a hundred samples are taken (the paper's 30,000 at its
/// benchmark sizes); the timer period is then matched to produce a similar
/// sample count, mirroring the paper's fair-comparison setup.
pub fn run(h: &Harness, scale: Scale) -> Table5 {
    let suite = h.prepare_suite(scale);
    let results = h.par_cells_journaled(
        suite
            .benches
            .iter()
            .map(|b| {
                cell(format!("table5/{}", b.name), move || {
                    let perfect = h.perfect_profile(b, Kinds::FieldAccess);
                    let (module, _, _) = instrument(
                        &b.module,
                        Kinds::FieldAccess,
                        &Options::new(Strategy::FullDuplication),
                    );
                    // One decode serves the probe, counter and timer runs.
                    let prepared = h.prepare_for_runs(&module);
                    // Aim for ~120 samples per run. Nudge the interval away
                    // from multiples of small primes so it does not alias
                    // with loop periods — the paper's §4.4 caveat about
                    // deterministic sampling of periodic programs (their
                    // 30,000 is likewise coprime to the benchmarks' loop
                    // lengths).
                    let probe = h.run_prepared_module(&prepared, Trigger::Never);
                    let mut interval = (probe.checks_executed / 120).max(3);
                    while [2, 3, 5, 7].iter().any(|p| interval.is_multiple_of(*p)) {
                        interval += 1;
                    }
                    let counter = h.run_prepared_module(&prepared, Trigger::Counter { interval });
                    let counter_acc = field_access_overlap(&perfect, &counter.profile);

                    // Match the timer's sample count to the counter's.
                    let period = (counter.cycles / counter.samples_taken.max(1)).max(1);
                    let timer = h.run_prepared_module(&prepared, Trigger::TimerBit { period });
                    let timer_acc = field_access_overlap(&perfect, &timer.profile);

                    Row {
                        bench: b.name,
                        time_based: timer_acc,
                        counter_based: counter_acc,
                        counter_samples: counter.samples_taken,
                        timer_samples: timer.samples_taken,
                    }
                })
            })
            .collect(),
    );
    let (rows, cell_errors) = split_results(results);
    let mut errors = suite.errors;
    errors.extend(cell_errors);
    Table5 {
        avg_time_based: mean(rows.iter().map(|r| r.time_based)),
        avg_counter_based: mean(rows.iter().map(|r| r.counter_based)),
        rows,
        errors,
    }
}

impl Table5 {
    /// Emits the table as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::{emit, Json};
        if !emit::enabled() {
            return;
        }
        for r in &self.rows {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "table5".into()),
                ("bench", r.bench.into()),
                ("time_based_pct", r.time_based.into()),
                ("counter_based_pct", r.counter_based.into()),
                ("counter_samples", r.counter_samples.into()),
                ("timer_samples", r.timer_samples.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "table5".into()),
            ("avg_time_based_pct", self.avg_time_based.into()),
            ("avg_counter_based_pct", self.avg_counter_based.into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 5: trigger accuracy, field-access, Full-Duplication"
        )?;
        writeln!(
            f,
            "{:<14} {:>15} {:>18} {:>10} {:>10}",
            "benchmark", "time-based (%)", "counter-based (%)", "ctr samp", "tmr samp"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>15.0} {:>18.0} {:>10} {:>10}",
                r.bench, r.time_based, r.counter_based, r.counter_samples, r.timer_samples
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>15.0} {:>18.0}",
            "average", self.avg_time_based, self.avg_counter_based
        )?;
        writeln!(f, "(paper averages: time-based 63%, counter-based 84%)")?;
        write_errors(f, &self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let t = run(&Harness::default(), Scale::Smoke);
        assert_eq!(t.rows.len(), 10);
        // The headline: counter-based sampling is more accurate on
        // average when sample counts are matched.
        assert!(
            t.avg_counter_based > t.avg_time_based,
            "counter {:.0}% must beat timer {:.0}%",
            t.avg_counter_based,
            t.avg_time_based
        );
        // Sample counts were actually matched (same order of magnitude).
        for r in &t.rows {
            assert!(r.counter_samples > 20, "{}: too few samples", r.bench);
            let ratio = r.timer_samples.max(1) as f64 / r.counter_samples.max(1) as f64;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{}: sample counts diverge ({} vs {})",
                r.bench,
                r.timer_samples,
                r.counter_samples
            );
        }
        // Counter-based accuracy is decent everywhere at ~120 samples.
        assert!(t.avg_counter_based > 55.0);
    }
}

//! Diagnostic experiment: one deliberately non-terminating cell among
//! bounded siblings. Not part of the paper — `spin` exists to exercise
//! the hung-cell machinery end to end: run it under `--cell-deadline`
//! (or `--cell-budget`) and the spinning cell is stopped and annotated
//! while its siblings complete normally. Run it with neither and it
//! hangs, on purpose.
//!
//! Hidden from `--help`'s experiment list (it reproduces nothing), but
//! accepted by name like any other experiment and journaled the same
//! way, so `--resume` over a deadlined `spin` run replays the siblings
//! and retries only the hung cell.

use std::fmt;

use isf_exec::Trigger;
use isf_obs::Json;

use crate::runner::{cell, split_results, CellError, Harness, JournalPayload};
use crate::{write_errors, Scale};

/// The hot loop never makes progress: `i` stays `0`, the condition stays
/// true, and the loop body is pure arithmetic — no allocation, no calls —
/// so nothing but fuel, cancellation, or a deadline can stop it.
const SPIN_SOURCE: &str = "
fn main() {
    var i = 0;
    while (i < 1) {
        i = i * 1;
    }
    print(i);
}
";

/// A bounded sibling: the same shape of loop, with a horizon. `@N@` is
/// the iteration count.
const SIBLING_TEMPLATE: &str = "
fn main() {
    var i = 0;
    var acc = 0;
    while (i < @N@) {
        acc = (acc + i * 31 + 7) % 1000000007;
        i = i + 1;
    }
    print(acc);
}
";

/// One completed cell: its deterministic run measurements.
#[derive(Clone, Debug)]
pub struct Row {
    /// Cell label (`hang`, `count-a`, ...).
    pub label: String,
    /// Simulated cycles the run took.
    pub cycles: u64,
    /// The value the program printed.
    pub output: i64,
}

impl JournalPayload for Row {
    fn encode(&self) -> Json {
        Json::obj([
            ("label", self.label.as_str().into()),
            ("cycles", self.cycles.into()),
            ("output", self.output.into()),
        ])
    }

    fn decode(v: &Json) -> Option<Self> {
        Some(Row {
            label: v.get("label")?.as_str()?.to_owned(),
            cycles: v.get("cycles")?.as_u64()?,
            // Outputs here are small (mod 1e9), so the f64 round-trip
            // through the JSON number is exact.
            output: v.get("output")?.as_f64()? as i64,
        })
    }
}

/// The diagnostic's outcome: whichever cells finished, plus the error
/// annotations for the ones that did not.
#[derive(Clone, Debug)]
pub struct Spin {
    /// Rows for completed cells, submission order.
    pub rows: Vec<Row>,
    /// Failed cells — under a deadline, the hung one.
    pub errors: Vec<CellError>,
}

/// The source of every cell, in submission order: the spinner first, so
/// its siblings demonstrably complete while it is still hanging.
fn cells(scale: Scale) -> Vec<(&'static str, String)> {
    let f = scale.factor();
    let sibling = |n: u64| SIBLING_TEMPLATE.replace("@N@", &n.to_string());
    vec![
        ("hang", SPIN_SOURCE.to_owned()),
        ("count-a", sibling(300 * f)),
        ("count-b", sibling(700 * f)),
        ("count-c", sibling(1100 * f)),
    ]
}

/// Runs the diagnostic, one isolated cell per program.
pub fn run(h: &Harness, scale: Scale) -> Spin {
    let results = h.par_cells_journaled(
        cells(scale)
            .into_iter()
            .map(|(name, source)| {
                cell(format!("spin/{name}"), move || {
                    let module = isf_frontend::compile(&source)
                        .unwrap_or_else(|e| panic!("spin program `{name}` failed to compile: {e}"));
                    let outcome = h.run_module(&module, Trigger::Never);
                    Row {
                        label: name.to_owned(),
                        cycles: outcome.cycles,
                        output: outcome.output.first().copied().unwrap_or(0),
                    }
                })
            })
            .collect(),
    );
    let (rows, errors) = split_results(results);
    Spin { rows, errors }
}

impl Spin {
    /// Emits the rows as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::emit;
        if !emit::enabled() {
            return;
        }
        for r in &self.rows {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "spin".into()),
                ("label", r.label.as_str().into()),
                ("sim_cycles", r.cycles.into()),
                ("output", r.output.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "spin".into()),
            ("completed", self.rows.len().into()),
            ("failed", self.errors.len().into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Spin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Spin: hung-cell diagnostic (not part of the paper)")?;
        writeln!(f, "{:<12} {:>14} {:>12}", "cell", "sim cycles", "output")?;
        for r in &self.rows {
            writeln!(f, "{:<12} {:>14} {:>12}", r.label, r.cycles, r.output)?;
        }
        writeln!(
            f,
            "{} of {} cells completed",
            self.rows.len(),
            self.rows.len() + self.errors.len()
        )?;
        write_errors(f, &self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isf_exec::{Engine, ExecLimits, Request, TrapKind, VmConfig};

    /// Runs one of the diagnostic's programs under an explicit fuel cap,
    /// straight on the engine rather than through a harness.
    fn run_capped(source: &str, cycles: u64) -> Result<isf_exec::Outcome, isf_exec::VmError> {
        let module = isf_frontend::compile(source).expect("spin sources compile");
        let cfg = VmConfig {
            limits: ExecLimits::cycles(cycles),
            ..VmConfig::default()
        };
        Engine::default()
            .load(&module, &cfg.cost)
            .execute(Request::new(&cfg))
    }

    #[test]
    fn the_spinner_really_spins() {
        let err = run_capped(SPIN_SOURCE, 100_000).expect_err("must not terminate");
        assert!(matches!(err.kind, TrapKind::FuelExhausted(_)));
    }

    #[test]
    fn the_siblings_really_terminate() {
        for (name, source) in cells(Scale::Smoke) {
            if name == "hang" {
                continue;
            }
            let outcome = run_capped(&source, 100_000_000)
                .unwrap_or_else(|e| panic!("sibling `{name}` trapped: {e}"));
            assert_eq!(outcome.output.len(), 1, "sibling `{name}` prints once");
        }
    }

    #[test]
    fn rows_roundtrip_through_the_journal_payload() {
        let row = Row {
            label: "count-a".to_owned(),
            cycles: 12_345,
            output: 678,
        };
        let decoded = Row::decode(&row.encode()).expect("decodes");
        assert_eq!(decoded.label, row.label);
        assert_eq!(decoded.cycles, row.cycles);
        assert_eq!(decoded.output, row.output);
    }
}

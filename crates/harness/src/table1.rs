//! Table 1: time overhead of exhaustive instrumentation, without the
//! framework — the motivation numbers. Paper averages: 88.3% (call-edge),
//! 60.4% (field-access).

use std::fmt;

use isf_core::Strategy;
use isf_exec::Trigger;

use isf_obs::Json;

use crate::runner::{cell, split_results, CellError, Harness, JournalPayload, Kinds};
use crate::{mean, pct, write_errors, Scale};

/// One benchmark row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Exhaustive call-edge instrumentation overhead, percent.
    pub call_edge: f64,
    /// Exhaustive field-access instrumentation overhead, percent.
    pub field_access: f64,
}

impl JournalPayload for Row {
    fn encode(&self) -> Json {
        Json::obj([
            ("bench", self.bench.into()),
            ("call_edge", self.call_edge.into()),
            ("field_access", self.field_access.into()),
        ])
    }

    fn decode(v: &Json) -> Option<Self> {
        Some(Row {
            bench: isf_workloads::canonical_name(v.get("bench")?.as_str()?)?,
            call_edge: v.get("call_edge")?.as_f64()?,
            field_access: v.get("field_access")?.as_f64()?,
        })
    }
}

/// The reproduced Table 1.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<Row>,
    /// Average call-edge overhead.
    pub avg_call_edge: f64,
    /// Average field-access overhead.
    pub avg_field_access: f64,
    /// Cells that failed (prepare or experiment), suite order; rendered as
    /// error-annotated lines after the table.
    pub errors: Vec<CellError>,
}

/// Runs the experiment, one isolated cell per benchmark; failed cells
/// become error annotations while the rest of the table completes.
pub fn run(h: &Harness, scale: Scale) -> Table1 {
    let suite = h.prepare_suite(scale);
    let results = h.par_cells_journaled(
        suite
            .benches
            .iter()
            .map(|b| {
                cell(format!("table1/{}", b.name), move || {
                    let (call_edge, _) =
                        h.overhead_of(b, Kinds::CallEdge, Strategy::Exhaustive, Trigger::Never);
                    let (field_access, _) =
                        h.overhead_of(b, Kinds::FieldAccess, Strategy::Exhaustive, Trigger::Never);
                    Row {
                        bench: b.name,
                        call_edge,
                        field_access,
                    }
                })
            })
            .collect(),
    );
    let (rows, cell_errors) = split_results(results);
    let mut errors = suite.errors;
    errors.extend(cell_errors);
    let avg_call_edge = mean(rows.iter().map(|r| r.call_edge));
    let avg_field_access = mean(rows.iter().map(|r| r.field_access));
    Table1 {
        rows,
        avg_call_edge,
        avg_field_access,
        errors,
    }
}

impl Table1 {
    /// Emits the table as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::{emit, Json};
        if !emit::enabled() {
            return;
        }
        for r in &self.rows {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "table1".into()),
                ("bench", r.bench.into()),
                ("call_edge_pct", r.call_edge.into()),
                ("field_access_pct", r.field_access.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "table1".into()),
            ("avg_call_edge_pct", self.avg_call_edge.into()),
            ("avg_field_access_pct", self.avg_field_access.into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1: exhaustive instrumentation overhead (no framework)"
        )?;
        writeln!(
            f,
            "{:<14} {:>14} {:>17}",
            "benchmark", "call-edge (%)", "field-access (%)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>14} {:>17}",
                r.bench,
                pct(r.call_edge),
                pct(r.field_access)
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>14} {:>17}",
            "average",
            pct(self.avg_call_edge),
            pct(self.avg_field_access)
        )?;
        writeln!(f, "(paper averages: call-edge 88.3%, field-access 60.4%)")?;
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
        // Exhaustive instrumentation is expensive on average — the paper's
        // motivation (tens of percent, not single digits).
        assert!(
            t.avg_call_edge > 25.0,
            "avg call-edge {:.1}% too cheap to motivate sampling",
            t.avg_call_edge
        );
        assert!(t.avg_field_access > 25.0);
        let by_name = |n: &str| t.rows.iter().find(|r| r.bench == n).unwrap();
        // db is the cheap extreme in both columns (paper: 8.3% / 7.7%).
        for r in &t.rows {
            if r.bench != "db" {
                assert!(
                    by_name("db").call_edge <= r.call_edge,
                    "db should have the lowest call-edge overhead"
                );
            }
        }
        // compress is the field-access extreme (paper: 204.8%).
        assert!(by_name("compress").field_access >= by_name("db").field_access * 4.0);
        // opt-compiler is the call-edge extreme (paper: 189%).
        assert!(by_name("opt_compiler").call_edge > t.avg_call_edge);
        // The table prints.
        let text = t.to_string();
        assert!(text.contains("compress") && text.contains("average"));
    }
}

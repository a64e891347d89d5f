//! Table 3: No-Duplication checking overhead, no samples taken. The
//! paper's point: guarding cheap operations (field access) with a check of
//! comparable cost is useless (avg 51.1%), while guarding expensive,
//! sparse operations (call-edge) is nearly free (avg 1.3%).

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
    /// Checking overhead with call-edge instrumentation guarded, percent.
    pub call_edge: f64,
    /// Checking overhead with field-access instrumentation guarded,
    /// percent.
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

/// The reproduced Table 3.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<Row>,
    /// Average call-edge checking overhead.
    pub avg_call_edge: f64,
    /// Average field-access checking overhead.
    pub avg_field_access: f64,
    /// Cells that failed (prepare or experiment), suite order.
    pub errors: Vec<CellError>,
}

/// Runs the experiment, one isolated cell per benchmark.
pub fn run(h: &Harness, scale: Scale) -> Table3 {
    let suite = h.prepare_suite(scale);
    let results = h.par_cells_journaled(
        suite
            .benches
            .iter()
            .map(|b| {
                cell(format!("table3/{}", b.name), move || {
                    let (call_edge, o) =
                        h.overhead_of(b, Kinds::CallEdge, Strategy::NoDuplication, Trigger::Never);
                    debug_assert!(o.profile.is_empty());
                    let (field_access, _) = h.overhead_of(
                        b,
                        Kinds::FieldAccess,
                        Strategy::NoDuplication,
                        Trigger::Never,
                    );
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
    Table3 {
        avg_call_edge: mean(rows.iter().map(|r| r.call_edge)),
        avg_field_access: mean(rows.iter().map(|r| r.field_access)),
        rows,
        errors,
    }
}

impl Table3 {
    /// Emits the table as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::{emit, Json};
        if !emit::enabled() {
            return;
        }
        for r in &self.rows {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "table3".into()),
                ("bench", r.bench.into()),
                ("call_edge_pct", r.call_edge.into()),
                ("field_access_pct", r.field_access.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "table3".into()),
            ("avg_call_edge_pct", self.avg_call_edge.into()),
            ("avg_field_access_pct", self.avg_field_access.into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3: No-Duplication checking overhead (no samples)")?;
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
        writeln!(f, "(paper averages: call-edge 1.3%, field-access 51.1%)")?;
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
        // The headline asymmetry: call-edge guards are cheap, field-access
        // guards cost a large fraction of the instrumentation itself.
        assert!(
            t.avg_call_edge < 10.0,
            "call-edge checking {:.1}% should be cheap",
            t.avg_call_edge
        );
        assert!(
            t.avg_field_access > 4.0 * t.avg_call_edge,
            "field-access checking {:.1}% should dwarf call-edge {:.1}%",
            t.avg_field_access,
            t.avg_call_edge
        );
        // Field-dense compress is the worst row (paper: 151.5%).
        let by_name = |n: &str| t.rows.iter().find(|r| r.bench == n).unwrap();
        assert!(by_name("compress").field_access > t.avg_field_access);
    }

    #[test]
    fn call_edge_column_tracks_entry_checks() {
        // Paper: "column 2 of Table 3 is identical to column 4 of Table 2"
        // (checks on method entries only). Same configuration here, modulo
        // the hoisting shim; allow a small tolerance.
        let h = Harness::default();
        let t3 = run(&h, Scale::Smoke);
        let t2 = crate::table2::run(&h, Scale::Smoke);
        for (a, b) in t3.rows.iter().zip(&t2.rows) {
            assert!(
                (a.call_edge - b.entries).abs() < 2.0,
                "{}: no-dup call-edge {:.2}% vs entry checks {:.2}%",
                a.bench,
                a.call_edge,
                b.entries
            );
        }
    }
}

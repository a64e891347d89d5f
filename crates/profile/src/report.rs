//! Human-readable profile reports.

use isf_ir::Module;

use crate::profile::ProfileData;

/// One row of a ranked call-edge report.
#[derive(Clone, Debug, PartialEq)]
pub struct CallEdgeRow {
    /// Caller function name.
    pub caller: String,
    /// Call-site index within the caller.
    pub site: u32,
    /// Callee function name.
    pub callee: String,
    /// Raw event count.
    pub count: u64,
    /// Percentage of all call-edge events (the paper's
    /// "sample-percentage").
    pub percent: f64,
}

/// Ranks call edges by count, descending, resolving names against `module`.
pub fn call_edge_rows(profile: &ProfileData, module: &Module) -> Vec<CallEdgeRow> {
    let total = profile.total_call_edge_events().max(1);
    let mut rows: Vec<CallEdgeRow> = profile
        .call_edges()
        .iter()
        .map(|(&(caller, site, callee), &count)| CallEdgeRow {
            caller: module.function(caller).name().to_owned(),
            site: site.0,
            callee: module.function(callee).name().to_owned(),
            count,
            percent: count as f64 / total as f64 * 100.0,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.caller.cmp(&b.caller))
            .then_with(|| a.site.cmp(&b.site))
            .then_with(|| a.callee.cmp(&b.callee))
    });
    rows
}

/// Formats the top `n` call edges as an aligned text table.
pub fn format_top_call_edges(profile: &ProfileData, module: &Module, n: usize) -> String {
    let mut out = String::from("  count      %  caller -> callee (site)\n");
    for row in call_edge_rows(profile, module).into_iter().take(n) {
        out.push_str(&format!(
            "{:>7} {:>6.2}  {} -> {} (@{})\n",
            row.count, row.percent, row.caller, row.callee, row.site
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isf_ir::{CallSiteId, FuncId, FunctionBuilder, ModuleBuilder, Term};

    fn two_fn_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut fb = FunctionBuilder::new("main", 0);
        fb.terminate(Term::Ret(None));
        let main = mb.add_function(fb.finish());
        let mut fb = FunctionBuilder::new("helper", 0);
        fb.terminate(Term::Ret(None));
        mb.add_function(fb.finish());
        mb.finish(main)
    }

    #[test]
    fn rows_ranked_by_count() {
        let m = two_fn_module();
        let main = FuncId::new(0);
        let helper = FuncId::new(1);
        let mut p = ProfileData::new();
        for _ in 0..3 {
            p.record_call_edge(main, CallSiteId::new(0), helper);
        }
        p.record_call_edge(main, CallSiteId::new(1), helper);
        let rows = call_edge_rows(&p, &m);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].count, 3);
        assert!((rows[0].percent - 75.0).abs() < 1e-9);
        assert_eq!(rows[0].caller, "main");
        assert_eq!(rows[0].callee, "helper");
    }

    #[test]
    fn text_table_renders() {
        let m = two_fn_module();
        let mut p = ProfileData::new();
        p.record_call_edge(FuncId::new(0), CallSiteId::new(0), FuncId::new(1));
        let text = format_top_call_edges(&p, &m, 10);
        assert!(text.contains("main -> helper"));
    }
}

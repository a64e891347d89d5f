//! Selective instrumentation: only the chosen methods get the framework.
//!
//! The paper assumes this mode throughout: "an adaptive JVM would most
//! likely instrument just a few of the hottest methods, so instrumenting
//! all methods represents a worst case scenario" (§4.1), and "if space is
//! limited, the number of methods instrumented simultaneously can be
//! restricted" (§3). The experiment harness instruments everything to
//! match the paper's worst case; adaptive clients use this entry point.

use std::collections::HashSet;

use isf_instr::ModulePlan;
use isf_ir::{FuncId, Module};

use crate::framework::{instrument_function, InvalidOptions, Options};
use crate::stats::{FunctionStats, TransformStats};

/// Applies the framework to the selected functions only; every other
/// function is left exactly as it was (no duplication, no checks).
///
/// # Errors
///
/// Returns [`InvalidOptions`] for invalid option combinations, as
/// [`crate::instrument_module`] does.
pub fn instrument_module_selective(
    module: &Module,
    plan: &ModulePlan,
    options: &Options,
    selected: &HashSet<FuncId>,
) -> Result<(Module, TransformStats), InvalidOptions> {
    crate::framework::validate(options)?;
    let mut out = module.clone();
    let bytes_before = isf_ir::size::module_bytes(&out);
    let mut functions = Vec::with_capacity(out.num_functions());
    let ids: Vec<_> = out.func_ids().collect();
    for id in ids {
        let mut stats = FunctionStats {
            func: id,
            blocks_before: out.function(id).num_blocks(),
            ..FunctionStats::default()
        };
        if selected.contains(&id) {
            instrument_function(&mut out, id, plan, options, &mut stats);
        }
        functions.push(stats);
    }
    let bytes_after = isf_ir::size::module_bytes(&out);
    debug_assert!(isf_ir::verify::verify_module(&out).is_ok());
    Ok((
        out,
        TransformStats {
            strategy: options.strategy,
            functions,
            bytes_before,
            bytes_after,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instrument_module, Strategy};
    use isf_exec::{Engine, Outcome, Request, Trigger, VmConfig, VmError};
    use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, Instrumentation};

    const PROGRAM: &str = "
        class Acc { field total; }
        fn hot(acc, v) { acc.total = acc.total + v * 3; return acc.total; }
        fn cold(acc) { acc.total = acc.total + 1000; return acc.total; }
        fn main() {
            var acc = new Acc;
            var i = 0;
            while (i < 300) { hot(acc, i); i = i + 1; }
            cold(acc);
            print(acc.total);
        }";

    fn kinds() -> Vec<&'static dyn Instrumentation> {
        vec![&CallEdgeInstrumentation, &FieldAccessInstrumentation]
    }

    /// Loads `module` on the default engine and runs it once under
    /// `trigger`.
    fn execute(module: &Module, trigger: Trigger) -> Result<Outcome, VmError> {
        let cfg = VmConfig {
            trigger,
            ..VmConfig::default()
        };
        Engine::default()
            .load(module, &cfg.cost)
            .execute(Request::new(&cfg))
    }

    #[test]
    fn selective_instruments_only_the_selected_function() {
        let module = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&module, &kinds());
        let hot = module.function_by_name("hot").unwrap();
        let selected: HashSet<FuncId> = [hot].into_iter().collect();
        let (out, stats) = instrument_module_selective(
            &module,
            &plan,
            &Options::new(Strategy::FullDuplication),
            &selected,
        )
        .unwrap();
        isf_ir::verify::verify_module(&out).unwrap();

        // Unselected functions are byte-for-byte untouched.
        for (id, f) in module.functions() {
            if id != hot {
                assert_eq!(f, out.function(id), "{} was modified", f.name());
                assert_eq!(stats.functions[id.index()].checks_inserted, 0);
            }
        }
        assert!(stats.functions[hot.index()].checks_inserted > 0);

        // Semantics preserved; only the hot method's events collected.
        let baseline = execute(&module, Trigger::Never).unwrap();
        let o = execute(&out, Trigger::Always).unwrap();
        assert_eq!(o.output, baseline.output);
        assert!(o
            .profile
            .call_edges()
            .keys()
            .all(|&(_, _, callee)| callee == hot));
        assert!(o.profile.total_call_edge_events() >= 300);
    }

    #[test]
    fn selective_costs_less_space_and_time_than_full() {
        let module = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&module, &kinds());
        let hot = module.function_by_name("hot").unwrap();
        let selected: HashSet<FuncId> = [hot].into_iter().collect();
        let opts = Options::new(Strategy::FullDuplication);
        let (all, all_stats) = instrument_module(&module, &plan, &opts).unwrap();
        let (sel, sel_stats) =
            instrument_module_selective(&module, &plan, &opts, &selected).unwrap();
        assert!(
            sel_stats.space_increase_bytes() < all_stats.space_increase_bytes() / 2,
            "selective space {} vs full {}",
            sel_stats.space_increase_bytes(),
            all_stats.space_increase_bytes()
        );
        let o_all = execute(&all, Trigger::Never).unwrap();
        let o_sel = execute(&sel, Trigger::Never).unwrap();
        assert!(o_sel.cycles < o_all.cycles, "fewer checks, fewer cycles");
    }

    #[test]
    fn empty_selection_is_identity() {
        let module = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&module, &kinds());
        let (out, stats) = instrument_module_selective(
            &module,
            &plan,
            &Options::new(Strategy::FullDuplication),
            &HashSet::new(),
        )
        .unwrap();
        assert_eq!(stats.total_checks(), 0);
        assert_eq!(stats.bytes_before, stats.bytes_after);
        let baseline = execute(&module, Trigger::Never).unwrap();
        let o = execute(&out, Trigger::Never).unwrap();
        assert_eq!(o.cycles, baseline.cycles);
    }
}

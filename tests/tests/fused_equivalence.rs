//! Differential property testing of superinstruction fusion: a module
//! loaded for [`Engine::Fused`] or [`Engine::Guided`] must be
//! observationally identical to the same module loaded for
//! [`Engine::Unfused`] and to the tree-walking reference — same output,
//! same simulated cycles, same
//! counters, same collected profile, and (under tight budgets) the same
//! trap at the same point. The generator is biased toward fusion
//! candidates: constant operands, compare-and-branch, move chains, and
//! constant-index array accesses, with instrumented variants covering the
//! `Jump`+instrumentation and `PathIncr`-run fusions.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{Engine, ExecLimits, Trigger, VmConfig};
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan, PathProfileInstrumentation,
};
use isf_integration_tests::program_gen::{render_program, stmt_strategy};
use isf_integration_tests::{compile, engines_agree};

/// Asserts every engine's load of `module` agrees with the naive reference
/// on the complete `Result<Outcome, VmError>` under `trigger` and
/// `limits`, and fused with unfused directly.
fn fusion_is_observably_equivalent(
    module: &isf_ir::Module,
    trigger: Trigger,
    limits: ExecLimits,
) -> Result<(), TestCaseError> {
    let cfg = VmConfig {
        trigger,
        limits,
        ..VmConfig::default()
    };
    let results = engines_agree(module, &cfg)?;
    let result_of = |engine| &results.iter().find(|(e, _)| *e == engine).unwrap().1;
    prop_assert_eq!(
        result_of(Engine::Fused),
        result_of(Engine::Unfused),
        "fused diverged from unfused"
    );
    Ok(())
}

fn all_kinds() -> Vec<&'static dyn Instrumentation> {
    vec![
        &CallEdgeInstrumentation,
        &FieldAccessInstrumentation,
        &BlockCountInstrumentation,
        &EdgeCountInstrumentation,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fusion_preserves_outcomes_on_random_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..8)
    ) {
        let module = compile(&render_program(&stmts));
        fusion_is_observably_equivalent(
            &module,
            Trigger::Never,
            ExecLimits::cycles(500_000_000),
        )?;
    }

    #[test]
    fn fusion_preserves_outcomes_on_instrumented_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // Instrumented modules exercise the Jump+instrumentation fusion
        // (BlockCount/EdgeCount/CallEdge absorbed into the preceding
        // fall-through jump) and the Check boundary that blocks fusion.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        for strategy in [Strategy::FullDuplication, Strategy::NoDuplication] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            fusion_is_observably_equivalent(
                &out,
                Trigger::Counter { interval: 3 },
                ExecLimits::cycles(500_000_000),
            )?;
        }
    }

    #[test]
    fn fusion_preserves_outcomes_on_path_profiled_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // Ball–Larus instrumentation produces the PathIncr runs the
        // fusion pass folds into a single delta.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &[&PathProfileInstrumentation]);
        let (out, _) =
            instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
        fusion_is_observably_equivalent(
            &out,
            Trigger::Counter { interval: 2 },
            ExecLimits::cycles(500_000_000),
        )?;
    }

    #[test]
    fn fusion_traps_identically_under_tight_budgets(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        max_cycles in 1u64..5_000,
    ) {
        // Fuel must exhaust at the same instruction whether or not that
        // instruction sits inside a fused group: the summed up-front
        // charge (plus the split `extra` charge of the branch fusions)
        // reproduces the unfused charge sequence exactly.
        let module = compile(&render_program(&stmts));
        let limits = ExecLimits {
            max_cycles: Some(max_cycles),
            ..ExecLimits::default()
        };
        fusion_is_observably_equivalent(&module, Trigger::Never, limits)?;
        let plan = ModulePlan::build(&module, &all_kinds());
        let (out, _) = instrument_module(
            &module, &plan, &Options::new(Strategy::FullDuplication),
        ).unwrap();
        fusion_is_observably_equivalent(&out, Trigger::Counter { interval: 3 }, limits)?;
    }

    #[test]
    fn fusion_agrees_under_timer_trigger(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // The timer trigger consults the clock on every charge; a fused
        // group's merged tick catch-up must leave the trigger in the same
        // state as the unfused per-op ticks.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        let (out, _) = instrument_module(
            &module, &plan, &Options::new(Strategy::FullDuplication),
        ).unwrap();
        fusion_is_observably_equivalent(
            &out,
            Trigger::TimerBit { period: 997 },
            ExecLimits::cycles(500_000_000),
        )?;
    }
}

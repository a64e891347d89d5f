//! Differential property testing of the execution engines: every
//! pre-decoded engine of [`isf_exec::Engine::ALL`] (unfused, fused and
//! guided) must be observationally identical to the tree-walking
//! reference ([`isf_exec::Engine::Naive`]) — same output, same simulated
//! cycles, same counters, same collected profile — on arbitrary programs,
//! not just the benchmark suite. Instrumented and path-profiled variants
//! are included so the decoded forms of `check`, the profiling ops and
//! the Ball–Larus path ops are all exercised.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{ExecLimits, Trigger, VmConfig};
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan, PathProfileInstrumentation,
};
use isf_integration_tests::program_gen::{render_program, stmt_strategy};
use isf_integration_tests::{compile, engines_agree};

/// Asserts every engine agrees with the naive reference on the complete
/// [`isf_exec::Outcome`] for `module` under `trigger` — output, cycles,
/// instructions, profile and every check/sample/yield/entry/backedge/switch
/// counter — and that the reference completes.
fn engines_agree_on_outcome(
    module: &isf_ir::Module,
    trigger: Trigger,
) -> Result<(), TestCaseError> {
    let cfg = VmConfig {
        trigger,
        limits: ExecLimits::cycles(500_000_000),
        ..VmConfig::default()
    };
    let results = engines_agree(module, &cfg)?;
    prop_assert!(results[0].1.is_ok(), "naive engine runs");
    Ok(())
}

/// Asserts every engine agrees with the naive reference on the complete
/// `Result<Outcome, VmError>` under `limits` and `timeslice` — including
/// the trap kind, the function it fired in, and the threadswitch count.
/// Resource budgets must exhaust at the same instruction in every engine,
/// or the fault-tolerant harness would classify the same cell differently
/// depending on the engine that ran it. Small timeslices put threadswitch
/// catch-ups next to the budget in the prepared engine's cycle horizon.
fn engines_agree_on_result(
    module: &isf_ir::Module,
    trigger: Trigger,
    limits: ExecLimits,
    timeslice: u64,
) -> Result<(), TestCaseError> {
    let cfg = VmConfig {
        trigger,
        limits,
        timeslice,
        ..VmConfig::default()
    };
    engines_agree(module, &cfg).map(drop)
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
    fn engines_agree_on_random_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..8)
    ) {
        let module = compile(&render_program(&stmts));
        engines_agree_on_outcome(&module, Trigger::Never)?;
    }

    #[test]
    fn engines_agree_on_instrumented_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // Sampled instrumentation decodes to Check plus the profiling ops;
        // a counter trigger exercises both the sampled and deferred paths.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        for strategy in [Strategy::FullDuplication, Strategy::NoDuplication] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            engines_agree_on_outcome(&out, Trigger::Counter { interval: 3 })?;
        }
    }

    #[test]
    fn engines_agree_on_path_profiled_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // Ball–Larus instrumentation decodes to PathStart/PathIncr/PathEnd.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &[&PathProfileInstrumentation]);
        let (out, _) =
            instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
        engines_agree_on_outcome(&out, Trigger::Counter { interval: 2 })?;
    }

    #[test]
    fn engines_trap_identically_under_tight_budgets(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        max_cycles in 1u64..5_000,
        max_heap in 1u64..128,
        max_stack in 2usize..24,
        timeslice in 1u64..256,
    ) {
        // Tight limits make most generated programs trap with fuel, heap
        // or stack exhaustion somewhere mid-execution; every engine must
        // trap at the same point with the same `VmError` (or complete
        // with the same outcome when the program fits the budget).
        let module = compile(&render_program(&stmts));
        let limits = ExecLimits {
            max_cycles: Some(max_cycles),
            max_heap_words: Some(max_heap),
            max_stack,
        };
        engines_agree_on_result(&module, Trigger::Never, limits, timeslice)?;
        engines_agree_on_result(&module, Trigger::Counter { interval: 3 }, limits, timeslice)?;
    }

    #[test]
    fn instrumented_engines_trap_identically_under_tight_budgets(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        max_cycles in 1u64..5_000,
        timeslice in 1u64..256,
    ) {
        // The instrumented module runs the same program through Check and
        // the profiling ops; fuel must still exhaust at identical points.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        let limits = ExecLimits {
            max_cycles: Some(max_cycles),
            ..ExecLimits::default()
        };
        for strategy in [Strategy::FullDuplication, Strategy::NoDuplication] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            engines_agree_on_result(&out, Trigger::Counter { interval: 3 }, limits, timeslice)?;
        }
    }

    #[test]
    fn engines_agree_under_timer_trigger(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        period in 1u64..2_000,
        timeslice in 1u64..256,
    ) {
        // The timer trigger is the one trigger that observes the clock:
        // its next fire is one of the prepared engine's horizon terms,
        // here interleaved with frequent threadswitch catch-ups. Both
        // engines must attribute samples identically.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        let (out, _) = instrument_module(
            &module, &plan, &Options::new(Strategy::FullDuplication),
        ).unwrap();
        engines_agree_on_outcome(&out, Trigger::TimerBit { period: 997 })?;
        engines_agree_on_result(
            &out,
            Trigger::TimerBit { period },
            ExecLimits::cycles(500_000_000),
            timeslice,
        )?;
    }
}

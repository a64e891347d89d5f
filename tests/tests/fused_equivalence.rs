//! Fusion is invisible: the fused engine reports what the unfused engine
//! and the naive reference report — outcome, cycles, samples and traps at
//! the same dispatch — under every trigger, instrumentation and budget:
//! the differential oracle ([`isf_integration_tests::oracle::check`]),
//! with one axis drawn.

use proptest::prelude::*;

use isf_core::Strategy;
use isf_exec::{
    Code, CostModel, ExecLimits, FuseGuidance, FuseMode, OpProfile, PreparedModule, Request,
    Trigger, VmConfig,
};
use isf_integration_tests::oracle::{
    check, sequential_program, tight_limits, transform_strategy, trigger_strategy, Case,
};
use isf_workloads::Scale;

/// `FuseMode::Guided` is kept only for the benchmark package, whose
/// `suite-pgo` set-up and guided draws prepare with it: it must prepare
/// exactly as `FuseMode::Fuse` and run to the same outcome. The guidance
/// comes from the benchmark's own warmup (`Trigger::Never`, 250,000
/// cycles, profiled) of each suite program, and each program runs
/// instrumented under every trigger kind.
#[test]
fn guided_mode_prepares_and_runs_as_fused() {
    let cost = CostModel::default();
    let triggers = [
        Trigger::Never,
        Trigger::Always,
        Trigger::Counter { interval: 97 },
        Trigger::CounterPerThread { interval: 13 },
        Trigger::CounterRandomized {
            interval: 50,
            jitter: 10,
            seed: 7,
        },
        Trigger::TimerBit { period: 1_000 },
    ];
    for w in isf_workloads::suite(Scale::Smoke) {
        let fused = PreparedModule::prepare_with(&w.compile(), &cost, FuseMode::Fuse);
        let warmup = VmConfig {
            trigger: Trigger::Never,
            limits: ExecLimits::cycles(250_000),
            ..VmConfig::default()
        };
        let mut profile = OpProfile::new();
        let _ = Code::from(&fused).execute(Request::new(&warmup).profile(&mut profile));
        let guidance = FuseGuidance::from_profile(&profile);

        let module = Case::instrumented(
            w.source().into(),
            "cf",
            Strategy::FullDuplication,
            Trigger::Never,
        )
        .module();
        let fused = PreparedModule::prepare_with(&module, &cost, FuseMode::Fuse);
        let guided =
            PreparedModule::prepare_with(&module, &cost, FuseMode::Guided(Box::new(guidance)));
        let name = w.name();
        assert_eq!(guided.num_ops(), fused.num_ops(), "{name}: num_ops");
        assert_eq!(guided.num_fused(), fused.num_fused(), "{name}: num_fused");
        assert_eq!(guided.num_guided(), 0, "{name}: num_guided");
        for trigger in triggers {
            let cfg = VmConfig {
                trigger,
                ..VmConfig::default()
            };
            let run = |p: &PreparedModule| Code::from(p).execute(Request::new(&cfg));
            assert_eq!(run(&guided), run(&fused), "{name} under {trigger:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fusion_preserves_outcomes_on_random_programs(
        program in sequential_program(),
        trigger in trigger_strategy(),
    ) {
        let case = Case { trigger, ..Case::new(program) };
        prop_assert!(check(&case).result.is_ok(), "a generated program trapped:\n{}", case);
    }

    #[test]
    fn fusion_preserves_outcomes_on_instrumented_programs(
        program in sequential_program(),
        strategy in transform_strategy(),
        trigger in trigger_strategy(),
    ) {
        check(&Case::instrumented(program, "cfbe", strategy, trigger));
    }

    #[test]
    fn fusion_preserves_outcomes_on_path_profiled_programs(
        program in sequential_program(),
        strategy in transform_strategy(),
    ) {
        check(&Case::instrumented(program, "p", strategy, Trigger::Counter { interval: 2 }));
    }

    #[test]
    fn fusion_traps_identically_under_tight_budgets(
        program in sequential_program(),
        strategy in transform_strategy(),
        limits in tight_limits(),
    ) {
        // A budget that runs out inside a fused group must trap where the
        // unfused schedule does, with the same profile folded.
        check(&Case { limits, ..Case::new(program.clone()) });
        let case = Case::instrumented(program, "cfbe", strategy, Trigger::Counter { interval: 3 });
        check(&Case { limits, ..case });
    }

    #[test]
    fn fusion_agrees_under_timer_trigger(program in sequential_program(), period in 1u64..2_000) {
        let trigger = Trigger::TimerBit { period };
        check(&Case::instrumented(program, "cfbe", Strategy::NoDuplication, trigger));
    }
}

//! Fusion is invisible: the fused and guided engines report what the
//! unfused engine and the naive reference report — outcome, cycles,
//! samples and traps at the same dispatch — under every trigger,
//! instrumentation and budget: the differential oracle
//! ([`isf_integration_tests::oracle::check`]), which adds a
//! saturated-guidance guided module to the engines, with one axis drawn.

use proptest::prelude::*;

use isf_core::Strategy;
use isf_exec::Trigger;
use isf_integration_tests::oracle::{
    check, sequential_program, tight_limits, transform_strategy, trigger_strategy, Case,
};

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

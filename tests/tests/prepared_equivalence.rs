//! Every engine agrees with the naive reference on the complete
//! `Result<Outcome, VmError>` — output, cycles, instructions, samples,
//! traps and their attribution — on generated programs, plain,
//! instrumented and path-profiled, under tight budgets and under the
//! timer trigger: the differential oracle
//! ([`isf_integration_tests::oracle::check`]) with one axis drawn.

use proptest::prelude::*;

use isf_core::Strategy;
use isf_exec::Trigger;
use isf_integration_tests::oracle::{
    check, sequential_program, tight_limits, transform_strategy, Case,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_random_programs(program in sequential_program()) {
        let case = Case::new(program);
        prop_assert!(check(&case).result.is_ok(), "a generated program trapped:\n{}", case);
    }

    #[test]
    fn engines_agree_on_instrumented_programs(
        program in sequential_program(),
        strategy in transform_strategy(),
    ) {
        check(&Case::instrumented(program, "cfbe", strategy, Trigger::Counter { interval: 3 }));
    }

    #[test]
    fn engines_agree_on_path_profiled_programs(
        program in sequential_program(),
        strategy in transform_strategy(),
    ) {
        check(&Case::instrumented(program, "p", strategy, Trigger::Counter { interval: 2 }));
    }

    #[test]
    fn engines_trap_identically_under_tight_budgets(
        program in sequential_program(),
        limits in tight_limits(),
        timeslice in 1u64..256,
        sampled in any::<bool>(),
    ) {
        // Tight limits make most generated programs trap with fuel, heap
        // or stack exhaustion, at a reschedule point or between them.
        let trigger = if sampled { Trigger::Counter { interval: 3 } } else { Trigger::Never };
        check(&Case { trigger, limits, timeslice, ..Case::new(program) });
    }

    #[test]
    fn instrumented_engines_trap_identically_under_tight_budgets(
        program in sequential_program(),
        strategy in transform_strategy(),
        limits in tight_limits(),
        timeslice in 1u64..256,
    ) {
        let case = Case::instrumented(program, "cfbe", strategy, Trigger::Counter { interval: 3 });
        check(&Case { limits, timeslice, ..case });
    }

    #[test]
    fn engines_agree_under_timer_trigger(program in sequential_program(), period in 1u64..2_000) {
        // The timer trigger consults the simulated clock, the path where
        // the engines could most plausibly diverge in attribution.
        let trigger = Trigger::TimerBit { period };
        check(&Case::instrumented(program, "cfbe", Strategy::FullDuplication, trigger));
    }
}

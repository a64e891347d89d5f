//! Profiling is an observer: a profiled run reports the unprofiled
//! outcome, its per-opcode profile reconciles with that outcome's
//! instructions, cycles and samples, every engine's profile totals agree
//! (traps included), and the naive and unfused engines agree opcode by
//! opcode: the differential oracle
//! ([`isf_integration_tests::oracle::check`]), which replays every case
//! profiled on every engine, with one axis drawn.

use proptest::prelude::*;

use isf_core::Strategy;
use isf_exec::Trigger;
use isf_integration_tests::oracle::{
    check, sequential_program, tight_limits, transform_strategy, Case,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn profiles_agree_on_random_programs(program in sequential_program()) {
        let case = Case::new(program);
        prop_assert!(check(&case).result.is_ok(), "a generated program trapped:\n{}", case);
    }

    #[test]
    fn profiles_agree_on_instrumented_programs(
        program in sequential_program(),
        strategy in transform_strategy(),
    ) {
        check(&Case::instrumented(program, "cfbe", strategy, Trigger::Counter { interval: 3 }));
    }

    #[test]
    fn profiles_agree_on_trapping_programs(
        program in sequential_program(),
        limits in tight_limits(),
    ) {
        // The profile folded at a trap counts exactly the dispatches the
        // trapping run made.
        check(&Case { trigger: Trigger::Counter { interval: 3 }, limits, ..Case::new(program) });
    }

    #[test]
    fn profiles_agree_under_timer_trigger(program in sequential_program(), period in 1u64..2_000) {
        let trigger = Trigger::TimerBit { period };
        check(&Case::instrumented(program, "cfbe", Strategy::FullDuplication, trigger));
    }
}

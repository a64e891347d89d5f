//! The engines' differential contract, checked by one oracle
//! ([`isf_integration_tests::oracle::check`]): every engine of
//! [`isf_exec::Engine::ALL`] must agree on every observable — the
//! complete `Result<Outcome, VmError>`, the consumed schedule, burst
//! traces, profiles and their reconciliation with the outcome — under
//! every instrumentation, trigger, limit, timeslice and schedule policy.
//! The paper's numbers are simulated cycles, so an engine that disagrees
//! on any of them would change a table.
//!
//! These cases draw every axis at once. The suites named after one
//! property (`prepared_equivalence`, `fused_equivalence`,
//! `profile_equivalence`, `budget_equivalence`,
//! `fused_trap_attribution`, `schedule_exploration`) run the same check
//! on cases that hold the other axes fixed, and hold the regression rows:
//! fixed inputs that once broke an engine or pin a path the generators
//! reach rarely. A failing case prints its one-line form, which pastes
//! into such a row as it is.

use proptest::prelude::*;

use isf_integration_tests::oracle::{check, concurrent_case, generous, sequential_case};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_cases_agree_on_every_axis(case in sequential_case()) {
        let checked = check(&case);
        // Generated programs are trap-free: with room to run, they finish.
        if case.limits == generous() {
            prop_assert!(checked.result.is_ok(), "a generated program trapped:\n{}", case);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_cases_agree_on_every_axis(case in concurrent_case()) {
        let checked = check(&case);
        if case.limits == generous() {
            prop_assert!(checked.result.is_ok(), "a generated program trapped:\n{}", case);
        }
    }
}

//! Cancellation at simulated cycle k is a fuel budget of k: on every
//! engine a run cancelled at k stops at the dispatch where `max_cycles =
//! k` traps, with the same counters and schedule prefix, under every
//! trigger and timeslice, in sequential and concurrent programs and
//! inside spawned threads. Each test runs the differential oracle
//! ([`isf_integration_tests::oracle::check`]), which replays every case
//! with a cancellation point against its fuel twin.

use proptest::prelude::*;

use isf_exec::{ExecLimits, TrapKind};
use isf_integration_tests::oracle::{
    check, check_row, conc, concurrent_program, full_run, sequential_program, spill_case,
    transform_strategy, traps, trigger_strategy, Case, Checked,
};
use isf_integration_tests::program_gen::ConcShape;

const TIMESLICES: [u64; 8] = [1, 2, 3, 5, 8, 13, 31, 101];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cancellation_at_k_equals_a_fuel_budget_of_k(
        program in sequential_program(),
        k in 1u64..5_000,
    ) {
        // Small `k` lands mid-execution in most generated programs;
        // occasionally the program fits and both runs must then complete
        // with identical outcomes.
        check(&Case { cancel_after: Some(k), ..Case::new(program) });
    }

    #[test]
    fn cancellation_is_trigger_independent(
        program in sequential_program(),
        strategy in transform_strategy(),
        trigger in trigger_strategy(),
        k in 1u64..3_000,
    ) {
        // Sampling adds check dispatches to the stream; the cancel point
        // must still equal the fuel point under it.
        let case = Case::instrumented(program, "cfbe", strategy, trigger);
        check(&Case { cancel_after: Some(k), ..case });
    }

    #[test]
    fn concurrent_programs_cancel_identically_under_small_timeslices(
        program in concurrent_program(),
        slice in 0..TIMESLICES.len(),
        per_mille in 1u64..=1_000,
    ) {
        // The cancel point falls anywhere from the first cycle to the
        // last, with threads parked mid-call at every reschedule point.
        let case = Case { timeslice: TIMESLICES[slice], ..Case::new(program) };
        let (cycles, _) = full_run(&case);
        check(&Case { cancel_after: Some((cycles * per_mille / 1_000).max(1)), ..case });
    }
}

/// 1,100 threads drive `CounterPerThread` past its 1,024 dense lanes
/// into the spill map; cancelled deep in the tail, the running thread's
/// counters are spilled when the cancellation fires.
#[test]
fn per_thread_spill_counters_cancel_like_fuel() {
    let spill = spill_case();
    let (cycles, _) = full_run(&spill);
    let case = Case {
        cancel_after: Some(cycles * 95 / 100),
        ..spill
    };
    check_row(
        "spill lanes cancelled at 95%",
        &case,
        traps(TrapKind::Cancelled),
    );
}

/// A stack limit the nested workers (`work` -> `bump` -> `add`) overrun
/// while other threads are parked mid-call: at 2 only a worker can
/// overflow (`main` never calls); from 3 up the run completes.
#[test]
fn stack_overflow_fires_identically_inside_a_spawned_thread() {
    for max_stack in 2..8 {
        for timeslice in TIMESLICES {
            let case = Case {
                limits: ExecLimits {
                    max_stack,
                    ..ExecLimits::default()
                },
                timeslice,
                ..Case::new(conc(3, 4, ConcShape::Nested))
            };
            let expect = move |c: &Checked| match &c.result {
                Err(e) => {
                    max_stack == 2 && e.kind == TrapKind::StackOverflow(2) && e.function == "bump"
                }
                Ok(o) => max_stack > 2 && o.thread_switches > 0,
            };
            let name = format!("stack overflow, max_stack={max_stack} ts={timeslice}");
            check_row(&name, &case, expect);
        }
    }
}

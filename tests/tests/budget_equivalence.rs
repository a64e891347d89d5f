//! Budgets stop every engine at the same dispatch: a fuel budget of k
//! traps on every engine where the clock passes k, with the same counters
//! and schedule prefix, under every trigger and timeslice, in sequential
//! and concurrent programs and inside spawned threads; a stack limit
//! overrun in a spawned thread traps identically too. Each test runs the
//! differential oracle ([`isf_integration_tests::oracle::check`]).

use proptest::prelude::*;

use isf_exec::{ExecLimits, TrapKind};
use isf_integration_tests::oracle::{
    check, check_row, conc, concurrent_program, fuel, full_run, sequential_program, spill_case,
    transform_strategy, traps, trigger_strategy, Case, Checked,
};
use isf_integration_tests::program_gen::ConcShape;

const TIMESLICES: [u64; 8] = [1, 2, 3, 5, 8, 13, 31, 101];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_fuel_budget_of_k_stops_every_engine_at_the_same_dispatch(
        program in sequential_program(),
        k in 1u64..5_000,
    ) {
        // Small `k` lands mid-execution in most generated programs;
        // occasionally the program fits and every run must then complete
        // with identical outcomes.
        check(&Case { limits: fuel(k), ..Case::new(program) });
    }

    #[test]
    fn fuel_traps_are_trigger_independent(
        program in sequential_program(),
        strategy in transform_strategy(),
        trigger in trigger_strategy(),
        k in 1u64..3_000,
    ) {
        // Sampling adds check dispatches to the stream; the fuel point
        // must still agree under it.
        let case = Case::instrumented(program, "cfbe", strategy, trigger);
        check(&Case { limits: fuel(k), ..case });
    }

    #[test]
    fn concurrent_programs_run_out_of_fuel_identically_under_small_timeslices(
        program in concurrent_program(),
        slice in 0..TIMESLICES.len(),
        per_mille in 1u64..=1_000,
    ) {
        // The budget runs out anywhere from the first cycle to the last,
        // with threads parked mid-call at every reschedule point.
        let case = Case { timeslice: TIMESLICES[slice], ..Case::new(program) };
        let (cycles, _) = full_run(&case);
        check(&Case { limits: fuel((cycles * per_mille / 1_000).max(1)), ..case });
    }
}

/// 1,100 threads drive `CounterPerThread` past its 1,024 dense lanes
/// into the spill map; out of fuel deep in the tail, the running
/// thread's counters are spilled when the trap fires.
#[test]
fn per_thread_spill_counters_run_out_of_fuel_identically() {
    let spill = spill_case();
    let (cycles, _) = full_run(&spill);
    let max = cycles * 95 / 100;
    let case = Case {
        limits: fuel(max),
        ..spill
    };
    check_row(
        "spill lanes out of fuel at 95%",
        &case,
        traps(TrapKind::FuelExhausted(max)),
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

//! Schedules are an input: a schedule recorded under any policy replays
//! on every engine, plain, profiled and traced, to the same result and
//! the same consumed prefix, also when a trap or cancellation ends the
//! run mid-schedule; and on commutative programs the schedule changes no
//! schedule-independent observable, per-thread sample counts included.
//! Each test runs the differential oracle
//! ([`isf_integration_tests::oracle::check`]), which records on the fused
//! engine, replays everywhere and compares the recording with the plain
//! round-robin run.

use proptest::prelude::*;

use isf_core::Strategy;
use isf_exec::{SchedPolicy, TrapKind, Trigger};
use isf_integration_tests::oracle::{
    check, check_row, conc, concurrent_program, fuel, full_run, spill_case, traps, Case,
};
use isf_integration_tests::program_gen::ConcShape;

/// `program` instrumented with call edges under Full-Duplication, so the
/// per-thread trigger has checks to fire on.
fn sampled(program: String, interval: u64) -> Case {
    let trigger = Trigger::CounterPerThread { interval };
    Case::instrumented(program, "c", Strategy::FullDuplication, trigger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn seeded_random_trace_replays_on_all_configs(
        program in concurrent_program(),
        seed in 0u64..1 << 48,
        sample in any::<bool>(),
    ) {
        let case = if sample { sampled(program, 13) } else { Case::new(program) };
        check(&Case { sched: SchedPolicy::SeededRandom { seed }, ..case });
    }

    #[test]
    fn outcomes_are_schedule_invariant_across_policies(
        program in concurrent_program(),
        seed in 0u64..1 << 48,
    ) {
        // The oracle compares each recording with the round-robin run.
        for sched in [
            SchedPolicy::SeededRandom { seed },
            SchedPolicy::PctPriority { seed, depth: 3 },
        ] {
            let case = Case { sched, ..sampled(program.clone(), 7) };
            prop_assert!(check(&case).result.is_ok(), "an explored run trapped:\n{}", case);
        }
    }
}

/// A reschedule point with one runnable thread is not a decision, so a
/// single-threaded run records nothing under any policy.
#[test]
fn single_runnable_yield_is_policy_independent() {
    let single = "fn main() { var i = 0; var acc = 0;
        while (i < 5000) { acc = acc + i; i = i + 1; } print(acc); }";
    for sched in [
        SchedPolicy::SeededRandom { seed: 0xDEAD },
        SchedPolicy::PctPriority {
            seed: 0xBEEF,
            depth: 5,
        },
    ] {
        let case = Case {
            sched,
            ..Case::new(single.into())
        };
        check_row(&format!("single runnable under {sched:?}"), &case, |c| {
            c.decisions == 0
        });
    }
}

/// Recording round-robin observes exactly the plain run, on a contended
/// program with real decision points.
#[test]
fn recorded_round_robin_equals_plain_run() {
    let case = Case {
        trigger: Trigger::CounterPerThread { interval: 11 },
        ..Case::new(conc(4, 5, ConcShape::Contention))
    };
    check_row("recorded round-robin", &case, |c| c.decisions > 0);
}

/// A fuel trap mid-schedule: every engine consumes the same prefix of
/// the recorded schedule.
#[test]
fn replay_survives_fuel_trap_mid_schedule() {
    let contended = Case {
        sched: SchedPolicy::SeededRandom { seed: 77 },
        ..Case::new(conc(4, 6, ConcShape::Contention))
    };
    let (cycles, decisions) = full_run(&contended);
    let case = Case {
        limits: fuel(cycles / 2),
        ..contended
    };
    check_row("fuel trap mid-schedule", &case, move |c| {
        c.result.is_err() && c.decisions < decisions
    });
}

/// A cancellation mid-schedule, likewise.
#[test]
fn replay_survives_cancellation_mid_schedule() {
    let fan_out = Case {
        sched: SchedPolicy::SeededRandom { seed: 123 },
        ..Case::new(conc(3, 6, ConcShape::FanOut))
    };
    let (cycles, _) = full_run(&fan_out);
    let case = Case {
        cancel_after: Some(cycles / 2),
        ..fan_out
    };
    check_row(
        "cancellation mid-schedule",
        &case,
        traps(TrapKind::Cancelled),
    );
}

/// Each thread's `CounterPerThread` fires depend only on its own check
/// stream, so per-thread sample counts are the same multiset on every
/// schedule; the oracle compares them with the round-robin run's.
#[test]
fn per_thread_sample_counts_are_permutation_equivalent() {
    for seed in 1..6 {
        let case = Case {
            sched: SchedPolicy::SeededRandom { seed },
            ..sampled(conc(5, 6, ConcShape::Contention), 5)
        };
        check_row(&format!("per-thread samples, seed {seed}"), &case, |c| {
            c.decisions > 0 && matches!(&c.result, Ok(o) if o.samples_taken > 0)
        });
    }
}

/// 1,100 threads push `CounterPerThread` past its 1,024 dense lanes into
/// the spill map, on a randomized schedule, with the round-robin run's
/// schedule-independent outcome.
#[test]
fn thread_spill_program_is_schedule_invariant() {
    let case = Case {
        sched: SchedPolicy::SeededRandom { seed: 9 },
        ..spill_case()
    };
    check_row("spill lanes on a seeded schedule", &case, |c| {
        c.decisions > 0 && matches!(&c.result, Ok(o) if o.output == [1100] && o.samples_taken > 0)
    });
}

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
use isf_exec::{Engine, Request, SchedControl, SchedPolicy, TrapKind, Trigger};
use isf_integration_tests::fnv1a;
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

/// The compact trace `case` records on `engine`, pinned as itself when
/// short and as its length and FNV-1a digest otherwise.
fn pinned_trace(case: &Case, engine: Engine) -> String {
    let cfg = case.config();
    let mut ctl = SchedControl::recording(case.sched);
    engine
        .load(&case.module(), &cfg.cost)
        .execute(Request::new(&cfg).sched(&mut ctl))
        .expect("a pinned case completes");
    let trace = ctl.take_trace().to_compact_string();
    if trace.len() <= 80 {
        trace
    } else {
        format!(
            "{} bytes, fnv1a {:016x}",
            trace.len(),
            fnv1a(trace.as_bytes())
        )
    }
}

/// Every engine must record exactly these schedules. The oracle only
/// compares engines with one another, so a scheduler change that
/// reorders candidates on every engine at once would pass it; these pins
/// catch it. They are the traces of the scheduler that scanned the
/// thread table linearly, before the shared thread table.
#[test]
fn recorded_schedules_are_pinned() {
    let seeded = SchedPolicy::SeededRandom { seed: 9 };
    let pct = SchedPolicy::PctPriority { seed: 9, depth: 3 };
    let spill = spill_case();
    let join_chain = Case {
        timeslice: 97,
        ..Case::new(conc(4, 5, ConcShape::JoinChain))
    };
    let fan_out = Case {
        timeslice: 97,
        ..Case::new(conc(5, 6, ConcShape::FanOut))
    };
    let rows = [
        (
            "spill",
            &spill,
            seeded,
            "3016 bytes, fnv1a 6d077a8f65e501e9",
        ),
        ("spill", &spill, pct, "4730 bytes, fnv1a bb4cb87bacb579c6"),
        (
            "join chain",
            &join_chain,
            seeded,
            "st1:2/4@3,0/3@4,1/3@2,1/2@1",
        ),
        (
            "join chain",
            &join_chain,
            pct,
            "st1:0/4@1,1/3@3,1/3@1,1/2@4,0/2@1",
        ),
        (
            "fan-out",
            &fan_out,
            seeded,
            "st1:2/5@3,0/4@4,1/4@1,3/5@5,0/4@0,2/4@4,1/3@2,0/2@3,1/2@2",
        ),
        (
            "fan-out",
            &fan_out,
            pct,
            "st1:0/5@1,1/4@3,2/4@1,1/5@3,2/4@0,1/4@3,0/3@4,1/2@2,2/3@0,0/2@4,1/2@0",
        ),
    ];
    let mut wrong = Vec::new();
    for (name, case, sched, want) in rows {
        let case = Case {
            sched,
            ..case.clone()
        };
        for engine in [Engine::Naive, Engine::Fused] {
            let got = pinned_trace(&case, engine);
            if got != want {
                wrong.push(format!("{name} on {engine:?}: {got:?}\n{case}"));
            }
        }
    }
    assert!(wrong.is_empty(), "schedules changed:\n{}", wrong.join("\n"));
}

/// A join that can never be satisfied traps `Deadlock` on every engine
/// under every policy: a thread that joins itself (it sits in its own
/// joiner list and must never be woken), and two threads that join each
/// other.
#[test]
fn unsatisfiable_joins_deadlock_under_every_policy() {
    let self_join = "class Box { field t; }
fn me(b) { var i = 0; while (i < 3) { i = i + 1; } join(b.t); }
fn main() { var b = new Box; b.t = 0; var t = spawn me(b); b.t = t; join(t); }";
    let cycle = "class Box { field a; field b; }
fn first(x) { var i = 0; while (i < 3) { i = i + 1; } join(x.b); }
fn second(x) { var i = 0; while (i < 2) { i = i + 1; } join(x.a); }
fn main() {
    var x = new Box; x.a = 0; x.b = 0;
    var a = spawn first(x); var b = spawn second(x);
    x.a = a; x.b = b;
    join(a);
}";
    for (name, program) in [("self-join", self_join), ("join cycle", cycle)] {
        for sched in [
            SchedPolicy::RoundRobin,
            SchedPolicy::SeededRandom { seed: 31 },
            SchedPolicy::PctPriority { seed: 31, depth: 2 },
        ] {
            let case = Case {
                sched,
                ..Case::new(program.into())
            };
            check_row(
                &format!("{name} under {sched:?}"),
                &case,
                traps(TrapKind::Deadlock),
            );
        }
    }
}

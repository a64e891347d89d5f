//! Schedule-exploration coverage for the scheduling seam
//! ([`isf_exec::sched`]): recorded [`ScheduleTrace`]s replay
//! byte-identically on every engine of [`Engine::ALL`], each with and
//! without a dispatch profile, under the same contract `--explore`
//! checks ([`verify_replays`]), traps mid-schedule included; the
//! single-runnable tie-break rule holds; and the schedule-independent
//! invariants of commutative concurrent programs survive seeded-random
//! and PCT schedules.

use proptest::prelude::*;

use isf_exec::{
    cancel, Engine, ExecLimits, Outcome, Request, SchedControl, SchedPolicy, ScheduleTrace,
    TraceBuffer, Trigger, VmConfig, VmError,
};
use isf_harness::explore::{instrumented, replay_all, verify_replays};
use isf_integration_tests::program_gen::{
    conc_program_strategy, render_conc_program, spill_program, ConcProgram, ConcShape,
};
use isf_integration_tests::{compile, load_all, run_with};

fn config(trigger: Trigger) -> VmConfig {
    VmConfig {
        trigger,
        limits: ExecLimits::cycles(500_000_000),
        ..VmConfig::default()
    }
}

/// Records a schedule on the fused prepared engine under `policy`.
fn record_schedule(
    module: &isf_ir::Module,
    cfg: &VmConfig,
    policy: SchedPolicy,
) -> (Result<Outcome, VmError>, ScheduleTrace) {
    let fused = Engine::Fused.load(module, &cfg.cost);
    let mut ctl = SchedControl::recording(policy);
    let result = fused.execute(Request::new(cfg).sched(&mut ctl));
    (result, ctl.take_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A trace recorded under `SeededRandom` replays byte-identically on
    /// every engine, profiled or not, with the profile cross-checks, for
    /// arbitrary concurrency shapes and both the never- and per-thread
    /// sampling triggers.
    #[test]
    fn seeded_random_trace_replays_on_all_configs(
        p in conc_program_strategy(),
        seed in 0u64..1 << 48,
    ) {
        let plain = compile(&render_conc_program(&p));
        let sampled = instrumented(&plain);
        for (module, trigger) in [
            (&plain, Trigger::Never),
            (&sampled, Trigger::CounterPerThread { interval: 13 }),
        ] {
            let cfg = config(trigger);
            let policy = SchedPolicy::SeededRandom { seed };
            let (recorded, trace) = record_schedule(module, &cfg, policy);
            let seed_line = format!("{p:?} seed={seed} trigger={trigger:?}");
            verify_replays(&load_all(module, &cfg.cost), &cfg, &recorded, &trace, &seed_line);
        }
    }

    /// Commutative concurrent programs keep every counter except
    /// `thread_switches` invariant across schedules — round-robin,
    /// seeded-random and PCT all land on the same outcome.
    #[test]
    fn outcomes_are_schedule_invariant_across_policies(
        p in conc_program_strategy(),
        seed in 0u64..1 << 48,
    ) {
        let module = instrumented(&compile(&render_conc_program(&p)));
        let cfg = config(Trigger::CounterPerThread { interval: 7 });
        let (baseline, _) = record_schedule(&module, &cfg, SchedPolicy::RoundRobin);
        let baseline = baseline.expect("round-robin run completes");
        for policy in [
            SchedPolicy::SeededRandom { seed },
            SchedPolicy::PctPriority { seed, depth: 3 },
        ] {
            let (outcome, trace) = record_schedule(&module, &cfg, policy);
            let outcome = outcome.expect("explored run completes");
            prop_assert!(
                baseline.schedule_invariant_eq(&outcome),
                "{policy:?} changed a schedule-independent observable on {p:?}\n\
                 trace: {}",
                trace.to_compact_string()
            );
        }
    }
}

/// Satellite regression: a reschedule point with a single runnable
/// candidate is not a decision point, so a single-threaded program (every
/// `Yield` finds only the current thread runnable) records an empty trace
/// and runs identically under every policy.
#[test]
fn single_runnable_yield_is_policy_independent() {
    let module = compile(
        "fn main() {
            var i = 0;
            var acc = 0;
            while (i < 5000) { acc = acc + i; i = i + 1; }
            print(acc);
        }",
    );
    let cfg = config(Trigger::Never);
    let (baseline, baseline_trace) = record_schedule(&module, &cfg, SchedPolicy::RoundRobin);
    assert!(
        baseline_trace.is_empty(),
        "single-threaded run must have no decision points"
    );
    for policy in [
        SchedPolicy::SeededRandom { seed: 0xDEAD },
        SchedPolicy::PctPriority {
            seed: 0xBEEF,
            depth: 5,
        },
    ] {
        let (outcome, trace) = record_schedule(&module, &cfg, policy);
        assert!(trace.is_empty(), "{policy:?} recorded a non-decision");
        assert_eq!(outcome, baseline, "{policy:?} diverged with no decisions");
    }
}

/// The seam's default control reproduces the plain entry points exactly —
/// recording round-robin observes the identical run.
#[test]
fn recorded_round_robin_equals_plain_run() {
    let p = ConcProgram {
        workers: 4,
        iters: 5,
        shape: ConcShape::Contention,
    };
    let module = compile(&render_conc_program(&p));
    let cfg = config(Trigger::CounterPerThread { interval: 11 });
    let plain = run_with(&module, cfg.trigger);
    let (recorded, trace) = record_schedule(&module, &cfg, SchedPolicy::RoundRobin);
    assert_eq!(recorded.expect("recorded run"), plain);
    assert!(
        !trace.is_empty(),
        "contended multi-thread run should hit real decision points"
    );
}

/// Replay under a fuel budget that traps mid-schedule: every configuration
/// consumes the same prefix of the trace and reports the same trap.
#[test]
fn replay_survives_fuel_trap_mid_schedule() {
    let p = ConcProgram {
        workers: 4,
        iters: 6,
        shape: ConcShape::Contention,
    };
    let module = compile(&render_conc_program(&p));
    let cfg = config(Trigger::Never);
    let (full, trace) = record_schedule(&module, &cfg, SchedPolicy::SeededRandom { seed: 77 });
    let total = full.expect("clean run").cycles;
    assert!(!trace.is_empty());

    let tight = VmConfig {
        limits: ExecLimits::cycles(total / 2),
        ..cfg
    };
    let replays = replay_all(&load_all(&module, &tight.cost), &tight, &trace);
    let first = &replays[0];
    assert!(
        first.result.is_err(),
        "half the budget must trap mid-schedule"
    );
    assert!(
        first.trace.len() < trace.len(),
        "trap should leave part of the schedule unconsumed"
    );
    for r in &replays[1..] {
        assert_eq!(r.result, first.result, "{} trapped differently", r.label());
        assert_eq!(
            r.trace,
            first.trace,
            "{} consumed a different schedule prefix",
            r.label()
        );
    }
}

/// Replay under deterministic cancellation (`cancel_after`) mid-schedule:
/// same contract as the fuel trap, through the cancellation path.
#[test]
fn replay_survives_cancellation_mid_schedule() {
    let p = ConcProgram {
        workers: 3,
        iters: 6,
        shape: ConcShape::FanOut,
    };
    let module = compile(&render_conc_program(&p));
    let cfg = config(Trigger::Never);
    let (full, trace) = record_schedule(&module, &cfg, SchedPolicy::SeededRandom { seed: 123 });
    let total = full.expect("clean run").cycles;

    // Loaded before arming, so guided fusion's warmup runs uncancelled.
    let engines = load_all(&module, &cfg.cost);
    let _scope = cancel::arm(None, Some(total / 2));
    let replays = replay_all(&engines, &cfg, &trace);
    let first = &replays[0];
    assert!(first.result.is_err(), "cancellation must trap mid-schedule");
    for r in &replays[1..] {
        assert_eq!(
            r.result,
            first.result,
            "{} cancelled differently",
            r.label()
        );
        assert_eq!(
            r.trace,
            first.trace,
            "{} consumed a different schedule prefix",
            r.label()
        );
    }
}

/// Per-thread sample counts under `CounterPerThread` are a
/// schedule-independent multiset: each thread's fires depend only on its
/// own check stream. Checked across several seeded-random schedules via
/// the burst-trace sink.
#[test]
fn per_thread_sample_counts_are_permutation_equivalent() {
    let p = ConcProgram {
        workers: 5,
        iters: 6,
        shape: ConcShape::Contention,
    };
    let module = instrumented(&compile(&render_conc_program(&p)));
    let cfg = config(Trigger::CounterPerThread { interval: 5 });
    let fused = Engine::Fused.load(&module, &cfg.cost);

    let samples_by_thread = |seed: u64| -> Vec<(u32, u64)> {
        let mut buf = TraceBuffer::new();
        let mut ctl = SchedControl::recording(SchedPolicy::SeededRandom { seed });
        let outcome = fused
            .execute(Request::new(&cfg).trace(&mut buf).sched(&mut ctl))
            .expect("runs");
        let mut counts = std::collections::BTreeMap::new();
        for r in buf.records() {
            *counts.entry(r.thread).or_insert(0u64) += 1;
        }
        assert_eq!(
            counts.values().sum::<u64>(),
            outcome.samples_taken,
            "burst records must account for every sample"
        );
        counts.into_iter().collect()
    };

    let reference = samples_by_thread(1);
    assert!(
        reference.iter().map(|&(_, n)| n).sum::<u64>() > 0,
        "the shape must actually sample"
    );
    for seed in 2..6 {
        assert_eq!(
            samples_by_thread(seed),
            reference,
            "per-thread sample counts changed across schedules (seed {seed})"
        );
    }
}

/// The >1024-thread spill program pushes `CounterPerThread` into its
/// sparse lane on every schedule, with the same schedule-invariant
/// outcome.
#[test]
fn thread_spill_program_is_schedule_invariant() {
    let module = instrumented(&compile(&spill_program(1100)));
    // A short timeslice forces frequent yield-point switches while the
    // spawn cascade keeps many threads runnable, so the run has real
    // decision points to randomize.
    let cfg = VmConfig {
        timeslice: 101,
        ..config(Trigger::CounterPerThread { interval: 3 })
    };
    let (baseline, trace) = record_schedule(&module, &cfg, SchedPolicy::RoundRobin);
    let baseline = baseline.expect("spill run completes");
    assert_eq!(baseline.output, vec![1100], "all spawned threads ran");
    assert!(!trace.is_empty());
    assert!(
        baseline.samples_taken > 0,
        "per-thread trigger must sample across the spill boundary"
    );
    for seed in [9u64, 10] {
        let (outcome, _) = record_schedule(&module, &cfg, SchedPolicy::SeededRandom { seed });
        let outcome = outcome.expect("spill run completes");
        assert!(
            baseline.schedule_invariant_eq(&outcome),
            "spill program diverged across schedules (seed {seed})"
        );
    }
}

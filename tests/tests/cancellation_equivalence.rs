//! Differential property testing of cooperative cancellation: a run
//! cancelled at simulated cycle `K` (the deterministic
//! `--cancel-after-cycles` hook behind the harness watchdog) must stop at
//! exactly the point where a fuel budget of `K` cycles exhausts — same
//! function, same completion-vs-trap decision, same outcome when the
//! program fits — in *every* engine: the naive tree-walker and the
//! prepared engine unfused, statically fused, and profile-guided. If the
//! stop points diverged between engines, the fault-tolerant harness would
//! classify the same cell differently depending on which engine ran it.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{
    cancel, run_naive, run_prepared, run_prepared_profiled, ExecLimits, FuseGuidance, FuseMode,
    OpProfile, PreparedModule, TrapKind, Trigger, VmConfig, VmError,
};
use isf_instr::{BlockCountInstrumentation, ModulePlan};
use isf_integration_tests::compile;
use isf_integration_tests::program_gen::{
    render_conc_program, render_program, stmt_strategy, ConcProgram, ConcShape,
};

type RunResult = Result<isf_exec::Outcome, VmError>;

/// Maps a cancelled result onto the shape its fuel-trapped twin must
/// have: `Cancelled` in function `f` corresponds to `FuelExhausted(k)`
/// in function `f`. Everything else passes through unchanged.
fn cancelled_as_fuel(result: RunResult, k: u64) -> RunResult {
    result.map_err(|e| {
        if e.kind == TrapKind::Cancelled {
            VmError {
                kind: TrapKind::FuelExhausted(k),
                ..e
            }
        } else {
            e
        }
    })
}

/// Runs `run` twice — once armed to cancel after `k` simulated cycles
/// with no fuel limit, once under a fuel budget of `k` — and asserts the
/// mapped results are identical.
fn cancel_matches_fuel(
    engine: &str,
    k: u64,
    run: impl Fn(&VmConfig) -> RunResult,
) -> Result<(), TestCaseError> {
    let cancelled = {
        let _scope = cancel::arm(None, Some(k));
        run(&VmConfig::default())
    };
    let fuel = run(&VmConfig {
        limits: ExecLimits::cycles(k),
        ..VmConfig::default()
    });
    prop_assert_eq!(
        cancelled_as_fuel(cancelled, k),
        fuel,
        "{} diverged at k={}",
        engine,
        k
    );
    Ok(())
}

/// Asserts cancellation-at-`k` ≡ fuel-budget-`k` on all four engine
/// configurations for `module`.
fn all_engines_cancel_like_fuel(module: &isf_ir::Module, k: u64) -> Result<(), TestCaseError> {
    cancel_matches_fuel("naive", k, |cfg| run_naive(module, cfg))?;

    let unfused = PreparedModule::prepare_with(module, &VmConfig::default().cost, FuseMode::Off);
    cancel_matches_fuel("prepared/unfused", k, |cfg| run_prepared(&unfused, cfg))?;

    let fused = PreparedModule::prepare_with(module, &VmConfig::default().cost, FuseMode::Fuse);
    cancel_matches_fuel("prepared/fused", k, |cfg| run_prepared(&fused, cfg))?;

    // Guided fusion as the harness produces it: a generous-budget warmup
    // run of the fused form collects the profile the guidance distills.
    let mut warmup = OpProfile::new();
    let warmup_cfg = VmConfig {
        limits: ExecLimits::cycles(500_000_000),
        ..VmConfig::default()
    };
    if run_prepared_profiled(&fused, &warmup_cfg, &mut warmup).is_ok() {
        let guided = PreparedModule::prepare_with(
            module,
            &VmConfig::default().cost,
            FuseMode::Guided(Box::new(FuseGuidance::from_profile(&warmup))),
        );
        cancel_matches_fuel("prepared/guided", k, |cfg| run_prepared(&guided, cfg))?;
    }
    Ok(())
}

/// Renders a program whose `main` spawns `threads` green threads one
/// after another. Thread ids are indices into the interpreter's thread
/// vector and finished threads keep their slot, so spawning past
/// `MAX_DENSE_THREADS` (1024) pushes the later workers' sampling
/// counters into the per-thread trigger's BTreeMap spill. Each thread is
/// joined before the next spawn, keeping the schedule deterministic.
fn spawn_heavy_program(threads: usize) -> String {
    let mut src = String::from(
        "fn work(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }\n\
         fn main() {\n    var t = spawn work(6);\n    join(t);\n",
    );
    for _ in 1..threads {
        src.push_str("    t = spawn work(6);\n    join(t);\n");
    }
    src.push_str("    print(1);\n}\n");
    src
}

/// The per-thread trigger's spill path (thread ids ≥ 1024) under
/// cancellation: sampling checks that bottom out in the sparse BTreeMap
/// must interleave with cancellation polls exactly like the dense path —
/// cancelling at cycle `k` still equals a fuel budget of `k` while the
/// spilled counters are live, in both engines.
#[test]
fn per_thread_spill_counters_cancel_like_fuel() {
    // 1100 spawned threads: ids 1..=1100, so the last 77 workers' check
    // counters live in the spill map, not the dense vector.
    let module = compile(&spawn_heavy_program(1100));
    let plan = ModulePlan::build(&module, &[&BlockCountInstrumentation]);
    let (instrumented, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::NoDuplication)).unwrap();
    let trigger = Trigger::CounterPerThread { interval: 2 };

    // Sanity: the uncancelled run really drives every spawn and fires
    // per-thread samples (each worker executes several checks, so ids
    // past 1024 exercise the spill map).
    let full_cfg = VmConfig {
        trigger,
        limits: ExecLimits::cycles(500_000_000),
        ..VmConfig::default()
    };
    let full = run_naive(&instrumented, &full_cfg).expect("spawn-heavy program completes");
    assert!(full.entries_executed > 1100, "every spawned thread ran");
    assert!(full.samples_taken > 0, "per-thread counters fired");

    // Cancellation points: mid-run, and deep in the tail where the
    // currently-running thread's id is past the dense bound (spawns are
    // serialized, so cycle fraction ~ thread-id fraction; 1024/1100 of
    // the way through is ~93%).
    let c = full.cycles;
    let fused = PreparedModule::prepare_with(&instrumented, &full_cfg.cost, FuseMode::Fuse);
    for k in [c / 2, c * 95 / 100, c * 99 / 100] {
        cancel_matches_fuel("naive+per-thread-spill", k, |cfg| {
            run_naive(&instrumented, &VmConfig { trigger, ..*cfg })
        })
        .unwrap();
        cancel_matches_fuel("fused+per-thread-spill", k, |cfg| {
            run_prepared(&fused, &VmConfig { trigger, ..*cfg })
        })
        .unwrap();
    }
}

/// Concurrent programs under tiny timeslices and a cancellation point:
/// threadswitch catch-ups, yields that find the switch bit set, blocked
/// joins and the cancellation budget all land within a few cycles of each
/// other, which is where the prepared engine's single cycle horizon and
/// its timeslice-long dispatch loop could drift from the per-op naive
/// engine. Naive, unfused and fused must agree on the whole result —
/// output, cycles, counters, `thread_switches`, trap kind and function —
/// and each must still stop exactly where a fuel budget of the same value
/// does.
#[test]
fn concurrent_programs_cancel_identically_under_small_timeslices() {
    let cost = VmConfig::default().cost;
    for shape in [
        ConcShape::FanOut,
        ConcShape::JoinChain,
        ConcShape::Contention,
        ConcShape::Nested,
    ] {
        for (workers, iters) in [(2, 1), (3, 4), (5, 6)] {
            let module = compile(&render_conc_program(&ConcProgram {
                workers,
                iters,
                shape,
            }));
            let unfused = PreparedModule::prepare_with(&module, &cost, FuseMode::Off);
            let fused = PreparedModule::prepare_with(&module, &cost, FuseMode::Fuse);
            let prepared = [("prepared/unfused", &unfused), ("prepared/fused", &fused)];
            for timeslice in [1, 2, 3, 5, 8, 13, 31, 101] {
                let with_timeslice = |cfg: &VmConfig| VmConfig { timeslice, ..*cfg };
                let naive = |cfg: &VmConfig| run_naive(&module, &with_timeslice(cfg));
                let c = naive(&VmConfig::default())
                    .expect("concurrent program completes")
                    .cycles;
                for k in [1, c / 7, c / 3, c / 2, c * 9 / 10, c - 1, c] {
                    let label = format!("{shape:?} w={workers} n={iters} ts={timeslice} k={k}");
                    let cancelled_at_k = |run: &dyn Fn(&VmConfig) -> RunResult| {
                        let _scope = cancel::arm(None, Some(k));
                        run(&VmConfig::default())
                    };
                    let want = cancelled_at_k(&naive);
                    cancel_matches_fuel("naive", k, naive)
                        .unwrap_or_else(|e| panic!("{label}: {e:?}"));
                    for (engine, p) in prepared {
                        let run = |cfg: &VmConfig| run_prepared(p, &with_timeslice(cfg));
                        assert_eq!(
                            cancelled_at_k(&run),
                            want,
                            "{engine} diverged from naive: {label}"
                        );
                        cancel_matches_fuel(engine, k, run)
                            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
                    }
                }
            }
        }
    }
}

/// A stack limit that the nested workers (`work` → `bump` → `add`)
/// overrun while other threads are parked mid-call: the `StackOverflow`
/// must fire inside a spawned thread, at the same dispatch, in every
/// engine, under every timeslice. `main` never calls, so with
/// `max_stack = 2` only a worker can trap; from 3 up the run completes.
#[test]
fn stack_overflow_fires_identically_inside_a_spawned_thread() {
    let cost = VmConfig::default().cost;
    let module = compile(&render_conc_program(&ConcProgram {
        workers: 3,
        iters: 4,
        shape: ConcShape::Nested,
    }));
    let unfused = PreparedModule::prepare_with(&module, &cost, FuseMode::Off);
    let fused = PreparedModule::prepare_with(&module, &cost, FuseMode::Fuse);
    for max_stack in 2..8 {
        for timeslice in [1, 2, 3, 5, 8, 13, 31, 101] {
            let cfg = VmConfig {
                timeslice,
                limits: ExecLimits {
                    max_stack,
                    ..ExecLimits::default()
                },
                ..VmConfig::default()
            };
            let want = run_naive(&module, &cfg);
            match &want {
                Err(e) if max_stack == 2 => {
                    assert_eq!(e.kind, TrapKind::StackOverflow(2));
                    assert_eq!(e.function, "bump", "the worker's call to `add` overflows");
                }
                Ok(o) if max_stack > 2 => assert!(o.thread_switches > 0),
                other => panic!("max_stack={max_stack} ts={timeslice}: {other:?}"),
            }
            for (engine, p) in [("prepared/unfused", &unfused), ("prepared/fused", &fused)] {
                assert_eq!(
                    run_prepared(p, &cfg),
                    want,
                    "{engine} diverged from naive: max_stack={max_stack} ts={timeslice}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cancellation_at_k_equals_a_fuel_budget_of_k(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        k in 1u64..5_000,
    ) {
        // Small `k` lands mid-execution in most generated programs;
        // occasionally the program fits and both runs must then complete
        // with identical outcomes.
        let module = compile(&render_program(&stmts));
        all_engines_cancel_like_fuel(&module, k)?;
    }

    #[test]
    fn cancellation_is_trigger_independent(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        k in 1u64..3_000,
    ) {
        // The counter trigger adds Check dispatches to the stream; the
        // cancel point must still equal the fuel point under it.
        let module = compile(&render_program(&stmts));
        let trigger = Trigger::Counter { interval: 3 };
        cancel_matches_fuel("naive+counter", k, |cfg| {
            run_naive(&module, &VmConfig { trigger, ..*cfg })
        })?;
        let fused =
            PreparedModule::prepare_with(&module, &VmConfig::default().cost, FuseMode::Fuse);
        cancel_matches_fuel("fused+counter", k, |cfg| {
            run_prepared(&fused, &VmConfig { trigger, ..*cfg })
        })?;
    }
}

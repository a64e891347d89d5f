//! Fault-tolerance properties spanning the execution engines and the
//! harness runner: no `(Trigger, ExecLimits)` combination makes an engine
//! panic — failures always surface as classified `VmError`s, identically
//! in every engine — and a trapping cell inside the parallel harness
//! becomes an `error` JSONL record while its siblings complete, with a
//! stream that is byte-identical across job counts.

use proptest::prelude::*;

use isf_exec::{ExecLimits, Trigger, VmConfig};
use isf_harness::runner::{cell, split_results, Harness, HarnessConfig};
use isf_integration_tests::program_gen::{render_program, stmt_strategy};
use isf_integration_tests::{compile, engines_agree};
use isf_obs::emit;

fn trigger_strategy() -> impl Strategy<Value = Trigger> {
    prop_oneof![
        Just(Trigger::Never),
        Just(Trigger::Always),
        (1u64..200).prop_map(|interval| Trigger::Counter { interval }),
        (1u64..200).prop_map(|interval| Trigger::CounterPerThread { interval }),
        ((1u64..100), (0u64..20), any::<u64>()).prop_map(|(interval, jitter, seed)| {
            Trigger::CounterRandomized {
                interval,
                jitter,
                seed,
            }
        }),
        (1u64..2_000).prop_map(|period| Trigger::TimerBit { period }),
    ]
}

fn limits_strategy() -> impl Strategy<Value = ExecLimits> {
    // A fuel draw of 0 means "effectively unlimited" — a ceiling far above
    // anything the generated programs execute — so the no-fuel-trap path
    // is exercised without risking an unbounded test run. A heap draw of 0
    // means a genuinely unlimited heap.
    (0u64..20_000, 0u64..512, 2usize..64).prop_map(|(fuel, heap, max_stack)| ExecLimits {
        max_cycles: Some(if fuel == 0 { 100_000_000 } else { fuel }),
        max_heap_words: (heap > 0).then_some(heap),
        max_stack,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_trigger_limits_combination_panics_an_engine(
        stmts in prop::collection::vec(stmt_strategy(), 1..6),
        trigger in trigger_strategy(),
        limits in limits_strategy(),
    ) {
        // The engines' fault contract under arbitrary budgets: every
        // engine returns a `Result` — it never panics, whatever the
        // trigger or limits — and all of them return the same one.
        let module = compile(&render_program(&stmts));
        let cfg = VmConfig { trigger, limits, ..VmConfig::default() };
        engines_agree(&module, &cfg)?;
    }
}

#[test]
fn trapping_cell_yields_error_record_while_siblings_complete() {
    let good = compile("fn main() { var i = 0; while (i < 100) { i = i + 1; } }");
    let bad = compile("fn main() { var x = 1 / 0; }");
    // The emitter is per thread: this test's stream is its own.
    emit::set_mode(emit::EmitMode::Json);
    emit::set_redact(true);
    let run_once = |jobs: usize| {
        let h = Harness::new(HarnessConfig {
            jobs,
            ..HarnessConfig::default()
        });
        let cells = vec![
            cell("fault/ok-before", || {
                h.run_module(&good, Trigger::Never).cycles
            }),
            cell("fault/traps", || h.run_module(&bad, Trigger::Never).cycles),
            cell("fault/ok-after", || {
                h.run_module(&good, Trigger::Never).cycles
            }),
        ];
        let (oks, errors) = split_results(h.par_cells_isolated(cells));
        assert_eq!(oks.len(), 2, "sibling cells must complete");
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label, "fault/traps");
        assert_eq!(errors[0].kind, "trap");
        assert!(
            errors[0].detail.contains("division by zero"),
            "{}",
            errors[0]
        );
        assert_eq!(errors[0].attempts, 1);
        emit::drain()
    };
    let serial = run_once(1);
    let parallel = run_once(4);
    emit::set_mode(emit::EmitMode::Off);
    emit::set_redact(false);
    assert_eq!(
        serial, parallel,
        "error-bearing JSONL stream depends on the job count"
    );
    assert!(serial.contains("\"type\":\"error\""));
    assert!(serial.contains("\"label\":\"fault/traps\""));
    assert!(serial.contains("\"kind\":\"trap\""));
    // 3 cell records + 1 error record, the error right after its cell.
    assert_eq!(isf_harness::jsonl::validate(&serial), Ok(4));
    let lines: Vec<&str> = serial.lines().collect();
    assert!(lines[1].contains("\"label\":\"fault/traps\""));
    assert!(lines[2].contains("\"type\":\"error\""));
}

#[test]
fn budget_capped_cell_is_classified_as_budget_not_trap() {
    // A capped and an uncapped harness, sharing one preparation cache,
    // run the same program side by side: the cap is a property of the
    // value, not of the process.
    let spin = compile("fn main() { var i = 0; while (i < 1000000) { i = i + 1; } }");
    let uncapped = Harness::default();
    let capped = uncapped.with_config(HarnessConfig {
        cell_budget: 500,
        ..uncapped.config.clone()
    });
    let spin_cell = |h: &Harness| {
        h.par_cells_isolated(vec![cell("fault/budget", || {
            h.run_module(&spin, Trigger::Never).cycles
        })])
    };
    let (results, free) = std::thread::scope(|s| {
        let capped_run = s.spawn(|| spin_cell(&capped));
        let uncapped_run = s.spawn(|| spin_cell(&uncapped));
        (capped_run.join().unwrap(), uncapped_run.join().unwrap())
    });
    let (free_oks, free_errors) = split_results(free);
    assert!(
        free_errors.is_empty(),
        "uncapped run failed: {free_errors:?}"
    );
    assert!(free_oks[0] > 500, "the uncapped run outlives the cap");
    let (oks, errors) = split_results(results);
    assert!(oks.is_empty());
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].kind, "budget");
    assert!(
        errors[0].detail.contains("cycle budget of 500 exceeded"),
        "{}",
        errors[0]
    );
}

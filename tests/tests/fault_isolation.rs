//! Fault-tolerance properties of the harness runner: a trapping cell
//! inside the parallel harness becomes an `error` JSONL record while its
//! siblings complete, with a stream that is byte-identical across job
//! counts, and a budget-capped cell is classified as a budget failure;
//! and no `(Trigger, ExecLimits)` combination makes an engine panic or
//! two engines disagree.

use proptest::prelude::*;

use isf_exec::Trigger;
use isf_harness::runner::{cell, split_results, Harness, HarnessConfig};
use isf_integration_tests::compile;
use isf_integration_tests::oracle::{
    check, limits_strategy, sequential_program, trigger_strategy, Case,
};
use isf_obs::emit;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_trigger_limits_combination_panics_an_engine(
        program in sequential_program(),
        trigger in trigger_strategy(),
        limits in limits_strategy(),
    ) {
        // The engines' fault contract under arbitrary budgets: every
        // engine returns a `Result` — it never panics, whatever the
        // trigger or limits — and all of them return the same one.
        check(&Case { trigger, limits, ..Case::new(program) });
    }
}

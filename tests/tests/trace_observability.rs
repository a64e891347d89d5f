//! Behavioral tests of the sample-burst tracing layer: traces must be
//! internally consistent with the run's counters, and the burst analyses
//! must expose the §4.6 counter-vs-timer attribution skew on a periodic
//! workload; and every engine records the same trace, which the
//! differential oracle ([`isf_integration_tests::oracle::check`]) checks
//! on each of its traced replays.

use proptest::prelude::*;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{BurstRecord, Engine, ExecLimits, Outcome, Request, TraceBuffer, Trigger, VmConfig};
use isf_instr::ModulePlan;
use isf_integration_tests::compile;
use isf_integration_tests::oracle::{check, sequential_program, Case};
use isf_obs::{BurstReport, SkewReport};

fn config(trigger: Trigger) -> VmConfig {
    VmConfig {
        trigger,
        limits: ExecLimits::cycles(500_000_000),
        ..VmConfig::default()
    }
}

/// Asserts the internal consistency every trace must satisfy: one record
/// per sample, burst cycle lengths that tile the run (each burst ends at
/// its sample, before the sample-switch surcharge), and monotone
/// non-overlapping instruction counts.
fn trace_is_consistent(outcome: &Outcome, records: &[BurstRecord]) {
    assert_eq!(
        records.len() as u64,
        outcome.samples_taken,
        "one burst record per sample"
    );
    let total_cycles: u64 = records.iter().map(|r| r.len_cycles).sum();
    let total_instructions: u64 = records.iter().map(|r| r.len_instructions).sum();
    assert!(
        total_cycles <= outcome.cycles,
        "burst cycles {total_cycles} exceed run cycles {}",
        outcome.cycles
    );
    assert!(total_instructions <= outcome.instructions);
    for r in records {
        assert!(
            r.len_cycles > 0,
            "zero-length burst at func {} ip {}",
            r.func,
            r.check_ip
        );
    }
}

/// A periodic workload for the skew test: each outer iteration spends
/// nearly all of its cycles in one `busy(5000)` instruction — the paper's
/// long-latency instruction — then executes three cheap calls. With
/// checks on method entries only, the timer period expires inside `busy`,
/// so the *next* check — almost always `a`'s entry — absorbs the sample.
const PERIODIC: &str = "
fn a(x) { return x + 1; }
fn b(x) { return x + 2; }
fn c(x) { return x + 3; }
fn main() {
    var t = 0;
    var j = 0;
    while (j < 60) {
        busy(5000);
        t = a(t);
        t = b(t);
        t = c(t);
        j = j + 1;
    }
    print(t);
}
";

/// Pins the §4.6 pathology: on a periodic workload with a long check-free
/// stretch, the timer trigger funnels its samples onto the one check that
/// follows the stretch, while the counter trigger spreads them across the
/// sample points in execution proportion. The burst report makes the
/// difference quantitative.
#[test]
fn timer_trigger_skews_attribution_on_periodic_workload() {
    let module = compile(PERIODIC);
    // Checks on method entries only: busy's spin then has no sample
    // points, making it the long "instruction" the paper describes.
    let plan = ModulePlan::build(&module, &[]);
    let options = Options::new(Strategy::ChecksOnly {
        entries: true,
        backedges: false,
    });
    let (instrumented, _) = instrument_module(&module, &plan, &options).unwrap();

    let code = Engine::default().load(&instrumented, &VmConfig::default().cost);
    let mut counter_buf = TraceBuffer::new();
    let counter_outcome = code
        .execute(Request::new(&config(Trigger::Counter { interval: 13 })).trace(&mut counter_buf))
        .expect("counter run");
    // A period well below one busy() spin's cycle count, so the bit is
    // (almost) always set somewhere inside the spin.
    let mut timer_buf = TraceBuffer::new();
    let timer_outcome = code
        .execute(Request::new(&config(Trigger::TimerBit { period: 1499 })).trace(&mut timer_buf))
        .expect("timer run");

    assert!(
        counter_outcome.samples_taken >= 10,
        "too few counter samples"
    );
    assert!(timer_outcome.samples_taken >= 10, "too few timer samples");

    let counter = BurstReport::from_records(counter_buf.records());
    let timer = BurstReport::from_records(timer_buf.records());
    let skew = SkewReport::between(&counter, &timer);

    // Counter: samples rotate through the four entry checks per
    // iteration, so no single sample point dominates.
    assert!(
        skew.counter_top_share < 0.5,
        "counter trigger should spread samples, top share {:.2}",
        skew.counter_top_share
    );
    // Timer: nearly every sample lands on the first check after the
    // check-free spin.
    assert!(
        skew.timer_top_share > 0.8,
        "timer trigger should funnel samples onto one point, top share {:.2}",
        skew.timer_top_share
    );
    // And the two attributions are far apart as distributions.
    assert!(
        skew.total_variation > 0.5,
        "attribution skew {:.2} should be large",
        skew.total_variation
    );
    // The timer's bursts are period-sized; the counter's follow the check
    // rate. Both analyses see every sample.
    assert_eq!(counter.samples(), counter_outcome.samples_taken);
    assert_eq!(timer.samples(), timer_outcome.samples_taken);
}

/// The trace records the same identity for a sample point in both engines
/// even on uninstrumented-but-checked code, and an untraced run is
/// unaffected by the tracing plumbing.
#[test]
fn traced_and_untraced_runs_agree() {
    let module = compile(PERIODIC);
    let plan = ModulePlan::build(&module, &[]);
    let (instrumented, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
    let cfg = config(Trigger::Counter { interval: 7 });
    let code = Engine::default().load(&instrumented, &cfg.cost);
    let untraced = code.execute(Request::new(&cfg)).expect("untraced run");
    let mut buf = TraceBuffer::new();
    let traced = code
        .execute(Request::new(&cfg).trace(&mut buf))
        .expect("traced run");
    assert_eq!(untraced, traced, "tracing changed the outcome");
    trace_is_consistent(&traced, buf.records());
    // Backedge flags are meaningful: this program is loop-heavy, so under
    // full duplication some samples must land on backedge checks.
    assert!(
        buf.records().iter().any(|r| r.backedge),
        "no backedge samples on a loop-heavy program"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_record_identical_traces_counter(
        program in sequential_program(),
        full_duplication in any::<bool>(),
    ) {
        let strategy =
            if full_duplication { Strategy::FullDuplication } else { Strategy::NoDuplication };
        check(&Case::instrumented(program, "cfbe", strategy, Trigger::Counter { interval: 3 }));
    }

    #[test]
    fn engines_record_identical_traces_timer(program in sequential_program()) {
        // The timer trigger consults the simulated clock, the path where
        // the engines could most plausibly diverge in attribution.
        let trigger = Trigger::TimerBit { period: 997 };
        check(&Case::instrumented(program, "cfbe", Strategy::FullDuplication, trigger));
    }
}

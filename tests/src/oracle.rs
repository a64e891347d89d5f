//! The differential oracle: one run [`Case`] — a program, its
//! instrumentation, trigger, limits, timeslice and schedule policy —
//! and one [`check`] that runs it on every engine
//! with and without each sink and compares every observable in one place,
//! so a new observable is checked on every axis at once.
//!
//! The cross-engine half of the comparison is
//! [`isf_harness::explore::verify_replays`], the function the harness's
//! `--explore` mode runs on the benchmarks; [`check`] adds what only a
//! generated case has: a comparison against the plain round-robin run.
//! A case stops mid-run on its fuel budget ([`fuel`], [`tight_limits`]),
//! the one simulated-cycle stop.

use std::fmt;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{
    Code, Engine, ExecLimits, OpProfile, Outcome, Request, SchedControl, SchedPolicy, Swept,
    TraceBuffer, TrapKind, Trigger, VmConfig, VmError,
};
use isf_harness::explore::verify_replays;
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan, PathProfileInstrumentation,
};
use proptest::prelude::*;
// `isf_core::Strategy` shadows the prelude's trait; keep its methods.
use proptest::strategy::Strategy as _;

use crate::compile;
use crate::program_gen::{
    conc_program_strategy, render_conc_program, render_program, spill_program, stmt_strategy,
    ConcProgram, ConcShape,
};

/// One differential run case. Its `Display` form is a Rust expression
/// that builds the same case, on one line, so a failing case pastes into
/// a regression test as it is.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// The program's Jive source.
    pub program: String,
    /// Instrumentation kinds to plan, one letter each: `c`all edges,
    /// `f`ield accesses, `b`lock counts, `e`dge counts, `p`aths.
    pub kinds: &'static str,
    /// The transform that realizes the plan; `None` runs the program as
    /// compiled.
    pub strategy: Option<Strategy>,
    /// The sampling trigger.
    pub trigger: Trigger,
    /// The run's budgets.
    pub limits: ExecLimits,
    /// Cycles between reschedule points.
    pub timeslice: u64,
    /// The policy the fused engine records the schedule under.
    pub sched: SchedPolicy,
}

impl Case {
    /// An uninstrumented, unsampled case with room to finish
    /// ([`generous`]), under the default timeslice and round-robin, for
    /// the tests to refine with struct-update syntax.
    pub fn new(program: String) -> Case {
        let config = VmConfig::default();
        Case {
            program,
            kinds: "",
            strategy: None,
            trigger: config.trigger,
            limits: generous(),
            timeslice: config.timeslice,
            sched: SchedPolicy::RoundRobin,
        }
    }

    /// [`Case::new`] with `program` instrumented with `kinds` under
    /// `strategy` and sampled by `trigger`.
    pub fn instrumented(
        program: String,
        kinds: &'static str,
        strategy: Strategy,
        trigger: Trigger,
    ) -> Case {
        Case {
            kinds,
            strategy: Some(strategy),
            trigger,
            ..Case::new(program)
        }
    }

    /// The module the case runs: the program, instrumented as the case
    /// says.
    pub fn module(&self) -> isf_ir::Module {
        let module = compile(&self.program);
        let Some(strategy) = self.strategy else {
            return module;
        };
        let kinds: Vec<&dyn Instrumentation> = self
            .kinds
            .chars()
            .map(|k| -> &dyn Instrumentation {
                match k {
                    'c' => &CallEdgeInstrumentation,
                    'f' => &FieldAccessInstrumentation,
                    'b' => &BlockCountInstrumentation,
                    'e' => &EdgeCountInstrumentation,
                    'p' => &PathProfileInstrumentation,
                    _ => panic!("unknown instrumentation kind `{k}`"),
                }
            })
            .collect();
        let plan = ModulePlan::build(&module, &kinds);
        instrument_module(&module, &plan, &Options::new(strategy))
            .expect("every strategy accepts default options")
            .0
    }

    /// The VM configuration the case runs under.
    pub fn config(&self) -> VmConfig {
        VmConfig {
            trigger: self.trigger,
            limits: self.limits,
            timeslice: self.timeslice,
            ..VmConfig::default()
        }
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strategy = match self.strategy {
            Some(s) => format!("Some(Strategy::{s:?})"),
            None => "None".to_owned(),
        };
        write!(
            f,
            "Case {{ program: {:?}.into(), kinds: {:?}, strategy: {strategy}, \
             trigger: Trigger::{:?}, limits: {:?}, timeslice: {}, \
             sched: SchedPolicy::{:?} }}",
            self.program, self.kinds, self.trigger, self.limits, self.timeslice, self.sched
        )
    }
}

/// Budgets no generated program reaches: under them a generated program
/// must complete.
pub fn generous() -> ExecLimits {
    ExecLimits::cycles(500_000_000)
}

/// What [`check`] saw, for cases that pin which path they take.
#[derive(Debug)]
pub struct Checked {
    /// The run's result, identical on every engine and sink.
    pub result: Result<Outcome, VmError>,
    /// Decision points in the recorded schedule.
    pub decisions: usize,
}

/// Per-thread sample counts of a burst trace, as a sorted multiset.
fn samples_by_thread(bursts: &TraceBuffer) -> Vec<usize> {
    let mut counts = std::collections::BTreeMap::new();
    for b in bursts.records() {
        *counts.entry(b.thread).or_insert(0) += 1;
    }
    let mut counts: Vec<usize> = counts.into_values().collect();
    counts.sort_unstable();
    counts
}

/// Runs `case` on [`Engine::ALL`] and asserts that every observable
/// agrees. The fused engine records a schedule under the case's policy;
/// [`verify_replays`] replays it on every engine with no sink, profiled
/// and traced, comparing the complete
/// `Result<Outcome, VmError>`, the consumed schedule, burst traces,
/// profile totals and their reconciliation with the outcome, naive ==
/// unfused per-opcode profiles. The recording
/// must then equal the plain round-robin run when it made no decision or
/// ran round-robin, and otherwise, when both complete under a
/// schedule-independent trigger, agree with it on every
/// schedule-independent observable and on per-thread sample counts.
/// Last, [`check_sweep`] holds every engine's counter sweep to separate
/// runs.
///
/// # Panics
///
/// Panics on any disagreement, with the case's one-line form.
pub fn check(case: &Case) -> Checked {
    let what = format!("{case}\nthe case above");
    let module = case.module();
    let cfg = case.config();
    let engines: Vec<(Engine, Code)> = Engine::ALL
        .iter()
        .map(|&engine| (engine, engine.load(&module, &cfg.cost)))
        .collect();
    let (_, fused) = engines
        .iter()
        .find(|(e, _)| *e == Engine::Fused)
        .expect("Engine::ALL has the fused engine");

    let mut ctl = SchedControl::recording(case.sched);
    let mut bursts = TraceBuffer::new();
    let result = fused.execute(Request::new(&cfg).trace(&mut bursts).sched(&mut ctl));
    let trace = ctl.take_trace();
    verify_replays(&engines, &cfg, &result, &trace, &what);

    let mut plain_bursts = TraceBuffer::new();
    let plain = fused.execute(Request::new(&cfg).trace(&mut plain_bursts));
    if trace.is_empty() || case.sched == SchedPolicy::RoundRobin {
        assert!(
            result == plain && bursts.records() == plain_bursts.records(),
            "{what}: the recorded run differs from the plain round-robin run"
        );
    } else if let (Ok(recorded), Ok(plain)) = (&result, &plain) {
        if matches!(
            case.trigger,
            Trigger::Never | Trigger::Always | Trigger::CounterPerThread { .. }
        ) {
            assert!(
                recorded.schedule_invariant_eq(plain)
                    && samples_by_thread(&bursts) == samples_by_thread(&plain_bursts),
                "{what}: a schedule-independent observable changed (trace {})",
                trace.to_compact_string()
            );
        }
    }
    check_sweep(case, &engines, &cfg, &what);
    Checked {
        result,
        decisions: trace.len(),
    }
}

/// On every engine, the counter sweep {`Never`, k, k−1, k+1, 2k} around
/// the case's interval k (3 when the case does not sample by a global
/// counter) must equal separate runs of each trigger, traced and
/// profiled or not: results, burst traces, profiles and the schedules
/// recorded under the case's policy. The case's limits apply, so a trap
/// lands before, at or after the sweep's fork points.
fn check_sweep(case: &Case, engines: &[(Engine, Code)], cfg: &VmConfig, what: &str) {
    let k = match case.trigger {
        Trigger::Counter { interval } => interval,
        _ => 3,
    };
    let triggers =
        [k, k.saturating_sub(1), k + 1, 2 * k].map(|interval| Trigger::Counter { interval });
    let triggers = [&[Trigger::Never][..], &triggers].concat();
    let sched = SchedControl::recording(case.sched);
    for (engine, code) in engines {
        let label = engine.label();
        let observed: Vec<Swept<TraceBuffer, OpProfile>> =
            code.execute_sweep(cfg, &triggers, &sched, None);
        let plain: Vec<Swept> = code.execute_sweep(cfg, &triggers, &sched, None);
        for ((&trigger, mut run), plain) in triggers.iter().zip(observed).zip(plain) {
            let config = VmConfig { trigger, ..*cfg };
            let mut ctl = sched.clone();
            let mut bursts = TraceBuffer::new();
            let mut profile = OpProfile::new();
            let separate = code.execute(
                Request::new(&config)
                    .trace(&mut bursts)
                    .profile(&mut profile)
                    .sched(&mut ctl),
            );
            let schedule = ctl.take_trace();
            let at = format!("{what}: {label}: the sweep's {trigger:?} run");
            assert_eq!(run.result, separate, "{at} differs from a separate run");
            assert_eq!(plain.result, separate, "{at}, unobserved, differs");
            assert_eq!(run.trace, bursts, "{at} traced other bursts");
            assert_eq!(run.profile, profile, "{at} profiled otherwise");
            assert_eq!(run.sched.take_trace(), schedule, "{at} scheduled otherwise");
        }
    }
}

/// What [`check`] sees when the run traps with `kind`.
pub fn traps(kind: TrapKind) -> impl Fn(&Checked) -> bool {
    move |c| matches!(&c.result, Err(e) if e.kind == kind)
}

/// Checks a regression case and that it still takes the path it pins.
///
/// # Panics
///
/// Panics on any disagreement, or when `expect` rejects what [`check`]
/// saw, with `name` and the case's one-line form.
pub fn check_row(name: &str, case: &Case, expect: impl Fn(&Checked) -> bool) {
    let checked = check(case);
    assert!(
        expect(&checked),
        "{name}: the case no longer takes the path it pins: {:?}\n{case}",
        checked.result
    );
}

/// The cycles and schedule decisions of `case` run to completion on the
/// fused engine, with no budget.
pub fn full_run(case: &Case) -> (u64, usize) {
    let cfg = VmConfig {
        limits: generous(),
        ..case.config()
    };
    let mut ctl = SchedControl::recording(case.sched);
    let outcome = Engine::Fused
        .load(&case.module(), &cfg.cost)
        .execute(Request::new(&cfg).sched(&mut ctl))
        .expect("the full run completes");
    (outcome.cycles, ctl.take_trace().len())
}

/// 1,100 threads that drive `CounterPerThread` past its 1,024 dense
/// lanes into the spill map: block counts under No-Duplication, sampled
/// every other check, with reschedule points in the spawn cascade.
pub fn spill_case() -> Case {
    Case {
        timeslice: 1009,
        ..Case::instrumented(
            spill_program(1100),
            "b",
            Strategy::NoDuplication,
            Trigger::CounterPerThread { interval: 2 },
        )
    }
}

/// A fuel budget of `max_cycles` with the heap unlimited.
pub fn fuel(max_cycles: u64) -> ExecLimits {
    ExecLimits {
        max_cycles: Some(max_cycles),
        max_heap_words: None,
        max_stack: 64,
    }
}

/// Sampling triggers of every kind, over ranges that reach both
/// frequent and rare sampling.
pub fn trigger_strategy() -> impl proptest::strategy::Strategy<Value = Trigger> {
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

/// Budgets from tiny to ample. A fuel draw of 0 means a ceiling far above
/// anything the programs execute, so the no-fuel-trap path is exercised
/// without risking an unbounded test run; a heap draw of 0 means an
/// unlimited heap.
pub fn limits_strategy() -> impl proptest::strategy::Strategy<Value = ExecLimits> {
    (0u64..20_000, 0u64..512, 2usize..64).prop_map(|(fuel, heap, max_stack)| ExecLimits {
        max_cycles: Some(if fuel == 0 { 100_000_000 } else { fuel }),
        max_heap_words: (heap > 0).then_some(heap),
        max_stack,
    })
}

/// Every axis of a case but its program.
type Axes = (
    (&'static str, Option<Strategy>),
    (Trigger, ExecLimits),
    (u64, SchedPolicy),
);

/// Every transform that realizes an instrumentation plan.
pub fn transform_strategy() -> impl proptest::strategy::Strategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::Exhaustive),
        Just(Strategy::FullDuplication),
        Just(Strategy::PartialDuplication),
        Just(Strategy::NoDuplication),
    ]
}

/// Budgets a generated program mostly runs into. Generated programs run
/// a few hundred to a few thousand cycles, so these budgets land
/// mid-run.
pub fn tight_limits() -> impl proptest::strategy::Strategy<Value = ExecLimits> {
    (1u64..2_000, 1u64..128, 2usize..24).prop_map(|(fuel, heap, max_stack)| ExecLimits {
        max_cycles: Some(fuel),
        max_heap_words: Some(heap),
        max_stack,
    })
}

fn axes_strategy() -> impl proptest::strategy::Strategy<Value = Axes> {
    let instrumentation = prop_oneof![
        Just(("", None)),
        (
            prop_oneof![Just("cfbe"), Just("p"), Just("c"), Just("")],
            transform_strategy()
        )
            .prop_map(|(kinds, s)| (kinds, Some(s))),
    ];
    let sched = prop_oneof![
        Just(SchedPolicy::RoundRobin),
        any::<u64>().prop_map(|seed| SchedPolicy::SeededRandom { seed }),
        (any::<u64>(), 1u32..4).prop_map(|(seed, depth)| SchedPolicy::PctPriority { seed, depth }),
    ];
    (
        instrumentation,
        (
            trigger_strategy(),
            prop_oneof![Just(generous()), limits_strategy(), tight_limits()],
        ),
        (prop_oneof![Just(100_000u64), 1u64..256], sched),
    )
}

fn case_of(program: String, axes: Axes) -> Case {
    let ((kinds, strategy), (trigger, limits), (timeslice, sched)) = axes;
    Case {
        program,
        kinds,
        strategy,
        trigger,
        limits,
        timeslice,
        sched,
    }
}

/// Generated sequential programs ([`stmt_strategy`]), rendered.
pub fn sequential_program() -> impl proptest::strategy::Strategy<Value = String> {
    prop::collection::vec(stmt_strategy(), 1..8).prop_map(|stmts| render_program(&stmts))
}

/// Generated concurrent programs ([`conc_program_strategy`]), rendered.
pub fn concurrent_program() -> impl proptest::strategy::Strategy<Value = String> {
    conc_program_strategy().prop_map(|p| render_conc_program(&p))
}

/// A fixed concurrent program, rendered.
pub fn conc(workers: u8, iters: u8, shape: ConcShape) -> String {
    render_conc_program(&ConcProgram {
        workers,
        iters,
        shape,
    })
}

/// Cases over generated sequential programs on every axis.
pub fn sequential_case() -> impl proptest::strategy::Strategy<Value = Case> {
    (sequential_program(), axes_strategy()).prop_map(|(p, axes)| case_of(p, axes))
}

/// Cases over generated concurrent programs on every axis.
pub fn concurrent_case() -> impl proptest::strategy::Strategy<Value = Case> {
    (concurrent_program(), axes_strategy()).prop_map(|(p, axes)| case_of(p, axes))
}

//! Shared helpers for the Criterion benches.
//!
//! Each bench target regenerates one table or figure of the paper in
//! *wall-clock* terms: the experiment harness reports overheads on the
//! deterministic simulated clock; these benches double-check that real
//! time orders the same way (instrumented > framework > baseline, etc.).
//! Keep runs short — the shapes, not the absolute numbers, are the point.

use std::time::Duration;

use criterion::Criterion;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{Engine, Outcome, Request, Trigger, VmConfig};
use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, Instrumentation, ModulePlan};
use isf_ir::Module;
use isf_workloads::Scale;

/// A short-measurement Criterion instance suitable for interpreter-bound
/// benches.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
        .configure_from_args()
}

/// Compiles a named benchmark at smoke scale.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn module(name: &str) -> Module {
    isf_workloads::by_name(name, Scale::Smoke)
        .unwrap_or_else(|| panic!("unknown workload `{name}`"))
        .compile()
}

/// Instruments `module` with the given kinds and strategy.
///
/// # Panics
///
/// Panics on invalid option combinations.
pub fn instrumented(module: &Module, kinds: &[&dyn Instrumentation], options: &Options) -> Module {
    let plan = ModulePlan::build(module, kinds);
    instrument_module(module, &plan, options)
        .expect("bench configurations are valid")
        .0
}

/// The paper's two example instrumentations.
pub fn both_kinds() -> Vec<&'static dyn Instrumentation> {
    vec![&CallEdgeInstrumentation, &FieldAccessInstrumentation]
}

/// Runs to completion under `trigger`.
///
/// # Panics
///
/// Panics if the program traps.
pub fn run_with(module: &Module, trigger: Trigger) -> Outcome {
    let cfg = VmConfig {
        trigger,
        ..VmConfig::default()
    };
    Engine::default()
        .load(module, &cfg.cost)
        .execute(Request::new(&cfg))
        .expect("benchmarks do not trap")
}

/// Shorthand for [`Options::new`].
pub fn opts(strategy: Strategy) -> Options {
    Options::new(strategy)
}

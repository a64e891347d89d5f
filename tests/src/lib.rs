//! Integration-test crate. All tests live in `tests/`; this library hosts
//! shared helpers and the random-program generator used by the
//! differential suites.

pub mod program_gen;

use isf_exec::{Code, CostModel, Engine, ExecLimits, Outcome, Request, Trigger, VmConfig, VmError};
use proptest::prop_assert_eq;
use proptest::test_runner::TestCaseError;

/// Compiles Jive source, panicking with the error on failure.
pub fn compile(src: &str) -> isf_ir::Module {
    isf_frontend::compile(src).expect("test program compiles")
}

/// Runs a module on the default engine with the given trigger and default
/// configuration.
pub fn run_with(module: &isf_ir::Module, trigger: Trigger) -> Outcome {
    let cfg = VmConfig {
        trigger,
        limits: ExecLimits::cycles(500_000_000),
        ..VmConfig::default()
    };
    Engine::default()
        .load(module, &cfg.cost)
        .execute(Request::new(&cfg))
        .expect("test program runs")
}

/// Every engine's code for `module` under `cost`, in [`Engine::ALL`]
/// order (the naive reference first).
pub fn load_all(module: &isf_ir::Module, cost: &CostModel) -> Vec<(Engine, Code<'static>)> {
    Engine::ALL
        .iter()
        .map(|&engine| (engine, engine.load(module, cost)))
        .collect()
}

/// One engine's complete run result.
pub type EngineResult = (Engine, Result<Outcome, VmError>);

/// Runs `module` under `cfg` twice on every engine and asserts every run
/// equals the naive reference's complete `Result<Outcome, VmError>` —
/// output, cycles, counters and profile, or trap kind and function.
/// Returns each engine's result, in [`Engine::ALL`] order, or a
/// [`TestCaseError`] naming the first engine that diverged.
pub fn engines_agree(
    module: &isf_ir::Module,
    cfg: &VmConfig,
) -> Result<Vec<EngineResult>, TestCaseError> {
    let mut results: Vec<EngineResult> = Vec::new();
    for (engine, code) in load_all(module, &cfg.cost) {
        let first = code.execute(Request::new(cfg));
        let second = code.execute(Request::new(cfg));
        prop_assert_eq!(&first, &second, "repeated {} runs diverged", engine.label());
        if let Some((_, reference)) = results.first() {
            prop_assert_eq!(
                &first,
                reference,
                "{} diverged from the naive reference",
                engine.label()
            );
        }
        results.push((engine, first));
    }
    Ok(results)
}

//! Helpers shared by the example programs.

use isf_exec::{Engine, Outcome, Request, Trigger, VmConfig, VmError};
use isf_ir::Module;

/// Runs `module` once on the fused engine under `trigger`, every other
/// setting at its default: load the code, then execute it.
///
/// # Errors
///
/// Returns a [`VmError`] if the program traps.
pub fn execute(module: &Module, trigger: Trigger) -> Result<Outcome, VmError> {
    let config = VmConfig {
        trigger,
        ..VmConfig::default()
    };
    Engine::Fused
        .load(module, &config.cost)
        .execute(Request::new(&config))
}

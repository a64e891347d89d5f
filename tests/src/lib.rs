//! Integration-test crate. All tests live in `tests/`; this library hosts
//! shared helpers, the random-program generator, and the differential
//! oracle every engine-equivalence check goes through.

pub mod oracle;
pub mod program_gen;

use isf_exec::{Engine, ExecLimits, Outcome, Request, Trigger, VmConfig};

/// Compiles Jive source, panicking with the error on failure.
pub fn compile(src: &str) -> isf_ir::Module {
    isf_frontend::compile(src).expect("test program compiles")
}

/// 64-bit FNV-1a over `bytes`, for pinning long outputs by digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs a module on the default engine ([`Engine::Fused`]) with the given
/// trigger and default configuration. The suites that use it check
/// transforms; that every engine agrees is [`oracle::check`]'s job.
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

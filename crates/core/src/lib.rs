//! The instrumentation-sampling framework of Arnold & Ryder, PLDI 2001 —
//! the paper's primary contribution.
//!
//! Given a module and an instrumentation plan (`isf-instr`), the framework
//! rewrites every function so the planned instrumentation executes only on
//! *samples*, converting 30%–200% exhaustive-profiling overheads into a few
//! percent while keeping the collected profile statistically faithful.
//!
//! # Strategies
//!
//! * [`Strategy::FullDuplication`] (paper §2) — every function body is
//!   duplicated. The original copy becomes the *checking code*: a
//!   counter-based check at the method entry and on every backedge decides
//!   whether to divert into the *duplicated code*, which carries all
//!   instrumentation and whose backedges all return to the checking code,
//!   bounding the work done per sample. Guarantees **Property 1**: checks
//!   executed ≤ method entries + backedges executed.
//! * [`Strategy::PartialDuplication`] (§3.1) — *top-nodes* (no instrumented
//!   node on any path from an entry) and *bottom-nodes* (no instrumented
//!   node reachable) are not duplicated; checks branching to removed
//!   top-nodes are dropped and compensating checks are added on edges from
//!   removed top-nodes into surviving duplicated code. Property 1 still
//!   holds; space drops when instrumentation is sparse.
//! * [`Strategy::NoDuplication`] (§3.2) — nothing is duplicated; every
//!   instrumentation point is individually guarded by a check. Property 1
//!   may be violated (or bettered, when instrumentation is sparser than
//!   backedges — the call-edge case of Table 3).
//! * [`Strategy::Exhaustive`] — no sampling; the Table 1 baseline.
//! * [`Strategy::ChecksOnly`] — entry and/or backedge checks with no
//!   duplicated code; cannot sample, exists to reproduce Table 2's overhead
//!   breakdown columns.
//!
//! The Jalapeño-specific optimization of §4.5 is
//! [`Options::yieldpoint_optimization`]: under Full-Duplication the
//! yieldpoints of the checking code are deleted (the check subsumes them)
//! while the duplicated code keeps its yieldpoints; with a finite sample
//! interval the time between yieldpoints stays bounded.
//!
//! # Example
//!
//! ```
//! use isf_core::{instrument_module, Options, Strategy};
//! use isf_instr::{CallEdgeInstrumentation, ModulePlan};
//! use isf_exec::{Engine, Request, Trigger, VmConfig};
//!
//! let module = isf_frontend::compile(
//!     "fn hot() { } fn main() { var i = 0; while (i < 500) { hot(); i = i + 1; } }",
//! ).unwrap();
//! let plan = ModulePlan::build(&module, &[&CallEdgeInstrumentation]);
//! let (sampled, stats) = instrument_module(
//!     &module, &plan, &Options::new(Strategy::FullDuplication),
//! ).unwrap();
//! assert!(stats.total_checks() > 0);
//!
//! let config = VmConfig {
//!     trigger: Trigger::Counter { interval: 10 },
//!     ..VmConfig::default()
//! };
//! let outcome = Engine::Fused
//!     .load(&sampled, &config.cost)
//!     .execute(Request::new(&config))
//!     .unwrap();
//! assert!(outcome.samples_taken > 0);
//! assert!(outcome.satisfies_property1());
//! # assert!(outcome.profile.total_call_edge_events() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks_only;
mod duplicate;
mod framework;
mod hoist;
mod no_duplication;
pub mod property;
mod selective;
mod stats;

pub use framework::{instrument_module, InvalidOptions, Options, Strategy};
pub use selective::instrument_module_selective;
pub use stats::{CheckKind, FunctionStats, TransformStats};

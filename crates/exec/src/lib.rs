//! Execution engine for ISF modules: a deterministic interpreter with a
//! cycle-cost model, green threads, yieldpoints and pluggable sampling
//! triggers.
//!
//! This crate is the reproduction's stand-in for the Jalapeño runtime on
//! the 333 MHz PowerPC of the paper's evaluation. Two substitutions keep
//! the paper's experiments meaningful on arbitrary hardware:
//!
//! * **Simulated cycles instead of wall-clock time.** Every instruction
//!   charges a fixed cost ([`CostModel`]); "overhead" in the reproduced
//!   tables is the ratio of simulated cycles between an instrumented and an
//!   uninstrumented run, which is exactly the quantity the paper's
//!   percentages express, minus measurement noise. (The Criterion benches
//!   double-check that wall-clock time orders the same way.)
//! * **A simulated 10 ms timer.** Jalapeño's hardware timer sets a
//!   threadswitch bit read by yieldpoints; here the simulated clock sets the
//!   bit every [`VmConfig::timeslice`] cycles. The timer-based *sampling*
//!   trigger of §4.6 ([`Trigger::TimerBit`]) works the same way, which
//!   reproduces its mis-attribution pathology: a long-latency instruction
//!   absorbs the period, and the *next* check takes the sample.
//!
//! The interpreter executes [`isf_ir::Term::Check`] terminators by asking
//! the configured [`Trigger`] whether the sample condition is true — the
//! decrement/reset bookkeeping of the paper's Figure 3 lives in
//! [`Trigger`]'s runtime state, shared by every check in the program so
//! that one global counter distributes samples over all sample points.
//!
//! # Example
//!
//! Pick an [`Engine`], [`load`](Engine::load) the module into the
//! [`Code`] that engine executes, then [`execute`](Code::execute) it under
//! a [`Request`]. Every engine produces the same [`Outcome`]; the loaded
//! code can run any number of times.
//!
//! ```
//! use isf_exec::{Engine, OpProfile, Request, VmConfig};
//!
//! let module = isf_frontend::compile(
//!     "fn main() { var i = 0; while (i < 5) { print(i); i = i + 1; } }",
//! ).unwrap();
//! let config = VmConfig::default();
//! let code = Engine::Fused.load(&module, &config.cost);
//! let outcome = code.execute(Request::new(&config))?;
//! assert_eq!(outcome.output, vec![0, 1, 2, 3, 4]);
//! assert!(outcome.cycles > 0);
//!
//! // Observers ride along in the request; the outcome is unchanged.
//! let mut profile = OpProfile::new();
//! let profiled = code.execute(Request::new(&config).profile(&mut profile))?;
//! assert_eq!(profiled, outcome);
//! assert_eq!(profile.total_cycles(), outcome.cycles);
//!
//! for engine in Engine::ALL {
//!     let code = engine.load(&module, &config.cost);
//!     assert_eq!(code.execute(Request::new(&config))?, outcome, "{}", engine.label());
//! }
//! # Ok::<(), isf_exec::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
mod cost;
mod engine;
mod error;
mod heap;
mod interp;
mod naive;
mod outcome;
mod prepared;
pub mod profile;
pub mod sched;
mod trace;
mod trigger;
mod value;

pub use cancel::CancelToken;
pub use cost::CostModel;
pub use engine::{run_naive, run_prepared, run_prepared_profiled, Code, Engine, Request, Swept};
pub use error::{TrapKind, VmError};
pub use heap::Heap;
pub use interp::{ExecLimits, VmConfig};
pub use outcome::{Outcome, ZeroCycleBaseline};
pub use prepared::{thread_preparations, FuseGuidance, FuseMode, PreparedModule};
pub use profile::{NoMetrics, OpProfile, ProfileSink, NUM_OPCODES, OPCODE_NAMES};
pub use sched::{SchedChoice, SchedControl, SchedPolicy, ScheduleTrace};
pub use trace::{BurstRecord, NoTrace, TraceBuffer, TraceSink};
pub use trigger::Trigger;
pub use value::Value;

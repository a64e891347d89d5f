//! Structured observability for the ISF reproduction: burst-trace
//! analyses, a leveled stderr logger, and a machine-readable (JSONL)
//! experiment-output emitter.
//!
//! The executor ([`isf_exec`]) can record one [`isf_exec::BurstRecord`]
//! per sample through a compile-time-selected
//! [`isf_exec::TraceSink`] — zero cost when the sink is
//! [`isf_exec::NoTrace`]. This crate consumes those traces:
//!
//! * [`BurstReport`] aggregates a trace into per-sample-point attribution
//!   and a burst-length histogram; [`SkewReport`] compares a
//!   counter-trigger trace against a timer-trigger trace to quantify the
//!   §4.6 attribution skew.
//! * [`log`] is the leveled stderr emitter (`ISF_LOG=off|cells|debug`)
//!   that replaces the harness's raw `eprintln!`s.
//! * [`emit`] buffers JSONL records (`--emit json`) with wall-clock
//!   redaction for byte-stable output across `--jobs` counts, and
//!   accumulates phase timings across worker threads.
//! * [`metrics`] is a sharded runtime-gated metrics registry (counters +
//!   power-of-two-bucket histograms) the harness drains into a JSONL
//!   `metrics` record; the VM's per-opcode dispatch profiles fold into it.
//! * [`span`] records hierarchical wall+CPU spans (run → phase →
//!   experiment → cell → attempt) and exports them as Chrome trace-event
//!   JSON for Perfetto, plus a `span-summary` JSONL record.
//! * [`json`] is the dependency-free JSON value, encoder, and strict
//!   parser everything above is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod emit;
pub mod json;
pub mod log;
pub mod metrics;
pub mod span;

pub use burst::{BurstReport, SkewReport};
pub use emit::{EmitMode, PhaseTotal};
pub use json::{Json, JsonError};
pub use log::Level;
pub use metrics::MetricsSnapshot;
pub use span::{SpanEvent, SpanGuard, SpanSummary};

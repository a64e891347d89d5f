//! The ISF benchmark: one program, `isf-benchmark`, that runs a named
//! workload with a seed, checks its outputs, and prints every end-to-end
//! or per-layer metric by name with its unit. See `README.md` for the
//! workloads, the metric table and the commands.
//!
//! * [`spec`] — workloads, metric declarations, reference outputs.
//! * [`calibrate`] — the machine-speed kernel that wall times are divided by.
//! * [`draws`] — seeded inputs: pipeline draws and experiment orders.
//! * [`pipeline`] — the benchmark's own calls into the crates: set-up, the
//!   `pipeline` workload, and its correctness gate.
//! * [`records`] — reads a traced repetition's JSONL into per-layer metrics.
//! * [`stats`] — medians and quartiles.
//! * [`compare`] — two sets of runs, side by side, with verdicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod compare;
pub mod draws;
pub mod pipeline;
pub mod records;
pub mod spec;
pub mod stats;

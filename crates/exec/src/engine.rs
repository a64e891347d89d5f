//! The run API: an [`Engine`] names one execution configuration,
//! [`Engine::load`] builds the [`Code`] it executes, and
//! [`Code::execute`] runs that code under a [`Request`].
//!
//! The three engines produce identical [`Outcome`]s and differ only in
//! wall-clock cost, so callers that compare them loop over
//! [`Engine::ALL`]. A request's trace and profile sinks are compile-time
//! parameters defaulting to [`NoTrace`] and [`NoMetrics`], whose recording
//! sites compile away: `Request::new(&config)` runs the unobserved,
//! monomorphized hot loop.

use std::borrow::Cow;

use isf_ir::Module;

use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::VmError;
use crate::interp::{self, VmConfig};
use crate::naive;
use crate::outcome::Outcome;
use crate::prepared::{fuse_mode, FuseMode, PreparedModule};
use crate::profile::{NoMetrics, ProfileSink};
use crate::sched::SchedControl;
use crate::trace::{NoTrace, TraceSink};

/// One execution configuration of the runtime.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Engine {
    /// The tree-walking reference interpreter, which the other engines
    /// are differentially tested against.
    Naive,
    /// The pre-decoded engine over [`FuseMode::Off`] arenas.
    Unfused,
    /// The pre-decoded engine over [`FuseMode::Fuse`] arenas.
    Fused,
}

impl Engine {
    /// Every engine, the reference first.
    pub const ALL: [Engine; 3] = [Engine::Naive, Engine::Unfused, Engine::Fused];

    /// A stable name for reports and failure messages.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Unfused => "prepared/unfused",
            Engine::Fused => "prepared/fused",
        }
    }

    /// The code this engine executes for `module`: a copy of the module
    /// for [`Engine::Naive`], which reads costs from each run's config,
    /// else a [`PreparedModule`] with `cost` folded in.
    #[must_use]
    pub fn load(self, module: &Module, cost: &CostModel) -> Code<'static> {
        let mode = match self {
            Engine::Naive => return Code::Naive(Cow::Owned(module.clone())),
            Engine::Unfused => FuseMode::Off,
            Engine::Fused => FuseMode::Fuse,
        };
        Code::Prepared(Cow::Owned(PreparedModule::prepare_with(module, cost, mode)))
    }
}

/// [`Engine::Fused`], or [`Engine::Unfused`] when `ISF_FUSE` turns fusion
/// off (see [`fuse_mode`]).
impl Default for Engine {
    fn default() -> Self {
        match fuse_mode() {
            FuseMode::Off => Engine::Unfused,
            FuseMode::Fuse | FuseMode::Guided(_) => Engine::Fused,
        }
    }
}

/// What an [`Engine`] executes. `Code::from(&prepared)` borrows a
/// preparation already in hand.
#[derive(Clone, Debug)]
pub enum Code<'a> {
    /// The IR, walked by the reference interpreter.
    Naive(Cow<'a, Module>),
    /// Decoded op arenas, run by the pre-decoded engine.
    Prepared(Cow<'a, PreparedModule>),
}

impl<'a> From<&'a PreparedModule> for Code<'a> {
    fn from(prepared: &'a PreparedModule) -> Self {
        Code::Prepared(Cow::Borrowed(prepared))
    }
}

impl Code<'_> {
    /// Runs the code to completion under `request`. The code is not
    /// changed, so one load serves any number of runs; prepared code
    /// must run under the cost model it was loaded with.
    ///
    /// # Panics
    ///
    /// Panics if prepared code runs under another cost model, or if a
    /// replaying scheduling control diverges from its trace.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on any runtime trap (type errors, null
    /// dereference, out-of-bounds access, deadlock, exceeded budgets,
    /// cancellation).
    pub fn execute<S: TraceSink, P: ProfileSink>(
        &self,
        request: Request<'_, S, P>,
    ) -> Result<Outcome, VmError> {
        let Request {
            config,
            trace,
            profile,
            sched,
            cancel,
        } = request;
        // The default control is the recording-free round-robin fast path.
        let mut round_robin = SchedControl::default();
        let sched = sched.unwrap_or(&mut round_robin);
        match self {
            Code::Naive(module) => naive::execute(module, config, trace, profile, sched, cancel),
            Code::Prepared(prepared) => {
                interp::execute(prepared, config, trace, profile, sched, cancel)
            }
        }
    }

    /// The decoded form, for prepared code.
    #[must_use]
    pub fn prepared(&self) -> Option<&PreparedModule> {
        match self {
            Code::Naive(_) => None,
            Code::Prepared(prepared) => Some(prepared),
        }
    }
}

/// One run's inputs besides its code: the configuration, a burst-trace
/// sink, a dispatch-profile sink, a scheduling control and a
/// cancellation token. The caller keeps the sinks and the control, and
/// so the recordings, after the run.
#[must_use]
pub struct Request<'r, S = NoTrace, P = NoMetrics> {
    config: &'r VmConfig,
    trace: &'r mut S,
    profile: &'r mut P,
    sched: Option<&'r mut SchedControl>,
    cancel: Option<&'r CancelToken>,
}

impl<'r> Request<'r> {
    /// A run under `config` with no sinks and round-robin scheduling.
    pub fn new(config: &'r VmConfig) -> Self {
        // The disabled sinks are zero-sized, so leaking their boxes
        // allocates nothing.
        Request {
            config,
            trace: Box::leak(Box::new(NoTrace)),
            profile: Box::leak(Box::new(NoMetrics)),
            sched: None,
            cancel: None,
        }
    }
}

impl<'r, S, P> Request<'r, S, P> {
    /// Records every sampling burst into `trace`.
    pub fn trace<T: TraceSink>(self, trace: &'r mut T) -> Request<'r, T, P> {
        Request {
            config: self.config,
            trace,
            profile: self.profile,
            sched: self.sched,
            cancel: self.cancel,
        }
    }

    /// Records the per-opcode dispatch profile into `profile`.
    pub fn profile<Q: ProfileSink>(self, profile: &'r mut Q) -> Request<'r, S, Q> {
        Request {
            config: self.config,
            trace: self.trace,
            profile,
            sched: self.sched,
            cancel: self.cancel,
        }
    }

    /// Schedules threads through `sched` (see [`crate::sched`]).
    pub fn sched(self, sched: &'r mut SchedControl) -> Self {
        Request {
            sched: Some(sched),
            ..self
        }
    }

    /// Polls `token` (see [`crate::cancel`]): once it has fired, the run
    /// traps with [`TrapKind::Cancelled`](crate::TrapKind::Cancelled) at
    /// its next poll.
    pub fn cancel(mut self, token: &'r CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

// The benchmark package (`isf-benchmark/`) calls the three functions below
// by name and stays unchanged so its measurements remain comparable across
// changes; each is one line into `Code::execute`. Nothing else calls them.

/// Runs `module` on [`Engine::Naive`]; kept for the benchmark package.
pub fn run_naive(module: &Module, config: &VmConfig) -> Result<Outcome, VmError> {
    Code::Naive(Cow::Borrowed(module)).execute(Request::new(config))
}

/// Runs a prepared module; kept for the benchmark package.
pub fn run_prepared(prepared: &PreparedModule, config: &VmConfig) -> Result<Outcome, VmError> {
    Code::from(prepared).execute(Request::new(config))
}

/// Runs a prepared module into a dispatch-profile sink; kept for the
/// benchmark package.
pub fn run_prepared_profiled<P: ProfileSink>(
    prepared: &PreparedModule,
    config: &VmConfig,
    profile: &mut P,
) -> Result<Outcome, VmError> {
    Code::from(prepared).execute(Request::new(config).profile(profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_engine_once() {
        // Exhaustive on purpose: a new variant fails to compile here until
        // it has a position, and every position must hold its engine.
        let position = |engine: Engine| match engine {
            Engine::Naive => 0,
            Engine::Unfused => 1,
            Engine::Fused => 2,
        };
        let positions: Vec<usize> = Engine::ALL.iter().map(|&e| position(e)).collect();
        assert_eq!(positions, [0, 1, 2]);
        let mut labels: Vec<&str> = Engine::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Engine::ALL.len(), "labels must be distinct");
    }
}

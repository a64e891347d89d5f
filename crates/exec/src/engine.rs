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
//!
//! [`Code::execute_sweep`] runs one code under each trigger of a
//! counter-interval sweep, executing the prefix those runs share once.

use std::borrow::Cow;

use isf_ir::Module;

use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::error::VmError;
use crate::interp::{self, VmConfig};
use crate::naive;
use crate::outcome::Outcome;
use crate::prepared::{FuseMode, PreparedModule};
use crate::profile::{NoMetrics, ProfileSink};
use crate::sched::SchedControl;
use crate::trace::{NoTrace, TraceSink};
use crate::trigger::Trigger;

/// One execution configuration of the runtime. The default is
/// [`Engine::Fused`]: callers that compare engines name them or loop over
/// [`Engine::ALL`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, Debug)]
pub enum Engine {
    /// The tree-walking reference interpreter, which the other engines
    /// are differentially tested against.
    Naive,
    /// The pre-decoded engine over [`FuseMode::Off`] arenas.
    Unfused,
    /// The pre-decoded engine over [`FuseMode::Fuse`] arenas.
    #[default]
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

    /// Runs the code once per trigger of a counter sweep — each
    /// [`Trigger::Never`] or [`Trigger::Counter`] — under `config` with
    /// its trigger replaced, and returns each run's result, sinks and
    /// scheduling control in `triggers` order. Every run starts from
    /// `sched` and fresh sinks, and equals a separate
    /// [`execute`](Code::execute) of its trigger.
    ///
    /// Prepared code runs the sweep's latest-firing trigger once and
    /// forks each earlier-firing interval off it at that interval's first
    /// firing check, so the prefix the runs share executes once; the
    /// reference interpreter runs each trigger separately.
    ///
    /// # Panics
    ///
    /// Panics on any other trigger kind, and as [`execute`](Code::execute)
    /// does.
    pub fn execute_sweep<S, P>(
        &self,
        config: &VmConfig,
        triggers: &[Trigger],
        sched: &SchedControl,
        cancel: Option<&CancelToken>,
    ) -> Vec<Swept<S, P>>
    where
        S: TraceSink + Clone + Default,
        P: ProfileSink + Clone + Default,
    {
        if let Some(other) = triggers
            .iter()
            .find(|t| !matches!(t, Trigger::Never | Trigger::Counter { .. }))
        {
            panic!("execute_sweep: {other:?} is not a counter-sweep trigger");
        }
        match self {
            Code::Naive(module) => triggers
                .iter()
                .map(|&trigger| {
                    let config = VmConfig { trigger, ..*config };
                    let (mut trace, mut profile, mut sched) =
                        (S::default(), P::default(), sched.clone());
                    let result = naive::execute(
                        module,
                        &config,
                        &mut trace,
                        &mut profile,
                        &mut sched,
                        cancel,
                    );
                    Swept {
                        result,
                        trace,
                        profile,
                        sched,
                        shared_instructions: 0,
                    }
                })
                .collect(),
            Code::Prepared(prepared) => {
                interp::execute_sweep(prepared, config, triggers, sched, cancel)
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

/// One run of [`Code::execute_sweep`]: what [`Code::execute`] returns and
/// what the run recorded.
#[derive(Clone, Debug)]
pub struct Swept<S = NoTrace, P = NoMetrics> {
    /// The run's result.
    pub result: Result<Outcome, VmError>,
    /// Its burst trace sink.
    pub trace: S,
    /// Its dispatch-profile sink.
    pub profile: P,
    /// Its scheduling control, with the decisions it recorded.
    pub sched: SchedControl,
    /// Instructions of the run that the sweep executed once for several
    /// runs: the prefix a forked run shares with the base pass, or the
    /// whole run when it is a repeat of the base pass. Zero for a run
    /// that executed everything itself.
    pub shared_instructions: u64,
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

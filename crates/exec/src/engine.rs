//! The run API: an [`Engine`] names one execution configuration,
//! [`Engine::load`] builds the [`Code`] it executes, and
//! [`Code::execute`] runs that code under a [`Request`].
//!
//! The four engines produce identical [`Outcome`]s and differ only in
//! wall-clock cost, so callers that compare them loop over
//! [`Engine::ALL`]. A request's trace and profile sinks are compile-time
//! parameters defaulting to [`NoTrace`] and [`NoMetrics`], whose recording
//! sites compile away: `Request::new(&config)` runs the unobserved,
//! monomorphized hot loop.

use std::borrow::Cow;

use isf_ir::Module;

use crate::cancel::{Cancel, CancelToken};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::interp::{self, ExecLimits, VmConfig};
use crate::naive;
use crate::outcome::Outcome;
use crate::prepared::{fuse_mode, FuseMode, PreparedModule};
use crate::profile::{FuseGuidance, NoMetrics, OpProfile, ProfileSink};
use crate::sched::SchedControl;
use crate::trace::{NoTrace, TraceSink};
use crate::trigger::Trigger;

/// Cycle budget of [`Engine::Guided`]'s warmup: long enough to reach the
/// steady-state loops whose opcode mix the guidance wants, short enough
/// to stay a small fraction of a harness run.
const GUIDED_WARMUP_CYCLES: u64 = 250_000;

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
    /// The pre-decoded engine over [`FuseMode::Guided`] arenas: the fused
    /// form warms up (`Trigger::Never`, 250,000 cycles), its profile folds
    /// into a [`FuseGuidance`], and the module is re-prepared under it.
    Guided,
}

impl Engine {
    /// Every engine, the reference first.
    pub const ALL: [Engine; 4] = [
        Engine::Naive,
        Engine::Unfused,
        Engine::Fused,
        Engine::Guided,
    ];

    /// A stable name for reports and failure messages.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Unfused => "prepared/unfused",
            Engine::Fused => "prepared/fused",
            Engine::Guided => "prepared/guided",
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
            Engine::Guided => FuseMode::Guided(Box::new(warmup_guidance(module, cost))),
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

/// [`Engine::Guided`]'s warmup. It usually ends in a fuel trap; that is
/// its exit, not a failure, and the profile is folded either way.
fn warmup_guidance(module: &Module, cost: &CostModel) -> FuseGuidance {
    let fused = PreparedModule::prepare_with(module, cost, FuseMode::Fuse);
    let config = VmConfig {
        cost: *cost,
        trigger: Trigger::Never,
        limits: ExecLimits::cycles(GUIDED_WARMUP_CYCLES),
        ..VmConfig::default()
    };
    let mut profile = OpProfile::new();
    let _ = Code::from(&fused).execute(Request::new(&config).profile(&mut profile));
    FuseGuidance::from_profile(&profile)
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
/// sink, a dispatch-profile sink, a scheduling control and the
/// cancellation inputs. The caller keeps the sinks and the control, and
/// so the recordings, after the run.
#[must_use]
pub struct Request<'r, S = NoTrace, P = NoMetrics> {
    config: &'r VmConfig,
    trace: &'r mut S,
    profile: &'r mut P,
    sched: Option<&'r mut SchedControl>,
    cancel: Cancel<'r>,
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
            cancel: Cancel::default(),
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
        self.cancel.token = Some(token);
        self
    }

    /// Traps with [`TrapKind::Cancelled`](crate::TrapKind::Cancelled) at
    /// the charge that takes the clock past `cycles`: the charge at which
    /// a `max_cycles` budget of `cycles` traps, which wins a tie.
    pub fn cancel_after(mut self, cycles: u64) -> Self {
        self.cancel.after = Some(cycles);
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
            Engine::Guided => 3,
        };
        let positions: Vec<usize> = Engine::ALL.iter().map(|&e| position(e)).collect();
        assert_eq!(positions, [0, 1, 2, 3]);
        let mut labels: Vec<&str> = Engine::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Engine::ALL.len(), "labels must be distinct");
    }

    #[test]
    fn guided_load_fuses_guided_groups_and_matches_naive() {
        let module = isf_workloads::by_name("mtrt", isf_workloads::Scale::Smoke)
            .expect("mtrt is a suite benchmark")
            .compile();
        let config = VmConfig::default();
        let guided = Engine::Guided.load(&module, &config.cost);
        let prepared = guided.prepared().expect("guided code is prepared");
        assert!(prepared.num_guided() > 0, "mtrt got no guided groups");
        let naive = Engine::Naive.load(&module, &config.cost);
        assert_eq!(
            guided.execute(Request::new(&config)),
            naive.execute(Request::new(&config))
        );
    }
}

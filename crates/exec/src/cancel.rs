//! Cooperative cancellation: an `Arc`'d atomic epoch both engines poll
//! at points they already visit, raising [`TrapKind::Cancelled`] so a
//! cancelled run stops with a well-defined error instead of being killed.
//!
//! The design mirrors the budget traps of `ExecLimits`: cancellation is
//! not preemption. The prepared engine polls at block entries (the same
//! control-transfer funnel the profiler counts flow at), the naive engine
//! every [`NAIVE_POLL_INTERVAL`] dispatches, so a cancelled run stops at
//! the next control transfer — fused, guided, unfused and naive alike —
//! and unwinds through the ordinary trap path with an accurate partial
//! profile.
//!
//! A [`CancelToken`] fires once and stays fired, so a run given a token
//! that fired between two runs of the same unit of work still stops; the
//! harness makes a fresh token per cell attempt. Firing goes through an
//! epoch counter: a watchdog that captured the epoch when it armed can
//! only fire that epoch ([`CancelToken::cancel_from`] is a
//! compare-and-swap), so a stale timer never fires a token twice.
//!
//! Cancellation is an explicit run input, like the sinks: a run polls a
//! token only if its [`Request`](crate::Request) carries one
//! ([`Request::cancel`](crate::Request::cancel)), so no run inherits
//! another's cancellation — [`Engine::Guided`](crate::Engine::Guided)'s
//! warmup inside `load` included, which its own 250,000-cycle budget
//! bounds instead. A token is identity, not configuration, so it stays
//! out of the `Copy` [`VmConfig`](crate::VmConfig) whose `Debug` form
//! feeds run fingerprints. With no token the polls are a never-taken
//! branch on a plain `Option`, and clean runs are byte-identical to a
//! build without the subsystem.
//!
//! Wall-clock cancellation is inherently nondeterministic, so tests use
//! the deterministic input
//! [`Request::cancel_after`](crate::Request::cancel_after): it raises
//! [`TrapKind::Cancelled`] at exactly the charge that takes the clock
//! past the given cycle count — the same predicate, at the same points,
//! as a `max_cycles` fuel trap — making cancellation-at-cycle-K runs
//! exactly reproducible and differentially testable against fuel traps.
//!
//! [`TrapKind::Cancelled`]: crate::TrapKind::Cancelled

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many naive-engine dispatches pass between epoch polls. The naive
/// engine has no cheap control-transfer funnel (every transfer re-derives
/// targets through the module), so it amortizes the atomic load over a
/// fixed dispatch count instead.
pub const NAIVE_POLL_INTERVAL: u32 = 1024;

/// A shared cancellation epoch, fired once it leaves 0. Clones observe
/// the same epoch; see the module docs for the polling contract.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    epoch: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh token at epoch 0, not yet cancelled.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch, to be captured and passed to
    /// [`CancelToken::cancel_from`] by whoever may cancel later.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Cancels unconditionally by advancing the epoch. Every run given
    /// this token traps at its next poll.
    pub fn cancel(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Cancels only if the epoch still equals `snapshot` — the epoch a
    /// watchdog captured when its deadline started. Returns whether the
    /// cancellation landed; `false` means the epoch had already moved on,
    /// so the stale fire hit nothing.
    pub fn cancel_from(&self, snapshot: u64) -> bool {
        self.epoch
            .compare_exchange(
                snapshot,
                snapshot.wrapping_add(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Whether the epoch has moved past `snapshot`.
    pub fn is_cancelled(&self, snapshot: u64) -> bool {
        self.epoch.load(Ordering::Relaxed) != snapshot
    }

    /// Whether the token has fired at all: what the engines poll. One
    /// relaxed atomic load; the trap path synchronizes through the
    /// unwind, not the flag, so a stricter ordering would buy nothing.
    #[inline]
    pub(crate) fn fired(&self) -> bool {
        self.is_cancelled(0)
    }
}

/// A run's cancellation inputs, as [`Request`](crate::Request) carries
/// them to the engines.
#[derive(Clone, Copy, Default)]
pub(crate) struct Cancel<'t> {
    /// Polled at block entries (prepared) or every
    /// [`NAIVE_POLL_INTERVAL`] dispatches (naive).
    pub(crate) token: Option<&'t CancelToken>,
    /// Deterministic cancellation point, checked at every cycle charge.
    pub(crate) after: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_from_only_lands_on_the_captured_epoch() {
        let t = CancelToken::new();
        let snapshot = t.epoch();
        assert!(!t.is_cancelled(snapshot));
        assert!(t.cancel_from(snapshot), "first fire lands");
        assert!(t.is_cancelled(snapshot));
        // A stale watchdog holding the old snapshot cannot cancel the
        // next run's epoch.
        assert!(!t.cancel_from(snapshot), "stale fire must miss");
        let next = t.epoch();
        assert!(!t.is_cancelled(next));
    }
}

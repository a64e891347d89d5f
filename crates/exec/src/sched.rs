//! Pluggable thread scheduling for the green-thread VM.
//!
//! Both engines drive every reschedule point — timeslice `Yield`s, blocking
//! `Join`s, thread completion — through a [`SchedControl`], so the policy
//! that picks the next runnable thread is a seam rather than a hard-coded
//! loop. Three policies exist:
//!
//! * [`SchedPolicy::RoundRobin`] — the historical scheduler: scan from the
//!   current thread and take the first runnable one. The default, and
//!   byte-identical to the pre-seam engines (a dedicated fast path keeps it
//!   allocation- and recording-free).
//! * [`SchedPolicy::SeededRandom`] — a splitmix64-seeded xorshift draw at
//!   every *decision point* (a reschedule with two or more runnable
//!   candidates). The workhorse of schedule exploration.
//! * [`SchedPolicy::PctPriority`] — probabilistic concurrency testing
//!   (Burckhardt et al.): random per-thread priorities, always run the
//!   highest-priority runnable thread, and lower the current thread's
//!   priority at `depth` randomly-placed change points. Finds
//!   ordering-dependent bugs with provable probability at a far lower
//!   schedule count than uniform sampling.
//!
//! # Decision points and the tie-break rule
//!
//! A reschedule with fewer than two runnable candidates is **not** a
//! decision point: no randomness is drawn, no priority changes, no trace
//! entry is recorded, and the lone candidate (or none) is returned. This
//! makes a `Yield` in a single-runnable-thread state behave identically
//! under every policy — single-threaded programs record empty traces — and
//! keeps traces portable across policies: a trace records only genuine
//! choices. When a policy ranks two candidates equally (PCT priority ties),
//! the earlier thread in scan order (current + 1, current + 2, … modulo the
//! thread count) wins, deterministically.
//!
//! # Replay
//!
//! Every decision appends a [`SchedChoice`] to a [`ScheduleTrace`] when
//! recording is on. A trace replays with [`SchedControl::replay`]: the
//! engines are deterministic, so re-running the same program under the
//! same `VmConfig` with a recorded trace reproduces the run exactly — on
//! either engine, fused or not, profiled or not. Replay validates the
//! candidate count at every decision and panics on divergence rather than
//! silently exploring a different schedule. Traces serialize to a one-line
//! compact form (`st1:pos/count@thread,…`) so a failing schedule
//! reproduces from a log line.

use crate::trigger::{seed_stream, uniform_below};

/// Scheduling policy for picking the next runnable green thread.
///
/// `RoundRobin` is the default and is byte-identical to the historical
/// hard-coded scheduler. See the [module docs](self) for the full contract.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Scan from `current + 1` and take the first runnable thread.
    #[default]
    RoundRobin,
    /// Uniform random pick among the runnable candidates at every decision
    /// point, from a splitmix64-expanded xorshift stream.
    SeededRandom {
        /// Stream seed; equal seeds give equal schedules.
        seed: u64,
    },
    /// Probabilistic concurrency testing: random per-thread base
    /// priorities, run the highest-priority candidate, and lower the
    /// current thread's priority at `depth` change points drawn uniformly
    /// from the first [`PCT_HORIZON`] decisions.
    PctPriority {
        /// Seed for priorities and change-point placement.
        seed: u64,
        /// Number of priority-change points (the PCT bug-depth parameter).
        depth: u32,
    },
}

/// Decision horizon for [`SchedPolicy::PctPriority`] change points: they
/// are drawn uniformly from decision indices `1..=PCT_HORIZON`. Runs with
/// more decisions keep the priorities they ended up with; runs with fewer
/// simply never reach the later change points (standard PCT behavior when
/// the run length is unknown up front).
pub const PCT_HORIZON: u64 = 1024;

/// One recorded scheduling decision.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SchedChoice {
    /// Index into the candidate list, which is ordered by scan position
    /// (`current + 1`, `current + 2`, … modulo the thread count).
    pub pos: u32,
    /// Number of runnable candidates at this decision point (always ≥ 2;
    /// single-candidate reschedules are not decisions).
    pub count: u32,
    /// The thread that was chosen. Redundant given the machine state —
    /// `pos` alone steers a replay — but kept for diagnostics.
    pub thread: u32,
}

/// A replayable record of every scheduling decision in a run.
///
/// Obtained from [`SchedControl::take_trace`] after a recording run and
/// fed back through [`SchedControl::replay`]. The compact one-line string
/// form ([`ScheduleTrace::to_compact_string`] / [`ScheduleTrace::parse`])
/// round-trips exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// The decisions, in execution order.
    pub choices: Vec<SchedChoice>,
}

impl ScheduleTrace {
    /// Number of recorded decisions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the run had no decision points at all (e.g. it was
    /// effectively single-threaded).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Serializes to the compact one-line form
    /// `st1:pos/count@thread,pos/count@thread,…` (just `st1:` when empty).
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut s = String::from("st1:");
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}/{}@{}", c.pos, c.count, c.thread));
        }
        s
    }

    /// Parses the compact form produced by
    /// [`to_compact_string`](Self::to_compact_string). Returns `None` on
    /// any malformed input (wrong tag, wrong shape, `pos >= count`).
    #[must_use]
    pub fn parse(s: &str) -> Option<ScheduleTrace> {
        let body = s.strip_prefix("st1:")?;
        let mut choices = Vec::new();
        if body.is_empty() {
            return Some(ScheduleTrace { choices });
        }
        for item in body.split(',') {
            let (poscount, thread) = item.split_once('@')?;
            let (pos, count) = poscount.split_once('/')?;
            let pos: u32 = pos.parse().ok()?;
            let count: u32 = count.parse().ok()?;
            let thread: u32 = thread.parse().ok()?;
            if pos >= count || count < 2 {
                return None;
            }
            choices.push(SchedChoice { pos, count, thread });
        }
        Some(ScheduleTrace { choices })
    }
}

/// PCT runtime state: change-point placement and the priority table.
#[derive(Clone, Debug)]
struct PctState {
    seed: u64,
    /// 1-based decision indices at which the current thread's priority
    /// drops; exactly `depth` entries (duplicates collapse harmlessly).
    change_points: Vec<u64>,
    /// Lowered priorities in `[0, depth)`, most recent last. Base
    /// priorities have bit 63 set, so any lowered thread ranks below every
    /// non-lowered one.
    lowered: Vec<(u32, u64)>,
    next_low: u64,
}

impl PctState {
    fn new(seed: u64, depth: u32) -> Self {
        let mut rng = seed_stream(seed ^ 0x50C7_50C7_50C7_50C7);
        let change_points = (0..depth)
            .map(|_| uniform_below(&mut rng, PCT_HORIZON) + 1)
            .collect();
        PctState {
            seed,
            change_points,
            lowered: Vec::new(),
            next_low: u64::from(depth),
        }
    }

    fn priority(&self, thread: u32) -> u64 {
        if let Some(&(_, p)) = self.lowered.iter().rev().find(|&&(t, _)| t == thread) {
            return p;
        }
        seed_stream(self.seed ^ u64::from(thread).wrapping_add(1)) | (1 << 63)
    }

    fn pick(&mut self, candidates: &[usize], current: usize, decision: u64) -> usize {
        if self.change_points.contains(&decision) {
            self.next_low = self.next_low.saturating_sub(1);
            self.lowered.push((current as u32, self.next_low));
        }
        let mut best = 0;
        let mut best_p = self.priority(candidates[0] as u32);
        for (i, &c) in candidates.iter().enumerate().skip(1) {
            let p = self.priority(c as u32);
            // Strict `>`: priority ties go to the earlier candidate in
            // scan order, deterministically.
            if p > best_p {
                best = i;
                best_p = p;
            }
        }
        best
    }
}

#[derive(Clone, Debug)]
enum Mode {
    RoundRobin,
    SeededRandom {
        rng: u64,
    },
    Pct(PctState),
    /// Follow a recorded trace decision for decision; panic on divergence.
    Replay {
        trace: ScheduleTrace,
        at: usize,
    },
    /// Follow a forced choice-index prefix, then first-candidate
    /// (round-robin) beyond it. The bounded-DFS explorer's driver mode.
    Prefix {
        prefix: Vec<u32>,
        at: usize,
    },
}

/// Runtime scheduling state handed to an engine for one run: the policy
/// (or replay/prefix script) plus the recorded trace.
///
/// The default control is round-robin with recording off — the zero-cost
/// configuration a [`crate::Request`] without a control uses. Construct
/// with [`SchedControl::recording`], [`SchedControl::replay`] or
/// [`SchedControl::prefix`] for exploration, and pass to
/// [`Request::sched`](crate::Request::sched).
#[derive(Clone, Debug)]
pub struct SchedControl {
    mode: Mode,
    record: bool,
    trace: ScheduleTrace,
    decisions: u64,
    /// Candidate scratch, reused across decision points.
    scratch: Vec<usize>,
}

impl Default for SchedControl {
    fn default() -> Self {
        SchedControl {
            mode: Mode::RoundRobin,
            record: false,
            trace: ScheduleTrace::default(),
            decisions: 0,
            scratch: Vec::new(),
        }
    }
}

impl SchedControl {
    /// A control that runs `policy` and records every decision into a
    /// [`ScheduleTrace`] (retrieve it with
    /// [`take_trace`](Self::take_trace) after the run).
    #[must_use]
    pub fn recording(policy: SchedPolicy) -> Self {
        let mode = match policy {
            SchedPolicy::RoundRobin => Mode::RoundRobin,
            SchedPolicy::SeededRandom { seed } => Mode::SeededRandom {
                rng: seed_stream(seed),
            },
            SchedPolicy::PctPriority { seed, depth } => Mode::Pct(PctState::new(seed, depth)),
        };
        SchedControl {
            mode,
            record: true,
            ..SchedControl::default()
        }
    }

    /// A control that replays `trace` decision for decision, re-recording
    /// as it goes (so the replayed trace can be compared byte for byte
    /// against the original).
    ///
    /// A run may consume only a prefix of the trace — a fuel or
    /// cancellation trap mid-schedule simply leaves the tail unused. The
    /// control panics if the run *diverges*: it reaches a decision the
    /// trace does not cover, or the candidate count at a decision differs
    /// from the recorded one.
    #[must_use]
    pub fn replay(trace: ScheduleTrace) -> Self {
        SchedControl {
            mode: Mode::Replay { trace, at: 0 },
            record: true,
            ..SchedControl::default()
        }
    }

    /// A control that forces the first `prefix.len()` decisions to the
    /// given candidate indices and picks the first candidate (round-robin
    /// order) beyond them, recording everything. This is the driver mode
    /// for bounded exhaustive DFS over schedules: run with a prefix, read
    /// the recorded `(pos, count)` pairs, and backtrack on the deepest
    /// decision with an untried alternative.
    #[must_use]
    pub fn prefix(prefix: Vec<u32>) -> Self {
        SchedControl {
            mode: Mode::Prefix { prefix, at: 0 },
            record: true,
            ..SchedControl::default()
        }
    }

    /// The trace recorded so far (empty when recording is off).
    #[must_use]
    pub fn trace(&self) -> &ScheduleTrace {
        &self.trace
    }

    /// Takes the recorded trace out of the control, leaving an empty one.
    #[must_use]
    pub fn take_trace(&mut self) -> ScheduleTrace {
        std::mem::take(&mut self.trace)
    }

    /// Number of decision points encountered (multi-candidate reschedules;
    /// see the [module docs](self) for the tie-break rule).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Picks the next thread at a reschedule point, or `None` if no
    /// candidate is runnable. `runnable(idx)` reports thread `idx`'s
    /// state; candidates are scanned in round-robin order from
    /// `current + 1` and, when `require_other` is set, `current` itself is
    /// excluded.
    pub(crate) fn pick(
        &mut self,
        current: usize,
        require_other: bool,
        n: usize,
        runnable: &dyn Fn(usize) -> bool,
    ) -> Option<usize> {
        // Fast path: the default round-robin scan, allocation- and
        // recording-free — this is the historical scheduler, byte for
        // byte.
        if !self.record {
            for offset in 1..=n {
                let idx = (current + offset) % n;
                if require_other && idx == current {
                    continue;
                }
                if runnable(idx) {
                    return Some(idx);
                }
            }
            return None;
        }
        self.scratch.clear();
        for offset in 1..=n {
            let idx = (current + offset) % n;
            if require_other && idx == current {
                continue;
            }
            if runnable(idx) {
                self.scratch.push(idx);
            }
        }
        let count = self.scratch.len();
        if count == 0 {
            return None;
        }
        if count == 1 {
            // Not a decision point: a lone candidate (e.g. a `Yield` with
            // no other runnable thread) draws no randomness, changes no
            // priority and records no trace entry, so it is identical
            // under every policy.
            return Some(self.scratch[0]);
        }
        self.decisions += 1;
        let decision = self.decisions;
        let pos = match &mut self.mode {
            Mode::RoundRobin => 0,
            Mode::SeededRandom { rng } => uniform_below(rng, count as u64) as usize,
            Mode::Pct(pct) => pct.pick(&self.scratch, current, decision),
            Mode::Replay { trace, at } => {
                let i = *at;
                *at += 1;
                let c = trace.choices.get(i).unwrap_or_else(|| {
                    panic!(
                        "schedule replay diverged: trace has {} decisions, run reached decision {}",
                        trace.choices.len(),
                        i + 1
                    )
                });
                assert_eq!(
                    c.count as usize, count,
                    "schedule replay diverged at decision {}: recorded {} candidates, run has {count}",
                    i + 1,
                    c.count,
                );
                c.pos as usize
            }
            Mode::Prefix { prefix, at } => {
                let i = *at;
                *at += 1;
                if i < prefix.len() {
                    let p = prefix[i] as usize;
                    assert!(
                        p < count,
                        "schedule prefix invalid at decision {}: choice {p} of {count} candidates",
                        i + 1,
                    );
                    p
                } else {
                    0
                }
            }
        };
        let chosen = self.scratch[pos];
        self.trace.choices.push(SchedChoice {
            pos: pos as u32,
            count: count as u32,
            thread: chosen as u32,
        });
        Some(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_compact_string_round_trips() {
        let trace = ScheduleTrace {
            choices: vec![
                SchedChoice {
                    pos: 1,
                    count: 3,
                    thread: 2,
                },
                SchedChoice {
                    pos: 0,
                    count: 2,
                    thread: 0,
                },
            ],
        };
        let s = trace.to_compact_string();
        assert_eq!(s, "st1:1/3@2,0/2@0");
        assert_eq!(ScheduleTrace::parse(&s), Some(trace));
        assert_eq!(ScheduleTrace::parse("st1:"), Some(ScheduleTrace::default()));
        assert_eq!(ScheduleTrace::parse("st2:1/3@2"), None);
        assert_eq!(
            ScheduleTrace::parse("st1:3/3@2"),
            None,
            "pos must be < count"
        );
        assert_eq!(
            ScheduleTrace::parse("st1:0/1@0"),
            None,
            "decisions have ≥ 2 candidates"
        );
    }

    #[test]
    fn default_fast_path_matches_recording_round_robin() {
        // The recording round-robin path must pick exactly what the
        // historical scan picks, for every (current, runnable-set) shape.
        let n = 4;
        for mask in 0u32..16 {
            for current in 0..n {
                for require_other in [false, true] {
                    let runnable = |idx: usize| mask & (1 << idx) != 0;
                    let mut fast = SchedControl::default();
                    let mut rec = SchedControl::recording(SchedPolicy::RoundRobin);
                    assert_eq!(
                        fast.pick(current, require_other, n, &runnable),
                        rec.pick(current, require_other, n, &runnable),
                        "mask={mask:04b} current={current} require_other={require_other}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_candidate_points_record_nothing() {
        // Two threads, only one runnable: every policy takes the lone
        // candidate and records no decision.
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::SeededRandom { seed: 42 },
            SchedPolicy::PctPriority { seed: 42, depth: 3 },
        ] {
            let mut ctl = SchedControl::recording(policy);
            let got = ctl.pick(0, true, 2, &|idx| idx == 1);
            assert_eq!(got, Some(1), "{policy:?}");
            assert!(ctl.trace().is_empty(), "{policy:?} recorded a non-decision");
            assert_eq!(ctl.decisions(), 0);
        }
    }

    #[test]
    fn seeded_random_is_deterministic_and_seed_sensitive() {
        let run = |seed: u64| {
            let mut ctl = SchedControl::recording(SchedPolicy::SeededRandom { seed });
            let picks: Vec<_> = (0..32)
                .map(|i| ctl.pick(i % 3, false, 3, &|_| true).unwrap())
                .collect();
            (picks, ctl.take_trace())
        };
        let (p1, t1) = run(7);
        let (p2, t2) = run(7);
        assert_eq!(p1, p2);
        assert_eq!(t1, t2);
        let (p3, _) = run(8);
        assert_ne!(p1, p3, "distinct seeds should give distinct schedules");
    }

    #[test]
    fn replay_follows_trace_and_validates_counts() {
        let mut rec = SchedControl::recording(SchedPolicy::SeededRandom { seed: 99 });
        let picks: Vec<_> = (0..16)
            .map(|i| rec.pick(i % 4, false, 4, &|_| true).unwrap())
            .collect();
        let trace = rec.take_trace();
        let mut rep = SchedControl::replay(trace.clone());
        let replayed: Vec<_> = (0..16)
            .map(|i| rep.pick(i % 4, false, 4, &|_| true).unwrap())
            .collect();
        assert_eq!(picks, replayed);
        assert_eq!(
            rep.take_trace(),
            trace,
            "replay re-records byte-identically"
        );
    }

    #[test]
    fn replay_may_stop_early_but_not_diverge() {
        let mut rec = SchedControl::recording(SchedPolicy::SeededRandom { seed: 5 });
        for _ in 0..8 {
            rec.pick(0, false, 3, &|_| true);
        }
        let trace = rec.take_trace();
        // Consuming a prefix (a trapped run) is fine.
        let mut rep = SchedControl::replay(trace);
        for _ in 0..3 {
            rep.pick(0, false, 3, &|_| true);
        }
        assert_eq!(rep.trace().len(), 3);
    }

    #[test]
    #[should_panic(expected = "schedule replay diverged")]
    fn replay_panics_on_candidate_count_mismatch() {
        let mut rec = SchedControl::recording(SchedPolicy::SeededRandom { seed: 5 });
        rec.pick(0, false, 3, &|_| true);
        let mut rep = SchedControl::replay(rec.take_trace());
        rep.pick(0, false, 2, &|_| true);
    }

    #[test]
    fn prefix_mode_forces_choices_then_goes_round_robin() {
        let mut ctl = SchedControl::prefix(vec![2, 1]);
        assert_eq!(ctl.pick(0, false, 4, &|_| true), Some(3)); // candidates [1,2,3,0], pos 2
        assert_eq!(ctl.pick(3, false, 4, &|_| true), Some(1)); // candidates [0,1,2,3], pos 1
        assert_eq!(ctl.pick(1, false, 4, &|_| true), Some(2)); // beyond prefix: pos 0
        let trace = ctl.take_trace();
        assert_eq!(
            trace.choices.iter().map(|c| c.pos).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
        assert!(trace.choices.iter().all(|c| c.count == 4));
    }

    #[test]
    fn pct_lowers_current_thread_priority_at_change_points() {
        // With depth 0 there are no change points: PCT is a fixed random
        // priority order, so repeated decisions over the same candidates
        // pick the same thread.
        let mut ctl = SchedControl::recording(SchedPolicy::PctPriority { seed: 3, depth: 0 });
        let first = ctl.pick(0, false, 4, &|_| true).unwrap();
        for _ in 0..8 {
            assert_eq!(ctl.pick(0, false, 4, &|_| true), Some(first));
        }
        // With a large depth, the running thread keeps getting lowered, so
        // the schedule eventually moves off the top-priority thread.
        let mut ctl = SchedControl::recording(SchedPolicy::PctPriority { seed: 3, depth: 64 });
        let mut seen = std::collections::BTreeSet::new();
        let mut cur = 0;
        for _ in 0..64 {
            cur = ctl.pick(cur, false, 4, &|_| true).unwrap();
            seen.insert(cur);
        }
        assert!(seen.len() > 1, "change points never moved the schedule");
    }
}

//! Green threads and pluggable thread scheduling for the VM.
//!
//! Both engines keep their threads in one `ThreadTable`, which decides at
//! the end of every slice — a timeslice `Yield`, a blocking `Join`, thread
//! completion — whether to switch, stay, finish, or trap
//! [`Deadlock`](crate::TrapKind::Deadlock). A reschedule is one walk over
//! the table's runnable bitset in scan order, and a [`SchedControl`]
//! policy picks among the threads it yields. Three policies exist:
//!
//! * [`SchedPolicy::RoundRobin`] — the historical scheduler: scan from the
//!   current thread and take the first runnable one. The default, and
//!   byte-identical to the pre-seam engines (without recording it takes
//!   the walk's first thread, allocation-free).
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

use crate::error::TrapKind;
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

    /// Picks among `candidates`, the runnable threads in scan order
    /// (see [`ThreadTable::pick`]), or `None` if there are none.
    fn choose(
        &mut self,
        mut candidates: impl Iterator<Item = usize>,
        current: usize,
    ) -> Option<usize> {
        // Fast path: the default round-robin takes the first candidate,
        // allocation- and recording-free.
        if !self.record {
            return candidates.next();
        }
        self.scratch.clear();
        self.scratch.extend(candidates);
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

/// One green thread. It is runnable iff its bit in
/// [`ThreadTable::runnable`] is set, and blocked if it is neither
/// runnable nor done.
#[derive(Clone)]
struct Thread<S> {
    /// The stack the engine parks here (see [`ThreadTable`]).
    stack: S,
    done: bool,
    /// The threads blocked joining this one, woken when it finishes.
    joiners: Vec<u32>,
}

/// Both engines' green threads: each thread's state and parked stack,
/// the runnable set, and which thread runs.
///
/// Thread ids are spawn order, stable for
/// [`Value::Thread`](crate::Value::Thread) handles; a finished thread
/// keeps its slot. The reference engine parks every frame here, the
/// prepared engine only the stacks of threads that are not running.
///
/// The runnable set is a bitset with a summary bit per non-empty word, so
/// a pick walks set bits, not the whole table, and steps over empty words
/// 64 at a time. A thread's joiners are woken when it finishes: no thread
/// blocks on a finished one and every finish ends a slice, so each pick
/// finds every joiner of a finished thread awake (DESIGN.md decision 25).
#[derive(Clone)]
pub(crate) struct ThreadTable<S> {
    threads: Vec<Thread<S>>,
    /// Bit `t` is set iff thread `t` is runnable.
    runnable: Vec<u64>,
    /// Bit `w` is set iff `runnable[w]` is not zero.
    summary: Vec<u64>,
    current: usize,
    /// Reschedules that changed the running thread.
    switches: u64,
}

impl<S> ThreadTable<S> {
    /// A table holding the main thread, running, with stack `main`.
    pub(crate) fn new(main: S) -> Self {
        let mut table = ThreadTable {
            threads: Vec::new(),
            runnable: Vec::new(),
            summary: Vec::new(),
            current: 0,
            switches: 0,
        };
        table.spawn(main);
        table
    }

    /// The running thread.
    #[inline]
    pub(crate) fn current(&self) -> usize {
        self.current
    }

    /// Reschedules that changed the running thread.
    pub(crate) fn switches(&self) -> u64 {
        self.switches
    }

    /// Thread `t`'s parked stack.
    #[inline]
    pub(crate) fn stack(&self, t: usize) -> &S {
        &self.threads[t].stack
    }

    /// Thread `t`'s parked stack, mutably.
    #[inline]
    pub(crate) fn stack_mut(&mut self, t: usize) -> &mut S {
        &mut self.threads[t].stack
    }

    /// Every thread's parked stack, in thread-id order.
    pub(crate) fn stacks(&self) -> impl Iterator<Item = &S> {
        self.threads.iter().map(|t| &t.stack)
    }

    /// Whether thread `t` has finished.
    #[inline]
    pub(crate) fn is_done(&self, t: usize) -> bool {
        self.threads[t].done
    }

    /// Adds a runnable thread with stack `stack` and returns its id.
    pub(crate) fn spawn(&mut self, stack: S) -> usize {
        let t = self.threads.len();
        self.threads.push(Thread {
            stack,
            done: false,
            joiners: Vec::new(),
        });
        if t / 64 == self.runnable.len() {
            self.runnable.push(0);
            if self.runnable.len() > 64 * self.summary.len() {
                self.summary.push(0);
            }
        }
        self.set_runnable(t, true);
        t
    }

    /// Blocks the current thread until `target`, which has not finished,
    /// does. A thread that joins itself is never woken.
    pub(crate) fn block_on(&mut self, target: usize) {
        debug_assert!(!self.is_done(target), "blocking on a finished thread");
        let t = self.current;
        self.set_runnable(t, false);
        self.threads[target].joiners.push(t as u32);
    }

    /// Marks the current thread finished and wakes its joiners.
    pub(crate) fn finish(&mut self) {
        let t = self.current;
        self.threads[t].done = true;
        self.set_runnable(t, false);
        for j in std::mem::take(&mut self.threads[t].joiners) {
            self.set_runnable(j as usize, true);
        }
    }

    /// The reschedule that ends every slice: `sched` picks another
    /// runnable thread to run next if there is one, or else the current
    /// thread keeps running if it can. Returns whether the run goes on:
    /// `false` once every thread has finished, and a
    /// [`TrapKind::Deadlock`] if some thread never can.
    pub(crate) fn after_slice(&mut self, sched: &mut SchedControl) -> Result<bool, TrapKind> {
        if let Some(t) = self.pick(sched, true) {
            self.current = t;
            self.switches += 1;
            Ok(true)
        } else if self.runnable[self.current / 64] & (1 << (self.current % 64)) != 0 {
            Ok(true)
        } else if self.threads.iter().all(|t| t.done) {
            Ok(false)
        } else {
            Err(TrapKind::Deadlock)
        }
    }

    /// The thread `sched` picks from the runnable threads in scan order
    /// (`current + 1`, `current + 2`, … modulo the thread count, with
    /// `current` itself last, or left out when `require_other` is set), or
    /// `None` if there is none.
    fn pick(&self, sched: &mut SchedControl, require_other: bool) -> Option<usize> {
        let c = self.current;
        let end = if require_other { c } else { c + 1 };
        let candidates = self.runnable_in(c + 1, self.threads.len());
        sched.choose(candidates.chain(self.runnable_in(0, end)), c)
    }

    /// The runnable threads in `from..end`, ascending.
    fn runnable_in(&self, from: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let mut w = from / 64;
        let mut word = self
            .runnable
            .get(w)
            .map_or(0, |&bits| bits & (!0 << (from % 64)));
        std::iter::from_fn(move || loop {
            if word != 0 {
                let t = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                return (t < end).then_some(t);
            }
            w = self.nonempty_word_from(w + 1)?;
            if w * 64 >= end {
                return None;
            }
            word = self.runnable[w];
        })
    }

    /// The first runnable word at or after word `from`, found through
    /// the summary.
    fn nonempty_word_from(&self, from: usize) -> Option<usize> {
        let mut s = from / 64;
        let mut bits = self.summary.get(s)? & (!0 << (from % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }

    fn set_runnable(&mut self, t: usize, on: bool) {
        let (w, bit) = (t / 64, 1 << (t % 64));
        if on {
            self.runnable[w] |= bit;
        } else {
            self.runnable[w] &= !bit;
        }
        let summary = &mut self.summary[w / 64];
        if self.runnable[w] == 0 {
            *summary &= !(1 << (w % 64));
        } else {
            *summary |= 1 << (w % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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

    /// `n` threads with `current` running and the threads in `mask`
    /// runnable (the rest blocked).
    fn table(n: usize, mask: u64, current: usize) -> ThreadTable<()> {
        let mut table = ThreadTable::new(());
        for _ in 1..n {
            table.spawn(());
        }
        for t in 0..n {
            if mask & (1 << t) == 0 {
                table.set_runnable(t, false);
            }
        }
        table.current = current;
        table
    }

    /// All `n` threads runnable, `current` running.
    fn all(n: usize, current: usize) -> ThreadTable<()> {
        table(n, (1 << n) - 1, current)
    }

    #[test]
    fn pick_crosses_summary_words() {
        // 9,000 threads span three summary words; with three runnable, a
        // pick from each running thread finds the next one in scan order.
        let runnable = [5, 4_100, 8_999];
        let mut t = ThreadTable::new(());
        for _ in 1..9_000 {
            t.spawn(());
        }
        for i in 0..9_000 {
            t.set_runnable(i, runnable.contains(&i));
        }
        for (k, &current) in runnable.iter().enumerate() {
            t.current = current;
            let mut ctl = SchedControl::recording(SchedPolicy::RoundRobin);
            let next = runnable[(k + 1) % runnable.len()];
            assert_eq!(t.pick(&mut SchedControl::default(), true), Some(next));
            assert_eq!(t.pick(&mut ctl, false), Some(next));
            assert_eq!(ctl.trace().choices[0].count, 3);
        }
        t.current = 0;
        t.set_runnable(4_100, false);
        t.set_runnable(8_999, false);
        t.set_runnable(5, false);
        assert_eq!(t.pick(&mut SchedControl::default(), false), None);
    }

    #[test]
    fn default_fast_path_matches_recording_round_robin() {
        // The recording round-robin path must pick exactly what the
        // allocation-free first-candidate path picks, for every
        // (current, runnable-set) shape.
        let n = 4;
        for mask in 0u64..16 {
            for current in 0..n {
                for require_other in [false, true] {
                    let t = table(n, mask, current);
                    let mut fast = SchedControl::default();
                    let mut rec = SchedControl::recording(SchedPolicy::RoundRobin);
                    assert_eq!(
                        t.pick(&mut fast, require_other),
                        t.pick(&mut rec, require_other),
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
            let got = table(2, 0b10, 0).pick(&mut ctl, true);
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
                .map(|i| all(3, i % 3).pick(&mut ctl, false).unwrap())
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
            .map(|i| all(4, i % 4).pick(&mut rec, false).unwrap())
            .collect();
        let trace = rec.take_trace();
        let mut rep = SchedControl::replay(trace.clone());
        let replayed: Vec<_> = (0..16)
            .map(|i| all(4, i % 4).pick(&mut rep, false).unwrap())
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
            all(3, 0).pick(&mut rec, false);
        }
        let trace = rec.take_trace();
        // Consuming a prefix (a trapped run) is fine.
        let mut rep = SchedControl::replay(trace);
        for _ in 0..3 {
            all(3, 0).pick(&mut rep, false);
        }
        assert_eq!(rep.trace().len(), 3);
    }

    #[test]
    #[should_panic(expected = "schedule replay diverged")]
    fn replay_panics_on_candidate_count_mismatch() {
        let mut rec = SchedControl::recording(SchedPolicy::SeededRandom { seed: 5 });
        all(3, 0).pick(&mut rec, false);
        let mut rep = SchedControl::replay(rec.take_trace());
        all(2, 0).pick(&mut rep, false);
    }

    #[test]
    fn prefix_mode_forces_choices_then_goes_round_robin() {
        let mut ctl = SchedControl::prefix(vec![2, 1]);
        assert_eq!(all(4, 0).pick(&mut ctl, false), Some(3)); // candidates [1,2,3,0], pos 2
        assert_eq!(all(4, 3).pick(&mut ctl, false), Some(1)); // candidates [0,1,2,3], pos 1
        assert_eq!(all(4, 1).pick(&mut ctl, false), Some(2)); // beyond prefix: pos 0
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
        let first = all(4, 0).pick(&mut ctl, false).unwrap();
        for _ in 0..8 {
            assert_eq!(all(4, 0).pick(&mut ctl, false), Some(first));
        }
        // With a large depth, the running thread keeps getting lowered, so
        // the schedule eventually moves off the top-priority thread.
        let mut ctl = SchedControl::recording(SchedPolicy::PctPriority { seed: 3, depth: 64 });
        let mut seen = std::collections::BTreeSet::new();
        let mut cur = 0;
        for _ in 0..64 {
            cur = all(4, cur).pick(&mut ctl, false).unwrap();
            seen.insert(cur);
        }
        assert!(seen.len() > 1, "change points never moved the schedule");
    }

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum ModelState {
        Runnable,
        /// Joining the given thread.
        Blocked(usize),
        Done,
    }

    /// The scheduler the thread table replaced, kept as its reference:
    /// each blocked thread records its join target, every pick first
    /// sweeps the whole table to wake the joiners of finished threads,
    /// then scans it linearly from `current + 1`.
    #[derive(Default)]
    struct Model {
        states: Vec<ModelState>,
        current: usize,
        switches: u64,
    }

    impl Model {
        fn pick(&mut self, sched: &mut SchedControl, require_other: bool) -> Option<usize> {
            let n = self.states.len();
            for i in 0..n {
                if let ModelState::Blocked(target) = self.states[i] {
                    if self.states[target] == ModelState::Done {
                        self.states[i] = ModelState::Runnable;
                    }
                }
            }
            let candidates: Vec<usize> = (1..=n)
                .map(|offset| (self.current + offset) % n)
                .filter(|&i| !(require_other && i == self.current))
                .filter(|&i| self.states[i] == ModelState::Runnable)
                .collect();
            sched.choose(candidates.into_iter(), self.current)
        }

        fn after_slice(&mut self, sched: &mut SchedControl) -> Result<bool, TrapKind> {
            if let Some(t) = self.pick(sched, true) {
                self.current = t;
                self.switches += 1;
                return Ok(true);
            }
            match self.states[self.current] {
                ModelState::Runnable => Ok(true),
                _ if self.states.iter().all(|s| *s == ModelState::Done) => Ok(false),
                _ => Err(TrapKind::Deadlock),
            }
        }
    }

    /// One step of a generated thread-table workload.
    #[derive(Copy, Clone, Debug)]
    enum Op {
        Spawn,
        /// The running thread joins thread `arg % threads`.
        BlockOn(usize),
        Finish,
        Pick {
            require_other: bool,
        },
        AfterSlice,
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        (0u8..10, any::<u16>(), any::<bool>()).prop_map(|(kind, arg, flag)| match kind {
            0..=2 => Op::Spawn,
            3 | 4 => Op::BlockOn(usize::from(arg)),
            5 => Op::Finish,
            6 | 7 => Op::Pick {
                require_other: flag,
            },
            _ => Op::AfterSlice,
        })
    }

    /// Runs `ops` on a table under `tctl` and on the model under `mctl`,
    /// after `spawned` initial spawns, asserting that every pick and
    /// every after-slice decision agree. A run ends as an engine's does:
    /// once every thread has finished, or on a deadlock. While the running thread is blocked or
    /// finished only a reschedule can happen, so every other op becomes
    /// one.
    fn run_both(
        ops: &[Op],
        spawned: usize,
        tctl: &mut SchedControl,
        mctl: &mut SchedControl,
    ) -> Result<(), TestCaseError> {
        let mut table = ThreadTable::new(());
        let mut model = Model {
            states: vec![ModelState::Runnable],
            ..Model::default()
        };
        let spawns = std::iter::repeat_n(Op::Spawn, spawned);
        for (step, op) in spawns.chain(ops.iter().copied()).enumerate() {
            let running = model.states[model.current] == ModelState::Runnable;
            match op {
                Op::Spawn if running => {
                    table.spawn(());
                    model.states.push(ModelState::Runnable);
                }
                Op::BlockOn(arg) if running => {
                    let target = arg % model.states.len();
                    if model.states[target] != ModelState::Done {
                        table.block_on(target);
                        model.states[model.current] = ModelState::Blocked(target);
                    }
                }
                Op::Finish if running => {
                    table.finish();
                    model.states[model.current] = ModelState::Done;
                }
                Op::Pick { require_other } => {
                    let (t, m) = (
                        table.pick(tctl, require_other),
                        model.pick(mctl, require_other),
                    );
                    prop_assert_eq!(t, m, "pick at step {}", step);
                    if let Some(t) = t {
                        table.current = t;
                        model.current = t;
                    }
                }
                _ => {
                    let (t, m) = (table.after_slice(tctl), model.after_slice(mctl));
                    prop_assert_eq!(&t, &m, "after-slice decision at step {}", step);
                    if t != Ok(true) {
                        break;
                    }
                }
            }
            prop_assert_eq!(table.current, model.current);
        }
        prop_assert_eq!(table.switches(), model.switches);
        prop_assert_eq!(tctl.trace(), mctl.trace());
        prop_assert_eq!(tctl.decisions(), mctl.decisions());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The thread table picks exactly what the linear wake-then-scan
        /// scheduler picked, and records the same trace, under every
        /// control mode, across bitset word boundaries.
        #[test]
        fn table_matches_linear_scan_model(
            ops in prop::collection::vec(op_strategy(), 0..200),
            spawned in 0usize..140,
            seed in any::<u64>(),
            depth in 0u32..6,
        ) {
            let policies = [
                SchedPolicy::RoundRobin,
                SchedPolicy::SeededRandom { seed },
                SchedPolicy::PctPriority { seed, depth },
            ];
            run_both(&ops, spawned, &mut SchedControl::default(), &mut SchedControl::default())?;
            let mut traces = Vec::new();
            for policy in policies {
                let (mut t, mut m) = (SchedControl::recording(policy), SchedControl::recording(policy));
                run_both(&ops, spawned, &mut t, &mut m)?;
                traces.push(t.take_trace());
            }
            // Replay and prefix runs follow the recorded decisions; a
            // prefix is half a trace's choice indices, then round-robin.
            for trace in traces {
                let prefix: Vec<u32> = trace.choices[..trace.len() / 2].iter().map(|c| c.pos).collect();
                let (mut t, mut m) = (SchedControl::replay(trace.clone()), SchedControl::replay(trace));
                run_both(&ops, spawned, &mut t, &mut m)?;
                let (mut t, mut m) = (SchedControl::prefix(prefix.clone()), SchedControl::prefix(prefix));
                run_both(&ops, spawned, &mut t, &mut m)?;
            }
        }
    }
}

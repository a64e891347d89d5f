//! The execution engine: green threads, yieldpoints, sampling checks, cost
//! accounting and profiling, dispatching over pre-decoded ops.
//!
//! The hot loop here runs the dense form built by [`PreparedModule`]: one
//! flat op arena per function, absolute branch targets, pre-folded cycle
//! costs and pre-classified backedges. `run_slice()` dispatches the
//! current thread's ops in one loop for a whole timeslice: each op is a
//! fetch of `ops[ip]`, one charge against a single cycle horizon, and a
//! straight `match` on the decoded [`OpKind`] — no block lookup, no cost
//! re-derivation, no backedge-set probe, and no return to the scheduler
//! until the thread switches, finishes, blocks or traps. The running
//! thread's innermost frame is a field of the machine, so neither the
//! fetch nor an arm looks it up in the thread table; its stack moves
//! back there only when another thread is scheduled and once after the
//! run. The semantic reference for this engine is the tree-walking
//! interpreter in [`crate::naive`], which stays per-op; the two are
//! differentially tested to produce identical [`Outcome`]s.
//!
//! Callers reach this engine through [`Code::execute`](crate::Code::execute)
//! on code that [`Engine::load`](crate::Engine::load) prepared, or on a
//! borrowed `Code::from(&prepared)`: one preparation then serves many runs
//! of the same (module, cost) cell. An interval sweep shares more: one
//! base pass forks the runs of the sweep off itself ([`execute_sweep`]).

use isf_ir::{BinOp, CallSiteId, ClassId, FieldSym, FuncId, LocalId, UnOp};
use isf_profile::ProfileData;

use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::engine::Swept;
use crate::error::{TrapKind, VmError};
use crate::heap::Heap;
use crate::outcome::Outcome;
use crate::prepared::{Op, OpKind, PreparedModule};
use crate::profile::ProfileSink;
use crate::sched::{SchedControl, ThreadTable};
use crate::trace::{BurstRecord, TraceSink};
use crate::trigger::{Trigger, TriggerState};
use crate::value::Value;

/// Resource budgets a run must stay within. The paper's framework is
/// meant to run in production, where instrumentation must degrade
/// gracefully rather than take the host down; these limits are the
/// engine-level half of that contract — a run that exceeds one traps
/// deterministically ([`TrapKind::FuelExhausted`],
/// [`TrapKind::HeapExhausted`], [`TrapKind::StackOverflow`]) at the same
/// point in both execution engines, and the harness recovers instead of
/// crashing.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExecLimits {
    /// Abort with [`TrapKind::FuelExhausted`] past this many simulated
    /// cycles (`None` = unlimited).
    pub max_cycles: Option<u64>,
    /// Abort with [`TrapKind::HeapExhausted`] once more than this many
    /// heap words are allocated (`None` = unlimited). One allocation costs
    /// a header word plus a word per field or element.
    pub max_heap_words: Option<u64>,
    /// Maximum call-stack depth per thread
    /// ([`TrapKind::StackOverflow`] beyond it).
    pub max_stack: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        Self {
            max_cycles: None,
            max_heap_words: None,
            max_stack: 4096,
        }
    }
}

impl ExecLimits {
    /// Unlimited cycles and heap with the default stack depth.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A cycle budget with the other limits at their defaults.
    pub fn cycles(max_cycles: u64) -> Self {
        Self {
            max_cycles: Some(max_cycles),
            ..Self::default()
        }
    }
}

/// Interpreter configuration.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct VmConfig {
    /// Per-instruction cycle costs.
    pub cost: CostModel,
    /// The sampling trigger evaluated by `check` terminators.
    pub trigger: Trigger,
    /// Simulated cycles between threadswitch-bit sets (Jalapeño's 10 ms
    /// timer analogue).
    pub timeslice: u64,
    /// Resource budgets (cycles, heap words, stack depth).
    pub limits: ExecLimits,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            trigger: Trigger::Never,
            timeslice: 100_000,
            limits: ExecLimits::default(),
        }
    }
}

/// The prepared engine's half of [`Code::execute`](crate::Code::execute):
/// runs `prepared` to completion under `config`, recording into `sink` and
/// `profile` and scheduling through `sched`.
pub(crate) fn execute<S: TraceSink, P: ProfileSink>(
    prepared: &PreparedModule,
    config: &VmConfig,
    sink: &mut S,
    profile: &mut P,
    sched: &mut SchedControl,
    cancel: Option<&CancelToken>,
) -> Result<Outcome, VmError> {
    assert_eq!(
        &config.cost,
        prepared.cost(),
        "execute: config cost model differs from the preparation cost model"
    );
    let mut machine = Machine::new(prepared, config, sink, profile, sched, cancel);
    let result = machine.run_to_completion();
    machine.finish(result)
}

/// The prepared engine's half of
/// [`Code::execute_sweep`](crate::Code::execute_sweep): one base pass
/// under the sweep's latest-firing trigger — `Never` when the sweep has
/// it, else the largest interval — which forks a copy of itself at check
/// `k`, the first firing check of each smaller interval `k`
/// ([`Machine::fork`]). Every run that did not fork is the base pass:
/// the base trigger, a repeat of it, or an interval whose check `k` the
/// base never reached, trap included.
pub(crate) fn execute_sweep<S, P>(
    prepared: &PreparedModule,
    config: &VmConfig,
    triggers: &[Trigger],
    sched: &SchedControl,
    cancel: Option<&CancelToken>,
) -> Vec<Swept<S, P>>
where
    S: TraceSink + Clone + Default,
    P: ProfileSink + Clone + Default,
{
    assert_eq!(
        &config.cost,
        prepared.cost(),
        "execute_sweep: config cost model differs from the preparation cost model"
    );
    let intervals: Vec<Option<u64>> = triggers
        .iter()
        .map(|trigger| match *trigger {
            Trigger::Never => None,
            Trigger::Counter { interval } => Some(interval.max(1)),
            other => unreachable!("`Code::execute_sweep` admitted {other:?}"),
        })
        .collect();
    // `None` orders below every interval.
    let base_interval = if intervals.contains(&None) {
        None
    } else {
        intervals.iter().copied().max().flatten()
    };
    let mut forks: Vec<Fork<S, P>> = intervals
        .iter()
        .enumerate()
        .filter_map(|(index, &k)| {
            Some(Fork {
                at: k.filter(|_| k != base_interval)?,
                index,
                trace: S::default(),
                profile: P::default(),
            })
        })
        .collect();
    forks.sort_by_key(|f| std::cmp::Reverse(f.at));

    let base_config = VmConfig {
        trigger: base_interval.map_or(Trigger::Never, |interval| Trigger::Counter { interval }),
        ..*config
    };
    let (mut trace, mut profile, mut base_sched) = (S::default(), P::default(), sched.clone());
    let mut machine = Machine::new(
        prepared,
        &base_config,
        &mut trace,
        &mut profile,
        &mut base_sched,
        cancel,
    );
    machine.next_fork = forks.last().map_or(u64::MAX, |f| f.at);
    machine.forks = forks;
    let result = machine.run_to_completion();
    let forked = std::mem::take(&mut machine.forked);
    let instructions = machine.instructions;
    let result = machine.finish(result);
    let base = Swept {
        result,
        trace,
        profile,
        sched: base_sched,
        shared_instructions: 0,
    };

    let mut runs: Vec<Option<Swept<S, P>>> = vec![None; triggers.len()];
    for (index, run) in forked {
        runs[index] = Some(run);
    }
    let copy = Swept {
        shared_instructions: instructions,
        ..base.clone()
    };
    let mut base = Some(base);
    runs.into_iter()
        .map(|run| run.or_else(|| base.take()).unwrap_or_else(|| copy.clone()))
        .collect()
}

/// A run of a counter sweep ([`execute_sweep`]) that has not forked yet:
/// it forks off the base pass at check `at`, its first firing check, and
/// records into sinks of its own.
struct Fork<S, P> {
    at: u64,
    /// The run's position in the sweep's trigger list.
    index: usize,
    trace: S,
    profile: P,
}

/// One activation. The running thread's innermost frame is
/// [`Machine::top`] and its callers are [`Machine::below`]; every other
/// thread keeps its whole stack, outermost frame first, in the thread
/// table ([`Machine::threads`]).
#[derive(Clone)]
struct Frame<'p> {
    func: FuncId,
    /// The function's decoded op arena, cached at call time so the fetch
    /// in `run_slice()` is a single slice index.
    ops: &'p [Op],
    /// The function's offset into the module-wide slot space
    /// ([`PreparedFunction::slot_base`]), cached at call time so the
    /// profiled engine's counter bump is `slot_counts[base + ip]` with no
    /// per-dispatch function lookup.
    base: u32,
    /// Absolute index into the function's op arena.
    ip: usize,
    locals: Vec<Value>,
    ret_dst: Option<LocalId>,
    caller: Option<(FuncId, CallSiteId)>,
    /// Ball–Larus path register. `None` means "no path in progress": set
    /// by `PathStart`, consumed by `PathEnd`. The option makes sampled
    /// runs sound — a burst that enters duplicated code mid-path simply
    /// records nothing until the next path start.
    path_reg: Option<i64>,
}

impl Frame<'_> {
    /// `locals[dst] = lhs op rhs`, evaluated straight into the local
    /// (DESIGN.md decision 21); a trap leaves the local untouched. Every
    /// arm that runs a binary operator comes through here.
    ///
    /// The operands are read in place, tag byte and payload apart: a
    /// whole-`Value` copy is one wide load spanning the two narrow stores
    /// the previous op made to its destination, which the CPU cannot
    /// forward from them (DESIGN.md decision 26).
    #[inline(always)]
    fn bin(&mut self, op: BinOp, dst: LocalId, lhs: LocalId, rhs: LocalId) -> Result<(), TrapKind> {
        match (&self.locals[lhs.index()], &self.locals[rhs.index()]) {
            (&Value::I64(x), &Value::I64(y)) => {
                Value::binary_i64_into(op, x, y, &mut self.locals[dst.index()])
            }
            (&a, &b) => {
                self.locals[dst.index()] = Value::binary_mixed(op, a, b)?;
                Ok(())
            }
        }
    }

    /// `locals[dst] = op src`, evaluated in place like [`Frame::bin`].
    /// Its operand is still copied whole: unary ops are 0.2% of
    /// dispatches, and reading it in place would repeat the operator
    /// table of [`Value::unary_into`].
    #[inline]
    fn un(&mut self, op: UnOp, dst: LocalId, src: LocalId) -> Result<(), TrapKind> {
        let v = self.locals[src.index()];
        Value::unary_into(op, v, &mut self.locals[dst.index()])
    }

    /// Whether the local a fused compare wrote holds `true`. A successful
    /// comparison always yields a bool, so this is the `as_bool` of the
    /// unfused branch, trap-free.
    #[inline]
    fn is_true(&self, l: LocalId) -> bool {
        self.locals[l.index()] == Value::Bool(true)
    }
}

struct Machine<'p, 's, S: TraceSink, P: ProfileSink> {
    prepared: &'p PreparedModule,
    sink: &'s mut S,
    /// Per-opcode dispatch-profile sink; every recording site is guarded
    /// by `if P::ENABLED`, so [`NoMetrics`](crate::NoMetrics) compiles
    /// them away.
    psink: &'s mut P,
    /// Flow-entry deltas per module-wide arena slot, the profiled
    /// engine's entire hot-path cost: one `+1` per control transfer
    /// (branch, jump, call, check edge — 10–30% of dispatches), nothing
    /// at all on straight-line flow. Within a block, flow that enters at
    /// slot `e` executes every slot from `e` to the block's final op, so
    /// [`Machine::fold_profile`] reconstructs exact per-slot dispatch
    /// counts by prefix-summing the deltas block by block — after
    /// applying a `-1` cut where each still-live frame's flow stopped.
    /// Everything else an [`OpProfile`](crate::OpProfile) reports —
    /// opcode, width, cycles — is static per slot and folded in at the
    /// same time. Empty unless the profile sink is enabled.
    entry_deltas: Vec<i64>,
    /// Count of *firing* checks per slot — the one dispatch whose cycle
    /// charge is data-dependent (the sample-switch surcharge applies only
    /// when the check fires). Rarely touched: checks fire once per sample.
    /// Empty unless the profile sink is enabled.
    fire_counts: Vec<u64>,
    /// Clock snapshots at the previous sample, for burst lengths. Only
    /// maintained when the sink is enabled.
    last_sample_cycles: u64,
    last_sample_instructions: u64,
    sample_switch: u64,
    trigger: TriggerState,
    timeslice: u64,
    max_cycles: Option<u64>,
    max_stack: usize,
    /// The request's cooperative-cancellation token
    /// ([`Request::cancel`](crate::Request::cancel)), polled at block
    /// entries.
    /// `None` on clean runs, where the poll is a never-taken branch.
    cancel: Option<&'s CancelToken>,
    heap: Heap,
    /// The running thread's innermost frame, held here rather than in
    /// the thread table so a dispatch reaches it with no lookup. Stale
    /// (the returned frame) once the running thread has finished.
    top: Frame<'p>,
    /// The running thread's suspended callers, outermost first.
    below: Vec<Frame<'p>>,
    /// The locals vectors of returned frames, which `push_frame` reuses
    /// so that a call neither allocates nor frees.
    free_locals: Vec<Vec<Value>>,
    /// Every thread's state, and the stacks of the threads that are not
    /// running: a running thread's entry is empty (its frames are in
    /// `top` and `below`), and so is a finished one's.
    threads: ThreadTable<Vec<Frame<'p>>>,
    // Clock and scheduler bit.
    cycles: u64,
    next_switch: u64,
    switch_bit: bool,
    /// The lowest clock value at which any clock-driven event happens:
    /// `min(next_switch, max_cycles + 1, timer next fire)`, saturating.
    /// Below it a charge only advances the clock; see
    /// [`Machine::charge_cycles`].
    horizon: u64,
    // Counters.
    instructions: u64,
    checks_executed: u64,
    samples_taken: u64,
    yields_executed: u64,
    entries_executed: u64,
    backedges_executed: u64,
    output: Vec<i64>,
    profile: ProfileData,
    /// Field-access counters (paper §4.2: "a counter per field of all
    /// classes"), `[reads, writes]` at `class * num_field_syms + field`,
    /// folded into `profile` when the run succeeds. Sized like the
    /// prepared module's field-offset table and indexed without a range
    /// check, like it: `verify_module` keeps every field symbol in range.
    field_counts: Vec<[u64; 2]>,
    num_field_syms: usize,
    /// Scheduling seam: picks the next thread at every reschedule point.
    /// The default control is the historical round-robin scan with
    /// recording off, which costs nothing over the old hard-coded loop.
    sched: &'s mut SchedControl,
    /// The check count at which the next pending sweep run forks
    /// (`u64::MAX` outside a sweep): the `Check` arm's one sweep test.
    next_fork: u64,
    /// A sweep's runs still to fork, the next one last.
    forks: Vec<Fork<S, P>>,
    /// A sweep's forked runs, finished, with their trigger-list positions.
    forked: Vec<(usize, Swept<S, P>)>,
}

impl<'p, 's, S: TraceSink, P: ProfileSink> Machine<'p, 's, S, P> {
    fn new(
        prepared: &'p PreparedModule,
        config: &VmConfig,
        sink: &'s mut S,
        psink: &'s mut P,
        sched: &'s mut SchedControl,
        cancel: Option<&'s CancelToken>,
    ) -> Self {
        let main = prepared.module().main();
        let main_frame = Frame {
            func: main,
            ops: &prepared.func(main).ops,
            base: prepared.func(main).slot_base,
            ip: 0,
            locals: vec![Value::Unit; prepared.func(main).num_locals],
            ret_dst: None,
            caller: None,
            path_reg: None,
        };
        let num_field_syms = prepared.module().num_field_syms();
        let mut machine = Machine {
            prepared,
            sink,
            psink,
            entry_deltas: if P::ENABLED {
                let mut d = vec![0; prepared.total_slots()];
                // Main's frame enters at its arena's slot 0.
                if let Some(e) = d.get_mut(prepared.func(main).slot_base as usize) {
                    *e += 1;
                }
                d
            } else {
                Vec::new()
            },
            fire_counts: if P::ENABLED {
                vec![0; prepared.total_slots()]
            } else {
                Vec::new()
            },
            last_sample_cycles: 0,
            last_sample_instructions: 0,
            sample_switch: prepared.cost().sample_switch,
            trigger: TriggerState::new(config.trigger),
            timeslice: config.timeslice.max(1),
            max_cycles: config.limits.max_cycles,
            max_stack: config.limits.max_stack,
            cancel,
            heap: Heap::with_limit(config.limits.max_heap_words),
            top: main_frame,
            below: Vec::new(),
            free_locals: Vec::new(),
            threads: ThreadTable::new(Vec::new()),
            cycles: 0,
            next_switch: config.timeslice.max(1),
            switch_bit: false,
            horizon: 0,
            instructions: 0,
            checks_executed: 0,
            samples_taken: 0,
            yields_executed: 0,
            entries_executed: 1, // main's method entry
            backedges_executed: 0,
            output: Vec::new(),
            profile: ProfileData::new(),
            field_counts: vec![[0; 2]; prepared.module().num_classes() * num_field_syms],
            num_field_syms,
            sched,
            next_fork: u64::MAX,
            forks: Vec::new(),
            forked: Vec::new(),
        };
        machine.reset_horizon();
        machine
    }

    /// A copy of this machine's run state that records into `sink`,
    /// `psink` and `sched`: heap, thread table and frames, clock, trigger
    /// and counters, flow-entry deltas, fire counts, field counts, profile
    /// data and output. It has no sweep runs of its own, and starts with
    /// no recycled locals, which only save allocations.
    fn copy<'f>(
        &self,
        sink: &'f mut S,
        psink: &'f mut P,
        sched: &'f mut SchedControl,
    ) -> Machine<'p, 'f, S, P>
    where
        's: 'f,
    {
        Machine {
            prepared: self.prepared,
            sink,
            psink,
            entry_deltas: self.entry_deltas.clone(),
            fire_counts: self.fire_counts.clone(),
            last_sample_cycles: self.last_sample_cycles,
            last_sample_instructions: self.last_sample_instructions,
            sample_switch: self.sample_switch,
            trigger: self.trigger.clone(),
            timeslice: self.timeslice,
            max_cycles: self.max_cycles,
            max_stack: self.max_stack,
            cancel: self.cancel,
            heap: self.heap.clone(),
            top: self.top.clone(),
            below: self.below.clone(),
            free_locals: Vec::new(),
            threads: self.threads.clone(),
            cycles: self.cycles,
            next_switch: self.next_switch,
            switch_bit: self.switch_bit,
            horizon: self.horizon,
            instructions: self.instructions,
            checks_executed: self.checks_executed,
            samples_taken: self.samples_taken,
            yields_executed: self.yields_executed,
            entries_executed: self.entries_executed,
            backedges_executed: self.backedges_executed,
            output: self.output.clone(),
            profile: self.profile.clone(),
            field_counts: self.field_counts.clone(),
            num_field_syms: self.num_field_syms,
            sched,
            next_fork: u64::MAX,
            forks: Vec::new(),
            forked: Vec::new(),
        }
    }

    /// Ends a run: parks the running thread's stack, folds the profile
    /// when one is recorded, and turns the machine into the run's result.
    fn finish(mut self, result: Result<(), TrapKind>) -> Result<Outcome, VmError> {
        // Both readers below walk the thread table, stacks and trap frame
        // included, so the running thread's stack goes back there first.
        self.park(self.threads.current());
        if P::ENABLED {
            self.fold_profile(result.as_ref().err());
        }
        match result {
            Ok(()) => Ok(self.into_outcome()),
            Err(kind) => Err(VmError {
                function: self.current_function_name(),
                kind,
            }),
        }
    }

    fn into_outcome(mut self) -> Outcome {
        // The table is empty when there are no field symbols, so the
        // divisions below never see a zero stride.
        for (i, &[reads, writes]) in self.field_counts.iter().enumerate() {
            self.profile.add_field_counts(
                ClassId::new((i / self.num_field_syms) as u32),
                FieldSym::new((i % self.num_field_syms) as u32),
                reads + writes,
                writes,
            );
        }
        Outcome {
            output: self.output,
            cycles: self.cycles,
            instructions: self.instructions,
            profile: self.profile,
            checks_executed: self.checks_executed,
            samples_taken: self.samples_taken,
            yields_executed: self.yields_executed,
            entries_executed: self.entries_executed,
            backedges_executed: self.backedges_executed,
            thread_switches: self.threads.switches(),
        }
    }

    fn current_function_name(&self) -> String {
        self.threads
            .stack(self.threads.current())
            .last()
            .map(|f| self.prepared.module().function(f.func).name().to_owned())
            .unwrap_or_else(|| "<no frame>".to_owned())
    }

    /// Runs slices until every thread has finished. On a switch the old
    /// thread's stack is parked into its table entry ([`Machine::park`])
    /// and the new one's moved into `top`/`below`; frames move only then.
    fn run_to_completion(&mut self) -> Result<(), TrapKind> {
        loop {
            self.run_slice()?;
            let from = self.threads.current();
            if !self.threads.after_slice(self.sched)? {
                return Ok(());
            }
            let running = self.threads.current();
            if running != from {
                self.park(from);
                let mut frames = std::mem::take(self.threads.stack_mut(running));
                self.top = frames.pop().expect("a runnable thread has a frame");
                self.below = frames;
            }
        }
    }

    /// Folds the flow-entry deltas into the profile sink, called once
    /// after the run (only when `P::ENABLED`; the deltas are empty
    /// otherwise). This is what makes profiling cheap: the hot loop only
    /// counts control transfers, and everything per-dispatch is
    /// reconstructed here.
    ///
    /// Within a block, flow entering at slot `e` executes every op from
    /// `e` through the block's final op, so a prefix sum of the entry
    /// deltas — reset at each block boundary — yields each slot's exact
    /// dispatch count, once the places where flow *stopped short* are
    /// cut:
    ///
    /// * **Live frames.** Every frame still on a stack at the end of the
    ///   run stopped mid-block: at `ip` (the next op, not yet dispatched)
    ///   for every suspended frame, or past the attempted op for the
    ///   frame a trap unwound from. A `-1` at the stop slot cancels the
    ///   entry's contribution to the ops flow never reached.
    /// * **Blocking joins.** A join that blocks is re-dispatched on wake;
    ///   the blocking (rare) path pre-counts that extra dispatch of the
    ///   join slot alone, and the live-frame cut cancels it if the wake
    ///   never comes.
    ///
    /// Each slot's static metadata — opcode, width, and exact
    /// per-dispatch charge (`Op::cost` plus the mid-arm charges of
    /// [`OpKind::extra_cycles`]) — then turns counts into per-opcode
    /// totals. Two dynamic corrections close the gap to exactness: the
    /// per-slot firing counts (the sample-switch surcharge applies only
    /// when a check fires), and the trapping dispatch's charge shortfall
    /// (the statically attributed total minus the clock), subtracted from
    /// the slot the trap frame points at.
    ///
    /// The differential tests pin the result: per-opcode totals sum to
    /// the outcome's `cycles`/`instructions` exactly, traps included, and
    /// an unfused prepared profile equals the tree-walking engine's
    /// per-dispatch-recorded one.
    fn fold_profile(&mut self, trap: Option<&TrapKind>) {
        // A deadlock is declared between dispatches; every other trap
        // unwinds from a partially-executed op the current frame still
        // points at (a failed frame push leaves `ip` on the call).
        let mid_op = matches!(trap, Some(k) if !matches!(k, TrapKind::Deadlock));
        let current = self.threads.current();
        for (ti, frames) in self.threads.stacks().enumerate() {
            for (fi, fr) in frames.iter().enumerate() {
                let attempted = mid_op && ti == current && fi + 1 == frames.len();
                let cut = if attempted {
                    // The trapping op was dispatched; flow stopped just
                    // past it. If that is the block's end (or the arena's),
                    // the entry's contribution was fully realized — no cut.
                    let c = fr.ip + fr.ops[fr.ip].width as usize;
                    let starts = &self.prepared.func(fr.func).block_starts;
                    if c >= fr.ops.len() || starts.binary_search(&(c as u32)).is_ok() {
                        continue;
                    }
                    c
                } else {
                    fr.ip
                };
                if let Some(d) = self.entry_deltas.get_mut(fr.base as usize + cut) {
                    *d -= 1;
                }
            }
        }
        // Reconstruct per-slot dispatch counts: prefix-sum the deltas,
        // resetting at block boundaries.
        let mut counts = vec![0u64; self.entry_deltas.len()];
        for f in self.prepared.funcs() {
            let mut next_block = 1;
            let mut flow: i64 = 0;
            for i in 0..f.ops.len() {
                if f.block_starts.get(next_block) == Some(&(i as u32)) {
                    flow = 0;
                    next_block += 1;
                }
                let slot = f.slot_base as usize + i;
                flow += self.entry_deltas[slot];
                debug_assert!(flow >= 0, "negative reconstructed dispatch count");
                counts[slot] = flow.max(0) as u64;
            }
        }
        let trap_frame = if mid_op {
            self.threads
                .stack(current)
                .last()
                .map(|f| (f.base as usize + f.ip, &f.ops[f.ip]))
        } else {
            None
        };
        let trap_slot = trap_frame.map(|(slot, _)| slot);
        let mut attributed: u64 = 0;
        for f in self.prepared.funcs() {
            for (i, op) in f.ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Gap) {
                    // Interior slots of a fused group carry the leader's
                    // flow count but are never dispatched.
                    continue;
                }
                let slot = f.slot_base as usize + i;
                let n = counts[slot];
                if n > 0 {
                    attributed += n * (op.cost + op.kind.extra_cycles())
                        + self.fire_counts[slot] * self.sample_switch;
                }
            }
        }
        let shortfall = attributed.saturating_sub(self.cycles);
        debug_assert!(
            mid_op || shortfall == 0,
            "completed run must be exactly attributed (over by {shortfall})"
        );
        debug_assert!(attributed >= self.cycles, "attribution fell short");
        // A token trap fires at a block entry, after the transfer op
        // charged in full, so it leaves no charge to unwind.
        debug_assert!(
            trap != Some(&TrapKind::Cancelled) || shortfall == 0,
            "a cancelled run stopped on a partly charged op (short by {shortfall})"
        );
        // How much of the trapping dispatch never ran under the unfused
        // schedule. A fused group's charge is a sequence of quanta, each
        // folding one or more source instructions; the shortfall is
        // exactly the sum of the quanta the trap left un-applied, so
        // unwinding them recovers the instructions an unfused run would
        // not have dispatched. A budget trap additionally needs the
        // *failing* quantum split: its whole sum hit the clock at once,
        // but the unfused schedule would have charged per component and
        // stopped at the first one to cross the budget — components past
        // that point contribute neither instructions nor cycles
        // (`trap_phantom`). Both corrections come off the trap slot so
        // fused profiles equal unfused and naive ones exactly, traps
        // included.
        let (trap_uncounted, trap_phantom) = trap_frame.map_or((0, 0), |(_, op)| {
            let quanta = op.charge_quanta(self.prepared.cost());
            let mut remaining = shortfall;
            let mut uncounted = 0u64;
            let mut qi = quanta.len();
            while remaining > 0 {
                qi -= 1;
                let qsum: u64 = quanta[qi].iter().sum();
                debug_assert!(remaining >= qsum, "shortfall must unwind whole quanta");
                remaining = remaining.saturating_sub(qsum);
                uncounted += quanta[qi].len() as u64;
            }
            let mut phantom = 0u64;
            // Only fuel stops a charge part-way: the budget it crossed.
            if let Some(&TrapKind::FuelExhausted(max)) = trap {
                // Quantum `qi - 1` is the charge that trapped (fuel traps
                // happen inside `charge_cycles`, and the machine stops on
                // the spot). Replay its components against the clock at
                // its start; the component that crosses the budget is the
                // unfused schedule's last dispatch.
                if qi > 0 && quanta[qi - 1].len() > 1 {
                    let q = &quanta[qi - 1];
                    let mut clock = self.cycles - q.iter().sum::<u64>();
                    let mut crossed = false;
                    for &c in q {
                        if crossed {
                            uncounted += 1;
                            phantom += c;
                        } else {
                            clock += c;
                            crossed = clock > max;
                        }
                    }
                }
            }
            (uncounted, phantom)
        });
        for f in self.prepared.funcs() {
            for (i, op) in f.ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Gap) {
                    continue;
                }
                let slot = f.slot_base as usize + i;
                let n = counts[slot];
                if n == 0 {
                    continue;
                }
                let mut cycles = n * (op.cost + op.kind.extra_cycles())
                    + self.fire_counts[slot] * self.sample_switch;
                let mut instructions = n * u64::from(op.width);
                if trap_slot == Some(slot) {
                    cycles -= shortfall + trap_phantom;
                    instructions -= trap_uncounted;
                }
                self.psink
                    .record_dispatches(op.kind.opcode(), n, instructions, cycles);
            }
        }
    }

    /// Moves the running thread's stack, `below` then `top`, back into
    /// thread `t`'s table entry, leaving a frameless copy of `top` behind.
    /// A finished thread has nothing to park: its last frame returned.
    fn park(&mut self, t: usize) {
        if !self.threads.is_done(t) {
            let parked = Frame {
                locals: Vec::new(),
                ..self.top
            };
            let mut frames = std::mem::take(&mut self.below);
            frames.push(std::mem::replace(&mut self.top, parked));
            *self.threads.stack_mut(t) = frames;
        }
    }

    /// Charges a (possibly fused) op at dispatch: `width` source
    /// instructions and `c` cycles, via [`Machine::charge_cycles`]. A
    /// fused group has no observation point between its components —
    /// `Check` and `Yield` never fuse — so counting the whole group's
    /// instructions here is indistinguishable from per-op counting.
    #[inline]
    fn charge(&mut self, c: u64, width: u32) -> Result<(), TrapKind> {
        self.instructions += u64::from(width);
        self.charge_cycles(c)
    }

    /// The cycle half of [`Machine::charge`], also called mid-arm by
    /// fused ops to charge each later component after the
    /// earlier ones executed, reproducing the unfused charge/execute
    /// interleaving exactly.
    ///
    /// Every clock-driven event — the threadswitch bit, the timer
    /// trigger's tick and the fuel budget — fires at the first charge
    /// that takes the clock to or past a fixed value, and none of those
    /// values moves until its event fires. So one compare against their
    /// minimum, the `horizon`, is exact: below it no event can fire, and
    /// at or past it [`Machine::charge_slow`] runs every per-event test
    /// in the same charge a per-event check would have.
    #[inline]
    fn charge_cycles(&mut self, c: u64) -> Result<(), TrapKind> {
        self.cycles += c;
        if self.cycles >= self.horizon {
            return self.charge_slow();
        }
        Ok(())
    }

    /// The clock-event tests of [`Machine::charge_cycles`], in their
    /// fixed order: timer tick, threadswitch catch-up, then fuel.
    /// Recomputes the horizon unless the charge traps.
    #[cold]
    #[inline(never)]
    fn charge_slow(&mut self) -> Result<(), TrapKind> {
        self.trigger.on_tick(self.cycles);
        if self.cycles >= self.next_switch {
            self.switch_bit = true;
            // Catch up in one division rather than one loop iteration per
            // missed timeslice: a long simulated gap must not spin.
            let behind = self.cycles - self.next_switch;
            self.next_switch = self
                .next_switch
                .saturating_add((behind / self.timeslice + 1).saturating_mul(self.timeslice));
        }
        if let Some(max) = self.max_cycles {
            if self.cycles > max {
                return Err(TrapKind::FuelExhausted(max));
            }
        }
        self.reset_horizon();
        Ok(())
    }

    /// Sets `horizon` to the lowest clock value at which a clock event
    /// fires next. The budget traps once the clock *exceeds* it, hence
    /// the `+ 1`; an event that can never fire contributes `u64::MAX`.
    fn reset_horizon(&mut self) {
        let fuel = self.max_cycles.map_or(u64::MAX, |k| k.saturating_add(1));
        self.horizon = self.next_switch.min(fuel).min(self.trigger.next_tick());
    }

    /// Records a burst boundary at a firing check. Only reachable from
    /// `if S::ENABLED` guards: the whole function compiles away when the
    /// sink is [`NoTrace`](crate::NoTrace).
    #[cold]
    fn record_sample(&mut self, thread: usize, func: FuncId, check_ip: u32, backedge: bool) {
        self.sink.record(BurstRecord {
            thread: thread as u32,
            func: func.index() as u32,
            check_ip,
            backedge,
            len_instructions: self.instructions - self.last_sample_instructions,
            len_cycles: self.cycles - self.last_sample_cycles,
        });
        self.last_sample_instructions = self.instructions;
        self.last_sample_cycles = self.cycles;
    }

    /// Takes the sample at the firing check at `ip`: counts and records
    /// it, charges the sample-switch surcharge and enters the check's
    /// `sample` target, returned as the new `ip`. The `Check` arm and a
    /// sweep's [`Machine::fork`] both come through here.
    #[inline(always)]
    fn fire(
        &mut self,
        cur: usize,
        ip: usize,
        sample: u32,
        sample_backedge: bool,
        cont_backedge: bool,
    ) -> Result<usize, TrapKind> {
        self.samples_taken += 1;
        if S::ENABLED {
            self.record_sample(
                cur,
                self.top.func,
                ip as u32,
                sample_backedge || cont_backedge,
            );
        }
        if P::ENABLED {
            self.psink.record_sample(self.cycles, self.checks_executed);
            // The surcharge below is the one data-dependent
            // cycle charge; count the firing so `fold_profile`
            // can attribute it to this check.
            let slot = self.top.base as usize + ip;
            if let Some(n) = self.fire_counts.get_mut(slot) {
                *n += 1;
            }
        }
        // Jumping into cold duplicated code costs extra
        // (instruction-cache effects, §4.4 footnote 6).
        self.cycles += self.sample_switch;
        self.goto(sample, sample_backedge)
    }

    /// Forks every pending sweep run whose interval is the check count
    /// just reached at the check at `ip`. Until this check no run reads
    /// its trigger — a counter starts at its interval and only a firing
    /// check is observed — so the base pass so far is exactly the forked
    /// run so far. A copy of the machine ([`Machine::copy`]) takes the
    /// sample through [`Machine::fire`] with its counter reset, as the
    /// firing left it, runs to completion and is finished; then the base
    /// pass goes on.
    #[cold]
    #[inline(never)]
    fn fork(
        &mut self,
        cur: usize,
        ip: usize,
        sample: u32,
        sample_backedge: bool,
        cont_backedge: bool,
    ) {
        while self.next_fork == self.checks_executed {
            let Fork {
                at,
                index,
                mut trace,
                mut profile,
            } = self.forks.pop().expect("`next_fork` names a pending fork");
            self.next_fork = self.forks.last().map_or(u64::MAX, |f| f.at);
            let mut sched = self.sched.clone();
            let mut fork = self.copy(&mut trace, &mut profile, &mut sched);
            fork.trigger = TriggerState::Counter {
                counter: at,
                interval: at,
            };
            let result = fork
                .fire(cur, ip, sample, sample_backedge, cont_backedge)
                .and_then(|next| {
                    fork.top.ip = next;
                    fork.run_to_completion()
                });
            let result = fork.finish(result);
            self.forked.push((
                index,
                Swept {
                    result,
                    trace,
                    profile,
                    sched,
                    shared_instructions: self.instructions,
                },
            ));
        }
    }

    /// Transfers control to a pre-resolved arena index, bumping the
    /// Property 1 accounting when the edge was classified as a backedge at
    /// prepare time.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::Cancelled`] when an armed token fired; see
    /// [`Machine::enter`].
    #[inline]
    fn goto(&mut self, target: u32, backedge: bool) -> Result<usize, TrapKind> {
        if backedge {
            self.backedges_executed += 1;
        }
        self.enter(target)
    }

    /// Enters the current frame's block at `target`: counts the flow
    /// entry when the profile sink is enabled and returns `target` as the
    /// frame's new `ip`, which `run_slice()` holds. Every control-transfer
    /// arm funnels through here or [`Machine::goto`]; straight-line
    /// advancement does not, which is what keeps profiling off the
    /// per-dispatch path.
    ///
    /// # Errors
    ///
    /// This funnel is also the cancellation poll: block entry is the one
    /// point every divergent program must pass infinitely often (straight
    /// -line flow is finite and recursion is bounded by `max_stack`), so
    /// polling here — and nowhere else — guarantees a cancelled run traps
    /// at its next control transfer. The poll comes first: a cancelled
    /// transfer records no flow entry and leaves `ip` on the fully
    /// executed, fully charged transfer op, which is exactly the state
    /// [`Machine::fold_profile`]'s attempted-frame cut accounts for.
    #[inline]
    fn enter(&mut self, target: u32) -> Result<usize, TrapKind> {
        if let Some(t) = &self.cancel {
            if t.fired() {
                return Err(TrapKind::Cancelled);
            }
        }
        if P::ENABLED {
            let slot = self.top.base as usize + target as usize;
            if let Some(d) = self.entry_deltas.get_mut(slot) {
                *d += 1;
            }
        }
        Ok(target as usize)
    }

    /// Enters `callee` on `thread` with the optional `receiver` and then
    /// `args`, read from the running frame's locals, as its parameters.
    ///
    /// On the running thread this is a call: the caller resumes past the
    /// calling op, moves to `below`, and the callee becomes `top`. On any
    /// other thread (a spawn target) the frame goes onto its parked
    /// stack. A push that would exceed `max_stack` traps before touching
    /// either frame, so the caller's `ip` stays on the attempted call.
    fn push_frame(
        &mut self,
        callee: FuncId,
        receiver: Option<Value>,
        args: &[LocalId],
        ret_dst: Option<LocalId>,
        caller: Option<(FuncId, CallSiteId)>,
        thread: usize,
    ) -> Result<(), TrapKind> {
        let running = thread == self.threads.current();
        let depth = if running {
            self.below.len() + 1
        } else {
            self.threads.stack(thread).len()
        };
        if depth >= self.max_stack {
            return Err(TrapKind::StackOverflow(self.max_stack));
        }
        let prepared: &'p PreparedModule = self.prepared;
        let f = prepared.func(callee);
        debug_assert_eq!(f.arity, usize::from(receiver.is_some()) + args.len());
        if P::ENABLED {
            // The new frame enters the callee's arena at slot 0.
            if let Some(d) = self.entry_deltas.get_mut(f.slot_base as usize) {
                *d += 1;
            }
        }
        let mut locals = self.free_locals.pop().unwrap_or_default();
        locals.clear();
        locals.extend(receiver);
        locals.extend(args.iter().map(|a| self.top.locals[a.index()]));
        locals.resize(f.num_locals, Value::Unit);
        let frame = Frame {
            func: callee,
            ops: &f.ops,
            base: f.slot_base,
            ip: 0,
            locals,
            ret_dst,
            caller,
            path_reg: None,
        };
        if running {
            self.top.ip += self.top.ops[self.top.ip].width as usize;
            let caller_frame = std::mem::replace(&mut self.top, frame);
            self.below.push(caller_frame);
        } else {
            self.threads.stack_mut(thread).push(frame);
        }
        self.entries_executed += 1;
        Ok(())
    }

    /// Dispatches the current thread's ops, each charged on its own,
    /// until the thread requests a switch (a `Yield` that finds the
    /// threadswitch bit set), blocks on a `Join`, or returns from its
    /// last frame — then returns `Ok` for [`Machine::run_to_completion`]
    /// to reschedule — or until an op traps. Every other op, calls and
    /// returns included, goes straight on to the next fetch.
    ///
    /// The running frame's op arena and `ip` live in locals, so a
    /// dispatch neither reloads them nor writes back an advance. `top.ip`
    /// is stored once per dispatch, before the charge, so everything that
    /// can observe it mid-op — a trap, [`Machine::fold_profile`], a
    /// sample record, the blocking `Join`'s pre-count, `push_frame` —
    /// sees the op being dispatched. The locals are reloaded from `top`
    /// only when `top` changes (a call on the running thread, `Ret`); a
    /// control transfer sets `ip` to the target [`Machine::enter`]
    /// returns, and a `Yield` that ends the slice writes `ip` back.
    fn run_slice(&mut self) -> Result<(), TrapKind> {
        let cur = self.threads.current();
        // The op borrow comes through the frame's cached `&'p [Op]`
        // slice, leaving `self` free for mutation during execution.
        let mut ops = self.top.ops;
        let mut ip = self.top.ip;
        loop {
            let op = &ops[ip];
            self.top.ip = ip;
            let w = op.width as usize;
            self.charge(op.cost, op.width)?;
            // Hot arms borrow the running frame, `self.top`, index locals
            // directly and advance the local `ip`; the heap, the dispatch
            // tables and the counters live in disjoint fields of `self`,
            // so they stay reachable while the frame borrow is live.
            match &op.kind {
                OpKind::Const { dst, value } => {
                    self.top.locals[dst.index()] = *value;
                    ip += 1;
                }
                OpKind::Move { dst, src } => {
                    let f = &mut self.top;
                    f.locals[dst.index()] = f.locals[src.index()];
                    ip += 1;
                }
                OpKind::Un { op, dst, src } => {
                    self.top.un(*op, *dst, *src)?;
                    ip += 1;
                }
                OpKind::Bin { op, dst, lhs, rhs } => {
                    self.top.bin(*op, *dst, *lhs, *rhs)?;
                    ip += 1;
                }
                OpKind::New {
                    dst,
                    class,
                    num_fields,
                } => {
                    let v = self.heap.alloc_object(*class, *num_fields)?;
                    let f = &mut self.top;
                    f.locals[dst.index()] = v;
                    ip += 1;
                }
                OpKind::GetField { dst, obj, field } => {
                    let f = &mut self.top;
                    let object = self.heap.object(f.locals[obj.index()])?;
                    let offset = self
                        .prepared
                        .field_offset(object.class, *field)
                        .ok_or_else(|| {
                            TrapKind::NoSuchField(
                                self.prepared.module().field_name(*field).to_owned(),
                            )
                        })?;
                    f.locals[dst.index()] = object.fields[offset as usize];
                    ip += 1;
                }
                OpKind::SetField { obj, field, src } => {
                    let f = &mut self.top;
                    let o = f.locals[obj.index()];
                    let v = f.locals[src.index()];
                    let class = self.heap.object(o)?.class;
                    let offset = self.prepared.field_offset(class, *field).ok_or_else(|| {
                        TrapKind::NoSuchField(self.prepared.module().field_name(*field).to_owned())
                    })?;
                    self.heap.object_mut(o)?.fields[offset as usize] = v;
                    ip += 1;
                }
                OpKind::GetFieldStatic { dst, obj, offset } => {
                    let f = &mut self.top;
                    let object = self.heap.object(f.locals[obj.index()])?;
                    f.locals[dst.index()] = object.fields[*offset as usize];
                    ip += 1;
                }
                OpKind::SetFieldStatic { obj, offset, src } => {
                    let f = &mut self.top;
                    let o = f.locals[obj.index()];
                    let v = f.locals[src.index()];
                    self.heap.object_mut(o)?.fields[*offset as usize] = v;
                    ip += 1;
                }
                OpKind::NewArray { dst, len } => {
                    let f = &mut self.top;
                    let n = f.locals[len.index()].as_i64()?;
                    f.locals[dst.index()] = self.heap.alloc_array(n)?;
                    ip += 1;
                }
                OpKind::ArrayGet { dst, arr, idx } => {
                    let f = &mut self.top;
                    let i = f.locals[idx.index()].as_i64()?;
                    let v = self.heap.array_get(f.locals[arr.index()], i)?;
                    f.locals[dst.index()] = Value::I64(v);
                    ip += 1;
                }
                OpKind::ArraySet { arr, idx, src } => {
                    let f = &mut self.top;
                    let a = f.locals[arr.index()];
                    let i = f.locals[idx.index()].as_i64()?;
                    let v = f.locals[src.index()].as_i64()?;
                    self.heap.array_set(a, i, v)?;
                    ip += 1;
                }
                OpKind::ArrayLen { dst, arr } => {
                    let f = &mut self.top;
                    let n = self.heap.array_len(f.locals[arr.index()])?;
                    f.locals[dst.index()] = Value::I64(n);
                    ip += 1;
                }
                OpKind::Call {
                    dst,
                    callee,
                    args,
                    site,
                } => {
                    let caller = Some((self.top.func, *site));
                    self.push_frame(*callee, None, args, *dst, caller, cur)?;
                    (ops, ip) = (self.top.ops, self.top.ip);
                }
                OpKind::CallMethod {
                    dst,
                    obj,
                    method,
                    args,
                    site,
                } => {
                    let o = self.top.locals[obj.index()];
                    let class = self.heap.object(o)?.class;
                    let callee = self.prepared.method_impl(class, *method).ok_or_else(|| {
                        TrapKind::NoSuchMethod(
                            self.prepared.module().method_name(*method).to_owned(),
                        )
                    })?;
                    let expected = self.prepared.func(callee).arity;
                    if expected != args.len() + 1 {
                        return Err(TrapKind::ArityMismatch {
                            method: self.prepared.module().function(callee).name().to_owned(),
                            given: args.len() + 1,
                            expected,
                        });
                    }
                    let caller = Some((self.top.func, *site));
                    self.push_frame(callee, Some(o), args, *dst, caller, cur)?;
                    (ops, ip) = (self.top.ops, self.top.ip);
                }
                OpKind::CallMethodStatic {
                    dst,
                    obj,
                    callee,
                    args,
                    site,
                } => {
                    let o = self.top.locals[obj.index()];
                    // The method target and arity were verified at prepare
                    // time; the receiver must still be a live object so null
                    // and type traps match the dynamic path.
                    self.heap.object(o)?;
                    let caller = Some((self.top.func, *site));
                    self.push_frame(*callee, Some(o), args, *dst, caller, cur)?;
                    (ops, ip) = (self.top.ops, self.top.ip);
                }
                OpKind::Print { src } => {
                    let f = &mut self.top;
                    let n = match f.locals[src.index()] {
                        Value::I64(n) => n,
                        Value::Bool(b) => i64::from(b),
                        other => {
                            return Err(TrapKind::TypeError {
                                expected: "printable value",
                                found: other.kind_name(),
                            })
                        }
                    };
                    self.output.push(n);
                    ip += 1;
                }
                OpKind::Spawn { dst, callee, args } => {
                    let tid = self.threads.spawn(Vec::new());
                    self.push_frame(*callee, None, args, None, None, tid)?;
                    self.top.locals[dst.index()] = Value::Thread(tid as u32);
                    ip += 1;
                }
                OpKind::Join { thread } => {
                    let t = match self.top.locals[thread.index()] {
                        Value::Thread(t) => t as usize,
                        other => {
                            return Err(TrapKind::TypeError {
                                expected: "thread handle",
                                found: other.kind_name(),
                            })
                        }
                    };
                    if !self.threads.is_done(t) {
                        self.threads.block_on(t);
                        if P::ENABLED {
                            // The join re-dispatches when unblocked: count the
                            // extra dispatch now, confined to this slot (`-1`
                            // right after keeps the rest of the block at one
                            // execution per entry). If the wake never comes,
                            // the end-of-run cut at this frame's `ip` cancels
                            // the prediction.
                            let slot = self.top.base as usize + ip;
                            if let Some(d) = self.entry_deltas.get_mut(slot) {
                                *d += 1;
                            }
                            if let Some(d) = self.entry_deltas.get_mut(slot + 1) {
                                *d -= 1;
                            }
                        }
                        // Do not advance: the join re-executes when unblocked.
                        return Ok(());
                    }
                    ip += 1;
                }
                OpKind::Yield => {
                    self.yields_executed += 1;
                    ip += 1;
                    if self.switch_bit {
                        self.switch_bit = false;
                        self.top.ip = ip;
                        return Ok(());
                    }
                }
                OpKind::Busy => {
                    // The cost was already charged; nothing else happens.
                    ip += 1;
                }
                OpKind::CallEdge => {
                    // Examine the call stack (paper §4.2): the caller and the
                    // call site were stashed in the frame at call time.
                    if let Some((caller, site)) = self.top.caller {
                        self.profile.record_call_edge(caller, site, self.top.func);
                    }
                    ip += 1;
                }
                OpKind::FieldAccessProf { obj, field, write } => {
                    let f = &mut self.top;
                    let class = self.heap.object(f.locals[obj.index()])?.class;
                    self.field_counts[class.index() * self.num_field_syms + field.index()]
                        [usize::from(*write)] += 1;
                    ip += 1;
                }
                OpKind::BlockCount { block } => {
                    self.profile.record_block(self.top.func, *block);
                    ip += 1;
                }
                OpKind::EdgeCount { from, to } => {
                    self.profile.record_edge(self.top.func, *from, *to);
                    ip += 1;
                }
                OpKind::PathStart { value } => {
                    let f = &mut self.top;
                    f.path_reg = Some(*value);
                    ip += 1;
                }
                OpKind::PathIncr { delta } => {
                    let f = &mut self.top;
                    if let Some(r) = f.path_reg.as_mut() {
                        *r += *delta;
                    }
                    ip += 1;
                }
                OpKind::PathEnd { site } => {
                    if let Some(id) = self.top.path_reg.take() {
                        self.profile.record_path(self.top.func, *site, id);
                    }
                    ip += 1;
                }
                OpKind::ValueProfile { local, site } => {
                    let v = match self.top.locals[local.index()] {
                        Value::I64(n) => n,
                        Value::Bool(b) => i64::from(b),
                        // Reference values are profiled by identity.
                        Value::Obj(h) | Value::Arr(h) | Value::Thread(h) => i64::from(h),
                        Value::Null => -1,
                        Value::Unit => 0,
                    };
                    self.profile.record_value(self.top.func, *site, v);
                    ip += 1;
                }
                // Fused superinstructions: each arm replays its group's
                // original effects in order under one dispatch. The group cost
                // was charged up front (sound because only the final effectful
                // component can trap); `BrCmp`/`BrCmpImm` charge the branch
                // half mid-arm to keep fuel traps on the unfused schedule.
                OpKind::BinImm {
                    op,
                    dst,
                    lhs,
                    rhs,
                    tmp,
                    imm,
                } => {
                    let f = &mut self.top;
                    f.locals[tmp.index()] = *imm;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    ip += w;
                }
                OpKind::GetFieldBin {
                    obj,
                    offset,
                    tmp,
                    op,
                    dst,
                    lhs,
                    rhs,
                    extra,
                } => {
                    let f = &mut self.top;
                    let v = self.heap.object(f.locals[obj.index()])?.fields[*offset as usize];
                    f.locals[tmp.index()] = v;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    ip += w;
                }
                OpKind::BinSetField {
                    op,
                    dst,
                    lhs,
                    rhs,
                    obj,
                    offset,
                    extra,
                } => {
                    let f = &mut self.top;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    let (o, v) = (f.locals[obj.index()], f.locals[dst.index()]);
                    self.heap.object_mut(o)?.fields[*offset as usize] = v;
                    ip += w;
                }
                OpKind::BinImmSetField {
                    op,
                    dst,
                    lhs,
                    rhs,
                    tmp,
                    imm,
                    obj,
                    offset,
                    extra,
                } => {
                    let f = &mut self.top;
                    f.locals[tmp.index()] = *imm;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    let (o, v) = (f.locals[obj.index()], f.locals[dst.index()]);
                    self.heap.object_mut(o)?.fields[*offset as usize] = v;
                    ip += w;
                }
                OpKind::GetFieldBinImm {
                    obj,
                    offset,
                    tmp,
                    ctmp,
                    imm,
                    op,
                    dst,
                    lhs,
                    rhs,
                    extra,
                } => {
                    let f = &mut self.top;
                    let v = self.heap.object(f.locals[obj.index()])?.fields[*offset as usize];
                    f.locals[tmp.index()] = v;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    f.locals[ctmp.index()] = *imm;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    ip += w;
                }
                OpKind::GetFieldBinImmSetField {
                    obj,
                    offset,
                    tmp,
                    ctmp,
                    imm,
                    op,
                    dst,
                    lhs,
                    rhs,
                    sobj,
                    soffset,
                    extra,
                    extra2,
                } => {
                    let f = &mut self.top;
                    let v = self.heap.object(f.locals[obj.index()])?.fields[*offset as usize];
                    f.locals[tmp.index()] = v;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    f.locals[ctmp.index()] = *imm;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    self.charge_cycles(*extra2)?;
                    let f = &mut self.top;
                    let (o, v) = (f.locals[sobj.index()], f.locals[dst.index()]);
                    self.heap.object_mut(o)?.fields[*soffset as usize] = v;
                    ip += w;
                }
                OpKind::ConstSetField {
                    tmp,
                    imm,
                    obj,
                    offset,
                } => {
                    let f = &mut self.top;
                    f.locals[tmp.index()] = *imm;
                    let o = f.locals[obj.index()];
                    self.heap.object_mut(o)?.fields[*offset as usize] = *imm;
                    ip += w;
                }
                OpKind::GetFieldBrCmp {
                    obj,
                    offset,
                    tmp,
                    op,
                    dst,
                    lhs,
                    rhs,
                    extra,
                    branch,
                    t,
                    f: f_target,
                } => {
                    let f = &mut self.top;
                    let v = self.heap.object(f.locals[obj.index()])?.fields[*offset as usize];
                    f.locals[tmp.index()] = v;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    self.charge_cycles(*branch)?;
                    let taken = self.top.is_true(*dst);
                    ip = self.enter(if taken { *t } else { *f_target })?;
                }
                OpKind::GetFieldArrayGet {
                    obj,
                    offset,
                    tmp,
                    dst,
                    arr,
                    extra,
                } => {
                    let f = &mut self.top;
                    let v = self.heap.object(f.locals[obj.index()])?.fields[*offset as usize];
                    f.locals[tmp.index()] = v;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    let i = f.locals[tmp.index()].as_i64()?;
                    let v = self.heap.array_get(f.locals[arr.index()], i)?;
                    f.locals[dst.index()] = Value::I64(v);
                    ip += w;
                }
                OpKind::GetFieldArraySet {
                    obj,
                    offset,
                    tmp,
                    arr,
                    src,
                    extra,
                } => {
                    let f = &mut self.top;
                    let v = self.heap.object(f.locals[obj.index()])?.fields[*offset as usize];
                    f.locals[tmp.index()] = v;
                    self.charge_cycles(*extra)?;
                    let f = &mut self.top;
                    let a = f.locals[arr.index()];
                    let i = f.locals[tmp.index()].as_i64()?;
                    let v = f.locals[src.index()].as_i64()?;
                    self.heap.array_set(a, i, v)?;
                    ip += w;
                }
                OpKind::BrCmp {
                    op,
                    dst,
                    lhs,
                    rhs,
                    extra,
                    t,
                    f: f_target,
                } => {
                    let f = &mut self.top;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    self.charge_cycles(*extra)?;
                    let taken = self.top.is_true(*dst);
                    ip = self.enter(if taken { *t } else { *f_target })?;
                }
                OpKind::BrCmpImm {
                    op,
                    dst,
                    lhs,
                    rhs,
                    tmp,
                    imm,
                    extra,
                    t,
                    f: f_target,
                } => {
                    let f = &mut self.top;
                    f.locals[tmp.index()] = *imm;
                    f.bin(*op, *dst, *lhs, *rhs)?;
                    self.charge_cycles(*extra)?;
                    let taken = self.top.is_true(*dst);
                    ip = self.enter(if taken { *t } else { *f_target })?;
                }
                OpKind::Gap => unreachable!("fusion gap slots are never executed"),
                // Terminators (inlined into the arena as the block's last op).
                OpKind::Jump { target, backedge } => {
                    if *backedge {
                        self.backedges_executed += 1;
                    }
                    ip = self.enter(*target)?;
                }
                OpKind::Br {
                    cond,
                    t,
                    f: f_target,
                    t_backedge,
                    f_backedge,
                } => {
                    let f = &mut self.top;
                    let c = f.locals[cond.index()].as_bool()?;
                    let (target, backedge) = if c {
                        (*t, *t_backedge)
                    } else {
                        (*f_target, *f_backedge)
                    };
                    if backedge {
                        self.backedges_executed += 1;
                    }
                    ip = self.enter(target)?;
                }
                OpKind::Ret { val } => {
                    let value = val.map_or(Value::Unit, |l| self.top.locals[l.index()]);
                    let Some(caller) = self.below.pop() else {
                        // The thread's last frame: it stays in `top`, and the
                        // next reschedule parks nothing for a finished thread.
                        self.threads.finish();
                        return Ok(());
                    };
                    let frame = std::mem::replace(&mut self.top, caller);
                    if let Some(dst) = frame.ret_dst {
                        self.top.locals[dst.index()] = value;
                    }
                    self.free_locals.push(frame.locals);
                    (ops, ip) = (self.top.ops, self.top.ip);
                }
                OpKind::Check {
                    sample,
                    cont,
                    sample_backedge,
                    cont_backedge,
                } => {
                    self.checks_executed += 1;
                    if self.checks_executed == self.next_fork {
                        self.fork(cur, ip, *sample, *sample_backedge, *cont_backedge);
                    }
                    if self.trigger.on_check(cur) {
                        ip = self.fire(cur, ip, *sample, *sample_backedge, *cont_backedge)?;
                    } else {
                        ip = self.goto(*cont, *cont_backedge)?;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Code, Engine, Request};
    use crate::prepared::thread_preparations;
    use isf_ir::Module;

    fn compile(src: &str) -> Module {
        isf_frontend::compile(src).expect("test program compiles")
    }

    /// Loads `m` on `engine` and runs it once under `cfg`.
    fn on(engine: Engine, m: &Module, cfg: &VmConfig) -> Result<Outcome, VmError> {
        engine.load(m, &cfg.cost).execute(Request::new(cfg))
    }

    fn run_src(src: &str) -> Outcome {
        on(Engine::default(), &compile(src), &VmConfig::default()).expect("test program runs")
    }

    /// A frame holding `locals`, enough to run [`Frame::bin`] on.
    fn frame(locals: Vec<Value>) -> Frame<'static> {
        Frame {
            func: FuncId::new(0),
            ops: &[],
            base: 0,
            ip: 0,
            locals,
            ret_dst: None,
            caller: None,
            path_reg: None,
        }
    }

    /// `Frame::bin` reads its operands in place and writes `dst` last, so
    /// it must give `Value::binary`'s result whichever operand `dst`
    /// aliases, and change nothing when it traps.
    #[test]
    fn frame_bin_writes_only_dst_under_every_aliasing() {
        use crate::value::tests::{value_grid, BIN_OPS};
        let values = value_grid();
        for op in BIN_OPS {
            for &a in &values {
                for &b in &values {
                    let want = Value::binary(op, a, b);
                    // (locals, dst, lhs, rhs): `dst` distinct, `dst == lhs`,
                    // `dst == rhs`, and all three one local.
                    let mut shapes = vec![
                        (vec![a, b, Value::Thread(7)], 2, 0, 1),
                        (vec![a, b], 0, 0, 1),
                        (vec![a, b], 1, 0, 1),
                    ];
                    if a == b {
                        shapes.push((vec![a], 0, 0, 0));
                    }
                    for (locals, dst, lhs, rhs) in shapes {
                        let mut f = frame(locals.clone());
                        let got =
                            f.bin(op, LocalId::new(dst), LocalId::new(lhs), LocalId::new(rhs));
                        let mut expect = locals;
                        match &want {
                            Ok(v) => {
                                assert_eq!(got, Ok(()), "{a:?} {op:?} {b:?}");
                                expect[dst as usize] = *v;
                            }
                            Err(e) => assert_eq!(got.as_ref(), Err(e), "{a:?} {op:?} {b:?}"),
                        }
                        assert_eq!(
                            f.locals, expect,
                            "{a:?} {op:?} {b:?} into local {dst} of locals {lhs}, {rhs}"
                        );
                    }
                }
            }
        }
    }

    /// A call reuses a returned frame's locals vector: the callee's
    /// locals past its parameters must still start as `Unit`. Jive cannot
    /// express the program (it lowers `var y;` to `const 0`), so it is
    /// built directly: `main` calls `g`, which writes its local 1 and
    /// returns, and then `h`, which prints its never-written local 1.
    #[test]
    fn a_recycled_locals_vector_starts_as_unit() {
        use isf_ir::{Const, FunctionBuilder, Inst, ModuleBuilder, Term};
        let mut mb = ModuleBuilder::new();
        let call = |fb: &mut FunctionBuilder, callee| {
            fb.push(Inst::Call {
                dst: None,
                callee,
                args: Vec::new(),
                site: CallSiteId::new(0),
            });
        };
        let mut fb = FunctionBuilder::new("g", 0);
        let (_, x) = (fb.new_local(), fb.new_local());
        fb.push(Inst::Const {
            dst: x,
            value: Const::I64(42),
        });
        fb.terminate(Term::Ret(None));
        let g = mb.add_function(fb.finish());
        let mut fb = FunctionBuilder::new("h", 0);
        let (_, y) = (fb.new_local(), fb.new_local());
        fb.push(Inst::Print { src: y });
        fb.terminate(Term::Ret(None));
        let h = mb.add_function(fb.finish());
        let mut fb = FunctionBuilder::new("main", 0);
        call(&mut fb, g);
        call(&mut fb, h);
        fb.terminate(Term::Ret(None));
        let main = mb.add_function(fb.finish());
        let m = mb.finish(main);
        let want = VmError {
            function: "h".to_owned(),
            kind: TrapKind::TypeError {
                expected: "printable value",
                found: "unit",
            },
        };
        for engine in Engine::ALL {
            let got = on(engine, &m, &VmConfig::default());
            assert_eq!(got, Err(want.clone()), "{}", engine.label());
        }
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let o = run_src(
            "fn main() { var s = 0; var i = 1; while (i <= 10) { s = s + i; i = i + 1; } print(s); }",
        );
        assert_eq!(o.output, vec![55]);
    }

    #[test]
    fn function_calls_and_recursion() {
        let o = run_src(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn main() { print(fib(15)); }",
        );
        assert_eq!(o.output, vec![610]);
    }

    #[test]
    fn objects_methods_and_dispatch() {
        let o = run_src(
            "class Shape { field tag; method area() { return 0; } }
             class Square : Shape { field side; method area() { return self.side * self.side; } }
             fn main() {
                 var s = new Square; s.side = 9;
                 var base = new Shape;
                 print(s.area()); print(base.area());
             }",
        );
        assert_eq!(o.output, vec![81, 0]);
    }

    #[test]
    fn arrays() {
        let o = run_src(
            "fn main() {
                 var a = array(5);
                 var i = 0;
                 while (i < len(a)) { a[i] = i * i; i = i + 1; }
                 print(a[4]);
             }",
        );
        assert_eq!(o.output, vec![16]);
    }

    #[test]
    fn short_circuit_evaluation_skips_rhs() {
        // Division by zero on the rhs must not execute when lhs decides.
        let o = run_src(
            "fn main() { var x = 0; if (false && 1 / x == 1) { print(1); } else { print(2); } }",
        );
        assert_eq!(o.output, vec![2]);
    }

    #[test]
    fn traps_surface_as_errors() {
        let m = compile("fn main() { var x = 0; print(1 / x); }");
        let e = on(Engine::default(), &m, &VmConfig::default()).unwrap_err();
        assert_eq!(e.kind, TrapKind::DivisionByZero);
        assert_eq!(e.function, "main");

        let m = compile("fn main() { var a = array(2); print(a[5]); }");
        let e = on(Engine::default(), &m, &VmConfig::default()).unwrap_err();
        assert!(matches!(e.kind, TrapKind::IndexOutOfBounds { .. }));

        let m = compile("class A { field x; } fn main() { var a = null; print(a.x); }");
        let e = on(Engine::default(), &m, &VmConfig::default()).unwrap_err();
        assert_eq!(e.kind, TrapKind::NullDereference);
    }

    #[test]
    fn cycle_budget_stops_infinite_loops() {
        let m = compile("fn main() { while (true) { } }");
        let cfg = VmConfig {
            limits: ExecLimits::cycles(10_000),
            ..VmConfig::default()
        };
        let e = on(Engine::default(), &m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::FuelExhausted(10_000));
    }

    #[test]
    fn heap_budget_stops_allocation_storms() {
        let m = compile("fn main() { while (true) { var a = array(100); a[0] = 1; } }");
        let cfg = VmConfig {
            limits: ExecLimits {
                max_heap_words: Some(1_000),
                ..ExecLimits::default()
            },
            ..VmConfig::default()
        };
        let e = on(Engine::default(), &m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::HeapExhausted { limit_words: 1_000 });
        assert_eq!(e.function, "main");
    }

    #[test]
    fn stack_overflow_detected() {
        let m = compile("fn f(n) { return f(n + 1); } fn main() { print(f(0)); }");
        let cfg = VmConfig {
            limits: ExecLimits {
                max_stack: 64,
                ..ExecLimits::default()
            },
            ..VmConfig::default()
        };
        let e = on(Engine::default(), &m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::StackOverflow(64));
    }

    #[test]
    fn threads_spawn_join_and_interleave() {
        let o = run_src(
            "class Cell { field v; }
             fn work(c, n) { var i = 0; while (i < n) { c.v = c.v + 1; i = i + 1; } }
             fn main() {
                 var c = new Cell; c.v = 0;
                 var t1 = spawn work(c, 2000);
                 var t2 = spawn work(c, 3000);
                 join(t1); join(t2);
                 print(c.v);
             }",
        );
        assert_eq!(o.output, vec![5000]);
        assert!(o.thread_switches > 0, "timeslice must force interleaving");
    }

    #[test]
    fn deadlock_detected_for_self_join() {
        // main spawns a thread that joins a never-finishing partner set,
        // simplest case: joining a thread that joins us is impossible to
        // express; join on a thread that never terminates suffices.
        let m = compile(
            "fn forever() { while (true) { } }
             fn main() { var t = spawn forever(); join(t); }",
        );
        // The spinning thread yields on its backedge, main stays blocked;
        // bound the run so the test terminates: budget trap, not deadlock.
        let cfg = VmConfig {
            limits: ExecLimits::cycles(500_000),
            ..VmConfig::default()
        };
        let e = on(Engine::default(), &m, &cfg).unwrap_err();
        assert_eq!(e.kind, TrapKind::FuelExhausted(500_000));
    }

    #[test]
    fn counters_track_entries_backedges_yields() {
        let o = run_src(
            "fn tick() { }
             fn main() { var i = 0; while (i < 10) { tick(); i = i + 1; } }",
        );
        // Entries: main + 10 calls to tick.
        assert_eq!(o.entries_executed, 11);
        // Backedges: 10 iterations of the while loop.
        assert_eq!(o.backedges_executed, 10);
        // Yieldpoints: 11 method entries + 10 backedges.
        assert_eq!(o.yields_executed, 21);
        assert_eq!(o.checks_executed, 0);
        assert!(o.cycles > 0);
        assert!(o.instructions > 0);
    }

    #[test]
    fn determinism_identical_runs() {
        let src = "fn mix(a, b) { return a * 31 + b; }
             fn main() { var h = 7; var i = 0; while (i < 500) { h = mix(h, i); i = i + 1; } print(h); }";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.output, b.output);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn busy_advances_the_clock() {
        let quiet = run_src("fn main() { }");
        let busy = run_src("fn main() { busy(100000); }");
        assert!(busy.cycles >= quiet.cycles + 100_000);
    }

    #[test]
    fn fired_token_cancels_an_unbudgeted_loop_in_both_engines() {
        let m = compile("fn main() { while (true) { } }");
        for engine in Engine::ALL {
            let code = engine.load(&m, &CostModel::default());
            let token = crate::cancel::CancelToken::new();
            token.cancel(); // fired before the run: traps at the first poll
            let e = code
                .execute(Request::new(&VmConfig::default()).cancel(&token))
                .unwrap_err();
            assert_eq!(e.kind, TrapKind::Cancelled, "{}", engine.label());
            assert_eq!(e.function, "main");
        }
    }

    #[test]
    fn unfired_token_leaves_outcomes_untouched() {
        let src = "fn main() { var i = 0; while (i < 200) { i = i + 1; } print(i); }";
        let m = compile(src);
        let clean = on(Engine::default(), &m, &VmConfig::default()).unwrap();
        let token = crate::cancel::CancelToken::new();
        let armed = Engine::default()
            .load(&m, &CostModel::default())
            .execute(Request::new(&VmConfig::default()).cancel(&token))
            .unwrap();
        assert_eq!(clean, armed, "a silent token must be invisible");
    }

    /// A burst sink that fires its clone of the run's token at its `n`-th
    /// sample: a cancellation mid-run at a point every engine reaches by
    /// the same dispatch.
    struct FireAt {
        token: crate::cancel::CancelToken,
        n: usize,
        bursts: Vec<BurstRecord>,
    }

    impl TraceSink for FireAt {
        fn record(&mut self, record: BurstRecord) {
            self.bursts.push(record);
            if self.bursts.len() == self.n {
                self.token.cancel();
            }
        }
    }

    #[test]
    fn cancelled_profiled_run_attributes_partial_cycles_exactly() {
        // An endless loop whose jumps are all checks, so it samples on
        // every iteration; the fuel budget only stops a run the token
        // failed to stop.
        let mut m = compile(
            "fn mix(a, b) { return a * 31 + b; }
             fn main() { var h = 7; var i = 0; while (true) { h = mix(h, i); i = i + 1; } }",
        );
        let f = m.function_mut(m.main());
        for b in f.block_ids().collect::<Vec<_>>() {
            if let isf_ir::Term::Jump(to) = *f.block(b).term() {
                let check = isf_ir::Term::Check {
                    sample: to,
                    cont: to,
                };
                f.set_term(b, check);
            }
        }
        let cfg = VmConfig {
            trigger: Trigger::Counter { interval: 2 },
            limits: ExecLimits::cycles(50_000_000),
            ..VmConfig::default()
        };
        for n in [1, 2, 3, 17, 400] {
            let mut stops = Vec::new();
            for engine in Engine::ALL {
                let token = crate::cancel::CancelToken::new();
                let mut sink = FireAt {
                    token: token.clone(),
                    n,
                    bursts: Vec::new(),
                };
                let mut profile = crate::profile::OpProfile::new();
                let err = engine
                    .load(&m, &cfg.cost)
                    .execute(
                        Request::new(&cfg)
                            .cancel(&token)
                            .trace(&mut sink)
                            .profile(&mut profile),
                    )
                    .unwrap_err();
                let label = engine.label();
                assert_eq!(err.kind, TrapKind::Cancelled, "{label}, n={n}");
                if engine == Engine::Naive {
                    // Polled every `NAIVE_POLL_INTERVAL` dispatches: it
                    // stops later, somewhere else.
                    continue;
                }
                // The prepared engines stop at the check that fired the
                // token, once it has charged its sample surcharge: the
                // profile holds exactly the recorded bursts plus that.
                let cycles: u64 = sink.bursts.iter().map(|b| b.len_cycles).sum();
                let instructions: u64 = sink.bursts.iter().map(|b| b.len_instructions).sum();
                let totals = (profile.total_cycles(), profile.total_instructions());
                assert_eq!(
                    totals,
                    (cycles + cfg.cost.sample_switch, instructions),
                    "{label}, n={n}"
                );
                stops.push((err.function, totals));
            }
            assert_eq!(stops[0], stops[1], "fused and unfused stopped apart, n={n}");
            assert_eq!(stops[0].0, "main");
        }
    }

    #[test]
    fn prepared_engine_matches_naive_reference() {
        // Exercise every op class: arithmetic, control flow, calls, method
        // dispatch, arrays, threads, yieldpoints.
        let srcs = [
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn main() { print(fib(14)); }",
            "class Acc { field total; method add(x) { self.total = self.total + x; } }
             fn main() {
                 var a = new Acc; a.total = 0;
                 var i = 0;
                 while (i < 50) { a.add(i); i = i + 1; }
                 print(a.total);
             }",
            "fn work(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }
             fn main() {
                 var t = spawn work(1000);
                 var local = work(500);
                 join(t);
                 print(local);
             }",
        ];
        for src in srcs {
            let m = compile(src);
            let cfg = VmConfig::default();
            let slow = on(Engine::Naive, &m, &cfg).expect("naive engine runs");
            for engine in Engine::ALL {
                let fast = on(engine, &m, &cfg).expect("engine runs");
                assert_eq!(fast, slow, "{} diverged on: {src}", engine.label());
            }
        }
    }

    #[test]
    fn run_prepared_amortizes_one_preparation() {
        let m = compile("fn main() { var i = 0; while (i < 100) { i = i + 1; } print(i); }");
        let cfg = VmConfig::default();
        let code = Engine::default().load(&m, &cfg.cost);
        // Thread-local count: immune to concurrent test threads preparing.
        let before = thread_preparations();
        let a = code.execute(Request::new(&cfg)).unwrap();
        let b = code.execute(Request::new(&cfg)).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            thread_preparations(),
            before,
            "running loaded code must not re-prepare"
        );
    }

    #[test]
    #[should_panic(expected = "cost model differs")]
    fn run_prepared_rejects_mismatched_cost_model() {
        let m = compile("fn main() { }");
        let prepared = PreparedModule::prepare_with(&m, &CostModel::default(), crate::fuse_mode());
        let cfg = VmConfig {
            cost: CostModel {
                alu: 99,
                ..CostModel::default()
            },
            ..VmConfig::default()
        };
        let _ = Code::from(&prepared).execute(Request::new(&cfg));
    }
}

//! The reference tree-walking interpreter.
//!
//! This is the original execution engine: it walks the [`Module`] IR
//! directly, re-deriving instruction costs from the [`CostModel`] on every
//! step, resolving block targets through the function on every transfer,
//! and probing a per-run `HashSet<(BlockId, BlockId)>` on every control
//! transfer for the Property 1 backedge accounting (the set itself is
//! recomputed by `loops::backedges` on every run).
//!
//! It is [`Engine::Naive`](crate::Engine::Naive). Production code runs
//! the pre-decoded engines in `interp` / `prepared`; this module exists
//! as the *semantic reference* they are differentially tested against
//! (the `tests` crate loops over [`Engine::ALL`](crate::Engine::ALL) and
//! asserts identical [`Outcome`]s on generated programs) and as the naive
//! side of the `interp_dispatch` ablation bench. It stays a separate
//! implementation on purpose. Keep its behaviour frozen: any observable
//! divergence from the prepared engine is a bug in one of the two.

use std::collections::HashSet;

use isf_ir::{loops, BlockId, CallSiteId, FuncId, Inst, InstrOp, LocalId, Module, Term};
use isf_profile::ProfileData;

use crate::cancel::{CancelToken, NAIVE_POLL_INTERVAL};
use crate::error::{TrapKind, VmError};
use crate::heap::Heap;
use crate::interp::VmConfig;
use crate::outcome::Outcome;
use crate::profile::{opcode_of_inst, opcode_of_term, ProfileSink};
use crate::sched::{SchedControl, ThreadTable};
use crate::trace::{BurstRecord, TraceSink};
use crate::trigger::TriggerState;
use crate::value::Value;

/// The reference engine's half of [`Code::execute`](crate::Code::execute):
/// runs `module` to completion under `config`, recording into `sink` and
/// `profile` and scheduling through `sched`.
///
/// Sample points are named by the same `(func, check_ip)` arena
/// coordinates the pre-decoded engine reports, and dispatches are
/// classified into the opcode indices the unfused prepared decode assigns
/// (see [`crate::profile`]); reschedule points follow the same simulated
/// clock. So a naive trace, profile or [`crate::ScheduleTrace`] is
/// comparable with, and by the differential tests identical to, an
/// unfused prepared one of the same run.
pub(crate) fn execute<S: TraceSink, P: ProfileSink>(
    module: &Module,
    config: &VmConfig,
    sink: &mut S,
    profile: &mut P,
    sched: &mut SchedControl,
    cancel: Option<&CancelToken>,
) -> Result<Outcome, VmError> {
    let mut machine = Machine::new(module, config, sink, profile, sched, cancel);
    let result = machine.run_to_completion();
    match result {
        Ok(()) => Ok(machine.into_outcome()),
        Err(kind) => Err(VmError {
            function: machine.current_function_name(),
            kind,
        }),
    }
}

struct Frame {
    func: FuncId,
    block: BlockId,
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

enum Step {
    Ran,
    SwitchRequested,
}

struct Machine<'m, 's, S: TraceSink, P: ProfileSink> {
    module: &'m Module,
    sink: &'s mut S,
    /// Per-opcode dispatch-profile sink; recording sites are guarded by
    /// `if P::ENABLED`, so [`NoMetrics`](crate::NoMetrics) compiles them
    /// away.
    psink: &'s mut P,
    /// Per-function arena offset of each block (instructions plus the
    /// inlined terminator, as the prepared engine lays them out), so burst
    /// records name sample points by the same `(func, check_ip)`
    /// coordinates. Only computed when the sink is enabled.
    block_starts: Vec<Vec<u32>>,
    /// Clock snapshots at the previous sample, for burst lengths.
    last_sample_cycles: u64,
    last_sample_instructions: u64,
    cost: crate::cost::CostModel,
    trigger: TriggerState,
    timeslice: u64,
    max_cycles: Option<u64>,
    max_stack: usize,
    /// The request's cooperative-cancellation token
    /// ([`Request::cancel`](crate::Request::cancel)). This engine has no
    /// cheap control-transfer funnel, so it polls every
    /// [`NAIVE_POLL_INTERVAL`] dispatches instead of at block entries.
    cancel: Option<&'s CancelToken>,
    /// Dispatches left until the next epoch poll.
    poll_in: u32,
    heap: Heap,
    /// Every thread's state and whole stack, the running one's included.
    threads: ThreadTable<Vec<Frame>>,
    /// Per-function backedge sets of the *executed* module, for the
    /// Property 1 accounting.
    backedges: Vec<HashSet<(BlockId, BlockId)>>,
    // Clock and scheduler bit.
    cycles: u64,
    next_switch: u64,
    switch_bit: bool,
    /// Reusable scratch buffer for call-argument marshalling, so
    /// `Call`/`CallMethod`/`Spawn` don't allocate a fresh `Vec` per call.
    arg_scratch: Vec<Value>,
    // Counters.
    instructions: u64,
    checks_executed: u64,
    samples_taken: u64,
    yields_executed: u64,
    entries_executed: u64,
    backedges_executed: u64,
    output: Vec<i64>,
    profile: ProfileData,
    /// Scheduling seam: picks the next thread at every reschedule point,
    /// exactly as the prepared engine's (`interp::Machine::sched`).
    sched: &'s mut SchedControl,
}

impl<'m, 's, S: TraceSink, P: ProfileSink> Machine<'m, 's, S, P> {
    fn new(
        module: &'m Module,
        config: &VmConfig,
        sink: &'s mut S,
        psink: &'s mut P,
        sched: &'s mut SchedControl,
        cancel: Option<&'s CancelToken>,
    ) -> Self {
        let backedges = module
            .functions()
            .map(|(_, f)| loops::backedges(f).into_iter().collect())
            .collect();
        let block_starts = if S::ENABLED {
            module
                .functions()
                .map(|(_, f)| {
                    let mut starts = Vec::with_capacity(f.num_blocks());
                    let mut offset = 0u32;
                    for (_, b) in f.blocks() {
                        starts.push(offset);
                        offset += b.insts().len() as u32 + 1;
                    }
                    starts
                })
                .collect()
        } else {
            Vec::new()
        };
        let main_frame = Frame {
            func: module.main(),
            block: BlockId::new(0),
            ip: 0,
            locals: vec![Value::Unit; module.function(module.main()).num_locals()],
            ret_dst: None,
            caller: None,
            path_reg: None,
        };
        Machine {
            module,
            sink,
            psink,
            block_starts,
            last_sample_cycles: 0,
            last_sample_instructions: 0,
            cost: config.cost,
            trigger: TriggerState::new(config.trigger),
            timeslice: config.timeslice.max(1),
            max_cycles: config.limits.max_cycles,
            max_stack: config.limits.max_stack,
            cancel,
            poll_in: NAIVE_POLL_INTERVAL,
            heap: Heap::with_limit(config.limits.max_heap_words),
            threads: ThreadTable::new(vec![main_frame]),
            backedges,
            cycles: 0,
            next_switch: config.timeslice.max(1),
            switch_bit: false,
            arg_scratch: Vec::new(),
            instructions: 0,
            checks_executed: 0,
            samples_taken: 0,
            yields_executed: 0,
            entries_executed: 1, // main's method entry
            backedges_executed: 0,
            output: Vec::new(),
            profile: ProfileData::new(),
            sched,
        }
    }

    fn into_outcome(self) -> Outcome {
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
            .map(|f| self.module.function(f.func).name().to_owned())
            .unwrap_or_else(|| "<no frame>".to_owned())
    }

    /// Steps the current thread; a switch request ends its slice, and the
    /// thread table decides what runs next, as for the prepared engine.
    fn run_to_completion(&mut self) -> Result<(), TrapKind> {
        loop {
            if let Step::SwitchRequested = self.profiled_step()? {
                if !self.threads.after_slice(self.sched)? {
                    return Ok(());
                }
            }
        }
    }

    #[inline]
    fn charge(&mut self, c: u64) -> Result<(), TrapKind> {
        self.cycles += c;
        self.instructions += 1;
        self.trigger.on_tick(self.cycles);
        if self.cycles >= self.next_switch {
            self.switch_bit = true;
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
        // Epoch poll, amortized over a fixed dispatch count. The
        // countdown only runs while a token is armed, so clean runs pay
        // one never-taken branch here.
        if let Some(t) = &self.cancel {
            self.poll_in -= 1;
            if self.poll_in == 0 {
                self.poll_in = NAIVE_POLL_INTERVAL;
                if t.fired() {
                    return Err(TrapKind::Cancelled);
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn frame(&self) -> &Frame {
        self.threads
            .stack(self.threads.current())
            .last()
            .expect("runnable thread has a frame")
    }

    #[inline]
    fn frame_mut(&mut self) -> &mut Frame {
        let t = self.threads.current();
        self.threads
            .stack_mut(t)
            .last_mut()
            .expect("runnable thread has a frame")
    }

    #[inline]
    fn get(&self, l: LocalId) -> Value {
        self.frame().locals[l.index()]
    }

    #[inline]
    fn set(&mut self, l: LocalId, v: Value) {
        self.frame_mut().locals[l.index()] = v;
    }

    #[inline]
    fn advance(&mut self) {
        self.frame_mut().ip += 1;
    }

    /// Records a burst boundary at a firing check, naming the sample point
    /// by the same arena coordinates the prepared engine uses: the block's
    /// arena offset plus its instruction count (the inlined terminator).
    fn record_sample(&mut self, func: FuncId, block: BlockId, sample: BlockId, cont: BlockId) {
        let check_ip = self.block_starts[func.index()][block.index()]
            + self.module.function(func).block(block).insts().len() as u32;
        let back = &self.backedges[func.index()];
        self.sink.record(BurstRecord {
            thread: self.threads.current() as u32,
            func: func.index() as u32,
            check_ip,
            backedge: back.contains(&(block, sample)) || back.contains(&(block, cont)),
            len_instructions: self.instructions - self.last_sample_instructions,
            len_cycles: self.cycles - self.last_sample_cycles,
        });
        self.last_sample_instructions = self.instructions;
        self.last_sample_cycles = self.cycles;
    }

    fn goto(&mut self, to: BlockId) {
        let frame = self.frame();
        let from = frame.block;
        if self.backedges[frame.func.index()].contains(&(from, to)) {
            self.backedges_executed += 1;
        }
        let frame = self.frame_mut();
        frame.block = to;
        frame.ip = 0;
    }

    fn push_frame(
        &mut self,
        callee: FuncId,
        args: &[Value],
        ret_dst: Option<LocalId>,
        caller: Option<(FuncId, CallSiteId)>,
        thread: usize,
    ) -> Result<(), TrapKind> {
        if self.threads.stack(thread).len() >= self.max_stack {
            return Err(TrapKind::StackOverflow(self.max_stack));
        }
        let f = self.module.function(callee);
        debug_assert_eq!(f.arity(), args.len());
        let mut locals = vec![Value::Unit; f.num_locals()];
        locals[..args.len()].copy_from_slice(args);
        self.threads.stack_mut(thread).push(Frame {
            func: callee,
            block: BlockId::new(0),
            ip: 0,
            locals,
            ret_dst,
            caller,
            path_reg: None,
        });
        self.entries_executed += 1;
        Ok(())
    }

    /// [`Machine::step`] wrapped in per-opcode attribution: the dispatched
    /// instruction or terminator is classified before the step and the
    /// clock delta across it recorded after, so a firing check's
    /// sample-switch surcharge and the partial charge of a trapping step
    /// land on the op that incurred them. This engine is the slow
    /// reference, so it affords the straightforward per-dispatch recording
    /// that the pre-decoded engine replaces with post-run slot-count
    /// folding — the differential tests hold the two to identical
    /// profiles. With [`NoMetrics`](crate::NoMetrics) this *is* `step()`.
    #[inline]
    fn profiled_step(&mut self) -> Result<Step, TrapKind> {
        if !P::ENABLED {
            return self.step();
        }
        let frame = self.frame();
        let b = self.module.function(frame.func).block(frame.block);
        let opcode = if frame.ip < b.insts().len() {
            opcode_of_inst(&b.insts()[frame.ip])
        } else {
            opcode_of_term(b.term())
        };
        let before = self.cycles;
        let result = self.step();
        self.psink
            .record_dispatches(opcode, 1, 1, self.cycles - before);
        result
    }

    fn step(&mut self) -> Result<Step, TrapKind> {
        let frame = self.frame();
        let func_id = frame.func;
        let block = frame.block;
        let ip = frame.ip;
        let f = self.module.function(func_id);
        let b = f.block(block);

        if ip < b.insts().len() {
            let inst = &b.insts()[ip];
            self.charge(self.cost.inst_cost(inst))?;
            return self.exec_inst(func_id, inst);
        }

        // Terminator.
        let term = b.term();
        self.charge(self.cost.term_cost(term))?;
        match term {
            Term::Jump(t) => self.goto(*t),
            Term::Br { cond, t, f } => {
                let c = self.get(*cond).as_bool()?;
                let target = if c { *t } else { *f };
                self.goto(target);
            }
            Term::Ret(v) => {
                let value = v.map(|l| self.get(l)).unwrap_or(Value::Unit);
                let t = self.threads.current();
                let frames = self.threads.stack_mut(t);
                let frame = frames.pop().expect("ret pops the current frame");
                if frames.is_empty() {
                    self.threads.finish();
                    return Ok(Step::SwitchRequested);
                }
                if let Some(dst) = frame.ret_dst {
                    self.set(dst, value);
                }
            }
            Term::Check { sample, cont } => {
                self.checks_executed += 1;
                let fire = self.trigger.on_check(self.threads.current());
                if fire {
                    self.samples_taken += 1;
                    if S::ENABLED {
                        self.record_sample(func_id, block, *sample, *cont);
                    }
                    if P::ENABLED {
                        self.psink.record_sample(self.cycles, self.checks_executed);
                    }
                    // Jumping into cold duplicated code costs extra
                    // (instruction-cache effects, §4.4 footnote 6).
                    self.cycles += self.cost.sample_switch;
                    self.goto(*sample);
                } else {
                    self.goto(*cont);
                }
            }
        }
        Ok(Step::Ran)
    }

    fn exec_inst(&mut self, func_id: FuncId, inst: &Inst) -> Result<Step, TrapKind> {
        match inst {
            Inst::Const { dst, value } => {
                let v = match value {
                    isf_ir::Const::I64(n) => Value::I64(*n),
                    isf_ir::Const::Bool(b) => Value::Bool(*b),
                    isf_ir::Const::Null => Value::Null,
                };
                self.set(*dst, v);
            }
            Inst::Move { dst, src } => {
                let v = self.get(*src);
                self.set(*dst, v);
            }
            Inst::Un { op, dst, src } => {
                let v = Value::unary(*op, self.get(*src))?;
                self.set(*dst, v);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let v = Value::binary(*op, self.get(*lhs), self.get(*rhs))?;
                self.set(*dst, v);
            }
            Inst::New { dst, class } => {
                let num_fields = self.module.class(*class).num_fields();
                let v = self.heap.alloc_object(*class, num_fields)?;
                self.set(*dst, v);
            }
            Inst::GetField { dst, obj, field } => {
                let o = self.get(*obj);
                let object = self.heap.object(o)?;
                let offset = self
                    .module
                    .class(object.class)
                    .field_offset(*field)
                    .ok_or_else(|| {
                        TrapKind::NoSuchField(self.module.field_name(*field).to_owned())
                    })?;
                let v = object.fields[offset];
                self.set(*dst, v);
            }
            Inst::SetField { obj, field, src } => {
                let o = self.get(*obj);
                let v = self.get(*src);
                let class = self.heap.object(o)?.class;
                let offset = self
                    .module
                    .class(class)
                    .field_offset(*field)
                    .ok_or_else(|| {
                        TrapKind::NoSuchField(self.module.field_name(*field).to_owned())
                    })?;
                self.heap.object_mut(o)?.fields[offset] = v;
            }
            Inst::NewArray { dst, len } => {
                let n = self.get(*len).as_i64()?;
                let v = self.heap.alloc_array(n)?;
                self.set(*dst, v);
            }
            Inst::ArrayGet { dst, arr, idx } => {
                let a = self.get(*arr);
                let i = self.get(*idx).as_i64()?;
                let v = self.heap.array_get(a, i)?;
                self.set(*dst, Value::I64(v));
            }
            Inst::ArraySet { arr, idx, src } => {
                let a = self.get(*arr);
                let i = self.get(*idx).as_i64()?;
                let v = self.get(*src).as_i64()?;
                self.heap.array_set(a, i, v)?;
            }
            Inst::ArrayLen { dst, arr } => {
                let a = self.get(*arr);
                let n = self.heap.array_len(a)?;
                self.set(*dst, Value::I64(n));
            }
            Inst::Call {
                dst,
                callee,
                args,
                site,
            } => {
                let mut vals = std::mem::take(&mut self.arg_scratch);
                vals.extend(args.iter().map(|a| self.get(*a)));
                self.advance();
                let t = self.threads.current();
                let r = self.push_frame(*callee, &vals, *dst, Some((func_id, *site)), t);
                vals.clear();
                self.arg_scratch = vals;
                r?;
                return Ok(Step::Ran);
            }
            Inst::CallMethod {
                dst,
                obj,
                method,
                args,
                site,
            } => {
                let o = self.get(*obj);
                let class = self.heap.object(o)?.class;
                let callee = self
                    .module
                    .class(class)
                    .resolve_method(*method)
                    .ok_or_else(|| {
                        TrapKind::NoSuchMethod(self.module.method_name(*method).to_owned())
                    })?;
                let expected = self.module.function(callee).arity();
                if expected != args.len() + 1 {
                    return Err(TrapKind::ArityMismatch {
                        method: self.module.function(callee).name().to_owned(),
                        given: args.len() + 1,
                        expected,
                    });
                }
                let mut vals = std::mem::take(&mut self.arg_scratch);
                vals.push(o);
                vals.extend(args.iter().map(|a| self.get(*a)));
                self.advance();
                let t = self.threads.current();
                let r = self.push_frame(callee, &vals, *dst, Some((func_id, *site)), t);
                vals.clear();
                self.arg_scratch = vals;
                r?;
                return Ok(Step::Ran);
            }
            Inst::Print { src } => {
                let v = self.get(*src);
                let n = match v {
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
            }
            Inst::Spawn { dst, callee, args } => {
                let mut vals = std::mem::take(&mut self.arg_scratch);
                vals.extend(args.iter().map(|a| self.get(*a)));
                let tid = self.threads.spawn(Vec::new());
                let r = self.push_frame(*callee, &vals, None, None, tid);
                vals.clear();
                self.arg_scratch = vals;
                r?;
                self.set(*dst, Value::Thread(tid as u32));
            }
            Inst::Join { thread } => {
                let t = match self.get(*thread) {
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
                    // Do not advance: the join re-executes when unblocked.
                    return Ok(Step::SwitchRequested);
                }
            }
            Inst::Yield => {
                self.yields_executed += 1;
                if self.switch_bit {
                    self.switch_bit = false;
                    self.advance();
                    return Ok(Step::SwitchRequested);
                }
            }
            Inst::Busy { .. } => {
                // The cost was already charged; nothing else happens.
            }
            Inst::Instr(op) => self.exec_instr_op(func_id, op)?,
        }
        self.advance();
        Ok(Step::Ran)
    }

    fn exec_instr_op(&mut self, func_id: FuncId, op: &InstrOp) -> Result<(), TrapKind> {
        match op {
            InstrOp::CallEdge => {
                // Examine the call stack (paper §4.2): the caller and the
                // call site were stashed in the frame at call time.
                if let Some((caller, site)) = self.frame().caller {
                    self.profile.record_call_edge(caller, site, func_id);
                }
            }
            InstrOp::FieldAccess { obj, field, write } => {
                let o = self.get(*obj);
                let class = self.heap.object(o)?.class;
                self.profile.record_field_access(class, *field, *write);
            }
            InstrOp::BlockCount { block } => {
                self.profile.record_block(func_id, *block);
            }
            InstrOp::EdgeCount { from, to } => {
                self.profile.record_edge(func_id, *from, *to);
            }
            InstrOp::PathStart { value } => {
                self.frame_mut().path_reg = Some(i64::from(*value));
            }
            InstrOp::PathIncr { delta } => {
                let d = i64::from(*delta);
                if let Some(r) = self.frame_mut().path_reg.as_mut() {
                    *r += d;
                }
            }
            InstrOp::PathEnd { site } => {
                let site = *site;
                if let Some(id) = self.frame_mut().path_reg.take() {
                    self.profile.record_path(func_id, site, id);
                }
            }
            InstrOp::ValueProfile { local, site } => {
                let v = match self.get(*local) {
                    Value::I64(n) => n,
                    Value::Bool(b) => i64::from(b),
                    // Reference values are profiled by identity.
                    Value::Obj(h) | Value::Arr(h) | Value::Thread(h) => i64::from(h),
                    Value::Null => -1,
                    Value::Unit => 0,
                };
                self.profile.record_value(func_id, *site, v);
            }
        }
        Ok(())
    }
}

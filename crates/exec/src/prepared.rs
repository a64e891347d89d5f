//! Pre-decoded modules: the one-time `prepare` pass that flattens a
//! [`Module`] into the dense form the interpreter's hot loop executes.
//!
//! Preparation does, once per (module, cost model):
//!
//! * **Arena flattening.** Each function's blocks are laid out back to back
//!   in one contiguous [`Op`] vector, with the terminator inlined as the
//!   block's final op. The hot loop fetches `ops[ip]` — no block lookup,
//!   no separate instruction/terminator fetch.
//! * **Target pre-resolution.** Branch targets are absolute arena indices,
//!   not [`BlockId`]s resolved through the function on every transfer.
//! * **Cost pre-folding.** Every op carries its cycle cost, folded from
//!   the [`CostModel`] at prepare time; the hot loop never re-derives a
//!   cost from instruction shape.
//! * **Backedge pre-classification.** The per-function `loops::backedges`
//!   analysis runs once here and is baked into per-edge flags on each
//!   terminator, replacing the per-run analysis and per-transfer
//!   `HashSet<(BlockId, BlockId)>` probes of the naive interpreter.
//! * **Operand pre-resolution.** Constants become runtime [`Value`]s,
//!   `new` carries its class's field count, and Ball–Larus path constants
//!   are widened to `i64` up front.
//! * **Dense dispatch tables.** Field offsets and method implementations
//!   are resolved for every (class, symbol) pair into flat arrays, so a
//!   field access or a virtual call in the hot loop is one indexed load
//!   instead of a per-access hash-map probe through the class table.
//!
//! The pass is observable through [`thread_preparations`], a per-thread
//! counter the harness asserts against to prove each experiment cell
//! prepares its module exactly once, however many times it re-runs it.

use std::collections::HashSet;
use std::sync::OnceLock;

use isf_ir::{
    loops, BinOp, BlockId, CallSiteId, ClassId, Const, FieldSym, FuncId, Function, Inst, InstrOp,
    LocalId, MethodSym, Module, Term, UnOp,
};

use crate::cost::CostModel;
use crate::profile::FuseGuidance;
use crate::value::Value;

thread_local! {
    /// Per-thread preparation count. An experiment cell runs entirely on
    /// one thread, so this gives a race-free once-per-cell assertion even
    /// while other threads prepare their own cells concurrently.
    static THREAD_PREPARATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of `prepare` passes executed by the *calling thread*, immune to
/// concurrent preparations on other threads.
pub fn thread_preparations() -> u64 {
    THREAD_PREPARATIONS.with(|c| c.get())
}

/// Whether preparation runs the superinstruction fusion and static slot
/// resolution passes.
///
/// Fusion is observably equivalent: fused runs produce byte-identical
/// output, cycle counts, traps and profiles — only wall-clock time
/// changes. [`FuseMode::Off`] keeps the unfused pipeline alive as an
/// escape hatch and differential-testing baseline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FuseMode {
    /// Decode only, exactly the pre-fusion pipeline.
    Off,
    /// Decode, then peephole-fuse superinstructions and statically resolve
    /// field slots and method targets (the default).
    Fuse,
    /// [`FuseMode::Fuse`] plus a profile-guided pass: a per-block dynamic
    /// program over the warmup weights in the carried [`FuseGuidance`]
    /// re-partitions each block so that (a) catalogue templates apply
    /// where the greedy left-to-right pass consumed their prefix for a
    /// lesser match, and (b) hot sequences the fixed catalogue cannot
    /// express (call-adjacent moves, getfield chains feeding calls,
    /// arg-marshalling runs) fuse into the generalized
    /// `OpKind::Guided` template. Observably identical to `Off`/`Fuse`:
    /// guided groups charge per component, so cycles, traps and profiles
    /// stay on the unfused schedule. Boxed: the weight table is ~264
    /// bytes, and the common `Off`/`Fuse` values should stay
    /// pointer-sized.
    Guided(Box<FuseGuidance>),
}

/// The process's default fuse mode, behind `Engine::default()`:
/// [`FuseMode::Off`] when the `ISF_FUSE` environment variable (read once
/// per process) is `0`/`off`/`false`, else [`FuseMode::Fuse`].
pub fn fuse_mode() -> FuseMode {
    static ENV: OnceLock<FuseMode> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("ISF_FUSE").ok().as_deref() {
        Some("0") | Some("off") | Some("false") => FuseMode::Off,
        _ => FuseMode::Fuse,
    })
    .clone()
}

/// One decoded operation: its pre-folded cycle cost plus the decoded form.
#[derive(Clone, Debug)]
pub(crate) struct Op {
    /// Cycles charged when this op executes (the check's sample-switch
    /// surcharge is the one cost still applied conditionally at runtime).
    /// For a fused superinstruction this is the summed cost of the whole
    /// group (except the branch half of `BrCmp`/`BrCmpImm`, charged by the
    /// arm after the compare so budget traps land exactly where the
    /// unfused sequence would put them).
    pub(crate) cost: u64,
    /// Source instructions this op accounts for: 1 for a plain op, the
    /// group size for a fused superinstruction. Sequential flow advances
    /// `ip` by this amount, skipping the inert [`OpKind::Gap`] fillers.
    pub(crate) width: u32,
    pub(crate) kind: OpKind,
}

/// The decoded instruction set the hot loop dispatches on. Instructions
/// and terminators share one enum so a block is a flat run of ops ending
/// in a control transfer.
#[derive(Clone, Debug)]
pub(crate) enum OpKind {
    /// `dst = value`, with the constant already converted to a [`Value`].
    Const {
        dst: LocalId,
        value: Value,
    },
    Move {
        dst: LocalId,
        src: LocalId,
    },
    Un {
        op: UnOp,
        dst: LocalId,
        src: LocalId,
    },
    Bin {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
    },
    /// Allocation with the field count pre-resolved from the class table.
    New {
        dst: LocalId,
        class: ClassId,
        num_fields: usize,
    },
    GetField {
        dst: LocalId,
        obj: LocalId,
        field: FieldSym,
    },
    SetField {
        obj: LocalId,
        field: FieldSym,
        src: LocalId,
    },
    /// `GetField` whose slot is identical in every class of the module,
    /// resolved at prepare time: no per-access dispatch-table probe, and
    /// `NoSuchField` is statically impossible.
    GetFieldStatic {
        dst: LocalId,
        obj: LocalId,
        offset: u32,
    },
    /// `SetField` with a statically uniform slot.
    SetFieldStatic {
        obj: LocalId,
        offset: u32,
        src: LocalId,
    },
    NewArray {
        dst: LocalId,
        len: LocalId,
    },
    ArrayGet {
        dst: LocalId,
        arr: LocalId,
        idx: LocalId,
    },
    ArraySet {
        arr: LocalId,
        idx: LocalId,
        src: LocalId,
    },
    ArrayLen {
        dst: LocalId,
        arr: LocalId,
    },
    Call {
        dst: Option<LocalId>,
        callee: FuncId,
        args: Box<[LocalId]>,
        site: CallSiteId,
    },
    CallMethod {
        dst: Option<LocalId>,
        obj: LocalId,
        method: MethodSym,
        args: Box<[LocalId]>,
        site: CallSiteId,
    },
    /// `CallMethod` whose method symbol resolves to one implementation in
    /// every class of the module (and whose arity was checked at prepare
    /// time): the vtable probe and arity check leave the hot loop. The
    /// receiver is still null/type-checked at runtime.
    CallMethodStatic {
        dst: Option<LocalId>,
        obj: LocalId,
        callee: FuncId,
        args: Box<[LocalId]>,
        site: CallSiteId,
    },
    Print {
        src: LocalId,
    },
    Spawn {
        dst: LocalId,
        callee: FuncId,
        args: Box<[LocalId]>,
    },
    Join {
        thread: LocalId,
    },
    Yield,
    /// The cost field carries the whole effect.
    Busy,
    // Instrumentation operations, decoded from `Inst::Instr`.
    CallEdge,
    FieldAccessProf {
        obj: LocalId,
        field: FieldSym,
        write: bool,
    },
    BlockCount {
        block: BlockId,
    },
    EdgeCount {
        from: BlockId,
        to: BlockId,
    },
    ValueProfile {
        local: LocalId,
        site: u32,
    },
    PathStart {
        value: i64,
    },
    PathIncr {
        delta: i64,
    },
    PathEnd {
        site: u32,
    },
    // Terminators, with targets as absolute arena indices and backedge
    // membership pre-classified per edge.
    Jump {
        target: u32,
        backedge: bool,
    },
    Br {
        cond: LocalId,
        t: u32,
        f: u32,
        t_backedge: bool,
        f_backedge: bool,
    },
    Ret {
        val: Option<LocalId>,
    },
    Check {
        sample: u32,
        cont: u32,
        sample_backedge: bool,
        cont_backedge: bool,
    },
    // Fused superinstructions (built only under `FuseMode::Fuse`). Each
    // replaces its group's first arena slot; the interior slots become
    // inert `Gap` fillers so every arena index — branch targets, trace
    // `check_ip`s — is preserved. A fused group never contains a `Check`,
    // a `Yield`, a backedge, or (except as the final component) an op
    // that can trap, which is what makes the single up-front charge of
    // the summed cost observably identical to charging per op.
    /// `tmp = imm; dst = lhs op rhs` (a `Const` feeding a `Bin`).
    BinImm {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        tmp: LocalId,
        imm: Value,
    },
    /// A comparison `Bin` feeding the block's `Br`: branch straight on the
    /// comparison without a separate dispatch for the bool. `extra` is the
    /// branch's cost, charged after the compare executes so a fuel trap
    /// lands between the two exactly as in the unfused sequence. Backedge
    /// branches are never fused, so no backedge flags are needed.
    BrCmp {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        extra: u64,
        t: u32,
        f: u32,
    },
    /// `Const` + comparison-`Bin` + `Br` — the dominant tight-loop shape
    /// (`while (i < n)` against a literal bound).
    BrCmpImm {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        tmp: LocalId,
        imm: Value,
        extra: u64,
        t: u32,
        f: u32,
    },
    /// `tmp = obj.field; dst = lhs <op> rhs` where the load feeds one
    /// operand. Both halves can trap, so only the load's cost is folded
    /// into [`Op::cost`]; `extra` (the binary op's cost) is charged by the
    /// arm between the halves, exactly where the unfused dispatch would
    /// charge it.
    GetFieldBin {
        obj: LocalId,
        offset: u32,
        tmp: LocalId,
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        extra: u64,
    },
    /// `dst = lhs <op> rhs; obj.field = dst` — a computed value stored
    /// straight into a field. `extra` is the store's cost, charged after
    /// the binary op executes.
    BinSetField {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        obj: LocalId,
        offset: u32,
        extra: u64,
    },
    /// `tmp = imm; dst = lhs <op> rhs; obj.field = dst` — the full
    /// constant-operand compute-and-store tail of `o.f = <expr> <op> K;`.
    /// [`Op::cost`] folds the constant and the binary op; `extra` is the
    /// store's cost, charged between the op and the store.
    BinImmSetField {
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        tmp: LocalId,
        imm: Value,
        obj: LocalId,
        offset: u32,
        extra: u64,
    },
    /// `tmp = obj.field; ctmp = imm; dst = lhs <op> rhs` — a field load
    /// combined with a constant (`self.hash * 31`). `extra` folds the
    /// constant's and the binary op's costs (the constant can't trap, so
    /// the two charges merge), charged after the load executes.
    GetFieldBinImm {
        obj: LocalId,
        offset: u32,
        tmp: LocalId,
        ctmp: LocalId,
        imm: Value,
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        extra: u64,
    },
    /// `tmp = obj.field; ctmp = imm; dst = lhs <op> rhs; sobj.sfield =
    /// dst` — a whole field update with a constant operand
    /// (`self.pos = self.pos + 1`). `extra` folds the constant's and the
    /// binary op's costs (charged after the load), `extra2` is the
    /// store's cost (charged after the binary op).
    GetFieldBinImmSetField {
        obj: LocalId,
        offset: u32,
        tmp: LocalId,
        ctmp: LocalId,
        imm: Value,
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        sobj: LocalId,
        soffset: u32,
        extra: u64,
        extra2: u64,
    },
    /// `tmp = imm; obj.field = tmp` — a constant stored into a field
    /// (`self.run = 0`). Only the final store can trap, so the whole
    /// cost folds into [`Op::cost`].
    ConstSetField {
        tmp: LocalId,
        imm: Value,
        obj: LocalId,
        offset: u32,
    },
    /// `tmp = obj.field; dst = lhs <op> rhs; br dst ? t : f` — the
    /// field-loaded compare-and-branch of a loop header
    /// (`while (self.pos < stop)`). Three trap/charge points, so the
    /// compare's cost (`extra`) and the branch's cost (`branch`) are both
    /// charged separately at their unfused positions. Only built when
    /// neither edge is a backedge.
    GetFieldBrCmp {
        obj: LocalId,
        offset: u32,
        tmp: LocalId,
        op: BinOp,
        dst: LocalId,
        lhs: LocalId,
        rhs: LocalId,
        extra: u64,
        branch: u64,
        t: u32,
        f: u32,
    },
    /// `tmp = obj.field; dst = arr[tmp]` — a field-indexed array load
    /// (`data[self.pos]`). `extra` is the load's cost, charged between
    /// the halves.
    GetFieldArrayGet {
        obj: LocalId,
        offset: u32,
        tmp: LocalId,
        dst: LocalId,
        arr: LocalId,
        extra: u64,
    },
    /// `tmp = obj.field; arr[tmp] = src` — a field-indexed array store
    /// (`out[self.pos] = b`). `extra` is the store's cost.
    GetFieldArraySet {
        obj: LocalId,
        offset: u32,
        tmp: LocalId,
        arr: LocalId,
        src: LocalId,
        extra: u64,
    },
    /// The generalized profile-guided template ([`FuseMode::Guided`]): a
    /// mined run of two or three plain components executed under one
    /// dispatch. Unlike the fixed catalogue above, every component's cost
    /// is charged individually — [`Op::cost`] carries only the first
    /// component's, `extra` pre-sums the rest for profile folding — so
    /// charge/execute interleaving, traps, timer ticks and switch-bit
    /// catch-ups are positionally identical to the unfused sequence for
    /// *any* component mix, including components that trap mid-group.
    /// Components are plain ops from the guided-eligible set
    /// (const/move/un/bin, statically resolved field accesses, array ops),
    /// with a direct or static-method call allowed as the final component.
    Guided {
        /// `(cost, component)` per source instruction, in order.
        steps: Box<[(u64, OpKind)]>,
        /// Pre-summed cost of `steps[1..]` (everything charged mid-arm).
        extra: u64,
    },
    /// An inert filler occupying the interior slot of a fused group.
    /// Unreachable: sequential flow skips it via the leader's width, and
    /// branch targets only ever point at block starts.
    Gap,
}

impl OpKind {
    /// This op's index in the profiling opcode space
    /// ([`crate::profile::OPCODE_NAMES`]). The plain decoded forms map to
    /// the same indices the tree-walking engine assigns the corresponding
    /// `Inst`/`Term` dispatches, so unfused prepared profiles and naive
    /// profiles are directly comparable.
    pub(crate) const fn opcode(&self) -> usize {
        use crate::profile::*;
        match self {
            OpKind::Const { .. } => OPC_CONST,
            OpKind::Move { .. } => OPC_MOVE,
            OpKind::Un { .. } => OPC_UN,
            OpKind::Bin { .. } => OPC_BIN,
            OpKind::New { .. } => OPC_NEW,
            OpKind::GetField { .. } => OPC_GET_FIELD,
            OpKind::SetField { .. } => OPC_SET_FIELD,
            OpKind::NewArray { .. } => OPC_NEW_ARRAY,
            OpKind::ArrayGet { .. } => OPC_ARRAY_GET,
            OpKind::ArraySet { .. } => OPC_ARRAY_SET,
            OpKind::ArrayLen { .. } => OPC_ARRAY_LEN,
            OpKind::Call { .. } => OPC_CALL,
            OpKind::CallMethod { .. } => OPC_CALL_METHOD,
            OpKind::Print { .. } => OPC_PRINT,
            OpKind::Spawn { .. } => OPC_SPAWN,
            OpKind::Join { .. } => OPC_JOIN,
            OpKind::Yield => OPC_YIELD,
            OpKind::Busy => OPC_BUSY,
            OpKind::CallEdge => OPC_CALL_EDGE,
            OpKind::FieldAccessProf { .. } => OPC_FIELD_ACCESS_PROF,
            OpKind::BlockCount { .. } => OPC_BLOCK_COUNT,
            OpKind::EdgeCount { .. } => OPC_EDGE_COUNT,
            OpKind::ValueProfile { .. } => OPC_VALUE_PROFILE,
            OpKind::PathStart { .. } => OPC_PATH_START,
            OpKind::PathIncr { .. } => OPC_PATH_INCR,
            OpKind::PathEnd { .. } => OPC_PATH_END,
            OpKind::Jump { .. } => OPC_JUMP,
            OpKind::Br { .. } => OPC_BR,
            OpKind::Ret { .. } => OPC_RET,
            OpKind::Check { .. } => OPC_CHECK,
            OpKind::GetFieldStatic { .. } => OPC_GET_FIELD_STATIC,
            OpKind::SetFieldStatic { .. } => OPC_SET_FIELD_STATIC,
            OpKind::CallMethodStatic { .. } => OPC_CALL_METHOD_STATIC,
            OpKind::BinImm { .. } => OPC_BIN_IMM,
            OpKind::BrCmp { .. } => OPC_BR_CMP,
            OpKind::BrCmpImm { .. } => OPC_BR_CMP_IMM,
            OpKind::ConstSetField { .. } => OPC_CONST_SET_FIELD,
            OpKind::GetFieldBin { .. } => OPC_GET_FIELD_BIN,
            OpKind::BinSetField { .. } => OPC_BIN_SET_FIELD,
            OpKind::BinImmSetField { .. } => OPC_BIN_IMM_SET_FIELD,
            OpKind::GetFieldBinImm { .. } => OPC_GET_FIELD_BIN_IMM,
            OpKind::GetFieldBinImmSetField { .. } => OPC_GET_FIELD_BIN_IMM_SET_FIELD,
            OpKind::GetFieldBrCmp { .. } => OPC_GET_FIELD_BR_CMP,
            OpKind::GetFieldArrayGet { .. } => OPC_GET_FIELD_ARRAY_GET,
            OpKind::GetFieldArraySet { .. } => OPC_GET_FIELD_ARRAY_SET,
            OpKind::Guided { .. } => OPC_GUIDED,
            OpKind::Gap => OPC_GAP,
        }
    }

    /// Cycles this op charges *beyond* [`Op::cost`] when it runs to
    /// completion: the mid-arm `extra`/`branch` charges of the fused
    /// superinstructions whose components trap independently. Together
    /// with [`Op::cost`] this is the exact per-dispatch charge of every
    /// completed dispatch (the check's sample-switch surcharge, applied
    /// only when the check fires, is accounted separately), which is what
    /// lets the profiled engine reconstruct exact per-opcode cycle totals
    /// from bare slot execution counts after the run.
    pub(crate) const fn extra_cycles(&self) -> u64 {
        match self {
            OpKind::BrCmp { extra, .. }
            | OpKind::BrCmpImm { extra, .. }
            | OpKind::GetFieldBin { extra, .. }
            | OpKind::BinSetField { extra, .. }
            | OpKind::BinImmSetField { extra, .. }
            | OpKind::GetFieldBinImm { extra, .. }
            | OpKind::GetFieldArrayGet { extra, .. }
            | OpKind::GetFieldArraySet { extra, .. } => *extra,
            OpKind::GetFieldBinImmSetField { extra, extra2, .. } => *extra + *extra2,
            OpKind::GetFieldBrCmp { extra, branch, .. } => *extra + *branch,
            OpKind::Guided { extra, .. } => *extra,
            _ => 0,
        }
    }
}

impl Op {
    /// The charge schedule of one dispatch of this op: each inner vec is
    /// one `charge_cycles` quantum, listing the per-component (source
    /// instruction) costs it folds, in execution order. This is the
    /// unfused schedule the fusion pass folded [`Op::cost`] and the
    /// `extra` fields from; the profiled engine walks it on the trapping
    /// dispatch to attribute exactly the instructions and cycles the
    /// unfused schedule would have reached before the trap (see
    /// `fold_profile`). Total components always equal [`Op::width`] and
    /// total cycles equal `cost + extra_cycles()`.
    pub(crate) fn charge_quanta(&self, cm: &CostModel) -> Vec<Vec<u64>> {
        let bin = |op: &BinOp| match op {
            BinOp::Mul => cm.mul,
            BinOp::Div | BinOp::Rem => cm.div,
            _ => cm.alu,
        };
        let q = match &self.kind {
            OpKind::BinImm { op, .. } => vec![vec![cm.alu, bin(op)]],
            OpKind::BrCmp { op, extra, .. } => vec![vec![bin(op)], vec![*extra]],
            OpKind::BrCmpImm { op, extra, .. } => vec![vec![cm.alu, bin(op)], vec![*extra]],
            OpKind::ConstSetField { .. } => vec![vec![cm.alu, cm.field_access]],
            OpKind::GetFieldBin { extra, .. } | OpKind::BinSetField { extra, .. } => {
                vec![vec![self.cost], vec![*extra]]
            }
            OpKind::BinImmSetField { op, extra, .. } => vec![vec![cm.alu, bin(op)], vec![*extra]],
            OpKind::GetFieldBinImm { op, .. } => vec![vec![self.cost], vec![cm.alu, bin(op)]],
            OpKind::GetFieldBinImmSetField { op, extra2, .. } => {
                vec![vec![self.cost], vec![cm.alu, bin(op)], vec![*extra2]]
            }
            OpKind::GetFieldBrCmp { extra, branch, .. } => {
                vec![vec![self.cost], vec![*extra], vec![*branch]]
            }
            OpKind::GetFieldArrayGet { extra, .. } | OpKind::GetFieldArraySet { extra, .. } => {
                vec![vec![self.cost], vec![*extra]]
            }
            OpKind::Guided { steps, .. } => steps.iter().map(|(c, _)| vec![*c]).collect(),
            _ => vec![vec![self.cost]],
        };
        debug_assert_eq!(
            q.iter().flatten().sum::<u64>(),
            self.cost + self.kind.extra_cycles(),
            "charge quanta must decompose the op's exact per-dispatch charge"
        );
        debug_assert_eq!(
            q.iter().map(Vec::len).sum::<usize>(),
            self.width as usize,
            "charge quanta must have one component per source instruction"
        );
        q
    }
}

/// One function flattened into a contiguous op arena. The entry point is
/// always arena index 0 (block 0 is laid out first).
#[derive(Clone, Debug)]
pub(crate) struct PreparedFunction {
    pub(crate) ops: Vec<Op>,
    pub(crate) num_locals: usize,
    pub(crate) arity: usize,
    /// Superinstructions installed by the fusion pass (0 under
    /// [`FuseMode::Off`]).
    pub(crate) fused: usize,
    /// This function's offset into the module-wide slot space: arena slot
    /// `i` of this function is slot `slot_base + i` of the module. The
    /// profiled engine counts block entries per module slot and folds the
    /// counts back into per-opcode totals after the run.
    pub(crate) slot_base: u32,
    /// Arena offset of each block, in layout order (`block_starts[0] == 0`).
    /// Control only ever enters a block at its start, and only ever
    /// leaves through its final op — which is what lets the
    /// profiled engine reconstruct exact per-slot execution counts from
    /// per-entry counts by a prefix sum that resets at these boundaries.
    pub(crate) block_starts: Vec<u32>,
}

/// A module flattened for execution: the decoded op arenas plus the owned
/// source [`Module`] (still needed for runtime name/class resolution) and
/// the [`CostModel`] the costs were folded from.
///
/// Build once with [`Engine::load`](crate::Engine::load) (or
/// [`PreparedModule::prepare_with`]), then execute any number of times
/// through [`Code::execute`](crate::Code::execute) — Table 4, for
/// example, runs the same instrumented program at six sampling intervals,
/// amortizing one preparation over all of them.
#[derive(Clone, Debug)]
pub struct PreparedModule {
    /// Boxed: only traps and set-up read it, and a small
    /// `PreparedModule` keeps [`Code`](crate::Code) values small.
    module: Box<Module>,
    cost: CostModel,
    funcs: Vec<PreparedFunction>,
    /// Field slot per (class, field symbol), row-major by class.
    field_offsets: Box<[Option<u32>]>,
    num_field_syms: usize,
    /// Implementing function per (class, method symbol), row-major by
    /// class.
    method_impls: Box<[Option<FuncId>]>,
    num_method_syms: usize,
    /// The warmup guidance of a [`FuseMode::Guided`] preparation.
    guidance: Option<Box<FuseGuidance>>,
}

/// Module-wide static resolution tables: per-symbol slots and targets that
/// are identical in *every* class, so the decoded op can skip the
/// per-access (class, symbol) probe entirely.
struct Statics {
    /// Per [`FieldSym`]: the field's slot if every class places it there.
    field_slots: Vec<Option<u32>>,
    /// Per [`MethodSym`]: the implementation if every class resolves to it.
    method_targets: Vec<Option<FuncId>>,
}

impl Statics {
    fn resolve(module: &Module, mode: &FuseMode) -> Self {
        let num_fields = module.num_field_syms();
        let num_methods = module.num_method_syms();
        if matches!(mode, FuseMode::Off) || module.num_classes() == 0 {
            return Statics {
                field_slots: vec![None; num_fields],
                method_targets: vec![None; num_methods],
            };
        }
        let field_slots = (0..num_fields)
            .map(|s| {
                let sym = FieldSym::new(s as u32);
                let mut classes = module.classes();
                let first = classes.next()?.1.field_offset(sym)? as u32;
                classes
                    .all(|(_, c)| c.field_offset(sym) == Some(first as usize))
                    .then_some(first)
            })
            .collect();
        let method_targets = (0..num_methods)
            .map(|s| {
                let sym = MethodSym::new(s as u32);
                let mut classes = module.classes();
                let first = classes.next()?.1.resolve_method(sym)?;
                classes
                    .all(|(_, c)| c.resolve_method(sym) == Some(first))
                    .then_some(first)
            })
            .collect();
        Statics {
            field_slots,
            method_targets,
        }
    }
}

impl PreparedModule {
    /// Flattens `module` under `cost` in fuse mode `mode`. This is the
    /// only place the per-function backedge analysis runs.
    pub fn prepare_with(module: &Module, cost: &CostModel, mode: FuseMode) -> Self {
        THREAD_PREPARATIONS.with(|c| c.set(c.get() + 1));
        let statics = Statics::resolve(module, &mode);
        let mut slot_base = 0u32;
        let funcs: Vec<PreparedFunction> = module
            .functions()
            .map(|(_, f)| {
                let mut pf = prepare_function(module, f, cost, &mode, &statics);
                pf.slot_base = slot_base;
                slot_base += pf.ops.len() as u32;
                pf
            })
            .collect();
        let num_field_syms = module.num_field_syms();
        let num_method_syms = module.num_method_syms();
        let num_classes = module.num_classes();
        let mut field_offsets = vec![None; num_classes * num_field_syms];
        let mut method_impls = vec![None; num_classes * num_method_syms];
        for (id, class) in module.classes() {
            for s in 0..num_field_syms {
                field_offsets[id.index() * num_field_syms + s] = class
                    .field_offset(FieldSym::new(s as u32))
                    .map(|o| o as u32);
            }
            for s in 0..num_method_syms {
                method_impls[id.index() * num_method_syms + s] =
                    class.resolve_method(MethodSym::new(s as u32));
            }
        }
        PreparedModule {
            module: Box::new(module.clone()),
            cost: *cost,
            funcs,
            field_offsets: field_offsets.into_boxed_slice(),
            num_field_syms,
            method_impls: method_impls.into_boxed_slice(),
            num_method_syms,
            guidance: match mode {
                FuseMode::Guided(guidance) => Some(guidance),
                FuseMode::Off | FuseMode::Fuse => None,
            },
        }
    }

    /// The source module (for name, class and method resolution).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The cost model the op costs were folded from.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The warmup guidance this module was fused under ([`FuseMode::Guided`]
    /// only).
    pub fn guidance(&self) -> Option<&FuseGuidance> {
        self.guidance.as_deref()
    }

    /// Total decoded ops across all functions.
    pub fn num_ops(&self) -> usize {
        self.funcs.iter().map(|f| f.ops.len()).sum()
    }

    /// Total fused superinstructions across all functions (0 when prepared
    /// under [`FuseMode::Off`]).
    pub fn num_fused(&self) -> usize {
        self.funcs.iter().map(|f| f.fused).sum()
    }

    /// Fused groups using the generalized `OpKind::Guided` template (a
    /// subset of [`PreparedModule::num_fused`]; 0 unless prepared under
    /// [`FuseMode::Guided`]).
    pub fn num_guided(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| f.ops.iter())
            .filter(|o| matches!(o.kind, OpKind::Guided { .. }))
            .count()
    }

    #[inline]
    pub(crate) fn func(&self, id: FuncId) -> &PreparedFunction {
        &self.funcs[id.index()]
    }

    /// All prepared functions, in slot-space order (the post-run profile
    /// fold walks every arena once).
    #[inline]
    pub(crate) fn funcs(&self) -> &[PreparedFunction] {
        &self.funcs
    }

    /// Size of the module-wide slot space ([`PreparedFunction::slot_base`]
    /// plus arena length, over the last function) — the length of the
    /// profiled engine's execution-counter table.
    #[inline]
    pub(crate) fn total_slots(&self) -> usize {
        self.funcs
            .last()
            .map_or(0, |f| f.slot_base as usize + f.ops.len())
    }

    /// Pre-resolved field slot of `field` on `class`.
    #[inline]
    pub(crate) fn field_offset(&self, class: ClassId, field: FieldSym) -> Option<u32> {
        self.field_offsets[class.index() * self.num_field_syms + field.index()]
    }

    /// Pre-resolved implementation of `method` on `class`.
    #[inline]
    pub(crate) fn method_impl(&self, class: ClassId, method: MethodSym) -> Option<FuncId> {
        self.method_impls[class.index() * self.num_method_syms + method.index()]
    }
}

fn prepare_function(
    module: &Module,
    f: &Function,
    cost: &CostModel,
    mode: &FuseMode,
    statics: &Statics,
) -> PreparedFunction {
    let back: HashSet<(BlockId, BlockId)> = loops::backedges(f).into_iter().collect();
    // First pass: arena offset of each block (insts + inlined terminator).
    let mut starts = Vec::with_capacity(f.num_blocks());
    let mut offset = 0u32;
    for (_, b) in f.blocks() {
        starts.push(offset);
        offset += b.insts().len() as u32 + 1;
    }
    // Second pass: decode.
    let mut ops = Vec::with_capacity(offset as usize);
    for (id, b) in f.blocks() {
        for inst in b.insts() {
            ops.push(decode_inst(module, inst, cost, statics));
        }
        ops.push(decode_term(id, b.term(), cost, &back, &starts));
    }
    // Third pass: peephole fusion within each block (greedy catalogue
    // matching under `Fuse`, the weight-maximizing dynamic program under
    // `Guided`).
    let mut fused = 0;
    if !matches!(mode, FuseMode::Off) {
        for b in 0..starts.len() {
            let s = starts[b] as usize;
            let e = starts.get(b + 1).map_or(ops.len(), |&n| n as usize);
            fused += match mode {
                FuseMode::Off => unreachable!("gated above"),
                FuseMode::Fuse => fuse_block(&mut ops, s, e),
                FuseMode::Guided(g) => guide_block(&mut ops, s, e, g),
            };
        }
    }
    PreparedFunction {
        ops,
        num_locals: f.num_locals(),
        arity: f.arity(),
        fused,
        // Assigned by `prepare_with` once every function's arena length is
        // known.
        slot_base: 0,
        block_starts: starts,
    }
}

/// Installs a fused superinstruction over `ops[i..i + n]`: the leader
/// takes the group's slot count as its width, the interior slots become
/// inert [`OpKind::Gap`] fillers. The arena's length and every index in it
/// are preserved.
fn install(ops: &mut [Op], i: usize, n: usize, cost: u64, kind: OpKind) {
    ops[i] = Op {
        cost,
        width: n as u32,
        kind,
    };
    for slot in &mut ops[i + 1..i + n] {
        *slot = Op {
            cost: 0,
            width: 1,
            kind: OpKind::Gap,
        };
    }
}

/// Peephole-fuses one block's ops (`ops[s..e]`, terminator at `e - 1`)
/// with the greedy left-to-right catalogue pass. Returns the number of
/// superinstructions installed.
fn fuse_block(ops: &mut [Op], s: usize, e: usize) -> usize {
    let mut fused = 0;
    let mut i = s;
    while i < e {
        if let Some((n, cost, kind)) = match_at(ops, i, e) {
            install(ops, i, n, cost, kind);
            fused += 1;
            i += n;
        } else {
            i += 1;
        }
    }
    fused
}

/// Tries every pattern of the superinstruction catalogue at `ops[i]`,
/// bounded by the block end `e`. Returns `Some((width, cost, kind))` for
/// the group [`install`] would build, `None` if nothing matches. Pure:
/// looks only at `ops[i..i + width]`, so cached results stay valid while
/// earlier slots of the block are rewritten. Trap-order soundness:
/// [`Op::cost`] folds component costs only up to (and including) the
/// first component that can trap; every later component's cost rides in
/// the variant's `extra` field and is charged by the interpreter arm
/// between the two executions, reproducing the unfused charge/execute
/// interleaving — and therefore the exact trap point and cycle count —
/// for both execution traps and budget traps (see DESIGN.md decision 12).
fn match_at(ops: &[Op], i: usize, e: usize) -> Option<(usize, u64, OpKind)> {
    match ops[i].kind {
        OpKind::Const { dst: tmp, value } if i + 1 < e => {
            let c0 = ops[i].cost;
            match ops[i + 1].kind {
                OpKind::Bin { op, dst, lhs, rhs } if lhs == tmp || rhs == tmp => {
                    let c1 = ops[i + 1].cost;
                    // Prefer the triple when the comparison feeds the
                    // block's branch and neither edge is a backedge.
                    if op.is_comparison() && i + 2 < e {
                        if let OpKind::Br {
                            cond,
                            t,
                            f,
                            t_backedge: false,
                            f_backedge: false,
                        } = ops[i + 2].kind
                        {
                            if cond == dst {
                                let kind = OpKind::BrCmpImm {
                                    op,
                                    dst,
                                    lhs,
                                    rhs,
                                    tmp,
                                    imm: value,
                                    extra: ops[i + 2].cost,
                                    t,
                                    f,
                                };
                                return Some((3, c0 + c1, kind));
                            }
                        }
                    }
                    // Second-choice triple: the computed value goes
                    // straight into a field (`o.f = <expr> <op> K;`).
                    if i + 2 < e {
                        if let OpKind::SetFieldStatic { obj, offset, src } = ops[i + 2].kind {
                            if src == dst {
                                let kind = OpKind::BinImmSetField {
                                    op,
                                    dst,
                                    lhs,
                                    rhs,
                                    tmp,
                                    imm: value,
                                    obj,
                                    offset,
                                    extra: ops[i + 2].cost,
                                };
                                return Some((3, c0 + c1, kind));
                            }
                        }
                    }
                    let kind = OpKind::BinImm {
                        op,
                        dst,
                        lhs,
                        rhs,
                        tmp,
                        imm: value,
                    };
                    Some((2, c0 + c1, kind))
                }
                OpKind::SetFieldStatic { obj, offset, src } if src == tmp => {
                    let kind = OpKind::ConstSetField {
                        tmp,
                        imm: value,
                        obj,
                        offset,
                    };
                    Some((2, c0 + ops[i + 1].cost, kind))
                }
                _ => None,
            }
        }
        OpKind::Bin { op, dst, lhs, rhs } if i + 1 < e => {
            if op.is_comparison() {
                if let OpKind::Br {
                    cond,
                    t,
                    f,
                    t_backedge: false,
                    f_backedge: false,
                } = ops[i + 1].kind
                {
                    if cond == dst {
                        let kind = OpKind::BrCmp {
                            op,
                            dst,
                            lhs,
                            rhs,
                            extra: ops[i + 1].cost,
                            t,
                            f,
                        };
                        return Some((2, ops[i].cost, kind));
                    }
                }
            }
            if let OpKind::SetFieldStatic { obj, offset, src } = ops[i + 1].kind {
                if src == dst {
                    let kind = OpKind::BinSetField {
                        op,
                        dst,
                        lhs,
                        rhs,
                        obj,
                        offset,
                        extra: ops[i + 1].cost,
                    };
                    return Some((2, ops[i].cost, kind));
                }
            }
            None
        }
        OpKind::GetFieldStatic {
            dst: tmp,
            obj,
            offset,
        } if i + 1 < e => {
            let c0 = ops[i].cost;
            match ops[i + 1].kind {
                OpKind::ArrayGet { dst, arr, idx } if idx == tmp => {
                    let kind = OpKind::GetFieldArrayGet {
                        obj,
                        offset,
                        tmp,
                        dst,
                        arr,
                        extra: ops[i + 1].cost,
                    };
                    Some((2, c0, kind))
                }
                OpKind::ArraySet { arr, idx, src } if idx == tmp => {
                    let kind = OpKind::GetFieldArraySet {
                        obj,
                        offset,
                        tmp,
                        arr,
                        src,
                        extra: ops[i + 1].cost,
                    };
                    Some((2, c0, kind))
                }
                OpKind::Const { dst: ctmp, value } if i + 2 < e => {
                    if let OpKind::Bin { op, dst, lhs, rhs } = ops[i + 2].kind {
                        if (lhs == tmp && rhs == ctmp) || (lhs == ctmp && rhs == tmp) {
                            // Best case: the result goes straight back
                            // into a field — one dispatch for the whole
                            // `o.f = o.g <op> K;` statement.
                            if i + 3 < e {
                                if let OpKind::SetFieldStatic {
                                    obj: sobj,
                                    offset: soffset,
                                    src,
                                } = ops[i + 3].kind
                                {
                                    if src == dst {
                                        let kind = OpKind::GetFieldBinImmSetField {
                                            obj,
                                            offset,
                                            tmp,
                                            ctmp,
                                            imm: value,
                                            op,
                                            dst,
                                            lhs,
                                            rhs,
                                            sobj,
                                            soffset,
                                            extra: ops[i + 1].cost + ops[i + 2].cost,
                                            extra2: ops[i + 3].cost,
                                        };
                                        return Some((4, c0, kind));
                                    }
                                }
                            }
                            let kind = OpKind::GetFieldBinImm {
                                obj,
                                offset,
                                tmp,
                                ctmp,
                                imm: value,
                                op,
                                dst,
                                lhs,
                                rhs,
                                extra: ops[i + 1].cost + ops[i + 2].cost,
                            };
                            return Some((3, c0, kind));
                        }
                    }
                    None
                }
                OpKind::Bin { op, dst, lhs, rhs } if lhs == tmp || rhs == tmp => {
                    // A comparison that feeds the block's branch takes the
                    // full load–compare–branch triple.
                    if op.is_comparison() && i + 2 < e {
                        if let OpKind::Br {
                            cond,
                            t,
                            f,
                            t_backedge: false,
                            f_backedge: false,
                        } = ops[i + 2].kind
                        {
                            if cond == dst {
                                let kind = OpKind::GetFieldBrCmp {
                                    obj,
                                    offset,
                                    tmp,
                                    op,
                                    dst,
                                    lhs,
                                    rhs,
                                    extra: ops[i + 1].cost,
                                    branch: ops[i + 2].cost,
                                    t,
                                    f,
                                };
                                return Some((3, c0, kind));
                            }
                        }
                    }
                    let kind = OpKind::GetFieldBin {
                        obj,
                        offset,
                        tmp,
                        op,
                        dst,
                        lhs,
                        rhs,
                        extra: ops[i + 1].cost,
                    };
                    Some((2, c0, kind))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether `kind` may ride inside a generalized [`OpKind::Guided`] group.
/// Because guided groups charge per component, any component mix is
/// trap-order sound; the set is restricted to the register-file/heap ops
/// the guided interpreter arm implements, plus — only in the final
/// position — the statically resolved calls (a call replaces the frame's
/// control state, so nothing may follow it under the same dispatch).
fn guided_component_ok(kind: &OpKind, last: bool) -> bool {
    match kind {
        OpKind::Const { .. }
        | OpKind::Move { .. }
        | OpKind::Un { .. }
        | OpKind::Bin { .. }
        | OpKind::GetFieldStatic { .. }
        | OpKind::SetFieldStatic { .. }
        | OpKind::ArrayGet { .. }
        | OpKind::ArraySet { .. }
        | OpKind::ArrayLen { .. } => true,
        OpKind::Call { .. } | OpKind::CallMethodStatic { .. } => last,
        _ => false,
    }
}

/// Per-slot value a covered op contributes to the guided dynamic program:
/// the warmup dispatch weight of its opcode, scaled so profile weight
/// dominates, plus one so coverage itself breaks ties among equally hot
/// partitions (and so catalogue matches always beat leaving ops unfused).
const GUIDED_WEIGHT_SCALE: u64 = 1024;

fn guided_slot_value(op: &Op, g: &FuseGuidance) -> u64 {
    GUIDED_WEIGHT_SCALE
        .saturating_mul(g.weight(op.kind.opcode()))
        .saturating_add(1)
}

fn guided_span_value(ops: &[Op], i: usize, n: usize, g: &FuseGuidance) -> u64 {
    ops[i..i + n]
        .iter()
        .fold(0u64, |acc, o| acc.saturating_add(guided_slot_value(o, g)))
}

/// Whether `ops[i..i + n]` can form a guided group: all components
/// eligible (calls only last) and at least one warm under `g` — cold code
/// keeps its plain dispatches so a pathological profile cannot bloat the
/// arena with groups that never run.
fn guided_group_ok(ops: &[Op], i: usize, n: usize, e: usize, g: &FuseGuidance) -> bool {
    if i + n > e {
        return false;
    }
    let mut warm = false;
    for (k, o) in ops[i..i + n].iter().enumerate() {
        if !guided_component_ok(&o.kind, k + 1 == n) {
            return false;
        }
        warm |= g.weight(o.kind.opcode()) > 0;
    }
    warm
}

/// The profile-guided replacement for [`fuse_block`]: a backward dynamic
/// program over `ops[s..e]` that picks the non-overlapping partition into
/// catalogue matches, generalized two/three-op guided groups, and skipped
/// slots maximizing total covered weight. Replacement is on strictly
/// greater value with candidates considered in the order catalogue match,
/// then guided (longer first), so on ties the specialized catalogue
/// template wins and the greedy pass's coverage is never given up — the
/// DP can only re-partition where the profile says it pays. Returns the
/// number of groups installed.
fn guide_block(ops: &mut [Op], s: usize, e: usize, g: &FuseGuidance) -> usize {
    let m = e - s;
    #[derive(Copy, Clone)]
    enum Choice {
        Skip,
        Catalogue,
        Guided(usize),
    }
    // `match_at` is pure over pristine slots, so results cached before any
    // install stay valid for the reconstruction below.
    let matches: Vec<Option<(usize, u64, OpKind)>> = (s..e).map(|i| match_at(ops, i, e)).collect();
    let mut best: Vec<(u64, Choice)> = vec![(0, Choice::Skip); m + 1];
    for j in (0..m).rev() {
        let i = s + j;
        let mut v = best[j + 1].0;
        let mut c = Choice::Skip;
        if let Some((n, _, _)) = &matches[j] {
            let val = guided_span_value(ops, i, *n, g).saturating_add(best[j + n].0);
            if val > v {
                v = val;
                c = Choice::Catalogue;
            }
        }
        for n in [3usize, 2] {
            if j + n <= m && guided_group_ok(ops, i, n, e, g) {
                let val = guided_span_value(ops, i, n, g).saturating_add(best[j + n].0);
                if val > v {
                    v = val;
                    c = Choice::Guided(n);
                }
            }
        }
        best[j] = (v, c);
    }
    let mut fused = 0;
    let mut j = 0;
    while j < m {
        match best[j].1 {
            Choice::Skip => j += 1,
            Choice::Catalogue => {
                let (n, cost, kind) = matches[j].clone().expect("chosen catalogue match exists");
                install(ops, s + j, n, cost, kind);
                fused += 1;
                j += n;
            }
            Choice::Guided(n) => {
                let i = s + j;
                let steps: Box<[(u64, OpKind)]> = ops[i..i + n]
                    .iter()
                    .map(|o| (o.cost, o.kind.clone()))
                    .collect();
                let extra = steps[1..].iter().map(|(c, _)| c).sum();
                let cost = steps[0].0;
                install(ops, i, n, cost, OpKind::Guided { steps, extra });
                fused += 1;
                j += n;
            }
        }
    }
    fused
}

fn decode_inst(module: &Module, inst: &Inst, cost: &CostModel, statics: &Statics) -> Op {
    let c = cost.inst_cost(inst);
    let kind = match inst {
        Inst::Const { dst, value } => OpKind::Const {
            dst: *dst,
            value: match value {
                Const::I64(n) => Value::I64(*n),
                Const::Bool(b) => Value::Bool(*b),
                Const::Null => Value::Null,
            },
        },
        Inst::Move { dst, src } => OpKind::Move {
            dst: *dst,
            src: *src,
        },
        Inst::Un { op, dst, src } => OpKind::Un {
            op: *op,
            dst: *dst,
            src: *src,
        },
        Inst::Bin { op, dst, lhs, rhs } => OpKind::Bin {
            op: *op,
            dst: *dst,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::New { dst, class } => OpKind::New {
            dst: *dst,
            class: *class,
            num_fields: module.class(*class).num_fields(),
        },
        Inst::GetField { dst, obj, field } => match statics.field_slots[field.index()] {
            Some(offset) => OpKind::GetFieldStatic {
                dst: *dst,
                obj: *obj,
                offset,
            },
            None => OpKind::GetField {
                dst: *dst,
                obj: *obj,
                field: *field,
            },
        },
        Inst::SetField { obj, field, src } => match statics.field_slots[field.index()] {
            Some(offset) => OpKind::SetFieldStatic {
                obj: *obj,
                offset,
                src: *src,
            },
            None => OpKind::SetField {
                obj: *obj,
                field: *field,
                src: *src,
            },
        },
        Inst::NewArray { dst, len } => OpKind::NewArray {
            dst: *dst,
            len: *len,
        },
        Inst::ArrayGet { dst, arr, idx } => OpKind::ArrayGet {
            dst: *dst,
            arr: *arr,
            idx: *idx,
        },
        Inst::ArraySet { arr, idx, src } => OpKind::ArraySet {
            arr: *arr,
            idx: *idx,
            src: *src,
        },
        Inst::ArrayLen { dst, arr } => OpKind::ArrayLen {
            dst: *dst,
            arr: *arr,
        },
        Inst::Call {
            dst,
            callee,
            args,
            site,
        } => OpKind::Call {
            dst: *dst,
            callee: *callee,
            args: args.clone().into_boxed_slice(),
            site: *site,
        },
        Inst::CallMethod {
            dst,
            obj,
            method,
            args,
            site,
        } => match statics.method_targets[method.index()] {
            // The arity check moves to prepare time too; a mismatch (which
            // would trap for every receiver) keeps the dynamic form.
            Some(callee) if module.function(callee).arity() == args.len() + 1 => {
                OpKind::CallMethodStatic {
                    dst: *dst,
                    obj: *obj,
                    callee,
                    args: args.clone().into_boxed_slice(),
                    site: *site,
                }
            }
            _ => OpKind::CallMethod {
                dst: *dst,
                obj: *obj,
                method: *method,
                args: args.clone().into_boxed_slice(),
                site: *site,
            },
        },
        Inst::Print { src } => OpKind::Print { src: *src },
        Inst::Spawn { dst, callee, args } => OpKind::Spawn {
            dst: *dst,
            callee: *callee,
            args: args.clone().into_boxed_slice(),
        },
        Inst::Join { thread } => OpKind::Join { thread: *thread },
        Inst::Yield => OpKind::Yield,
        Inst::Busy { .. } => OpKind::Busy,
        Inst::Instr(op) => match op {
            InstrOp::CallEdge => OpKind::CallEdge,
            InstrOp::FieldAccess { obj, field, write } => OpKind::FieldAccessProf {
                obj: *obj,
                field: *field,
                write: *write,
            },
            InstrOp::BlockCount { block } => OpKind::BlockCount { block: *block },
            InstrOp::EdgeCount { from, to } => OpKind::EdgeCount {
                from: *from,
                to: *to,
            },
            InstrOp::ValueProfile { local, site } => OpKind::ValueProfile {
                local: *local,
                site: *site,
            },
            InstrOp::PathStart { value } => OpKind::PathStart {
                value: i64::from(*value),
            },
            InstrOp::PathIncr { delta } => OpKind::PathIncr {
                delta: i64::from(*delta),
            },
            InstrOp::PathEnd { site } => OpKind::PathEnd { site: *site },
        },
    };
    Op {
        cost: c,
        width: 1,
        kind,
    }
}

fn decode_term(
    from: BlockId,
    term: &Term,
    cost: &CostModel,
    back: &HashSet<(BlockId, BlockId)>,
    starts: &[u32],
) -> Op {
    let c = cost.term_cost(term);
    let target = |to: BlockId| starts[to.index()];
    let backedge = |to: BlockId| back.contains(&(from, to));
    let kind = match term {
        Term::Jump(t) => OpKind::Jump {
            target: target(*t),
            backedge: backedge(*t),
        },
        Term::Br { cond, t, f } => OpKind::Br {
            cond: *cond,
            t: target(*t),
            f: target(*f),
            t_backedge: backedge(*t),
            f_backedge: backedge(*f),
        },
        Term::Ret(val) => OpKind::Ret { val: *val },
        Term::Check { sample, cont } => OpKind::Check {
            sample: target(*sample),
            cont: target(*cont),
            sample_backedge: backedge(*sample),
            cont_backedge: backedge(*cont),
        },
    };
    Op {
        cost: c,
        width: 1,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        isf_frontend::compile(src).expect("test program compiles")
    }

    #[test]
    fn arena_layout_matches_source() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } print(i); }");
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), fuse_mode());
        let f = m.function(m.main());
        // One op per instruction plus one inlined terminator per block.
        let expected: usize = f.blocks().map(|(_, b)| b.insts().len() + 1).sum();
        assert_eq!(p.func(m.main()).ops.len(), expected);
        assert_eq!(p.func(m.main()).num_locals, f.num_locals());
    }

    #[test]
    fn loop_backedge_is_preclassified() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } }");
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), fuse_mode());
        let flagged = p
            .func(m.main())
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op.kind,
                    OpKind::Jump { backedge: true, .. }
                        | OpKind::Br {
                            t_backedge: true,
                            ..
                        }
                        | OpKind::Br {
                            f_backedge: true,
                            ..
                        }
                )
            })
            .count();
        assert_eq!(flagged, 1, "exactly one backedge in a single while loop");
    }

    #[test]
    fn costs_are_prefolded() {
        let cost = CostModel::default();
        let m = compile("fn main() { print(2 * 3); }");
        let p = PreparedModule::prepare_with(&m, &cost, FuseMode::Off);
        let ops = &p.func(m.main()).ops;
        assert!(
            ops.iter()
                .any(|op| matches!(op.kind, OpKind::Bin { op: BinOp::Mul, .. })
                    && op.cost == cost.mul)
        );
        assert!(ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::Print { .. }) && op.cost == cost.print));
        assert!(matches!(
            ops.last().map(|op| (&op.kind, op.cost)),
            Some((OpKind::Ret { .. }, c)) if c == cost.ret
        ));
    }

    #[test]
    fn const_bin_fuses_with_summed_cost() {
        let cost = CostModel::default();
        let m = compile("fn main() { print(2 * 3); }");
        let unfused = PreparedModule::prepare_with(&m, &cost, FuseMode::Off);
        let fused = PreparedModule::prepare_with(&m, &cost, FuseMode::Fuse);
        // Fusion is slot-preserving: same arena length, leaders widen.
        assert_eq!(
            fused.func(m.main()).ops.len(),
            unfused.func(m.main()).ops.len()
        );
        // `Const 3` + `Bin Mul` collapse into one BinImm charging both.
        let ops = &fused.func(m.main()).ops;
        assert!(ops.iter().any(|op| matches!(
            op.kind,
            OpKind::BinImm {
                op: BinOp::Mul,
                imm: Value::I64(3),
                ..
            }
        ) && op.cost == cost.alu + cost.mul
            && op.width == 2));
        assert!(ops.iter().any(|op| matches!(op.kind, OpKind::Gap)));
        assert!(fused.num_fused() > 0);
    }

    #[test]
    fn compare_and_branch_fuse_into_br_cmp() {
        let cost = CostModel::default();
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } }");
        let p = PreparedModule::prepare_with(&m, &cost, FuseMode::Fuse);
        // The loop header's `Const 3; Bin Lt; Br` triple becomes one
        // BrCmpImm: compare cost charged up front, branch cost in `extra`.
        let found = p.funcs.iter().flat_map(|f| f.ops.iter()).any(|op| {
            matches!(
                op.kind,
                OpKind::BrCmpImm {
                    op: BinOp::Lt,
                    extra,
                    ..
                } if extra == cost.branch
            ) && op.cost == cost.alu + cost.alu
                && op.width == 3
        });
        assert!(found, "loop header compare-and-branch should fuse");
    }

    #[test]
    fn move_runs_fuse() {
        let m = compile(
            "fn rot(a, b, c) { print(a); a = b; c = a; b = c; print(b); }
             fn main() { rot(1, 2, 3); }",
        );
        let (rot, _) = m.functions().find(|(_, f)| f.name() == "rot").unwrap();
        let cost = CostModel::default();
        let moves = |p: &PreparedModule| -> Vec<(u32, bool)> {
            p.func(rot)
                .ops
                .iter()
                .filter_map(|op| match &op.kind {
                    OpKind::Move { .. } => Some((op.width, false)),
                    OpKind::Guided { steps, .. }
                        if steps.iter().all(|(_, k)| matches!(k, OpKind::Move { .. })) =>
                    {
                        Some((op.width, true))
                    }
                    _ => None,
                })
                .collect()
        };
        // The static catalogue has no move template: three plain moves.
        let fused = PreparedModule::prepare_with(&m, &cost, FuseMode::Fuse);
        assert_eq!(moves(&fused), vec![(1, false); 3]);
        // A warm `move` weight makes the run one generic guided group.
        let mut warm = crate::OpProfile::new();
        crate::ProfileSink::record_dispatches(&mut warm, crate::profile::OPC_MOVE, 1, 1, 1);
        let guidance = Box::new(FuseGuidance::from_profile(&warm));
        let guided = PreparedModule::prepare_with(&m, &cost, FuseMode::Guided(guidance));
        assert_eq!(moves(&guided), vec![(3, true)]);
    }

    #[test]
    fn fuse_off_produces_no_fused_ops() {
        let m = compile("fn main() { var i = 0; while (i < 3) { i = i + 1; } print(2 * 3); }");
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Off);
        assert_eq!(p.num_fused(), 0);
        for f in &p.funcs {
            for op in f.ops.iter() {
                assert_eq!(op.width, 1, "unfused ops all have width 1");
                assert!(!matches!(op.kind, OpKind::Gap));
            }
        }
    }

    #[test]
    fn uniform_field_layout_resolves_statically() {
        let m = compile(
            "class P { field x; method get() { return self.x; } }
             fn main() { var p = new P; p.x = 7; print(p.x); }",
        );
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        // A single class trivially has a uniform layout, so field accesses
        // resolve to static offsets and the method call to a direct target.
        let all_ops = || p.funcs.iter().flat_map(|f| f.ops.iter());
        assert!(all_ops().any(|op| matches!(
            op.kind,
            OpKind::SetFieldStatic { .. } | OpKind::ConstSetField { .. }
        )));
        assert!(all_ops().any(|op| matches!(op.kind, OpKind::GetFieldStatic { .. })));
        assert!(!all_ops().any(|op| matches!(op.kind, OpKind::GetField { .. })));
        let off = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Off);
        let off_ops = || off.funcs.iter().flat_map(|f| f.ops.iter());
        assert!(off_ops().any(|op| matches!(op.kind, OpKind::GetField { .. })));
        assert!(!off_ops().any(|op| matches!(op.kind, OpKind::GetFieldStatic { .. })));
    }

    #[test]
    fn branch_targets_never_point_at_gap_interiors() {
        let mut m = compile(
            "class C { field n; }
             fn main() {
                 var c = new C;
                 c.n = 10;
                 var i = 0;
                 var j = 3;
                 var done = false;
                 while (i < c.n) {
                     if (i < 5) { i = i + 2; } else { i = i + 1; }
                     if (i < j) { j = j + 1; }
                     if (done) { print(j); }
                 }
                 print(i);
             }",
        );
        // Turn the entry block's jump into a check, so a `Check` is covered
        // without depending on the instrumentation crate.
        let f = m.function_mut(m.main());
        let entry = f.entry();
        if let Term::Jump(to) = *f.block(entry).term() {
            f.set_term(
                entry,
                Term::Check {
                    sample: to,
                    cont: to,
                },
            );
        }
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), FuseMode::Fuse);
        let mut kinds = HashSet::new();
        for f in &p.funcs {
            let mut targets = Vec::new();
            for op in f.ops.iter() {
                match op.kind {
                    OpKind::Jump { target, .. } => targets.push(target),
                    OpKind::Br { t, f, .. }
                    | OpKind::BrCmp { t, f, .. }
                    | OpKind::BrCmpImm { t, f, .. }
                    | OpKind::GetFieldBrCmp { t, f, .. } => {
                        targets.push(t);
                        targets.push(f);
                    }
                    OpKind::Check { sample, cont, .. } => {
                        targets.push(sample);
                        targets.push(cont);
                    }
                    _ => continue,
                }
                kinds.insert(op.kind.opcode());
            }
            // `fold_profile`'s per-block prefix sum relies on control
            // entering a block only at its start.
            for t in targets {
                assert!(
                    f.block_starts.contains(&t),
                    "control transfer lands mid-block"
                );
                assert!(
                    !matches!(f.ops[t as usize].kind, OpKind::Gap),
                    "control transfer lands on a gap slot"
                );
            }
        }
        use crate::profile::*;
        let mut kinds: Vec<usize> = kinds.into_iter().collect();
        kinds.sort_unstable();
        assert_eq!(
            kinds,
            [
                OPC_JUMP,
                OPC_BR,
                OPC_CHECK,
                OPC_BR_CMP,
                OPC_BR_CMP_IMM,
                OPC_GET_FIELD_BR_CMP
            ],
            "every control-transfer form is covered"
        );
    }

    #[test]
    fn dispatch_tables_match_class_lookups() {
        let m = compile(
            "class Shape { field tag; method area() { return 0; } }
             class Square : Shape { field side; method area() { return self.side * self.side; } }
             fn main() { var s = new Square; s.side = 2; print(s.area()); }",
        );
        let p = PreparedModule::prepare_with(&m, &CostModel::default(), fuse_mode());
        for (id, class) in m.classes() {
            for s in 0..m.num_field_syms() {
                let sym = FieldSym::new(s as u32);
                assert_eq!(
                    p.field_offset(id, sym),
                    class.field_offset(sym).map(|o| o as u32)
                );
            }
            for s in 0..m.num_method_syms() {
                let sym = MethodSym::new(s as u32);
                assert_eq!(p.method_impl(id, sym), class.resolve_method(sym));
            }
        }
    }

    #[test]
    fn preparation_counter_increments() {
        let m = compile("fn main() { }");
        let before = thread_preparations();
        let _p = PreparedModule::prepare_with(&m, &CostModel::default(), fuse_mode());
        assert_eq!(thread_preparations(), before + 1);
    }
}

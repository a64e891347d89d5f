//! Per-opcode dispatch profiling.
//!
//! Where a [`TraceSink`](crate::TraceSink) observes *sampling* (one
//! record per firing check), this module observes *dispatch*: every
//! executed op, classified by a stable opcode index, with its
//! source-instruction width and the simulated cycles it consumed. A
//! [`ProfileSink`] receives `record_dispatches` calls covering every
//! dispatch and one `record_sample` per taken sample, from every
//! [`crate::Engine`], given to a run with [`crate::Request::profile`].
//!
//! # Zero cost when off
//!
//! The sink follows the [`crate::TraceSink`] pattern exactly: a
//! compile-time parameter of the interpreter loop, with [`NoMetrics`]
//! setting [`ProfileSink::ENABLED`] to `false` so every recording site is
//! compiled away from the monomorphized unprofiled loop — the one a
//! request without a profile sink runs. The
//! `interp_dispatch/profiled` bench pins the *enabled* cost at ≤5% over
//! the unprofiled prepared engine.
//!
//! # The opcode index space
//!
//! Opcodes `0..`[`FIRST_STATIC`] are the plain decoded forms shared by
//! both engines; the tree-walking reference classifies its `Inst`/`Term`
//! dispatches into the same indices, so a naive profile is directly
//! comparable — and, by the differential tests, identical — to an
//! unfused prepared profile of the same run. Indices
//! [`FIRST_STATIC`]`..`[`FIRST_FUSED`] are the statically-resolved forms
//! and [`FIRST_FUSED`]`..OPC_GAP` the fused superinstructions, both
//! produced only by fusing preparation (`FuseMode::Fuse`).
//!
//! # Exactness, cheaply
//!
//! Cycle attribution is exact — per-opcode totals sum to the run's cycle
//! count, traps included — but the two engines get there differently.
//! The tree-walking reference records the clock delta across every
//! dispatch. The prepared engine's hot loop does nothing but bump an
//! execution counter per arena slot (every other profiled quantity is
//! statically determined by the slot: its opcode, width, and full cycle
//! charge including mid-arm `extra`s); after the run, a fold
//! reconstructs the per-opcode totals from the counts, the firing-check
//! counts (the sample-switch surcharge is the one data-dependent
//! charge), and the trapping dispatch's charge shortfall. That keeps the
//! enabled overhead within the ≤5% budget the
//! `interp_dispatch/profiled` bench enforces.

use isf_ir::{Inst, InstrOp, Term};

// The plain decoded forms (also the tree-walking engine's dispatch set).
pub(crate) const OPC_CONST: usize = 0;
pub(crate) const OPC_MOVE: usize = 1;
pub(crate) const OPC_UN: usize = 2;
pub(crate) const OPC_BIN: usize = 3;
pub(crate) const OPC_NEW: usize = 4;
pub(crate) const OPC_GET_FIELD: usize = 5;
pub(crate) const OPC_SET_FIELD: usize = 6;
pub(crate) const OPC_NEW_ARRAY: usize = 7;
pub(crate) const OPC_ARRAY_GET: usize = 8;
pub(crate) const OPC_ARRAY_SET: usize = 9;
pub(crate) const OPC_ARRAY_LEN: usize = 10;
pub(crate) const OPC_CALL: usize = 11;
pub(crate) const OPC_CALL_METHOD: usize = 12;
pub(crate) const OPC_PRINT: usize = 13;
pub(crate) const OPC_SPAWN: usize = 14;
pub(crate) const OPC_JOIN: usize = 15;
pub(crate) const OPC_YIELD: usize = 16;
pub(crate) const OPC_BUSY: usize = 17;
pub(crate) const OPC_CALL_EDGE: usize = 18;
pub(crate) const OPC_FIELD_ACCESS_PROF: usize = 19;
pub(crate) const OPC_BLOCK_COUNT: usize = 20;
pub(crate) const OPC_EDGE_COUNT: usize = 21;
pub(crate) const OPC_VALUE_PROFILE: usize = 22;
pub(crate) const OPC_PATH_START: usize = 23;
pub(crate) const OPC_PATH_INCR: usize = 24;
pub(crate) const OPC_PATH_END: usize = 25;
pub(crate) const OPC_JUMP: usize = 26;
pub(crate) const OPC_BR: usize = 27;
pub(crate) const OPC_RET: usize = 28;
pub(crate) const OPC_CHECK: usize = 29;
// Statically-resolved forms (prepare-time slot/vtable resolution).
pub(crate) const OPC_GET_FIELD_STATIC: usize = 30;
pub(crate) const OPC_SET_FIELD_STATIC: usize = 31;
pub(crate) const OPC_CALL_METHOD_STATIC: usize = 32;
// Fused superinstructions.
pub(crate) const OPC_BIN_IMM: usize = 33;
pub(crate) const OPC_BR_CMP: usize = 34;
pub(crate) const OPC_BR_CMP_IMM: usize = 35;
pub(crate) const OPC_CONST_SET_FIELD: usize = 36;
pub(crate) const OPC_GET_FIELD_BIN: usize = 37;
pub(crate) const OPC_BIN_SET_FIELD: usize = 38;
pub(crate) const OPC_BIN_IMM_SET_FIELD: usize = 39;
pub(crate) const OPC_GET_FIELD_BIN_IMM: usize = 40;
pub(crate) const OPC_GET_FIELD_BIN_IMM_SET_FIELD: usize = 41;
pub(crate) const OPC_GET_FIELD_BR_CMP: usize = 42;
pub(crate) const OPC_GET_FIELD_ARRAY_GET: usize = 43;
pub(crate) const OPC_GET_FIELD_ARRAY_SET: usize = 44;
pub(crate) const OPC_GAP: usize = 45;

/// First statically-resolved opcode index: opcodes below this are the
/// plain decoded forms shared with the tree-walking reference engine.
pub const FIRST_STATIC: usize = OPC_GET_FIELD_STATIC;

/// First fused-superinstruction opcode index.
pub const FIRST_FUSED: usize = OPC_BIN_IMM;

/// Size of the opcode index space (every dispatchable form, both engines).
pub const NUM_OPCODES: usize = OPC_GAP + 1;

/// Display name per opcode index, parallel to the `OPC_*` constants.
pub const OPCODE_NAMES: [&str; NUM_OPCODES] = [
    "const",
    "move",
    "un",
    "bin",
    "new",
    "get-field",
    "set-field",
    "new-array",
    "array-get",
    "array-set",
    "array-len",
    "call",
    "call-method",
    "print",
    "spawn",
    "join",
    "yield",
    "busy",
    "call-edge",
    "field-access-prof",
    "block-count",
    "edge-count",
    "value-profile",
    "path-start",
    "path-incr",
    "path-end",
    "jump",
    "br",
    "ret",
    "check",
    "get-field-static",
    "set-field-static",
    "call-method-static",
    "bin-imm",
    "br-cmp",
    "br-cmp-imm",
    "const-set-field",
    "get-field-bin",
    "bin-set-field",
    "bin-imm-set-field",
    "get-field-bin-imm",
    "get-field-bin-imm-set-field",
    "get-field-br-cmp",
    "get-field-array-get",
    "get-field-array-set",
    "gap",
];

/// Whether opcode `op` is a fused superinstruction — a single dispatch
/// executing more than one source instruction. The statically-resolved
/// forms (`get-field-static` &c.) are *not* fused: they dispatch one
/// source instruction each.
#[must_use]
pub const fn opcode_is_fused(op: usize) -> bool {
    FIRST_FUSED <= op && op < OPC_GAP
}

/// The opcode index the tree-walking engine attributes an instruction
/// dispatch to — by construction the index the unfused prepared decode
/// assigns the same instruction.
pub(crate) fn opcode_of_inst(inst: &Inst) -> usize {
    match inst {
        Inst::Const { .. } => OPC_CONST,
        Inst::Move { .. } => OPC_MOVE,
        Inst::Un { .. } => OPC_UN,
        Inst::Bin { .. } => OPC_BIN,
        Inst::New { .. } => OPC_NEW,
        Inst::GetField { .. } => OPC_GET_FIELD,
        Inst::SetField { .. } => OPC_SET_FIELD,
        Inst::NewArray { .. } => OPC_NEW_ARRAY,
        Inst::ArrayGet { .. } => OPC_ARRAY_GET,
        Inst::ArraySet { .. } => OPC_ARRAY_SET,
        Inst::ArrayLen { .. } => OPC_ARRAY_LEN,
        Inst::Call { .. } => OPC_CALL,
        Inst::CallMethod { .. } => OPC_CALL_METHOD,
        Inst::Print { .. } => OPC_PRINT,
        Inst::Spawn { .. } => OPC_SPAWN,
        Inst::Join { .. } => OPC_JOIN,
        Inst::Yield => OPC_YIELD,
        Inst::Busy { .. } => OPC_BUSY,
        Inst::Instr(op) => match op {
            InstrOp::CallEdge => OPC_CALL_EDGE,
            InstrOp::FieldAccess { .. } => OPC_FIELD_ACCESS_PROF,
            InstrOp::BlockCount { .. } => OPC_BLOCK_COUNT,
            InstrOp::EdgeCount { .. } => OPC_EDGE_COUNT,
            InstrOp::ValueProfile { .. } => OPC_VALUE_PROFILE,
            InstrOp::PathStart { .. } => OPC_PATH_START,
            InstrOp::PathIncr { .. } => OPC_PATH_INCR,
            InstrOp::PathEnd { .. } => OPC_PATH_END,
        },
    }
}

/// The opcode index the tree-walking engine attributes a terminator
/// dispatch to.
pub(crate) fn opcode_of_term(term: &Term) -> usize {
    match term {
        Term::Jump(_) => OPC_JUMP,
        Term::Br { .. } => OPC_BR,
        Term::Ret(_) => OPC_RET,
        Term::Check { .. } => OPC_CHECK,
    }
}

/// Observer of per-dispatch execution, a compile-time parameter of the
/// engines set by [`crate::Request::profile`].
pub trait ProfileSink {
    /// Whether this sink records anything. When `false` (see
    /// [`NoMetrics`]), the interpreter's recording sites compile away
    /// entirely.
    const ENABLED: bool = true;

    /// Adds `dispatches` executions of opcode `opcode`
    /// (`< `[`NUM_OPCODES`]), covering `instructions` source instructions
    /// and `cycles` simulated cycles in total.
    ///
    /// The tree-walking engine calls this once per dispatch with
    /// `(opcode, 1, 1, clock delta)`. The prepared engine keeps only a
    /// bare execution counter per arena slot on the hot path and calls
    /// this once per executed *slot* after the run, with the slot's count
    /// and its statically-reconstructed instruction and cycle totals —
    /// mid-arm `extra` charges, firing checks' sample-switch surcharges
    /// and a trapping final dispatch's partial charge all included, so
    /// the two engines report identical profiles for equivalent runs.
    fn record_dispatches(&mut self, opcode: usize, dispatches: u64, instructions: u64, cycles: u64);

    /// Called once per taken sample, with the absolute simulated clock and
    /// check count at the firing check (before the sample-switch
    /// surcharge), mirroring [`crate::TraceSink::record`]'s position.
    fn record_sample(&mut self, cycles: u64, checks: u64);
}

/// The disabled sink: records nothing, costs nothing. A
/// [`crate::Request`] without a profile sink runs the loop monomorphized
/// over this type.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoMetrics;

impl ProfileSink for NoMetrics {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record_dispatches(
        &mut self,
        _opcode: usize,
        _dispatches: u64,
        _instructions: u64,
        _cycles: u64,
    ) {
    }

    #[inline(always)]
    fn record_sample(&mut self, _cycles: u64, _checks: u64) {}
}

/// One opcode's accumulated dispatch row: count, instructions and cycles
/// kept adjacent so a `record_dispatches` touches one cache line.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct OpRow {
    count: u64,
    instructions: u64,
    cycles: u64,
}

/// A collecting [`ProfileSink`]: per-opcode dispatch counts, source
/// instructions and cycle attribution, plus the raw inter-sample-gap and
/// checks-per-sample series the harness bins into its trigger-skew
/// histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpProfile {
    rows: [OpRow; NUM_OPCODES],
    sample_gap_cycles: Vec<u64>,
    checks_per_sample: Vec<u64>,
    last_sample_cycles: u64,
    last_sample_checks: u64,
}

impl Default for OpProfile {
    fn default() -> Self {
        OpProfile {
            rows: [OpRow::default(); NUM_OPCODES],
            sample_gap_cycles: Vec::new(),
            checks_per_sample: Vec::new(),
            last_sample_cycles: 0,
            last_sample_checks: 0,
        }
    }
}

impl OpProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatch count of opcode `op`.
    #[must_use]
    pub fn count(&self, op: usize) -> u64 {
        self.rows[op].count
    }

    /// Source instructions executed under opcode `op` (width-weighted
    /// dispatch count; exceeds [`OpProfile::count`] for superinstructions).
    #[must_use]
    pub fn instructions(&self, op: usize) -> u64 {
        self.rows[op].instructions
    }

    /// Simulated cycles attributed to opcode `op`.
    #[must_use]
    pub fn cycles(&self, op: usize) -> u64 {
        self.rows[op].cycles
    }

    /// Total hot-loop dispatches.
    #[must_use]
    pub fn total_dispatches(&self) -> u64 {
        self.rows.iter().map(|r| r.count).sum()
    }

    /// Total source instructions (equals the run's `Outcome::instructions`).
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.rows.iter().map(|r| r.instructions).sum()
    }

    /// Total attributed cycles (equals the run's `Outcome::cycles`).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Source instructions executed *as part of* a fused superinstruction.
    #[must_use]
    pub fn fused_instructions(&self) -> u64 {
        (0..NUM_OPCODES)
            .filter(|&op| opcode_is_fused(op))
            .map(|op| self.rows[op].instructions)
            .sum()
    }

    /// Fusion coverage: percentage of dynamic source instructions executed
    /// under a fused superinstruction dispatch (0 when nothing ran).
    #[must_use]
    pub fn fusion_coverage_pct(&self) -> f64 {
        let total = self.total_instructions();
        if total == 0 {
            return 0.0;
        }
        self.fused_instructions() as f64 / total as f64 * 100.0
    }

    /// Cycle gaps between consecutive taken samples (first entry measures
    /// from the start of the run), in execution order.
    #[must_use]
    pub fn sample_gap_cycles(&self) -> &[u64] {
        &self.sample_gap_cycles
    }

    /// Checks executed between consecutive taken samples (inclusive of the
    /// firing check), in execution order.
    #[must_use]
    pub fn checks_per_sample(&self) -> &[u64] {
        &self.checks_per_sample
    }

    /// Opcodes that were dispatched at least once, as
    /// `(opcode, name, dispatches, instructions, cycles)` rows in index
    /// order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, &'static str, u64, u64, u64)> + '_ {
        (0..NUM_OPCODES).filter_map(move |op| {
            let row = &self.rows[op];
            (row.count > 0).then_some((
                op,
                OPCODE_NAMES[op],
                row.count,
                row.instructions,
                row.cycles,
            ))
        })
    }

    /// Merges another profile's counts and series into this one.
    pub fn merge(&mut self, other: &OpProfile) {
        for op in 0..NUM_OPCODES {
            self.rows[op].count += other.rows[op].count;
            self.rows[op].instructions += other.rows[op].instructions;
            self.rows[op].cycles += other.rows[op].cycles;
        }
        self.sample_gap_cycles.extend(&other.sample_gap_cycles);
        self.checks_per_sample.extend(&other.checks_per_sample);
    }
}

impl ProfileSink for OpProfile {
    #[inline]
    fn record_dispatches(
        &mut self,
        opcode: usize,
        dispatches: u64,
        instructions: u64,
        cycles: u64,
    ) {
        let row = &mut self.rows[opcode];
        row.count += dispatches;
        row.instructions += instructions;
        row.cycles += cycles;
    }

    fn record_sample(&mut self, cycles: u64, checks: u64) {
        self.sample_gap_cycles
            .push(cycles - self.last_sample_cycles);
        self.checks_per_sample
            .push(checks - self.last_sample_checks);
        self.last_sample_cycles = cycles;
        self.last_sample_checks = checks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_metrics_is_statically_disabled() {
        const { assert!(!NoMetrics::ENABLED) };
        const { assert!(OpProfile::ENABLED) };
    }

    #[test]
    fn opcode_tables_are_consistent() {
        assert_eq!(OPCODE_NAMES.len(), NUM_OPCODES);
        assert!(!opcode_is_fused(OPC_CONST));
        assert!(!opcode_is_fused(OPC_GET_FIELD_STATIC));
        assert!(!opcode_is_fused(OPC_CALL_METHOD_STATIC));
        assert!(opcode_is_fused(OPC_BIN_IMM));
        assert!(opcode_is_fused(OPC_GET_FIELD_ARRAY_SET));
        assert!(!opcode_is_fused(OPC_GAP));
        // Names are unique.
        let mut names: Vec<&str> = OPCODE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_OPCODES);
    }

    #[test]
    fn profile_accumulates_and_merges() {
        let mut p = OpProfile::new();
        p.record_dispatches(OPC_BIN, 1, 1, 3);
        p.record_dispatches(OPC_BIN, 1, 1, 3);
        p.record_dispatches(OPC_BR_CMP, 1, 3, 7);
        p.record_sample(100, 4);
        p.record_sample(250, 9);
        assert_eq!(p.count(OPC_BIN), 2);
        assert_eq!(p.cycles(OPC_BIN), 6);
        assert_eq!(p.instructions(OPC_BR_CMP), 3);
        assert_eq!(p.total_dispatches(), 3);
        assert_eq!(p.total_instructions(), 5);
        assert_eq!(p.fused_instructions(), 3);
        assert!((p.fusion_coverage_pct() - 60.0).abs() < 1e-9);
        assert_eq!(p.sample_gap_cycles(), &[100, 150]);
        assert_eq!(p.checks_per_sample(), &[4, 5]);

        let mut q = OpProfile::new();
        q.record_dispatches(OPC_BIN, 1, 1, 3);
        q.merge(&p);
        assert_eq!(q.count(OPC_BIN), 3);
        assert_eq!(q.sample_gap_cycles().len(), 2);
        let rows: Vec<_> = q.nonzero().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, "bin");
    }
}

//! The cycle-cost model.
//!
//! Each interpreted instruction charges a fixed number of simulated cycles;
//! overheads in the reproduced tables are ratios of simulated cycles.
//! Defaults are calibrated so that the paper's key cost relationships hold:
//!
//! * a counter-based check costs a memory load, decrement, compare, branch
//!   and store (Figure 3) — a bit more than a yieldpoint's load/test/branch;
//! * the field-access instrumentation "performs two loads, an increment,
//!   and a store, which is similar to the cost of a counter-based check"
//!   (§4.3) — so guarding it with a check is pointless, the No-Duplication
//!   pathology of Table 3;
//! * the call-edge instrumentation walks the stack and hashes, an order of
//!   magnitude more than a check — so sampling pays off handsomely.

use isf_ir::{Inst, InstrOp, Term};

/// Cycle costs per instruction kind. Construct with [`CostModel::default`]
/// and override individual fields for ablation studies.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CostModel {
    /// Constants, moves, unary and simple binary ALU operations.
    pub alu: u64,
    /// Integer multiplication.
    pub mul: u64,
    /// Integer division and remainder (multi-cycle on every real core).
    pub div: u64,
    /// Unconditional jump.
    pub jump: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Function return.
    pub ret: u64,
    /// Object allocation.
    pub new_object: u64,
    /// Array allocation.
    pub new_array: u64,
    /// Field read/write.
    pub field_access: u64,
    /// Array element read/write (includes the bounds check).
    pub array_access: u64,
    /// Array length read.
    pub array_len: u64,
    /// Direct call (frame setup + argument copy).
    pub call: u64,
    /// Dynamically dispatched call (adds the method lookup).
    pub call_method: u64,
    /// Printing a value.
    pub print: u64,
    /// Spawning a thread.
    pub spawn: u64,
    /// One (possibly blocking) `join` attempt.
    pub join: u64,
    /// A yieldpoint: load threadswitch bit, test, branch.
    pub yieldpoint: u64,
    /// A counter-based check: load, decrement, compare, branch, store
    /// (paper Figure 3).
    pub check: u64,
    /// Extra cost charged when a check fires and control transfers into
    /// duplicated code — the instruction-cache-miss cost the paper notes
    /// for "jumping back and forth between original and duplicated code"
    /// (§4.4, footnote 6).
    pub sample_switch: u64,
    /// Call-edge instrumentation: examine the call stack, record the
    /// (caller, site, callee) triple (paper §4.2, deliberately simple and
    /// expensive).
    pub instr_call_edge: u64,
    /// Field-access instrumentation: two loads, increment, store (§4.3).
    pub instr_field_access: u64,
    /// Basic-block counting.
    pub instr_block_count: u64,
    /// Intraprocedural edge counting.
    pub instr_edge_count: u64,
    /// Value profiling (hash of observed value into a histogram).
    pub instr_value_profile: u64,
    /// Path-register reset or increment (one register operation).
    pub instr_path_arith: u64,
    /// Path recording (hash of the accumulated path id).
    pub instr_path_record: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alu: 1,
            mul: 2,
            div: 8,
            jump: 1,
            branch: 1,
            ret: 2,
            new_object: 20,
            new_array: 24,
            field_access: 3,
            array_access: 3,
            array_len: 1,
            call: 10,
            call_method: 14,
            print: 8,
            spawn: 40,
            join: 5,
            yieldpoint: 4,
            check: 5,
            sample_switch: 12,
            instr_call_edge: 180,
            instr_field_access: 6,
            instr_block_count: 4,
            instr_edge_count: 5,
            instr_value_profile: 12,
            instr_path_arith: 1,
            instr_path_record: 8,
        }
    }
}

impl CostModel {
    /// Cycles charged for one instruction.
    pub fn inst_cost(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Const { .. } | Inst::Move { .. } | Inst::Un { .. } => self.alu,
            Inst::Bin { op, .. } => match op {
                isf_ir::BinOp::Mul => self.mul,
                isf_ir::BinOp::Div | isf_ir::BinOp::Rem => self.div,
                _ => self.alu,
            },
            Inst::New { .. } => self.new_object,
            Inst::GetField { .. } | Inst::SetField { .. } => self.field_access,
            Inst::NewArray { .. } => self.new_array,
            Inst::ArrayGet { .. } | Inst::ArraySet { .. } => self.array_access,
            Inst::ArrayLen { .. } => self.array_len,
            Inst::Call { .. } => self.call,
            Inst::CallMethod { .. } => self.call_method,
            Inst::Print { .. } => self.print,
            Inst::Spawn { .. } => self.spawn,
            Inst::Join { .. } => self.join,
            Inst::Yield => self.yieldpoint,
            Inst::Busy { cycles } => u64::from(*cycles),
            Inst::Instr(op) => self.instr_cost(op),
        }
    }

    /// Cycles charged for one instrumentation operation.
    pub fn instr_cost(&self, op: &InstrOp) -> u64 {
        match op {
            InstrOp::CallEdge => self.instr_call_edge,
            InstrOp::FieldAccess { .. } => self.instr_field_access,
            InstrOp::BlockCount { .. } => self.instr_block_count,
            InstrOp::EdgeCount { .. } => self.instr_edge_count,
            InstrOp::ValueProfile { .. } => self.instr_value_profile,
            InstrOp::PathStart { .. } | InstrOp::PathIncr { .. } => self.instr_path_arith,
            InstrOp::PathEnd { .. } => self.instr_path_record,
        }
    }

    /// Cycles charged for one terminator execution (the check's
    /// sample-switch surcharge is charged separately, only when it fires).
    pub fn term_cost(&self, term: &Term) -> u64 {
        match term {
            Term::Jump(_) => self.jump,
            Term::Br { .. } => self.branch,
            Term::Ret(_) => self.ret,
            Term::Check { .. } => self.check,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isf_ir::{BlockId, LocalId};

    #[test]
    fn paper_cost_relationships_hold() {
        let c = CostModel::default();
        // Check slightly dearer than a yieldpoint (extra decrement+store).
        assert!(c.check > c.yieldpoint);
        // Field-access instrumentation ≈ a check (No-Duplication pathology).
        assert!(c.instr_field_access.abs_diff(c.check) <= 2);
        // Call-edge instrumentation (a stack walk plus hashing) is
        // drastically dearer — tens of checks' worth.
        assert!(c.instr_call_edge >= 30 * c.check);
    }

    #[test]
    fn busy_charges_its_literal_cost() {
        let c = CostModel::default();
        assert_eq!(c.inst_cost(&Inst::Busy { cycles: 123 }), 123);
    }

    #[test]
    fn term_costs() {
        let c = CostModel::default();
        assert_eq!(c.term_cost(&Term::Jump(BlockId::new(0))), c.jump);
        assert_eq!(
            c.term_cost(&Term::Check {
                sample: BlockId::new(0),
                cont: BlockId::new(0),
            }),
            c.check
        );
        assert_eq!(c.term_cost(&Term::Ret(Some(LocalId::new(0)))), c.ret);
    }
}

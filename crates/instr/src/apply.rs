//! Exhaustive plan application (the paper's Table 1 baseline).

use isf_ir::{BlockId, Function, Inst, Module};

use crate::plan::{InsertAt, Insertion, ModulePlan};

/// Applies `insertions` directly to `f`, in place.
///
/// * `Entry` and `Before` points become instructions in the named blocks;
///   operations at the same point keep their plan order.
/// * `OnEdge` points split the edge (once per edge) and place the
///   operations in the split block.
///
/// # Panics
///
/// Panics if an insertion names a block, index or edge that does not exist.
pub fn insert_into_function(f: &mut Function, insertions: &[Insertion]) {
    // In-block insertions: gather per block, apply back-to-front so indices
    // stay valid.
    let mut per_block: Vec<Vec<(usize, isf_ir::InstrOp)>> = vec![Vec::new(); f.num_blocks()];
    let mut edges: Vec<((BlockId, BlockId), Vec<isf_ir::InstrOp>)> = Vec::new();
    for ins in insertions {
        match ins.at {
            InsertAt::Entry => per_block[f.entry().index()].push((0, ins.op)),
            InsertAt::Before { block, index } => {
                assert!(
                    index <= f.block(block).insts().len(),
                    "insertion index out of range"
                );
                per_block[block.index()].push((index, ins.op));
            }
            InsertAt::OnEdge { from, to } => {
                if let Some((_, ops)) = edges.iter_mut().find(|(e, _)| *e == (from, to)) {
                    ops.push(ins.op);
                } else {
                    edges.push(((from, to), vec![ins.op]));
                }
            }
        }
    }
    for (b, mut points) in per_block.into_iter().enumerate() {
        // Stable by index; reversed iteration keeps plan order per point.
        points.sort_by_key(|&(i, _)| i);
        let block = f.block_mut(BlockId::new(b as u32));
        for &(index, op) in points.iter().rev() {
            block.insts_mut().insert(index, Inst::Instr(op));
        }
    }
    for ((from, to), ops) in edges {
        let split = f.split_edge(from, to);
        let insts = f.block_mut(split).insts_mut();
        for op in ops {
            insts.push(Inst::Instr(op));
        }
    }
}

/// Applies a whole-module plan exhaustively — every operation executes on
/// every event, no sampling. This is how Table 1's 30%–200% overheads are
/// produced.
pub fn apply_exhaustive(module: &mut Module, plan: &ModulePlan) {
    let ids: Vec<_> = module.func_ids().collect();
    for id in ids {
        insert_into_function(module.function_mut(id), plan.for_function(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{
        BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
        FieldAccessInstrumentation,
    };
    use crate::plan::Instrumentation;
    use isf_exec::{Engine, Outcome, Request, VmConfig, VmError};

    /// Loads `module` on the default engine and runs it once under `cfg`.
    fn execute(module: &Module, cfg: &VmConfig) -> Result<Outcome, VmError> {
        Engine::default()
            .load(module, &cfg.cost)
            .execute(Request::new(cfg))
    }

    const PROGRAM: &str = "
        class P { field x; }
        fn bump(p) { p.x = p.x + 1; return p.x; }
        fn main() {
            var p = new P; p.x = 0;
            var i = 0;
            while (i < 10) { bump(p); i = i + 1; }
            print(p.x);
        }";

    fn instrumented(kinds: &[&dyn Instrumentation]) -> Module {
        let mut m = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&m, kinds);
        apply_exhaustive(&mut m, &plan);
        isf_ir::verify::verify_module(&m).expect("instrumented module verifies");
        m
    }

    #[test]
    fn exhaustive_preserves_semantics() {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let inst = instrumented(&[
            &CallEdgeInstrumentation,
            &FieldAccessInstrumentation,
            &BlockCountInstrumentation,
            &EdgeCountInstrumentation,
        ]);
        let cfg = VmConfig::default();
        let a = execute(&base, &cfg).unwrap();
        let b = execute(&inst, &cfg).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.output, vec![10]);
    }

    #[test]
    fn exhaustive_call_edge_counts_are_exact() {
        let m = instrumented(&[&CallEdgeInstrumentation]);
        let o = execute(&m, &VmConfig::default()).unwrap();
        // 10 calls to bump from main; main itself has no caller.
        assert_eq!(o.profile.total_call_edge_events(), 10);
        assert_eq!(o.profile.call_edges().len(), 1);
    }

    #[test]
    fn exhaustive_field_access_counts_are_exact() {
        let m = instrumented(&[&FieldAccessInstrumentation]);
        let o = execute(&m, &VmConfig::default()).unwrap();
        // bump: read + write + read-for-return per call (3 * 10), plus
        // main's initial write and the final read for `print`.
        assert_eq!(o.profile.total_field_access_events(), 32);
        let writes: u64 = o.profile.field_writes().values().sum();
        assert_eq!(writes, 11);
    }

    #[test]
    fn exhaustive_instrumentation_costs_cycles() {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let inst = instrumented(&[&CallEdgeInstrumentation, &FieldAccessInstrumentation]);
        let cfg = VmConfig::default();
        let a = execute(&base, &cfg).unwrap();
        let b = execute(&inst, &cfg).unwrap();
        assert!(
            b.cycles > a.cycles,
            "instrumented code must be slower: {} vs {}",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn edge_ops_count_traversals() {
        let m = instrumented(&[&EdgeCountInstrumentation]);
        let o = execute(&m, &VmConfig::default()).unwrap();
        let f = m.function_by_name("main").unwrap();
        // The loop body edge executes once per iteration; find a 10-count.
        assert!(o
            .profile
            .edges()
            .iter()
            .any(|(&(func, _, _), &c)| func == f && c == 10));
    }

    #[test]
    fn block_counts_match_entries() {
        let m = instrumented(&[&BlockCountInstrumentation]);
        let o = execute(&m, &VmConfig::default()).unwrap();
        let bump = m.function_by_name("bump").unwrap();
        let entry_count = o.profile.blocks()[&(bump, isf_ir::BlockId::new(0))];
        assert_eq!(entry_count, 10);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn bad_insertion_panics() {
        let mut m = isf_frontend::compile("fn main() {}").unwrap();
        let main = m.main();
        insert_into_function(
            m.function_mut(main),
            &[Insertion {
                at: InsertAt::Before {
                    block: BlockId::new(0),
                    index: 999,
                },
                op: isf_ir::InstrOp::CallEdge,
            }],
        );
    }
}

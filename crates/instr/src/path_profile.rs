//! Ball–Larus path profiling (Ball & Larus, MICRO'96 — reference \[11\] of
//! the paper).
//!
//! The paper's §2 argues that "any instrumentation designed to perform
//! event counting (such as intraprocedural edge or *path* profiling …)
//! will work effectively when inserted as-is into the duplicated code".
//! This module is that claim made executable.
//!
//! # Construction
//!
//! Standard Ball–Larus on the *duplicated-code DAG* (the CFG minus its
//! backedges), with the usual virtual edges: a virtual `ENTRY` node feeds
//! the function entry and every loop header; every `ret` block and every
//! backedge source feeds a virtual `EXIT`. `NumPaths` is computed in
//! topological order and each edge gets the increment that makes the sum
//! of increments along every `ENTRY → EXIT` path unique.
//!
//! Placement maps onto the plan vocabulary of this crate:
//!
//! * function entry → `PathStart(inc(ENTRY→entry))`;
//! * each loop header `h` → `PathEnd` (records a path that *flows into*
//!   the loop, if one is live) then `PathStart(inc(ENTRY→h))`, at the top
//!   of `h`;
//! * each DAG edge with a non-zero increment → `PathIncr` on that edge;
//! * each backedge → `PathIncr(inc(src→EXIT))` + `PathEnd` on the edge;
//! * each `ret` → `PathIncr(inc(block→EXIT))` + `PathEnd` before it.
//!
//! Because the `PathStart` at a header is the *first* instruction of the
//! header block, a sampled burst that enters duplicated code at `dup(h)`
//! starts a well-formed path immediately, and a burst that ends consumes
//! the register — the path register is an `Option` in the VM, so partial
//! paths are silently dropped rather than misrecorded. One sampled burst
//! under Full-Duplication is exactly one Ball–Larus path.
//!
//! Functions whose path count exceeds [`MAX_PATHS`] are left
//! uninstrumented, the standard practical fallback.
//!
//! No-Duplication guards each operation *individually*, so complete paths
//! almost never assemble under it — the paper's point that techniques
//! observing event sequences need a duplicating strategy.

use std::collections::BTreeSet;

use isf_ir::{cfg, loops, BlockId, FuncId, Function, InstrOp, Module, Term};

use crate::plan::{InsertAt, Insertion, Instrumentation};

/// Functions with more potential paths than this are not instrumented.
pub const MAX_PATHS: u64 = 1 << 31;

/// Intraprocedural Ball–Larus path profiling.
#[derive(Copy, Clone, Debug, Default)]
pub struct PathProfileInstrumentation;

impl Instrumentation for PathProfileInstrumentation {
    fn name(&self) -> &'static str {
        "path-profile"
    }

    fn plan_function(&self, _func: FuncId, f: &Function, _module: &Module) -> Vec<Insertion> {
        plan_paths(f).unwrap_or_default()
    }
}

/// Plans the Ball–Larus insertions, or `None` when the function exceeds
/// [`MAX_PATHS`].
fn plan_paths(f: &Function) -> Option<Vec<Insertion>> {
    let n = f.num_blocks();
    let backedges: BTreeSet<(BlockId, BlockId)> = loops::backedges(f).into_iter().collect();
    let headers: BTreeSet<BlockId> = backedges.iter().map(|&(_, h)| h).collect();
    let reachable = cfg::reachable(f);
    let postorder = cfg::postorder(f);

    // Deduplicated DAG successors per block, in branch order.
    let dag_succs = |b: BlockId| -> Vec<BlockId> {
        let mut seen = Vec::new();
        for s in f.block(b).successors() {
            if !backedges.contains(&(b, s)) && !seen.contains(&s) {
                seen.push(s);
            }
        }
        seen
    };
    // Number of virtual exit edges out of a block: one per distinct
    // backedge pair plus one if the block returns.
    let exit_edges = |b: BlockId| -> Vec<ExitEdge> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for s in f.block(b).successors() {
            if backedges.contains(&(b, s)) && seen.insert(s) {
                out.push(ExitEdge::Backedge(s));
            }
        }
        if matches!(f.block(b).term(), Term::Ret(_)) {
            out.push(ExitEdge::Ret);
        }
        out
    };

    // NumPaths in topological order (postorder visits successors first;
    // backedges are excluded so the DAG restriction of the DFS is acyclic).
    let mut num_paths: Vec<u64> = vec![0; n];
    for &b in &postorder {
        let mut total: u64 = exit_edges(b).len() as u64;
        for s in dag_succs(b) {
            total = total.saturating_add(num_paths[s.index()]);
        }
        if total > MAX_PATHS {
            return None;
        }
        num_paths[b.index()] = total;
    }

    let mut insertions = Vec::new();
    let mut end_sites = 0u32;
    let mut next_end_site = || {
        let s = end_sites;
        end_sites += 1;
        s
    };

    // Virtual ENTRY edges: the function entry first, then each header in
    // id order. The running sum gives each start its base value.
    let mut entry_targets: Vec<BlockId> = vec![f.entry()];
    for &h in &headers {
        if h != f.entry() {
            entry_targets.push(h);
        }
    }
    let mut base: u64 = 0;
    for (i, &t) in entry_targets.iter().enumerate() {
        if !reachable[t.index()] {
            continue;
        }
        let value = u32::try_from(base).ok()?;
        if i == 0 && !headers.contains(&t) {
            insertions.push(Insertion {
                at: InsertAt::Before { block: t, index: 0 },
                op: InstrOp::PathStart { value },
            });
        } else {
            // A header (possibly the entry itself): close any path flowing
            // into the loop, then start the header's family.
            insertions.push(Insertion {
                at: InsertAt::Before { block: t, index: 0 },
                op: InstrOp::PathEnd {
                    site: next_end_site(),
                },
            });
            insertions.push(Insertion {
                at: InsertAt::Before { block: t, index: 0 },
                op: InstrOp::PathStart { value },
            });
        }
        base = base.saturating_add(num_paths[t.index()]);
        if base > MAX_PATHS {
            return None;
        }
    }

    // Edge increments: per block, the virtual out-edges in canonical order
    // (DAG successors in branch order, then exit edges).
    for b in f.block_ids() {
        if !reachable[b.index()] {
            continue;
        }
        let mut running: u64 = 0;
        for s in dag_succs(b) {
            if running > 0 {
                let delta = u32::try_from(running).ok()?;
                insertions.push(Insertion {
                    at: InsertAt::OnEdge { from: b, to: s },
                    op: InstrOp::PathIncr { delta },
                });
            }
            running = running.saturating_add(num_paths[s.index()]);
        }
        for exit in exit_edges(b) {
            match exit {
                ExitEdge::Backedge(h) => {
                    if running > 0 {
                        let delta = u32::try_from(running).ok()?;
                        insertions.push(Insertion {
                            at: InsertAt::OnEdge { from: b, to: h },
                            op: InstrOp::PathIncr { delta },
                        });
                    }
                    insertions.push(Insertion {
                        at: InsertAt::OnEdge { from: b, to: h },
                        op: InstrOp::PathEnd {
                            site: next_end_site(),
                        },
                    });
                }
                ExitEdge::Ret => {
                    let index = f.block(b).insts().len();
                    if running > 0 {
                        let delta = u32::try_from(running).ok()?;
                        insertions.push(Insertion {
                            at: InsertAt::Before { block: b, index },
                            op: InstrOp::PathIncr { delta },
                        });
                    }
                    insertions.push(Insertion {
                        at: InsertAt::Before { block: b, index },
                        op: InstrOp::PathEnd {
                            site: next_end_site(),
                        },
                    });
                }
            }
            running = running.saturating_add(1);
        }
    }

    Some(insertions)
}

enum ExitEdge {
    Backedge(BlockId),
    Ret,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ModulePlan;
    use isf_exec::{Engine, Outcome, Request, VmConfig, VmError};

    /// Loads `module` on the default engine and runs it once under `cfg`.
    fn execute(module: &Module, cfg: &VmConfig) -> Result<Outcome, VmError> {
        Engine::default()
            .load(module, &cfg.cost)
            .execute(Request::new(cfg))
    }

    fn profile_of(src: &str) -> (isf_ir::Module, isf_exec::Outcome) {
        let mut m = isf_frontend::compile(src).unwrap();
        let plan = ModulePlan::build(&m, &[&PathProfileInstrumentation]);
        crate::apply::apply_exhaustive(&mut m, &plan);
        isf_ir::verify::verify_module(&m).unwrap();
        let o = execute(&m, &VmConfig::default()).unwrap();
        (m, o)
    }

    #[test]
    fn straight_line_function_has_one_path() {
        let (m, o) = profile_of("fn main() { print(1); print(2); }");
        let main = m.main();
        let main_paths: Vec<_> = o
            .profile
            .paths()
            .keys()
            .filter(|(f, _, _)| *f == main)
            .collect();
        assert_eq!(main_paths.len(), 1);
        assert_eq!(o.profile.total_path_events(), 1);
    }

    #[test]
    fn diamond_paths_are_distinguished() {
        // Branch taken differently on alternate iterations of an outer
        // call, in a loop-free callee: two distinct path ids.
        let (m, o) = profile_of(
            "fn pick(x) { if (x % 2 == 0) { return x + 1; } return x - 1; }
             fn main() { var i = 0; while (i < 10) { print(pick(i)); i = i + 1; } }",
        );
        let pick = m.function_by_name("pick").unwrap();
        let pick_paths: Vec<(i64, u64)> = o
            .profile
            .paths()
            .iter()
            .filter(|((f, _, _), _)| *f == pick)
            .map(|(&(_, _, id), &c)| (id, c))
            .collect();
        assert_eq!(pick_paths.len(), 2, "two sides of the diamond");
        // Five executions of each side.
        assert!(pick_paths.iter().all(|&(_, c)| c == 5));
        // Distinct ids.
        assert_ne!(pick_paths[0].0, pick_paths[1].0);
    }

    #[test]
    fn nested_diamonds_get_unique_ids() {
        // Four loop-free paths; all must have distinct ids.
        let (m, o) = profile_of(
            "fn combo(x) {
                 var a = 0;
                 if (x % 2 == 0) { a = 1; } else { a = 2; }
                 if (x % 3 == 0) { a = a + 10; } else { a = a + 20; }
                 return a;
             }
             fn main() { var i = 0; while (i < 12) { print(combo(i)); i = i + 1; } }",
        );
        let combo = m.function_by_name("combo").unwrap();
        let ids: BTreeSet<i64> = o
            .profile
            .paths()
            .keys()
            .filter(|(f, _, _)| *f == combo)
            .map(|&(_, _, id)| id)
            .collect();
        assert_eq!(ids.len(), 4, "2x2 diamond paths, all distinguished");
    }

    #[test]
    fn loop_iterations_become_header_to_backedge_paths() {
        let (m, o) = profile_of(
            "fn main() {
                 var i = 0;
                 while (i < 8) {
                     if (i % 2 == 0) { print(i); }
                     i = i + 1;
                 }
             }",
        );
        let main = m.main();
        let total: u64 = o
            .profile
            .paths()
            .iter()
            .filter(|((f, _, _), _)| *f == main)
            .map(|(_, &c)| c)
            .sum();
        // 8 iteration paths + the entry path + the exit path ≈ 10 events;
        // exact composition depends on segment boundaries, but every
        // iteration must be observed.
        assert!(total >= 8, "only {total} path events");
        // Even and odd iterations take different paths.
        let distinct = o
            .profile
            .paths()
            .keys()
            .filter(|(f, _, _)| *f == main)
            .count();
        assert!(distinct >= 2);
    }
}

//! Executable statements of the paper's structural guarantees.
//!
//! * **Property 1** (paper §2): the number of checks executed in the
//!   checking code is at most the number of method entries and backedges
//!   executed. Its dynamic form lives on
//!   `isf_exec::Outcome::satisfies_property1`; this module provides the
//!   *static* counterparts that tests assert after every transform.
//! * The duplicated-code region is a DAG (bounded execution per sample).
//! * Instrumentation operations live only in duplicated/guarded code.

use std::collections::HashSet;

use isf_ir::{BlockId, Function, Term};

use crate::stats::FunctionStats;

/// Verifies that the region recorded in `stats.dup_blocks` is acyclic —
/// every duplicated backedge must have been redirected to checking code.
///
/// # Errors
///
/// Returns a description of the first cycle found.
pub fn dup_region_is_dag(f: &Function, stats: &FunctionStats) -> Result<(), String> {
    let region: HashSet<BlockId> = stats.dup_blocks.iter().copied().collect();
    // Iterative DFS with an on-stack set, restricted to the region.
    #[derive(Copy, Clone, PartialEq)]
    enum State {
        Unvisited,
        OnStack,
        Done,
    }
    let mut state = vec![State::Unvisited; f.num_blocks()];
    for &start in &region {
        if state[start.index()] != State::Unvisited {
            continue;
        }
        let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
        let succs = |b: BlockId| -> Vec<BlockId> {
            f.block(b)
                .successors()
                .into_iter()
                .filter(|s| region.contains(s))
                .collect()
        };
        state[start.index()] = State::OnStack;
        stack.push((start, succs(start), 0));
        while let Some((b, ss, i)) = stack.last_mut() {
            if *i < ss.len() {
                let s = ss[*i];
                *i += 1;
                match state[s.index()] {
                    State::Unvisited => {
                        state[s.index()] = State::OnStack;
                        let next = succs(s);
                        stack.push((s, next, 0));
                    }
                    State::OnStack => {
                        return Err(format!("duplicated code contains a cycle: {b} -> {s}"));
                    }
                    State::Done => {}
                }
            } else {
                state[b.index()] = State::Done;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Verifies the Full-Duplication check placement: every check terminator
/// in the function was recorded by the transform as either the method
/// entry check or a backedge check, and its fall-through agrees with the
/// recorded placement. (Dominance on the *transformed* CFG cannot express
/// this — paths through duplicated code bypass the original headers — so
/// the transform's own record is the source of truth and this validator
/// cross-checks it against the CFG.)
///
/// # Errors
///
/// Returns a description of the first misplaced or unrecorded check.
pub fn checks_on_entries_and_backedges(f: &Function, stats: &FunctionStats) -> Result<(), String> {
    use crate::stats::CheckKind;
    let recorded: std::collections::HashMap<BlockId, CheckKind> =
        stats.check_blocks.iter().copied().collect();
    for (id, b) in f.blocks() {
        let Term::Check { cont, .. } = b.term() else {
            continue;
        };
        match recorded.get(&id) {
            None => return Err(format!("check in {id} was not recorded by the transform")),
            Some(CheckKind::Entry) => {
                if id != f.entry() {
                    return Err(format!("entry check recorded at non-entry block {id}"));
                }
            }
            Some(CheckKind::Backedge { header, .. }) => {
                if cont != header {
                    return Err(format!(
                        "backedge check in {id} continues at {cont}, expected header {header}"
                    ));
                }
            }
            Some(CheckKind::Compensating | CheckKind::Guard) => {
                return Err(format!(
                    "full-duplication produced a non-entry/backedge check in {id}"
                ));
            }
        }
    }
    Ok(())
}

/// Verifies that no instrumentation operation lives outside the recorded
/// duplicated/guarded region — the checking code must stay (nearly) as
/// cheap as the original code.
///
/// # Errors
///
/// Returns a description of the first stray operation.
pub fn instrumentation_confined_to_dup_code(
    f: &Function,
    stats: &FunctionStats,
) -> Result<(), String> {
    let region: HashSet<BlockId> = stats.dup_blocks.iter().copied().collect();
    for (id, b) in f.blocks() {
        if b.is_instrumented() && !region.contains(&id) {
            return Err(format!("instrumentation outside duplicated code in {id}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instrument_module, Options, Strategy};
    use isf_exec::{Engine, Outcome, Request, Trigger, VmConfig, VmError};
    use isf_instr::{
        BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
        FieldAccessInstrumentation, Instrumentation, ModulePlan,
    };
    use isf_ir::Module;

    const PROGRAM: &str = "
        class Acc { field total; field count; }
        fn mix(a, b) { return a * 31 + b % 97; }
        fn record(acc, v) {
            acc.total = acc.total + v;
            acc.count = acc.count + 1;
            return acc.total;
        }
        fn main() {
            var acc = new Acc;
            var i = 0;
            var h = 7;
            while (i < 200) {
                h = mix(h, i);
                if (h % 3 == 0) {
                    record(acc, h);
                } else {
                    var j = 0;
                    while (j < 3) { acc.total = acc.total + 1; j = j + 1; }
                }
                i = i + 1;
            }
            print(acc.total);
            print(acc.count);
        }";

    fn both_kinds() -> Vec<&'static dyn Instrumentation> {
        vec![&CallEdgeInstrumentation, &FieldAccessInstrumentation]
    }

    fn build(strategy: Strategy) -> (Module, Module, crate::TransformStats) {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&base, &both_kinds());
        let (out, stats) = instrument_module(&base, &plan, &Options::new(strategy)).unwrap();
        isf_ir::verify::verify_module(&out).expect("transformed module verifies");
        (base, out, stats)
    }

    /// Loads `module` on the default engine and runs it once under
    /// `trigger`.
    fn execute(module: &Module, trigger: Trigger) -> Result<Outcome, VmError> {
        let cfg = VmConfig {
            trigger,
            ..VmConfig::default()
        };
        Engine::default()
            .load(module, &cfg.cost)
            .execute(Request::new(&cfg))
    }

    #[test]
    fn full_duplication_preserves_semantics_at_every_interval() {
        let (base, out, _) = build(Strategy::FullDuplication);
        let expected = execute(&base, Trigger::Never).unwrap().output;
        for trigger in [
            Trigger::Never,
            Trigger::Always,
            Trigger::Counter { interval: 7 },
            Trigger::Counter { interval: 100 },
        ] {
            let o = execute(&out, trigger).unwrap();
            assert_eq!(o.output, expected, "wrong output under {trigger:?}");
        }
    }

    #[test]
    fn interval_one_equals_exhaustive_profile() {
        // Paper §4.4: the perfect profile is collected at sample interval 1,
        // "causing all execution to occur in duplicated code". The counts
        // must match exhaustive instrumentation exactly.
        let (base, full, _) = build(Strategy::FullDuplication);
        let plan = ModulePlan::build(&base, &both_kinds());
        let (exh, _) =
            instrument_module(&base, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
        let perfect = execute(&exh, Trigger::Never).unwrap().profile;
        let sampled = execute(&full, Trigger::Always).unwrap().profile;
        assert_eq!(perfect.call_edges(), sampled.call_edges());
        assert_eq!(perfect.field_accesses(), sampled.field_accesses());
    }

    #[test]
    fn full_duplication_static_shape() {
        let (_, out, stats) = build(Strategy::FullDuplication);
        for (id, f) in out.functions() {
            let fs = &stats.functions[id.index()];
            dup_region_is_dag(f, fs).unwrap();
            checks_on_entries_and_backedges(f, fs).unwrap();
            instrumentation_confined_to_dup_code(f, fs).unwrap();
            // Full duplication: exactly one entry check plus one check per
            // original backedge; nothing else.
            let entry_checks = fs
                .check_blocks
                .iter()
                .filter(|(_, k)| matches!(k, crate::CheckKind::Entry))
                .count();
            let backedge_checks = fs
                .check_blocks
                .iter()
                .filter(|(_, k)| matches!(k, crate::CheckKind::Backedge { .. }))
                .count();
            assert_eq!(entry_checks, 1);
            assert_eq!(fs.checks_inserted, entry_checks + backedge_checks);
        }
        assert!(stats.bytes_after > stats.bytes_before);
    }

    #[test]
    fn full_duplication_satisfies_property1_dynamically() {
        let (_, out, _) = build(Strategy::FullDuplication);
        for interval in [1, 10, 1000] {
            let o = execute(&out, Trigger::Counter { interval }).unwrap();
            assert!(
                o.satisfies_property1(),
                "interval {interval}: {} checks vs {} entries + {} backedges",
                o.checks_executed,
                o.entries_executed,
                o.backedges_executed
            );
            assert!(o.checks_executed > 0);
        }
    }

    #[test]
    fn sampling_reduces_overhead_monotonically() {
        let (base, out, _) = build(Strategy::FullDuplication);
        let baseline = execute(&base, Trigger::Never).unwrap();
        let mut last = u64::MAX;
        for interval in [1, 10, 100, 1000] {
            let o = execute(&out, Trigger::Counter { interval }).unwrap();
            assert!(o.cycles >= baseline.cycles);
            assert!(
                o.cycles <= last,
                "longer intervals must not cost more cycles"
            );
            last = o.cycles;
        }
    }

    #[test]
    fn sampled_profile_shape_is_accurate() {
        let (base, out, _) = build(Strategy::FullDuplication);
        let plan = ModulePlan::build(&base, &both_kinds());
        let (exh, _) =
            instrument_module(&base, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
        let perfect = execute(&exh, Trigger::Never).unwrap().profile;
        let sampled = execute(&out, Trigger::Counter { interval: 10 })
            .unwrap()
            .profile;
        let overlap = isf_profile::overlap::field_access_overlap(&perfect, &sampled);
        assert!(overlap > 80.0, "overlap {overlap:.1}% too low");
    }

    #[test]
    fn partial_duplication_smaller_and_correct() {
        let (base, full, full_stats) = build(Strategy::FullDuplication);
        let (_, partial, partial_stats) = build(Strategy::PartialDuplication);
        assert!(
            partial_stats.total_duplicated_blocks() < full_stats.total_duplicated_blocks(),
            "partial ({}) must duplicate fewer blocks than full ({})",
            partial_stats.total_duplicated_blocks(),
            full_stats.total_duplicated_blocks()
        );
        assert!(partial_stats.bytes_after < full_stats.bytes_after);

        let expected = execute(&base, Trigger::Never).unwrap().output;
        for trigger in [Trigger::Always, Trigger::Counter { interval: 13 }] {
            let o = execute(&partial, trigger).unwrap();
            assert_eq!(o.output, expected);
            assert!(o.satisfies_property1(), "partial keeps Property 1");
        }
        // Instrumentation performed "identically to Full-Duplication"
        // (paper §3.1): perfect profiles agree.
        let p_full = execute(&full, Trigger::Always).unwrap().profile;
        let p_part = execute(&partial, Trigger::Always).unwrap().profile;
        assert_eq!(p_full.call_edges(), p_part.call_edges());
        assert_eq!(p_full.field_accesses(), p_part.field_accesses());
        for (id, f) in partial.functions() {
            let fs = &partial_stats.functions[id.index()];
            dup_region_is_dag(f, fs).unwrap();
            instrumentation_confined_to_dup_code(f, fs).unwrap();
        }
    }

    #[test]
    fn partial_duplicates_nothing_when_uninstrumented() {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&base, &[]);
        let (out, stats) =
            instrument_module(&base, &plan, &Options::new(Strategy::PartialDuplication)).unwrap();
        assert_eq!(stats.total_duplicated_blocks(), 0);
        assert_eq!(stats.total_checks(), 0);
        let o = execute(&out, Trigger::Always).unwrap();
        assert_eq!(o.checks_executed, 0);
    }

    #[test]
    fn no_duplication_samples_single_operations() {
        let (base, out, stats) = build(Strategy::NoDuplication);
        let expected = execute(&base, Trigger::Never).unwrap().output;
        let o = execute(&out, Trigger::Counter { interval: 5 }).unwrap();
        assert_eq!(o.output, expected);
        assert!(o.profile.total_field_access_events() > 0);
        // A sample triggers exactly one instrumentation point's ops.
        assert!(stats.total_checks() >= stats.functions.len());
        for (id, f) in out.functions() {
            let fs = &stats.functions[id.index()];
            dup_region_is_dag(f, fs).unwrap();
            instrumentation_confined_to_dup_code(f, fs).unwrap();
        }
    }

    #[test]
    fn no_duplication_can_violate_property1() {
        // Field-access-dense code has more instrumentation points than
        // entries + backedges, so No-Duplication executes more checks.
        let (_, out, _) = build(Strategy::NoDuplication);
        let o = execute(&out, Trigger::Never).unwrap();
        assert!(
            !o.satisfies_property1(),
            "{} checks vs {} entries + {} backedges",
            o.checks_executed,
            o.entries_executed,
            o.backedges_executed
        );
    }

    #[test]
    fn no_duplication_interval_one_matches_exhaustive() {
        let (base, out, _) = build(Strategy::NoDuplication);
        let plan = ModulePlan::build(&base, &both_kinds());
        let (exh, _) =
            instrument_module(&base, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
        let perfect = execute(&exh, Trigger::Never).unwrap().profile;
        let sampled = execute(&out, Trigger::Always).unwrap().profile;
        assert_eq!(perfect.call_edges(), sampled.call_edges());
        assert_eq!(perfect.field_accesses(), sampled.field_accesses());
    }

    #[test]
    fn checks_only_cannot_sample_but_costs_cycles() {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&base, &[]);
        let baseline = execute(&base, Trigger::Never).unwrap();
        for (entries, backedges) in [(true, false), (false, true), (true, true)] {
            let (out, stats) = instrument_module(
                &base,
                &plan,
                &Options::new(Strategy::ChecksOnly { entries, backedges }),
            )
            .unwrap();
            assert!(stats.total_checks() > 0);
            let o = execute(&out, Trigger::Always).unwrap();
            assert_eq!(o.output, baseline.output);
            assert!(o.cycles > baseline.cycles);
            assert!(o.profile.is_empty(), "checks-only never samples anything");
        }
    }

    #[test]
    fn yieldpoint_optimization_reduces_framework_overhead() {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(&base, &both_kinds());
        let (full, _) =
            instrument_module(&base, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
        let (opt, _) = instrument_module(
            &base,
            &plan,
            &Options::new(Strategy::FullDuplication).with_yieldpoint_optimization(),
        )
        .unwrap();
        let baseline = execute(&base, Trigger::Never).unwrap();
        let o_full = execute(&full, Trigger::Never).unwrap();
        let o_opt = execute(&opt, Trigger::Never).unwrap();
        assert!(o_opt.cycles < o_full.cycles);
        assert!(o_opt.cycles > baseline.cycles);
        // Checking code sheds its yieldpoints entirely when never sampling.
        assert_eq!(o_opt.yields_executed, 0);
        // Accuracy is untouched: perfect profiles agree (paper §4.5).
        let p_full = execute(&full, Trigger::Always).unwrap().profile;
        let p_opt = execute(&opt, Trigger::Always).unwrap().profile;
        assert_eq!(p_full.field_accesses(), p_opt.field_accesses());
    }

    #[test]
    fn yieldpoint_optimization_requires_full_duplication() {
        let base = isf_frontend::compile("fn main() {}").unwrap();
        let plan = ModulePlan::build(&base, &[]);
        for s in [
            Strategy::PartialDuplication,
            Strategy::NoDuplication,
            Strategy::Exhaustive,
        ] {
            let opts = Options {
                strategy: s,
                yieldpoint_optimization: true,
            };
            assert!(instrument_module(&base, &plan, &opts).is_err());
        }
    }

    #[test]
    fn edge_instrumentation_survives_every_strategy() {
        let base = isf_frontend::compile(PROGRAM).unwrap();
        let plan = ModulePlan::build(
            &base,
            &[
                &EdgeCountInstrumentation as &dyn Instrumentation,
                &BlockCountInstrumentation,
            ],
        );
        let (exh, _) =
            instrument_module(&base, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
        let perfect = execute(&exh, Trigger::Never).unwrap().profile;
        for strategy in [
            Strategy::FullDuplication,
            Strategy::PartialDuplication,
            Strategy::NoDuplication,
        ] {
            let (out, _) = instrument_module(&base, &plan, &Options::new(strategy)).unwrap();
            isf_ir::verify::verify_module(&out).unwrap();
            let sampled = execute(&out, Trigger::Always).unwrap().profile;
            assert_eq!(
                perfect.edges(),
                sampled.edges(),
                "edge counts differ under {strategy}"
            );
            assert_eq!(perfect.blocks(), sampled.blocks());
        }
    }

    #[test]
    fn trigger_off_keeps_all_execution_in_checking_code() {
        let (_, out, _) = build(Strategy::FullDuplication);
        let o = execute(&out, Trigger::Never).unwrap();
        assert_eq!(o.samples_taken, 0);
        assert!(o.profile.is_empty(), "no instrumentation may run unsampled");
    }
}

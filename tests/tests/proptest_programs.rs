//! Property-based end-to-end testing: generate random (but always valid)
//! Jive programs and check that every sampling strategy preserves their
//! semantics, verifies structurally, and keeps Property 1 — the framework
//! must be meaning-preserving on *arbitrary* code, not just the benchmark
//! suite.

use proptest::prelude::*;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::Trigger;
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan,
};
use isf_integration_tests::program_gen::{render_program, stmt_strategy};
use isf_integration_tests::{compile, run_with};

fn all_kinds() -> Vec<&'static dyn Instrumentation> {
    vec![
        &CallEdgeInstrumentation,
        &FieldAccessInstrumentation,
        &BlockCountInstrumentation,
        &EdgeCountInstrumentation,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_strategy_preserves_random_program_semantics(
        stmts in prop::collection::vec(stmt_strategy(), 1..8)
    ) {
        let src = render_program(&stmts);
        let module = compile(&src);
        let baseline = run_with(&module, Trigger::Never);
        let plan = ModulePlan::build(&module, &all_kinds());
        for strategy in [
            Strategy::Exhaustive,
            Strategy::FullDuplication,
            Strategy::PartialDuplication,
            Strategy::NoDuplication,
        ] {
            let (out, stats) =
                instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            isf_ir::verify::verify_module(&out).unwrap();
            for trigger in [Trigger::Always, Trigger::Counter { interval: 3 }] {
                let o = run_with(&out, trigger);
                prop_assert_eq!(&o.output, &baseline.output,
                    "{} diverged under {:?}\nprogram:\n{}", strategy, trigger, src);
                if matches!(strategy, Strategy::FullDuplication | Strategy::PartialDuplication) {
                    prop_assert!(o.satisfies_property1_vs(&baseline));
                }
            }
            // Exhaustive instrumentation intentionally leaves operations
            // in the original code; the structural guarantees below only
            // apply to the sampling strategies.
            if strategy != Strategy::Exhaustive {
                for (id, f) in out.functions() {
                    let fs = &stats.functions[id.index()];
                    prop_assert!(isf_core::property::dup_region_is_dag(f, fs).is_ok());
                    prop_assert!(
                        isf_core::property::instrumentation_confined_to_dup_code(f, fs).is_ok()
                    );
                }
            }
        }
    }

    #[test]
    fn interval_one_matches_exhaustive_on_random_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        let src = render_program(&stmts);
        let module = compile(&src);
        let plan = ModulePlan::build(&module, &all_kinds());
        let (exh, _) =
            instrument_module(&module, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
        let perfect = run_with(&exh, Trigger::Never).profile;
        for strategy in [
            Strategy::FullDuplication,
            Strategy::PartialDuplication,
            Strategy::NoDuplication,
        ] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            let sampled = run_with(&out, Trigger::Always).profile;
            prop_assert_eq!(perfect.call_edges(), sampled.call_edges());
            prop_assert_eq!(perfect.field_accesses(), sampled.field_accesses());
            prop_assert_eq!(perfect.blocks(), sampled.blocks());
            prop_assert_eq!(perfect.edges(), sampled.edges());
        }
    }

    #[test]
    fn trigger_off_collects_nothing_on_random_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        let src = render_program(&stmts);
        let module = compile(&src);
        let plan = ModulePlan::build(&module, &all_kinds());
        for strategy in [
            Strategy::FullDuplication,
            Strategy::PartialDuplication,
            Strategy::NoDuplication,
        ] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            let o = run_with(&out, Trigger::Never);
            prop_assert!(o.profile.is_empty());
            prop_assert_eq!(o.samples_taken, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_preserves_random_program_semantics(
        stmts in prop::collection::vec(stmt_strategy(), 1..8)
    ) {
        let src = render_program(&stmts);
        let module = compile(&src);
        let optimized = isf_frontend::compile_optimized(&src).unwrap();
        let a = run_with(&module, Trigger::Never);
        let b = run_with(&optimized, Trigger::Never);
        prop_assert_eq!(&a.output, &b.output, "optimizer diverged\nprogram:\n{}", src);
        prop_assert!(
            b.instructions <= a.instructions,
            "optimizer must not add work: {} vs {}", b.instructions, a.instructions
        );
    }

    #[test]
    fn optimized_code_samples_correctly(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // The real pipeline: optimize first, instrument second.
        let src = render_program(&stmts);
        let optimized = isf_frontend::compile_optimized(&src).unwrap();
        let baseline = run_with(&optimized, Trigger::Never);
        let plan = ModulePlan::build(&optimized, &all_kinds());
        let (out, _) = instrument_module(
            &optimized, &plan, &Options::new(Strategy::FullDuplication),
        ).unwrap();
        isf_ir::verify::verify_module(&out).unwrap();
        let o = run_with(&out, Trigger::Counter { interval: 5 });
        prop_assert_eq!(&o.output, &baseline.output);
        prop_assert!(o.satisfies_property1_vs(&baseline));
    }
}

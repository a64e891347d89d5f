//! Differential property testing of the self-profiling layer: running
//! with an [`isf_exec::OpProfile`] sink must not change execution at all
//! (identical [`isf_exec::Outcome`]s and traps, every engine), and the
//! profile itself must be exact — per-opcode totals summing to the run's
//! own instruction and cycle counts — and engine-independent: the
//! tree-walking reference records every dispatch individually, while the
//! pre-decoded engine reconstructs counts from flow-entry deltas after
//! the run, and the two must produce the identical profile for the
//! identical run.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::profile::FIRST_FUSED;
use isf_exec::{
    Code, Engine, ExecLimits, FuseGuidance, FuseMode, OpProfile, PreparedModule, ProfileSink,
    Request, Trigger, VmConfig,
};
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan,
};
use isf_integration_tests::program_gen::{render_program, stmt_strategy};
use isf_integration_tests::{compile, load_all};

fn all_kinds() -> Vec<&'static dyn Instrumentation> {
    vec![
        &CallEdgeInstrumentation,
        &FieldAccessInstrumentation,
        &BlockCountInstrumentation,
        &EdgeCountInstrumentation,
    ]
}

/// Asserts profiled runs are observationally identical to unprofiled ones
/// on every engine, that every engine's profile reconciles exactly with
/// the outcome's counters and has the naive engine's totals, and that the
/// naive and unfused engines produce the *same* profile.
fn profiles_agree(module: &isf_ir::Module, cfg: &VmConfig) -> Result<(), TestCaseError> {
    let mut profiles = Vec::new();
    let mut plain_naive = None;
    for (engine, code) in load_all(module, &cfg.cost) {
        let label = engine.label();
        let plain = code.execute(Request::new(cfg));
        let mut profile = OpProfile::new();
        let profiled = code.execute(Request::new(cfg).profile(&mut profile));
        prop_assert_eq!(&profiled, &plain, "profiling changed the {} result", label);
        // Fusion changes which opcodes run, never what the run does: every
        // engine's profiled run must equal the reference.
        let reference = plain_naive.get_or_insert_with(|| plain.clone());
        prop_assert_eq!(
            &profiled,
            &*reference,
            "{} profiled run diverged from the reference",
            label
        );
        if let Ok(o) = &profiled {
            prop_assert_eq!(
                profile.total_instructions(),
                o.instructions,
                "{} profile instructions != outcome",
                label
            );
            prop_assert_eq!(
                profile.total_cycles(),
                o.cycles,
                "{} profile cycles != outcome",
                label
            );
            prop_assert_eq!(
                profile.checks_per_sample().len() as u64,
                o.samples_taken,
                "{} profile sample series != outcome",
                label
            );
        }
        profiles.push((engine, profile));
    }
    let profile_of = |engine| &profiles.iter().find(|(e, _)| *e == engine).unwrap().1;
    let naive_profile = profile_of(Engine::Naive);

    // The unfused prepared pipeline dispatches the same plain opcode per
    // source instruction as the tree-walker, so its reconstructed profile
    // must equal the naive engine's per-dispatch-recorded one exactly —
    // counts, instructions, cycles, and the sample series.
    prop_assert_eq!(
        profile_of(Engine::Unfused),
        naive_profile,
        "unfused prepared profile diverged from the naive profile"
    );

    // On traps there is no outcome to reconcile against, but the two
    // identically-trapping engines already vouched for each other's
    // totals via the profile equality above; every other engine must
    // match their dynamic totals.
    for (engine, profile) in &profiles {
        prop_assert_eq!(
            profile.total_instructions(),
            naive_profile.total_instructions(),
            "{} changed the dynamic instruction count",
            engine.label()
        );
        prop_assert_eq!(
            profile.total_cycles(),
            naive_profile.total_cycles(),
            "{} changed the dynamic cycle count",
            engine.label()
        );
        prop_assert_eq!(
            profile.checks_per_sample().len(),
            naive_profile.checks_per_sample().len(),
            "{} changed the sample series",
            engine.label()
        );
    }

    // Guided fusion re-partitions blocks around a warmup profile. Beyond
    // the harness's own warmup ([`Engine::Guided`]), two more guidances:
    // the fused run's own remainder profile, and a saturated one that
    // marks every plain opcode hot, forcing every eligible sequence into
    // a generalized group.
    let mut saturated = OpProfile::new();
    for op in 0..FIRST_FUSED {
        saturated.record_dispatches(op, 1, 1, 1);
    }
    let reference = plain_naive.expect("Engine::ALL is not empty");
    for (guidance, label) in [
        (
            FuseGuidance::from_profile(profile_of(Engine::Fused)),
            "warmup guidance",
        ),
        (FuseGuidance::from_profile(&saturated), "saturated guidance"),
    ] {
        let guided =
            PreparedModule::prepare_with(module, &cfg.cost, FuseMode::Guided(Box::new(guidance)));
        let mut guided_profile = OpProfile::new();
        let profiled_guided =
            Code::from(&guided).execute(Request::new(cfg).profile(&mut guided_profile));
        prop_assert_eq!(
            &profiled_guided,
            &reference,
            "guided run diverged from the reference under {}",
            label
        );
        prop_assert_eq!(
            guided_profile.total_instructions(),
            naive_profile.total_instructions(),
            "{} changed the dynamic instruction count",
            label
        );
        prop_assert_eq!(
            guided_profile.total_cycles(),
            naive_profile.total_cycles(),
            "{} changed the dynamic cycle count",
            label
        );
        prop_assert_eq!(
            guided_profile.checks_per_sample().len(),
            naive_profile.checks_per_sample().len(),
            "{} changed the sample series",
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn profiles_agree_on_random_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..8)
    ) {
        let module = compile(&render_program(&stmts));
        let cfg = VmConfig {
            limits: ExecLimits::cycles(500_000_000),
            ..VmConfig::default()
        };
        profiles_agree(&module, &cfg)?;
    }

    #[test]
    fn profiles_agree_on_instrumented_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        // Sampled instrumentation exercises Check dispatches, the firing
        // path (sample-switch surcharge attribution), and the
        // inter-sample series.
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        for strategy in [Strategy::FullDuplication, Strategy::NoDuplication] {
            let (out, _) = instrument_module(&module, &plan, &Options::new(strategy)).unwrap();
            let cfg = VmConfig {
                trigger: Trigger::Counter { interval: 3 },
                limits: ExecLimits::cycles(500_000_000),
                ..VmConfig::default()
            };
            profiles_agree(&out, &cfg)?;
        }
    }

    #[test]
    fn profiles_agree_on_trapping_programs(
        stmts in prop::collection::vec(stmt_strategy(), 1..8),
        max_cycles in 1u64..5_000,
        max_heap in 1u64..128,
        max_stack in 2usize..24,
    ) {
        // Tight budgets make most programs trap mid-execution — including
        // mid-arm inside fused superinstructions — where the prepared
        // engine's post-run reconstruction must still attribute the
        // partial charge of the trapping dispatch exactly as the naive
        // engine's clock delta did.
        let module = compile(&render_program(&stmts));
        let cfg = VmConfig {
            limits: ExecLimits {
                max_cycles: Some(max_cycles),
                max_heap_words: Some(max_heap),
                max_stack,
            },
            ..VmConfig::default()
        };
        profiles_agree(&module, &cfg)?;
    }

    #[test]
    fn profiles_agree_under_timer_trigger(
        stmts in prop::collection::vec(stmt_strategy(), 1..6)
    ) {
        let module = compile(&render_program(&stmts));
        let plan = ModulePlan::build(&module, &all_kinds());
        let (out, _) = instrument_module(
            &module, &plan, &Options::new(Strategy::FullDuplication),
        ).unwrap();
        let cfg = VmConfig {
            trigger: Trigger::TimerBit { period: 997 },
            limits: ExecLimits::cycles(500_000_000),
            ..VmConfig::default()
        };
        profiles_agree(&out, &cfg)?;
    }
}

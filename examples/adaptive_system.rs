//! A complete adaptive-optimization controller built from the framework's
//! pieces — the deployment the paper was written for (its reference \[5\],
//! "Adaptive optimization in the Jalapeño JVM").
//!
//! ```text
//! cargo run -p isf-examples --bin adaptive_system
//! ```
//!
//! Epoch 0 instruments *everything* (the paper's worst case) for one cheap
//! sampled run to find the hot methods. Later epochs instrument only the
//! methods covering 90% of the heat (selective instrumentation, §3/§4.1),
//! feed a convergence tracker (convergent profiling, refs \[16\]/\[26\]), and
//! when the profile stops moving the controller sets the sample condition
//! permanently to false (§2's shutdown mode) — leaving only the checking
//! code's few-percent overhead.

use std::collections::HashSet;

use isf_core::{instrument_module, instrument_module_selective, Options, Strategy};
use isf_examples::execute;
use isf_exec::Trigger;
use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, ModulePlan};
use isf_profile::{convergence::ConvergenceTracker, hotness};
use isf_workloads::{by_name, Scale};

fn main() {
    let workload = by_name("jess", Scale::Default).expect("jess is in the suite");
    let module = workload.compile();
    let baseline = execute(&module, Trigger::Never).expect("baseline runs");
    println!("jess baseline: {} cycles", baseline.cycles);

    let plan = ModulePlan::build(
        &module,
        &[&CallEdgeInstrumentation, &FieldAccessInstrumentation],
    );
    let sampled = |interval| Trigger::Counter { interval };

    // --- Epoch 0: instrument everything, find the hot methods. --------
    let (all_instrumented, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
    let scout = execute(&all_instrumented, sampled(251)).unwrap();
    println!(
        "epoch 0 (all methods): {:+.1}% overhead, {} samples",
        scout.overhead_vs(&baseline),
        scout.samples_taken
    );
    let hot = hotness::functions_covering(&scout.profile, 0.9);
    println!("hot methods covering 90% of heat:");
    for &f in &hot {
        println!("  {}", module.function(f).name());
    }

    // --- Later epochs: selective instrumentation until convergence. ---
    let selected: HashSet<_> = hot.iter().copied().collect();
    let (selective, stats) = instrument_module_selective(
        &module,
        &plan,
        &Options::new(Strategy::FullDuplication),
        &selected,
    )
    .unwrap();
    println!(
        "selective instrumentation: {} checks, +{} bytes (vs +{} for all methods)",
        stats.total_checks(),
        stats.space_increase_bytes(),
        {
            let (_, all_stats) =
                instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication))
                    .unwrap();
            all_stats.space_increase_bytes()
        }
    );

    let mut tracker = ConvergenceTracker::new(97.0, 2);
    let mut epoch = 1;
    loop {
        // Each epoch is one deterministic sampled run; a prime-ish
        // interval avoids aliasing with the rule-matching loops.
        let o = execute(&selective, sampled(97 + epoch as u64 * 2)).unwrap();
        let converged = tracker.observe(&o.profile);
        println!(
            "epoch {epoch}: {:+.1}% overhead, {} call-edge events, converged: {converged}",
            o.overhead_vs(&baseline),
            o.profile.total_call_edge_events(),
        );
        if converged || epoch >= 8 {
            break;
        }
        epoch += 1;
    }

    // --- Shutdown: sample condition permanently false (§2). -----------
    let off = execute(&selective, Trigger::Never).unwrap();
    println!(
        "profiling off: {:+.1}% residual checking overhead, 0 samples",
        off.overhead_vs(&baseline)
    );
    assert_eq!(off.samples_taken, 0);
    println!(
        "\nthe controller found the hot set, collected a stable profile, and shut\n\
         sampling down — total cost a few percent, never a 100%+ profiling phase."
    );
}

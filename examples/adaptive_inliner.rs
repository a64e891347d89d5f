//! An adaptive-JIT client: drive inlining decisions from a *sampled*
//! call-edge profile — the paper's motivating use case ("profile-guided
//! automatic inline expansion", its references \[19\] and \[6\]).
//!
//! ```text
//! cargo run -p isf-examples --bin adaptive_inliner
//! ```
//!
//! An online optimizer cannot afford an exhaustive call-edge profile
//! (Table 1: ~90% overhead). This example shows that the decisions an
//! inliner would take from a cheap sampled profile agree with the
//! decisions it would take from the perfect profile.

use std::collections::BTreeSet;

use isf_core::{instrument_module, Options, Strategy};
use isf_examples::execute;
use isf_exec::{Outcome, Trigger};
use isf_instr::{CallEdgeInstrumentation, ModulePlan};
use isf_profile::ProfileData;
use isf_workloads::{by_name, Scale};

/// An inlining policy: inline every call edge that accounts for at least
/// `threshold_pct` of all call-edge events.
fn inline_set(profile: &ProfileData, threshold_pct: f64) -> BTreeSet<String> {
    let total = profile.total_call_edge_events().max(1) as f64;
    profile
        .call_edges()
        .iter()
        .filter(|&(_, &count)| count as f64 / total * 100.0 >= threshold_pct)
        .map(|(&(caller, site, callee), _)| format!("{caller}@{}→{callee}", site.0))
        .collect()
}

fn main() {
    let workload = by_name("javac", Scale::Default).expect("javac is in the suite");
    let module = workload.compile();
    let baseline = execute(&module, Trigger::Never).expect("baseline runs");

    let plan = ModulePlan::build(&module, &[&CallEdgeInstrumentation]);

    // The offline way: exhaustive profile.
    let (exhaustive, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
    let perfect: Outcome = execute(&exhaustive, Trigger::Never).unwrap();

    // The online way: Full-Duplication sampling.
    let (sampled_module, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
    let sampled = execute(&sampled_module, Trigger::Counter { interval: 151 }).unwrap();

    println!(
        "javac: baseline {} cycles; exhaustive {:+.1}%; sampled {:+.1}% ({} samples)",
        baseline.cycles,
        perfect.overhead_vs(&baseline),
        sampled.overhead_vs(&baseline),
        sampled.samples_taken,
    );

    for threshold in [1.0, 2.0, 5.0] {
        let want = inline_set(&perfect.profile, threshold);
        let got = inline_set(&sampled.profile, threshold);
        let agree = want.intersection(&got).count();
        let union = want.union(&got).count().max(1);
        println!(
            "inline threshold {threshold:>4.1}%: perfect picks {:>2}, sampled picks {:>2}, \
             agreement {:>3.0}%",
            want.len(),
            got.len(),
            agree as f64 / union as f64 * 100.0
        );
    }
    println!(
        "\nthe sampled profile costs a fraction of the exhaustive one and drives\n\
         the same inlining choices — the paper's case for online feedback-directed\n\
         optimization."
    );
}

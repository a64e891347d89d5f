//! Several instrumentations at once under one framework — the paper's
//! point that "multiple types of instrumentation can be used
//! simultaneously, without the normal concern for overhead", recompiling
//! the method only once.
//!
//! ```text
//! cargo run -p isf-examples --bin multi_instrumentation
//! ```

use isf_core::{instrument_module, Options, Strategy};
use isf_examples::execute;
use isf_exec::Trigger;
use isf_instr::{
    BlockCountInstrumentation, CallEdgeInstrumentation, EdgeCountInstrumentation,
    FieldAccessInstrumentation, Instrumentation, ModulePlan, ValueProfileInstrumentation,
};
use isf_workloads::{by_name, Scale};

fn main() {
    let workload = by_name("mtrt", Scale::Default).expect("mtrt is in the suite");
    let module = workload.compile();
    let baseline = execute(&module, Trigger::Never).expect("baseline runs");

    let all: Vec<&dyn Instrumentation> = vec![
        &CallEdgeInstrumentation,
        &FieldAccessInstrumentation,
        &BlockCountInstrumentation,
        &EdgeCountInstrumentation,
        &ValueProfileInstrumentation,
    ];

    // The cost of each instrumentation alone, exhaustively.
    println!("exhaustive overhead per instrumentation (mtrt):");
    let mut exhaustive_sum = 0.0;
    for kind in &all {
        let plan = ModulePlan::build(&module, std::slice::from_ref(kind));
        let (m, _) =
            instrument_module(&module, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
        let o = execute(&m, Trigger::Never).unwrap();
        let pct = o.overhead_vs(&baseline);
        exhaustive_sum += pct;
        println!("  {:<14} {:+.1}%", kind.name(), pct);
    }
    println!("  {:<14} {:+.1}%", "sum", exhaustive_sum);

    // All five at once, sampled: one recompilation, one set of checks.
    let plan = ModulePlan::build(&module, &all);
    let (sampled_module, stats) =
        instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
    let sampled = execute(&sampled_module, Trigger::Counter { interval: 499 }).unwrap();
    assert_eq!(sampled.output, baseline.output);

    println!(
        "\nall five sampled together (interval 499): {:+.1}% total overhead",
        sampled.overhead_vs(&baseline)
    );
    println!(
        "one transform: {} checks guard {} planned operations",
        stats.total_checks(),
        stats.total_ops()
    );
    println!(
        "collected: {} call edges, {} field counters, {} block counters, \
         {} CFG edge counters, {} value sites",
        sampled.profile.call_edges().len(),
        sampled.profile.field_accesses().len(),
        sampled.profile.blocks().len(),
        sampled.profile.edges().len(),
        sampled.profile.values().len(),
    );

    // A taste of the value profile: its busiest site, the smallest key on
    // a tie, so the line does not depend on hash-map order.
    let busiest = sampled
        .profile
        .values()
        .iter()
        .map(|(site, hist)| (hist.values().sum::<u64>(), site, hist.len()))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(a.1)));
    if let Some((total, site, distinct)) = busiest {
        println!("value site {site:?}: {total} observations over {distinct} distinct values");
    }
}

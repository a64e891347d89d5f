//! Quickstart: compile a program, sample an expensive profile cheaply.
//!
//! ```text
//! cargo run -p isf-examples --bin quickstart
//! ```
//!
//! Walks the whole pipeline: Jive source → IR → instrumentation plan →
//! Full-Duplication transform → sampled execution, then compares the cost
//! and accuracy of sampling against exhaustive instrumentation.

use isf_core::{instrument_module, Options, Strategy};
use isf_exec::{Engine, Request, Trigger, VmConfig};
use isf_instr::{CallEdgeInstrumentation, ModulePlan};
use isf_profile::{overlap, report};

const PROGRAM: &str = "
    class Counter { field n; method bump(by) { self.n = self.n + by; return self.n; } }
    fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    fn work(c, rounds) {
        var i = 0;
        while (i < rounds) {
            c.bump(fib(10) % 7);
            i = i + 1;
        }
        return c.n;
    }
    fn main() {
        var c = new Counter;
        print(work(c, 150));
    }";

fn main() {
    // 1. Compile.
    let module = isf_frontend::compile(PROGRAM).expect("program compiles");
    // Load the module for the fused engine once, then execute the code
    // under a request: here the plain configuration, no observers.
    let config = VmConfig::default();
    let baseline = Engine::Fused
        .load(&module, &config.cost)
        .execute(Request::new(&config))
        .expect("baseline runs");
    println!("baseline: {} simulated cycles", baseline.cycles);

    // 2. Plan call-edge instrumentation over every method.
    let plan = ModulePlan::build(&module, &[&CallEdgeInstrumentation]);
    println!(
        "planned {} instrumentation operations",
        plan.num_insertions()
    );

    // 3. Exhaustive instrumentation: the expensive way (paper Table 1).
    let (exhaustive, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
    let perfect = Engine::Fused
        .load(&exhaustive, &config.cost)
        .execute(Request::new(&config))
        .unwrap();
    println!(
        "exhaustive: {:+.1}% overhead, {} call-edge events",
        perfect.overhead_vs(&baseline),
        perfect.profile.total_call_edge_events()
    );

    // 4. The framework: Full-Duplication + counter-based sampling.
    let (sampled_module, stats) =
        instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
    println!(
        "full-duplication: {} checks inserted, {} blocks duplicated",
        stats.total_checks(),
        stats.total_duplicated_blocks()
    );
    let cfg = VmConfig {
        trigger: Trigger::Counter { interval: 101 },
        ..VmConfig::default()
    };
    let sampled = Engine::Fused
        .load(&sampled_module, &cfg.cost)
        .execute(Request::new(&cfg))
        .unwrap();
    assert_eq!(sampled.output, baseline.output, "semantics preserved");
    println!(
        "sampled (interval 101): {:+.1}% overhead, {} samples",
        sampled.overhead_vs(&baseline),
        sampled.samples_taken
    );
    println!(
        "profile accuracy: {:.1}% overlap with the perfect profile",
        overlap::call_edge_overlap(&perfect.profile, &sampled.profile)
    );

    // 5. What the profile says.
    println!("\nhottest call edges (sampled):");
    print!(
        "{}",
        report::format_top_call_edges(&sampled.profile, &module, 5)
    );
}

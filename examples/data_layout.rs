//! A data-layout client: order each class's fields by sampled access
//! frequency — the cache-conscious layout optimizations the paper cites as
//! consumers of field-access profiles (its references \[16\], \[17\], \[20\]).
//!
//! ```text
//! cargo run -p isf-examples --bin data_layout
//! ```

use isf_core::{instrument_module, Options, Strategy};
use isf_examples::execute;
use isf_exec::Trigger;
use isf_instr::{FieldAccessInstrumentation, ModulePlan};
use isf_ir::{ClassId, Module};
use isf_profile::ProfileData;
use isf_workloads::{by_name, Scale};

/// Hot-first field order for one class, from a profile.
fn layout_for(profile: &ProfileData, module: &Module, class: ClassId) -> Vec<(String, u64)> {
    let mut fields: Vec<(String, u64)> = module
        .class(class)
        .layout()
        .iter()
        .map(|&sym| {
            let count = profile
                .field_accesses()
                .get(&(class, sym))
                .copied()
                .unwrap_or(0);
            (module.field_name(sym).to_owned(), count)
        })
        .collect();
    fields.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    fields
}

fn main() {
    let workload = by_name("compress", Scale::Default).expect("compress is in the suite");
    let module = workload.compile();
    let baseline = execute(&module, Trigger::Never).expect("baseline runs");

    let plan = ModulePlan::build(&module, &[&FieldAccessInstrumentation]);

    let (exhaustive, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::Exhaustive)).unwrap();
    let perfect = execute(&exhaustive, Trigger::Never).unwrap();

    let (sampled_module, _) =
        instrument_module(&module, &plan, &Options::new(Strategy::FullDuplication)).unwrap();
    let sampled = execute(&sampled_module, Trigger::Counter { interval: 997 }).unwrap();

    println!(
        "compress: exhaustive field profile costs {:+.1}%, sampled costs {:+.1}%",
        perfect.overhead_vs(&baseline),
        sampled.overhead_vs(&baseline),
    );

    for (class_id, class) in module.classes() {
        if class.num_fields() == 0 {
            continue;
        }
        let want = layout_for(&perfect.profile, &module, class_id);
        let got = layout_for(&sampled.profile, &module, class_id);
        println!("\nclass {} — hot-first field layout:", class.name());
        println!(
            "{:<12} {:>12} | {:<12} {:>9}",
            "perfect", "count", "sampled", "count"
        );
        for (w, g) in want.iter().zip(&got) {
            println!("{:<12} {:>12} | {:<12} {:>9}", w.0, w.1, g.0, g.1);
        }
        let agree = want.iter().zip(&got).filter(|(w, g)| w.0 == g.0).count();
        println!("layout agreement: {}/{} positions", agree, want.len());
    }
}

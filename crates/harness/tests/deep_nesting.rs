//! No JSONL or journal line may abort the process: a line nested 10⁵
//! levels deep, which once overflowed the recursive JSON parser's stack,
//! is an ordinary error from every reader. The readers run on a 2 MiB
//! thread, the default size of a spawned thread.

use isf_harness::{journal, jsonl};
use isf_obs::json;

const DEPTH: usize = 100_000;

/// The two shapes of deep line: an array chain and an object chain.
fn deep_lines() -> [String; 2] {
    [
        "[".repeat(DEPTH),
        format!("{}1{}", r#"{"a":"#.repeat(DEPTH), "}".repeat(DEPTH)),
    ]
}

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("a deep line must be an error, not a crash");
}

#[test]
fn deep_lines_are_errors_for_every_reader() {
    on_small_stack(|| {
        for (k, line) in deep_lines().iter().enumerate() {
            let e = json::parse(line).expect_err("json::parse rejects the line");
            assert!(e.message.contains("nesting deeper than"), "{e}");

            let e = jsonl::validate(&format!("{line}\n")).expect_err("validate rejects the line");
            assert!(e.to_string().contains("nesting deeper than"), "{e}");

            let inputs = journal::RunInputs {
                version: "0".to_owned(),
                scale: "smoke".to_owned(),
                experiments: vec!["table1".to_owned()],
                cell_budget: 0,
                retries: 0,
                fault_prob_bits: 0,
                fault_seed: 0,
                vm_config: String::new(),
            };
            let path = std::env::temp_dir().join(format!(
                "isf-deep-nesting-{k}-{}.journal",
                std::process::id()
            ));
            journal::start_fresh(&path, &inputs).expect("write the journal header");
            let mut text = std::fs::read_to_string(&path).expect("read the journal");
            text.push_str(line);
            text.push('\n');
            std::fs::write(&path, text).expect("append the deep line");
            let e = journal::open_resume(&path, &inputs).expect_err("resume rejects the line");
            std::fs::remove_file(&path).ok();
            assert!(e.to_string().contains("nesting deeper than"), "{e}");
        }
    });
}

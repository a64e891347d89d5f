//! A smoke-scale, one-repetition pass of every workload through the real
//! entry point, `run.sh`, traced and untraced. The script builds the
//! harness and isf-benchmark in release mode into this test's own target
//! directory, so the first run compiles the workspace.

use std::path::Path;
use std::process::Command;

use isf_benchmark::spec::{Workload, END_TO_END, PER_LAYER};
use isf_obs::Json;

#[test]
fn every_workload_passes_a_smoke_run() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here.parent().expect("the benchmark sits in the repository");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run-sh");
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new("bash")
                .arg(here.join("run.sh"))
                .args(["--workload", workload.name(), "--seed", "2"])
                .args(["--seconds", "1", "--runs", "1", "--scale", "smoke"])
                .args(["--trace", trace])
                .current_dir(root)
                .env("CARGO_TARGET_DIR", &target)
                .output()
                .expect("bash runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!(
                "{} --trace {trace}: {}\n{stdout}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{what}");
            let last = stdout.lines().last().expect("a result line");
            let result = isf_obs::json::parse(last).expect("the result is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics: {what}");
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared = if trace == "1" { PER_LAYER } else { END_TO_END };
            assert_eq!(names, declared.iter().map(|m| m.name).collect::<Vec<_>>());
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{name}: {m}");
            }
        }
    }
}

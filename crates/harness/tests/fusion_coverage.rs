//! The fusion-coverage gate: at smoke scale, fusion must cover exactly
//! the pinned share of each benchmark's dynamic instruction stream, with
//! or without `--pgo` (accepted, and a no-op since the profile-guided
//! tier was removed). Coverage is deterministic, so a change to the
//! superinstruction catalogue that moves any count fails here and must
//! re-pin it on purpose.

use std::process::Command;

use isf_harness::runner::{Harness, HarnessConfig};
use isf_harness::Scale;

const BIN: &str = env!("CARGO_BIN_EXE_isf-harness");

/// `(benchmark, fused, total)` instructions at smoke scale.
type Pin = (&'static str, u64, u64);

const STATIC: [Pin; 10] = [
    ("compress", 87_217, 114_414),
    ("jess", 17_938, 37_254),
    ("db", 53_863, 89_496),
    ("javac", 63_751, 131_047),
    ("mpegaudio", 41_127, 70_160),
    ("mtrt", 73_540, 147_947),
    ("jack", 67_817, 93_473),
    ("opt_compiler", 41_432, 65_379),
    ("pbob", 16_340, 27_542),
    ("volano", 54_012, 75_363),
];

#[test]
fn static_fusion_coverage_is_pinned() {
    // Single-threaded, fusion on.
    let rows: Vec<Pin> = Harness::new(HarnessConfig {
        jobs: 1,
        fuse: true,
        ..HarnessConfig::default()
    })
    .fusion_coverage(Scale::Smoke)
    .iter()
    .map(|c| (c.name, c.fused_instructions, c.total_instructions))
    .collect();
    assert_eq!(rows, STATIC);
}

#[test]
fn pgo_fusion_coverage_equals_static() {
    // `--profile` prints one `[profile]   <bench> <pct>%  (<fused> /
    // <total> instructions)` line per benchmark on stderr.
    let out = Command::new(BIN)
        .args([
            "--pgo",
            "--profile",
            "--scale",
            "smoke",
            "--jobs",
            "1",
            "table1",
        ])
        .env("ISF_LOG", "cells")
        .output()
        .expect("spawn isf-harness");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let rows: Vec<(String, u64, u64)> = stderr
        .lines()
        .filter(|l| l.ends_with(" instructions)"))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let count = |w: &str| w.trim_start_matches('(').parse::<u64>().unwrap();
            (words[1].to_owned(), count(words[3]), count(words[5]))
        })
        .collect();
    let pins: Vec<(String, u64, u64)> = STATIC
        .iter()
        .map(|&(name, fused, total)| (name.to_owned(), fused, total))
        .collect();
    assert_eq!(rows, pins, "stderr:\n{stderr}");
}

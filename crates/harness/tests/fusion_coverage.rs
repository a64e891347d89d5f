//! The fusion-coverage gate: at smoke scale, static and profile-guided
//! fusion must cover exactly the pinned share of each benchmark's dynamic
//! instruction stream, and guided fusion must keep covering at least 65%
//! of the call-dense benchmarks. Coverage is deterministic, so a change
//! to the superinstruction catalogue or the guided pass that moves any
//! count fails here and must re-pin it on purpose.

use isf_harness::runner::{FusionCoverage, Harness, HarnessConfig};
use isf_harness::Scale;

/// `(benchmark, fused, guided, total)` instructions at smoke scale.
type Pin = (&'static str, u64, u64, u64);

const STATIC: [Pin; 10] = [
    ("compress", 87_217, 0, 114_414),
    ("jess", 17_938, 0, 37_254),
    ("db", 53_863, 0, 89_496),
    ("javac", 63_751, 0, 131_047),
    ("mpegaudio", 41_127, 0, 70_160),
    ("mtrt", 73_540, 0, 147_947),
    ("jack", 67_817, 0, 93_473),
    ("opt_compiler", 41_432, 0, 65_379),
    ("pbob", 16_340, 0, 27_542),
    ("volano", 54_012, 0, 75_363),
];

const GUIDED: [Pin; 10] = [
    ("compress", 101_590, 44_447, 114_414),
    ("jess", 24_315, 13_615, 37_254),
    ("db", 83_618, 64_861, 89_496),
    ("javac", 97_398, 59_014, 131_047),
    ("mpegaudio", 64_573, 48_028, 70_160),
    ("mtrt", 129_880, 99_164, 147_947),
    ("jack", 80_485, 34_144, 93_473),
    ("opt_compiler", 57_271, 42_557, 65_379),
    ("pbob", 22_573, 14_310, 27_542),
    ("volano", 72_398, 46_108, 75_363),
];

/// Coverage of every suite benchmark with fusion on, guided or not. The
/// run is single-threaded and independent of `ISF_FUSE`/`ISF_PGO`.
fn coverage(pgo: bool) -> Vec<FusionCoverage> {
    Harness::new(HarnessConfig {
        jobs: 1,
        fuse: true,
        pgo,
        ..HarnessConfig::default()
    })
    .fusion_coverage(Scale::Smoke)
}

fn counts(rows: &[FusionCoverage]) -> Vec<Pin> {
    rows.iter()
        .map(|c| {
            (
                c.name,
                c.fused_instructions,
                c.guided_instructions,
                c.total_instructions,
            )
        })
        .collect()
}

#[test]
fn static_fusion_coverage_is_pinned() {
    let rows = coverage(false);
    assert_eq!(counts(&rows), STATIC);
}

#[test]
fn guided_fusion_coverage_is_pinned_and_above_the_floor() {
    let rows = coverage(true);
    for c in &rows {
        assert!(
            c.guided_instructions <= c.fused_instructions
                && c.fused_instructions <= c.total_instructions,
            "{}: guided {} <= fused {} <= total {} does not hold",
            c.name,
            c.guided_instructions,
            c.fused_instructions,
            c.total_instructions
        );
    }
    for bench in ["jess", "javac", "mtrt"] {
        let c = rows
            .iter()
            .find(|c| c.name == bench)
            .unwrap_or_else(|| panic!("{bench} missing from the suite"));
        assert!(
            c.coverage_pct >= 65.0,
            "{bench}: guided coverage {:.1}% < 65%",
            c.coverage_pct
        );
    }
    assert_eq!(counts(&rows), GUIDED);
}

//! The record reader against a stream from a real traced smoke run
//! (`isf-harness --scale smoke --jobs 1 --profile --trace-out T --emit json
//! --emit-path J all`).

use isf_benchmark::pipeline::PipelineReport;
use isf_benchmark::records::{pipeline_layers, suite_layers, Records, Traced};
use isf_benchmark::spec::PER_LAYER;

const FIXTURE: &str = include_str!("fixtures/traced_smoke.ndjson");

fn probe_stream() -> String {
    let report = PipelineReport {
        draws: 30,
        plans: 30,
        instruments: 30,
        source_bytes: 2_000_000,
        bytes_before: 1_000,
        bytes_after: 2_500,
        ..PipelineReport::default()
    };
    let spans = r#"{"type":"span-summary","spans":[{"cat":"layer","name":"compile","count":40,"wall_ns":100000000,"cpu_ns":0},{"cat":"layer","name":"plan","count":30,"wall_ns":3000000,"cpu_ns":0},{"cat":"layer","name":"prepare/off","count":10,"wall_ns":2000000,"cpu_ns":0}]}"#;
    format!("{}\n{spans}\n", report.to_json())
}

#[test]
fn reads_every_record_the_benchmark_uses() {
    let r = Records::parse(FIXTURE).expect("fixture parses");
    assert_eq!(r.records, 266);
    assert_eq!(r.cells.len(), 140);
    assert_eq!(
        r.cells
            .iter()
            .filter(|c| c.label.starts_with("prepare/"))
            .count(),
        70
    );
    let compress = &r.cells[0];
    assert_eq!(compress.label, "prepare/compress");
    assert_eq!(
        (compress.sim_cycles, compress.instructions),
        (259_579, 114_414)
    );
    assert_eq!(r.counters["prep.cache.hits"], 102);
    assert_eq!(r.counters["prep.cache.misses"], 141);
    assert_eq!(r.samples, 189_180);
    assert_eq!(r.phases["compile"].0, 71);
    assert_eq!(r.span_count(), 312);
    assert!(r.pipeline.is_none());
}

#[test]
fn suite_layers_fill_every_per_layer_metric() {
    let harness = Records::parse(FIXTURE).expect("fixture parses");
    let probe = Records::parse(&probe_stream()).expect("probe parses");
    let traced = Traced {
        wall_s: 0.6,
        untraced_s: 0.5,
        failed: 0,
    };
    let layers = suite_layers(&harness, &probe, 1, &traced).expect("layers");
    for m in PER_LAYER {
        let v = layers
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        assert!(v.is_finite(), "{} = {v}", m.name);
    }
    assert_eq!(layers.len(), PER_LAYER.len());
    assert_eq!(layers["exec.dispatches"], 26_520_783.0);
    assert_eq!(layers["exec.instructions"], 38_531_022.0);
    assert_eq!(layers["exec.runs"], 423.0);
    assert!((layers["exec.dispatches_per_instr"] - 0.688).abs() < 0.001);
    assert_eq!(layers["exec.prepares"], 141.0);
    assert_eq!(layers["harness.cells"], 140.0);
    assert_eq!(layers["harness.prepare_cells"], 70.0);
    assert_eq!(layers["obs.spans"], 312.0);
    assert!((layers["obs.trace_overhead_pct"] - 20.0).abs() < 1e-9);
    assert!((layers["core.ir_growth_pct"] - 150.0).abs() < 1e-9);
    assert!((layers["frontend.source_mb_per_s"] - 20.0).abs() < 1e-9);
    assert_eq!(layers["instr.plan_s"], 0.003);
    let shares: f64 = layers
        .iter()
        .filter(|(k, _)| k.starts_with("harness.exp."))
        .map(|(_, v)| v)
        .sum();
    assert!(
        shares > 90.0 && shares <= 100.0,
        "experiments cover the run: {shares}"
    );
}

#[test]
fn pipeline_layers_need_a_pipeline_record() {
    let traced = Traced {
        wall_s: 1.0,
        untraced_s: 1.0,
        failed: 0,
    };
    let harness = Records::parse(FIXTURE).expect("fixture parses");
    assert!(pipeline_layers(&harness, &traced).is_err());
    let run = Records::parse(&probe_stream()).expect("probe parses");
    let layers = pipeline_layers(&run, &traced).expect("layers");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert_eq!(layers["harness.cells"], 30.0);
}

#[test]
fn malformed_lines_are_errors() {
    assert!(Records::parse("{\"type\":\"cell\"").is_err());
    assert!(Records::parse("{\"type\":\"cell\",\"label\":\"x\"}").is_err());
    assert!(Records::parse("{\"type\":\"other\"}\n\n").is_ok());
}

//! Reads the JSONL records a traced repetition leaves behind — the
//! harness's `cell`, `phase`, `metrics` and `span-summary` records, or the
//! pipeline's `pipeline` and `span-summary` records — and turns them into
//! the per-layer metrics. Nothing here runs the program: every number is
//! measured from outside it.

use std::collections::BTreeMap;

use isf_obs::Json;

use crate::pipeline::PipelineReport;
use crate::spec::EXPERIMENTS;

/// One harness `cell` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// `experiment/bench` or `prepare/bench`.
    pub label: String,
    /// Simulated cycles of the cell's run.
    pub sim_cycles: u64,
    /// Instructions of the cell's run.
    pub instructions: u64,
    /// Wall time, nanoseconds.
    pub wall_ns: u64,
}

/// One row of a `span-summary` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Hierarchy level.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Spans aggregated.
    pub count: u64,
    /// Their total wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Everything one traced repetition's stream says.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Records {
    /// Records read.
    pub records: usize,
    /// `cell` records, in stream order.
    pub cells: Vec<Cell>,
    /// `phase` records summed per phase name: (count, wall ns).
    pub phases: BTreeMap<String, (u64, u64)>,
    /// The `metrics` record's counters.
    pub counters: BTreeMap<String, u64>,
    /// Samples taken: entries of every `*.checks_per_sample` histogram.
    pub samples: u64,
    /// The `span-summary` rows.
    pub spans: Vec<SpanRow>,
    /// The `pipeline` record, for pipeline runs.
    pub pipeline: Option<PipelineReport>,
}

fn field_u64(record: &Json, key: &str) -> Result<u64, String> {
    record
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("record without integer `{key}`: {record}"))
}

fn field_str<'a>(record: &'a Json, key: &str) -> Result<&'a str, String> {
    record
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("record without string `{key}`: {record}"))
}

impl Records {
    /// Parses a JSONL stream. Record types the benchmark does not use are
    /// counted and skipped.
    ///
    /// # Errors
    ///
    /// Describes the first line that is not JSON or a used record that
    /// lacks a field.
    pub fn parse(stream: &str) -> Result<Records, String> {
        let mut r = Records::default();
        for (i, line) in stream.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = isf_obs::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            r.records += 1;
            match record.get("type").and_then(Json::as_str) {
                Some("cell") => r.cells.push(Cell {
                    label: field_str(&record, "label")?.to_owned(),
                    sim_cycles: field_u64(&record, "sim_cycles")?,
                    instructions: field_u64(&record, "instructions")?,
                    wall_ns: field_u64(&record, "wall_ns")?,
                }),
                Some("phase") => {
                    let entry = r
                        .phases
                        .entry(field_str(&record, "name")?.to_owned())
                        .or_default();
                    entry.0 += field_u64(&record, "count")?;
                    entry.1 += field_u64(&record, "wall_ns")?;
                }
                Some("metrics") => {
                    if let Some(Json::Obj(counters)) = record.get("counters") {
                        for (name, value) in counters {
                            let v = value
                                .as_u64()
                                .ok_or_else(|| format!("counter `{name}` is not a count"))?;
                            r.counters.insert(name.clone(), v);
                        }
                    }
                    if let Some(Json::Obj(histograms)) = record.get("histograms") {
                        for (name, h) in histograms {
                            if name.ends_with(".checks_per_sample") {
                                r.samples += field_u64(h, "count")?;
                            }
                        }
                    }
                }
                Some("span-summary") => {
                    let rows = record
                        .get("spans")
                        .and_then(Json::as_arr)
                        .ok_or("span-summary without `spans`")?;
                    for row in rows {
                        r.spans.push(SpanRow {
                            cat: field_str(row, "cat")?.to_owned(),
                            name: field_str(row, "name")?.to_owned(),
                            count: field_u64(row, "count")?,
                            wall_ns: field_u64(row, "wall_ns")?,
                        });
                    }
                }
                Some("pipeline") => r.pipeline = Some(PipelineReport::from_json(&record)?),
                _ => {}
            }
        }
        Ok(r)
    }

    /// Total wall nanoseconds of the spans at level `cat` whose name
    /// satisfies `name`.
    fn span_ns(&self, cat: &str, name: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.cat == cat && name(&s.name))
            .map(|s| s.wall_ns)
            .sum()
    }

    fn layer_s(&self, name: &str) -> f64 {
        secs(self.span_ns("layer", |n| n == name))
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn op_total(&self, field: &str) -> u64 {
        let suffix = format!(".{field}");
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with("op.") && k.ends_with(&suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Spans recorded in the run's trace (every span enters the summary).
    #[must_use]
    pub fn span_count(&self) -> u64 {
        self.spans.iter().map(|s| s.count).sum()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How the traced repetition compared to the untraced one before it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Traced {
    /// Traced repetition's wall time, seconds on the reference machine.
    pub wall_s: f64,
    /// Untraced repetition's wall time, seconds on the reference machine.
    pub untraced_s: f64,
    /// Operations (cells or draws) that failed in the traced repetition.
    pub failed: u64,
}

/// Per-layer metrics, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The layers only the benchmark's pipeline-style calls split: planning,
/// preparation per fuse mode, input generation, front-end throughput and
/// IR growth.
fn pipeline_style(run: &Records, report: &PipelineReport, out: &mut Layers) {
    out.insert("instr.plan_s", run.layer_s("plan"));
    out.insert("instr.plans", report.plans as f64);
    out.insert("exec.prepare_off_s", run.layer_s("prepare/off"));
    out.insert("exec.prepare_fuse_s", run.layer_s("prepare/fuse"));
    out.insert("exec.prepare_guided_s", run.layer_s("prepare/guided"));
    out.insert("workloads.gen_s", run.layer_s("gen"));
    out.insert(
        "frontend.source_mb_per_s",
        ratio(report.source_bytes as f64 / 1e6, run.layer_s("compile")),
    );
    out.insert(
        "core.ir_growth_pct",
        (ratio(report.bytes_after as f64, report.bytes_before as f64) - 1.0) * 100.0,
    );
}

fn observability(run: &Records, traced: &Traced, out: &mut Layers) {
    out.insert("obs.records", run.records as f64);
    out.insert("obs.spans", run.span_count() as f64);
    out.insert(
        "obs.trace_overhead_pct",
        (traced.wall_s / traced.untraced_s - 1.0) * 100.0,
    );
}

/// Per-layer metrics of a suite workload: everything the harness records
/// split, from its traced run; the rest from the benchmark's probe.
///
/// # Errors
///
/// When the probe's stream has no `pipeline` record.
pub fn suite_layers(
    harness: &Records,
    probe: &Records,
    jobs: usize,
    traced: &Traced,
) -> Result<Layers, String> {
    let mut out = Layers::new();
    let phase = |name: &str| harness.phases.get(name).copied().unwrap_or((0, 0));

    let run_s = secs(phase("run").1);
    let instructions = harness.op_total("instructions") as f64;
    let dispatches = harness.op_total("count") as f64;
    let total = harness.counter("profile.total_instructions") as f64;
    out.insert("exec.run_s", run_s);
    out.insert("exec.runs", harness.counter("profile.runs") as f64);
    out.insert("exec.instructions", instructions);
    out.insert("exec.sim_cycles", harness.op_total("cycles") as f64);
    out.insert("exec.dispatches", dispatches);
    out.insert("exec.dispatches_per_instr", ratio(dispatches, instructions));
    out.insert(
        "exec.fused_pct",
        ratio(harness.counter("profile.fused_instructions") as f64, total) * 100.0,
    );
    out.insert(
        "exec.guided_pct",
        ratio(harness.counter("profile.guided_instructions") as f64, total) * 100.0,
    );
    out.insert("exec.samples_taken", harness.samples as f64);
    out.insert("exec.minstr_per_s", ratio(instructions / 1e6, run_s));

    let hits = harness.counter("prep.cache.hits") as f64;
    let misses = harness.counter("prep.cache.misses") as f64;
    out.insert("exec.prepare_s", secs(phase("prepare").1));
    out.insert("exec.prepares", misses);
    out.insert("exec.prep_cache_hits", hits);
    out.insert("exec.prep_hit_ratio", ratio(hits, hits + misses));
    out.insert("exec.pgo_warmups", harness.counter("pgo.warmups") as f64);
    out.insert(
        "exec.pgo_warmup_instructions",
        harness.counter("pgo.warmup_instructions") as f64,
    );

    out.insert("frontend.compile_s", secs(phase("compile").1));
    out.insert("frontend.compiles", phase("compile").0 as f64);
    out.insert("core.instrument_s", secs(phase("instrument").1));
    out.insert("core.instruments", phase("instrument").0 as f64);

    let cell_ns: u64 = harness.cells.iter().map(|c| c.wall_ns).sum();
    let prepare_cells: Vec<&Cell> = harness
        .cells
        .iter()
        .filter(|c| c.label.starts_with("prepare/"))
        .collect();
    let prepare_ns: u64 = prepare_cells.iter().map(|c| c.wall_ns).sum();
    let run_ns = harness.span_ns("run", |_| true) as f64;
    out.insert("harness.cells", harness.cells.len() as f64);
    out.insert("harness.cells_failed", traced.failed as f64);
    out.insert("harness.prepare_cells", prepare_cells.len() as f64);
    out.insert(
        "harness.prepare_cells_pct",
        ratio(prepare_ns as f64, cell_ns as f64) * 100.0,
    );
    out.insert(
        "harness.cell_max_s",
        secs(harness.cells.iter().map(|c| c.wall_ns).max().unwrap_or(0)),
    );
    out.insert(
        "harness.worker_busy_pct",
        ratio(
            harness.span_ns("attempt", |_| true) as f64,
            jobs as f64 * run_ns,
        ) * 100.0,
    );
    for (exp, name) in EXPERIMENTS.iter().zip(EXP_METRICS) {
        out.insert(
            name,
            ratio(harness.span_ns("experiment", |n| n == *exp) as f64, run_ns) * 100.0,
        );
    }

    let report = probe
        .pipeline
        .as_ref()
        .ok_or("probe wrote no pipeline record")?;
    pipeline_style(probe, report, &mut out);
    observability(harness, traced, &mut out);
    Ok(out)
}

/// The per-experiment share metrics, in [`EXPERIMENTS`] order.
const EXP_METRICS: [&str; 7] = [
    "harness.exp.table1_pct",
    "harness.exp.table2_pct",
    "harness.exp.table3_pct",
    "harness.exp.table4_pct",
    "harness.exp.table5_pct",
    "harness.exp.fig7_pct",
    "harness.exp.fig8_pct",
];

/// Per-layer metrics of the `pipeline` workload, from its traced
/// repetition. Its dispatch layer is the guidance warmups; its operations
/// are draws; it has no harness experiments or preparation cache.
///
/// # Errors
///
/// When the stream has no `pipeline` record.
pub fn pipeline_layers(run: &Records, traced: &Traced) -> Result<Layers, String> {
    let r = run
        .pipeline
        .as_ref()
        .ok_or("pipeline wrote no pipeline record")?;
    let mut out = Layers::new();
    let run_s = run.layer_s("warmup");
    let instructions = r.warmup_instructions as f64;
    out.insert("exec.run_s", run_s);
    out.insert("exec.runs", r.warmups as f64);
    out.insert("exec.instructions", instructions);
    out.insert("exec.sim_cycles", r.warmup_cycles as f64);
    out.insert("exec.dispatches", r.warmup_dispatches as f64);
    out.insert(
        "exec.dispatches_per_instr",
        ratio(r.warmup_dispatches as f64, instructions),
    );
    out.insert(
        "exec.fused_pct",
        ratio(r.warmup_fused_instructions as f64, instructions) * 100.0,
    );
    out.insert("exec.guided_pct", 0.0);
    out.insert("exec.samples_taken", 0.0);
    out.insert("exec.minstr_per_s", ratio(instructions / 1e6, run_s));

    out.insert(
        "exec.prepare_s",
        secs(run.span_ns("layer", |n| n.starts_with("prepare/"))),
    );
    out.insert("exec.prepares", r.prepares as f64);
    out.insert("exec.prep_cache_hits", 0.0);
    out.insert("exec.prep_hit_ratio", 0.0);
    out.insert("exec.pgo_warmups", r.warmups as f64);
    out.insert("exec.pgo_warmup_instructions", instructions);

    out.insert("frontend.compile_s", run.layer_s("compile"));
    out.insert("frontend.compiles", r.compiles as f64);
    out.insert("core.instrument_s", run.layer_s("instrument"));
    out.insert("core.instruments", r.instruments as f64);

    out.insert("harness.cells", r.draws as f64);
    out.insert("harness.cells_failed", traced.failed as f64);
    out.insert("harness.prepare_cells", 0.0);
    out.insert("harness.prepare_cells_pct", 0.0);
    out.insert("harness.cell_max_s", secs(r.max_draw_ns));
    out.insert(
        "harness.worker_busy_pct",
        ratio(r.draws_ns as f64, r.run_ns as f64) * 100.0,
    );
    for name in EXP_METRICS {
        out.insert(name, 0.0);
    }

    pipeline_style(run, r, &mut out);
    observability(run, traced, &mut out);
    Ok(out)
}

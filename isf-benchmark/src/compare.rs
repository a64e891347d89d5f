//! `isf-benchmark compare A B`: two sets of runs of the benchmark, side by
//! side, one row per (workload, metric), with a verdict per row.
//!
//! A set is an NDJSON file of result lines, each tagged with the workload
//! that produced it: `{"workload": "suite", "seed": 3, "correct": true,
//! ..., "metrics": {...}}` — what `sweep.sh` writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use isf_obs::Json;

use crate::spec::{self, Better};
use crate::stats::Summary;

/// One run of the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// The run's seed: exact counts must repeat for equal seeds.
    pub seed: u64,
    /// Whether the run's correctness gates passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads a set of runs.
///
/// # Errors
///
/// Describes the first malformed line.
pub fn read_set(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |m: &str| format!("line {}: {m}", i + 1);
        let record = isf_obs::json::parse(line).map_err(|e| at(&e.to_string()))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no `workload`"))?
            .to_owned();
        let Some(Json::Obj(pairs)) = record.get("metrics") else {
            return Err(at("no `metrics` object"));
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in pairs {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(&format!("metric `{name}` has no numeric value")))?;
            metrics.insert(name.clone(), value);
        }
        runs.push(Run {
            workload,
            seed: record
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| at("no `seed`"))?,
            correct: record.get("correct").and_then(Json::as_bool) == Some(true),
            metrics,
        });
    }
    Ok(runs)
}

/// The outcome of one row.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the bound, and both sides resolved it.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A side's quartile spread exceeds the bound: noise hides the answer.
    Unresolved,
    /// An exact count, identical in every run of both sets with the same
    /// seed.
    Same,
    /// An exact count that varies between runs of one seed.
    Differs,
    /// A per-layer measurement without a bound: shown, not judged.
    Info,
}

impl Verdict {
    /// The verdict as printed.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "info",
        }
    }

    /// Whether the row passes.
    #[must_use]
    pub fn passes(self) -> bool {
        matches!(self, Verdict::Ok | Verdict::Same | Verdict::Info)
    }
}

/// Judges a bounded metric: B against A, worse in direction `better` by
/// more than `bound` (a share of A's median) is a regression — unless
/// either side's own quartile spread exceeds the bound, which makes the
/// comparison unresolved.
#[must_use]
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One compared row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Set A's runs.
    pub a: Summary,
    /// Set B's runs.
    pub b: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two sets: every (workload, metric) both sets measured, in
/// workload and declaration order. Metrics the benchmark does not declare
/// are ignored.
#[must_use]
pub fn compare(a: &[Run], b: &[Run]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in spec::Workload::ALL.map(spec::Workload::name) {
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            let values = |set: &[Run]| -> Vec<(u64, f64)> {
                set.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| Some((r.seed, *r.metrics.get(m.name)?)))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let only = |v: &[(u64, f64)]| v.iter().map(|x| x.1).collect::<Vec<_>>();
            let (Some(sa), Some(sb)) = (Summary::of(&only(&va)), Summary::of(&only(&vb))) else {
                continue;
            };
            let verdict = if m.exact {
                let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
                let repeats = va
                    .iter()
                    .chain(&vb)
                    .all(|&(seed, v)| *by_seed.entry(seed).or_insert(v) == v);
                if repeats {
                    Verdict::Same
                } else {
                    Verdict::Differs
                }
            } else if let Some(bound) = spec::bound(m.name) {
                judge(&sa, &sb, m.better, bound)
            } else {
                Verdict::Info
            };
            rows.push(Row {
                workload: workload.to_owned(),
                metric: m.name,
                a: sa,
                b: sb,
                verdict,
            });
        }
    }
    rows
}

/// Renders rows as a table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<30} {:>34} {:>34}  verdict\n",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n"
    );
    let side = |s: &Summary| format!("{:.6} [{:.6}, {:.6}] {}", s.median, s.q1, s.q3, s.n);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<30} {:>34} {:>34}  {}",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            r.verdict.as_str()
        );
    }
    out
}

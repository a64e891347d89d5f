//! Figure 7: the javac call-edge profile — per-edge sample percentages of
//! the perfect profile vs a profile sampled at interval 1,000, plus the
//! overlap score (the paper's instance scores 93.8%).

use std::collections::HashMap;
use std::fmt;

use isf_core::{Options, Strategy};
use isf_exec::Trigger;
use isf_profile::overlap::call_edge_overlap;
use isf_profile::CallEdgeKey;

use crate::runner::{instrument, Harness, Kinds};
use crate::Scale;

/// One bar of the figure: a call edge with both sample-percentages.
#[derive(Clone, Debug)]
pub struct Bar {
    /// `caller -> callee (@site)` label.
    pub edge: String,
    /// Sample-percentage in the perfect profile.
    pub perfect_pct: f64,
    /// Sample-percentage in the sampled profile.
    pub sampled_pct: f64,
}

/// The reproduced Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// Edges ranked by perfect sample-percentage, descending.
    pub bars: Vec<Bar>,
    /// Overlap percentage between the two profiles.
    pub overlap: f64,
    /// The sample interval used.
    pub interval: u64,
}

/// Runs the experiment on the `javac` benchmark.
pub fn run(h: &Harness, scale: Scale) -> Fig7 {
    // Prime intervals sized to each scale's check count, so the sample
    // budget stays proportional to the paper's (interval 1,000 against
    // ~1.1e7 checks) and the deterministic counter cannot alias with the
    // parser's loop periods (§4.4).
    let interval = match scale {
        Scale::Smoke => 37,
        Scale::Default => 151,
        Scale::Paper => 1_009,
    };
    let w = isf_workloads::by_name("javac", scale).expect("javac exists");
    let b = h.prepare(&w);
    let perfect = h.perfect_profile(&b, Kinds::CallEdge);
    let (module, _, _) = instrument(
        &b.module,
        Kinds::CallEdge,
        &Options::new(Strategy::FullDuplication),
    );
    let sampled = h.run_module(&module, Trigger::Counter { interval });
    let overlap = call_edge_overlap(&perfect, &sampled.profile);

    let total_p: u64 = perfect.call_edges().values().sum();
    let total_s: u64 = sampled.profile.call_edges().values().sum();
    let s_map: &HashMap<CallEdgeKey, u64> = sampled.profile.call_edges();
    let mut bars: Vec<Bar> = perfect
        .call_edges()
        .iter()
        .map(|(&key, &count)| {
            let (caller, site, callee) = key;
            Bar {
                edge: format!(
                    "{} -> {} (@{})",
                    b.module.function(caller).name(),
                    b.module.function(callee).name(),
                    site.0
                ),
                perfect_pct: count as f64 / total_p.max(1) as f64 * 100.0,
                sampled_pct: s_map.get(&key).copied().unwrap_or(0) as f64 / total_s.max(1) as f64
                    * 100.0,
            }
        })
        .collect();
    bars.sort_by(|a, b| {
        b.perfect_pct
            .partial_cmp(&a.perfect_pct)
            .expect("percentages are finite")
            .then_with(|| a.edge.cmp(&b.edge))
    });
    Fig7 {
        bars,
        overlap,
        interval,
    }
}

impl Fig7 {
    /// Emits the figure as JSONL records (no-op when the emitter is off).
    pub fn emit_jsonl(&self) {
        use isf_obs::{emit, Json};
        if !emit::enabled() {
            return;
        }
        for bar in &self.bars {
            emit::record(&Json::obj([
                ("type", "row".into()),
                ("experiment", "fig7".into()),
                ("edge", bar.edge.as_str().into()),
                ("perfect_pct", bar.perfect_pct.into()),
                ("sampled_pct", bar.sampled_pct.into()),
            ]));
        }
        let mut summary = vec![
            ("type", "summary".into()),
            ("experiment", "fig7".into()),
            ("overlap_pct", self.overlap.into()),
            ("interval", self.interval.into()),
            ("edges", self.bars.len().into()),
        ];
        summary.extend(crate::runner::summary_profile_fields());
        emit::record(&Json::obj(summary));
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7: javac call-edge profile, perfect vs sampled (interval {})",
            self.interval
        )?;
        writeln!(f, "{:>8} {:>8}  edge", "perf %", "samp %")?;
        for bar in self.bars.iter().take(50) {
            let len = (bar.perfect_pct.round() as usize).min(40);
            writeln!(
                f,
                "{:>8.2} {:>8.2}  {:<44} {}",
                bar.perfect_pct,
                bar.sampled_pct,
                bar.edge,
                "#".repeat(len.max(1))
            )?;
        }
        if self.bars.len() > 50 {
            writeln!(f, "... {} more edges", self.bars.len() - 50)?;
        }
        writeln!(
            f,
            "overlap: {:.1}% over {} edges (paper instance: 93.8%)",
            self.overlap,
            self.bars.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run(&Harness::default(), Scale::Smoke);
        // javac has the rich edge population the figure relies on.
        assert!(
            fig.bars.len() >= 25,
            "only {} distinct call edges",
            fig.bars.len()
        );
        // Ranked descending; percentages sum to ~100.
        for w in fig.bars.windows(2) {
            assert!(w[0].perfect_pct >= w[1].perfect_pct);
        }
        let sum: f64 = fig.bars.iter().map(|b| b.perfect_pct).sum();
        assert!((sum - 100.0).abs() < 1e-6);
        // The sampled profile is a high-overlap reconstruction.
        assert!(
            fig.overlap > 80.0,
            "overlap {:.1}% too low for the figure",
            fig.overlap
        );
        // The distribution is skewed (a few hot edges dominate), like the
        // paper's figure.
        assert!(fig.bars[0].perfect_pct > 3.0 * fig.bars[fig.bars.len() / 2].perfect_pct);
    }
}

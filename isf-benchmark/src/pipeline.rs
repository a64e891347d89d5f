//! The benchmark's own calls into the crates' public functions: set-up of the
//! ten suite programs, the `pipeline` workload's draws, and the pipeline
//! correctness gate. Each call sits in an `isf_obs::span`, so a traced run
//! writes the harness's Chrome trace format and `span-summary` record.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use isf_core::instrument_module;
use isf_exec::{
    run_naive, run_prepared, run_prepared_profiled, CostModel, ExecLimits, FuseGuidance, FuseMode,
    OpProfile, PreparedModule, Trigger, VmConfig,
};
use isf_instr::ModulePlan;
use isf_ir::Module;
use isf_obs::{span, Json};
use isf_workloads::{Scale, Workload};

use crate::draws::{Draw, FUSES};

/// Cycle budget of a guidance warmup, the harness's `--pgo` budget.
pub const WARMUP_CYCLES: u64 = 250_000;

/// How far set-up goes beyond compiling and statically fusing each program.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Guidance {
    /// No warmup (`suite`, `suite-jobs2`).
    None,
    /// Warm up each program for its fusion guidance (`pipeline`).
    Warmup,
    /// Warm up, then re-prepare each program guided (`suite-pgo`).
    WarmupAndPrepare,
}

/// The suite at one scale, brought to its first runnable form.
pub struct Programs {
    /// The generated programs, suite order.
    pub workloads: Vec<Workload>,
    /// Their compiled modules.
    pub modules: Vec<Module>,
    /// Their runnable forms (guided under [`Guidance::WarmupAndPrepare`],
    /// statically fused otherwise).
    pub prepared: Vec<PreparedModule>,
    /// Their warmup guidance (empty under [`Guidance::None`]).
    pub guidance: Vec<FuseGuidance>,
    /// The warmups' merged dispatch profile.
    pub warmup_profile: OpProfile,
}

fn prepare(module: &Module, mode: FuseMode) -> PreparedModule {
    let name = match mode {
        FuseMode::Off => "prepare/off",
        FuseMode::Fuse => "prepare/fuse",
        FuseMode::Guided(_) => "prepare/guided",
    };
    let _span = span::begin("layer", name);
    PreparedModule::prepare_with(module, &CostModel::default(), mode)
}

/// Generates the suite at `scale` and brings every program to its first
/// runnable form — the work the set-up time measures.
#[must_use]
pub fn set_up(scale: Scale, guidance: Guidance) -> Programs {
    let workloads = {
        let _span = span::begin("layer", "gen");
        isf_workloads::suite(scale)
    };
    let mut programs = Programs {
        modules: Vec::with_capacity(workloads.len()),
        prepared: Vec::with_capacity(workloads.len()),
        guidance: Vec::new(),
        warmup_profile: OpProfile::new(),
        workloads,
    };
    for w in &programs.workloads {
        let module = {
            let _span = span::begin("layer", "compile");
            w.compile()
        };
        let mut prepared = prepare(&module, FuseMode::Fuse);
        if guidance != Guidance::None {
            let cfg = VmConfig {
                trigger: Trigger::Never,
                limits: ExecLimits::cycles(WARMUP_CYCLES),
                ..VmConfig::default()
            };
            let mut profile = OpProfile::new();
            {
                let _span = span::begin("layer", "warmup");
                // A warmup usually ends in its fuel trap; that is its exit.
                let _ = run_prepared_profiled(&prepared, &cfg, &mut profile);
            }
            let g = FuseGuidance::from_profile(&profile);
            programs.warmup_profile.merge(&profile);
            if guidance == Guidance::WarmupAndPrepare {
                prepared = prepare(&module, FuseMode::Guided(Box::new(g.clone())));
            }
            programs.guidance.push(g);
        }
        programs.modules.push(module);
        programs.prepared.push(prepared);
    }
    programs
}

/// FNV-1a over 64-bit words: the digest of a repetition's outputs.
fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What one `pipeline` repetition did: deterministic counts (equal on
/// every repetition of a seed) plus its wall-clock times.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// Draws attempted.
    pub draws: u64,
    /// Draws whose transform was rejected.
    pub failed: u64,
    /// Digest of every draw's prepared form and transform statistics.
    pub digest: u64,
    /// Source bytes compiled (set-up and draws).
    pub source_bytes: u64,
    /// Front-end compilations (set-up and draws).
    pub compiles: u64,
    /// Plans built.
    pub plans: u64,
    /// Modules instrumented.
    pub instruments: u64,
    /// Module size before instrumentation, summed over draws.
    pub bytes_before: u64,
    /// Module size after instrumentation, summed over draws.
    pub bytes_after: u64,
    /// `prepare_with` calls (set-up and draws).
    pub prepares: u64,
    /// Guidance warmups run.
    pub warmups: u64,
    /// Instructions the warmups executed.
    pub warmup_instructions: u64,
    /// Hot-loop dispatches of the warmups.
    pub warmup_dispatches: u64,
    /// Simulated cycles of the warmups.
    pub warmup_cycles: u64,
    /// Warmup instructions executed fused.
    pub warmup_fused_instructions: u64,
    /// Longest single draw, nanoseconds.
    pub max_draw_ns: u64,
    /// All draws, nanoseconds.
    pub draws_ns: u64,
    /// The whole repetition (generation, set-up, draws), nanoseconds.
    pub run_ns: u64,
}

impl PipelineReport {
    /// The `pipeline` JSONL record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", "pipeline".into()),
            ("draws", self.draws.into()),
            ("failed", self.failed.into()),
            ("digest", format!("{:016x}", self.digest).into()),
            ("source_bytes", self.source_bytes.into()),
            ("compiles", self.compiles.into()),
            ("plans", self.plans.into()),
            ("instruments", self.instruments.into()),
            ("bytes_before", self.bytes_before.into()),
            ("bytes_after", self.bytes_after.into()),
            ("prepares", self.prepares.into()),
            ("warmups", self.warmups.into()),
            ("warmup_instructions", self.warmup_instructions.into()),
            ("warmup_dispatches", self.warmup_dispatches.into()),
            ("warmup_cycles", self.warmup_cycles.into()),
            (
                "warmup_fused_instructions",
                self.warmup_fused_instructions.into(),
            ),
            ("max_draw_ns", self.max_draw_ns.into()),
            ("draws_ns", self.draws_ns.into()),
            ("run_ns", self.run_ns.into()),
        ])
    }

    /// Reads a `pipeline` record back.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn from_json(record: &Json) -> Result<PipelineReport, String> {
        let u = |key: &str| {
            record
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("pipeline record: missing `{key}`"))
        };
        let digest = record
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("pipeline record: missing `digest`")?;
        Ok(PipelineReport {
            draws: u("draws")?,
            failed: u("failed")?,
            digest,
            source_bytes: u("source_bytes")?,
            compiles: u("compiles")?,
            plans: u("plans")?,
            instruments: u("instruments")?,
            bytes_before: u("bytes_before")?,
            bytes_after: u("bytes_after")?,
            prepares: u("prepares")?,
            warmups: u("warmups")?,
            warmup_instructions: u("warmup_instructions")?,
            warmup_dispatches: u("warmup_dispatches")?,
            warmup_cycles: u("warmup_cycles")?,
            warmup_fused_instructions: u("warmup_fused_instructions")?,
            max_draw_ns: u("max_draw_ns")?,
            draws_ns: u("draws_ns")?,
            run_ns: u("run_ns")?,
        })
    }

    /// The fields that must repeat exactly across repetitions of a seed.
    #[must_use]
    pub fn deterministic(&self) -> PipelineReport {
        PipelineReport {
            max_draw_ns: 0,
            draws_ns: 0,
            run_ns: 0,
            ..self.clone()
        }
    }
}

/// One `pipeline` repetition: set up the programs at `scale` with their
/// guidance warmups, then run every draw through compile → plan →
/// instrument → prepare. `draws` is generated inside the timed region by
/// the caller-supplied closure, since generation is part of the workload.
pub fn run(scale: Scale, make_draws: impl FnOnce() -> Vec<Draw>) -> PipelineReport {
    let start = Instant::now();
    let _run = span::begin("run", "isf-benchmark pipeline");
    let draws = {
        let _span = span::begin("layer", "gen");
        make_draws()
    };
    let programs = set_up(scale, Guidance::Warmup);
    let mut r = PipelineReport {
        warmups: programs.guidance.len() as u64,
        warmup_instructions: programs.warmup_profile.total_instructions(),
        warmup_dispatches: programs.warmup_profile.total_dispatches(),
        warmup_cycles: programs.warmup_profile.total_cycles(),
        warmup_fused_instructions: programs.warmup_profile.fused_instructions(),
        compiles: programs.modules.len() as u64,
        prepares: programs.prepared.len() as u64,
        source_bytes: programs
            .workloads
            .iter()
            .map(|w| w.source().len() as u64)
            .sum(),
        digest: 0xcbf2_9ce4_8422_2325,
        ..PipelineReport::default()
    };
    for d in &draws {
        let t = Instant::now();
        {
            let _span = span::begin("cell", "draw");
            draw(d, &programs, &mut r);
        }
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        r.max_draw_ns = r.max_draw_ns.max(ns);
        r.draws_ns += ns;
    }
    r.run_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    r
}

fn draw(d: &Draw, programs: &Programs, r: &mut PipelineReport) {
    r.draws += 1;
    let w = &programs.workloads[d.program];
    let module = {
        let _span = span::begin("layer", "compile");
        w.compile()
    };
    r.compiles += 1;
    r.source_bytes += w.source().len() as u64;
    let plan = {
        let _span = span::begin("layer", "plan");
        ModulePlan::build(&module, &d.instrumentations())
    };
    r.plans += 1;
    let transformed = {
        let _span = span::begin("layer", "instrument");
        instrument_module(&module, &plan, &d.options())
    };
    let Ok((instrumented, stats)) = transformed else {
        r.failed += 1;
        return;
    };
    r.instruments += 1;
    let prepared = prepare(&instrumented, d.fuse_mode(&programs.guidance[d.program]));
    r.prepares += 1;
    r.bytes_before += stats.bytes_before as u64;
    r.bytes_after += stats.bytes_after as u64;
    for word in [
        prepared.num_ops() as u64,
        prepared.num_fused() as u64,
        prepared.num_guided() as u64,
        stats.bytes_after as u64,
        stats.total_checks() as u64,
    ] {
        r.digest = fnv(r.digest, word);
    }
}

/// The pipeline correctness gate: every distinct draw in `draws`, at smoke
/// scale, under `Trigger::Counter { interval: 97 }`. Each instrumented
/// program must print what the uninstrumented one prints, and the
/// prepared engine (in the draw's fuse mode) must agree with the naive
/// interpreter on the whole outcome: output, cycles, instructions, checks,
/// samples and the collected profile. Returns the tuples checked.
///
/// # Errors
///
/// Describes the first tuple that disagrees.
pub fn gate(draws: &[Draw]) -> Result<usize, String> {
    let programs = set_up(Scale::Smoke, Guidance::Warmup);
    let cfg = VmConfig {
        trigger: Trigger::Counter { interval: 97 },
        ..VmConfig::default()
    };
    let tuples: BTreeSet<Draw> = draws.iter().copied().collect();
    let mut plain: BTreeMap<usize, Vec<i64>> = BTreeMap::new();
    let mut naive: BTreeMap<(usize, usize, usize), (Module, isf_exec::Outcome)> = BTreeMap::new();
    for d in &tuples {
        let module = &programs.modules[d.program];
        let expected = match plain.entry(d.program) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(
                run_naive(module, &cfg)
                    .map_err(|e| format!("{}: uninstrumented run trapped: {e}", d.label()))?
                    .output,
            ),
        };
        let (instrumented, reference) = match naive.entry((d.program, d.kind, d.strategy)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let plan = ModulePlan::build(module, &d.instrumentations());
                let (instrumented, _) = instrument_module(module, &plan, &d.options())
                    .map_err(|e| format!("{}: {e}", d.label()))?;
                let outcome = run_naive(&instrumented, &cfg)
                    .map_err(|e| format!("{}: naive run trapped: {e}", d.label()))?;
                if outcome.output != *expected {
                    return Err(format!(
                        "{}: instrumented output differs from the uninstrumented output",
                        d.label()
                    ));
                }
                e.insert((instrumented, outcome))
            }
        };
        let prepared = PreparedModule::prepare_with(
            instrumented,
            &cfg.cost,
            d.fuse_mode(&programs.guidance[d.program]),
        );
        let outcome = run_prepared(&prepared, &cfg)
            .map_err(|e| format!("{}: prepared run trapped: {e}", d.label()))?;
        if &outcome != reference {
            return Err(format!(
                "{}: prepared ({}) and naive engines disagree (cycles {} vs {})",
                d.label(),
                FUSES[d.fuse],
                outcome.cycles,
                reference.cycles
            ));
        }
    }
    Ok(tuples.len())
}

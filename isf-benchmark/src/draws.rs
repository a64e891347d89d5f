//! Seeded inputs: the `pipeline` workload's draws and the experiment
//! order of the suite workloads. The same seed always gives the same
//! inputs; the programs under test see only what is generated here.

use isf_core::{Options, Strategy};
use isf_exec::{FuseGuidance, FuseMode};
use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, Instrumentation};

use crate::spec::EXPERIMENTS;

/// Draws per `pipeline` repetition at default scale.
pub const DEFAULT_DRAWS: usize = 16_000;

/// Draws per repetition at smoke scale, for quick checks of the benchmark.
pub const SMOKE_DRAWS: usize = 1_000;

/// Children a `pipeline` repetition is split into, each running one
/// contiguous chunk of the draws: short enough that the speed calibration
/// around a child describes the whole child.
pub const CHUNKS: usize = 16;

/// Programs in the suite.
pub const PROGRAMS: usize = 10;

/// Instrumentation kinds a draw picks from.
pub const KINDS: [&str; 3] = ["call-edge", "field-access", "both"];

/// Transform options a draw picks from.
pub const STRATEGIES: [(&str, Options); 6] = [
    ("exhaustive", opts(Strategy::Exhaustive, false)),
    ("full-dup", opts(Strategy::FullDuplication, false)),
    (
        "full-dup+yieldpoint-opt",
        opts(Strategy::FullDuplication, true),
    ),
    ("partial-dup", opts(Strategy::PartialDuplication, false)),
    ("no-dup", opts(Strategy::NoDuplication, false)),
    (
        "checks-only",
        opts(
            Strategy::ChecksOnly {
                entries: true,
                backedges: true,
            },
            false,
        ),
    ),
];

const fn opts(strategy: Strategy, yieldpoint_optimization: bool) -> Options {
    Options {
        strategy,
        yieldpoint_optimization,
    }
}

/// Fuse modes a draw picks from.
pub const FUSES: [&str; 3] = ["off", "fuse", "guided"];

/// Every distinct draw.
pub const TUPLES: usize = PROGRAMS * KINDS.len() * STRATEGIES.len() * FUSES.len();

/// One pipeline input: indices into the suite, [`KINDS`], [`STRATEGIES`]
/// and [`FUSES`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Draw {
    /// Suite program.
    pub program: usize,
    /// Instrumentation kind.
    pub kind: usize,
    /// Transform options.
    pub strategy: usize,
    /// Fuse mode.
    pub fuse: usize,
}

impl Draw {
    /// The instrumentations to plan.
    #[must_use]
    pub fn instrumentations(&self) -> Vec<&'static dyn Instrumentation> {
        match self.kind {
            0 => vec![&CallEdgeInstrumentation],
            1 => vec![&FieldAccessInstrumentation],
            _ => vec![&CallEdgeInstrumentation, &FieldAccessInstrumentation],
        }
    }

    /// The transform options.
    #[must_use]
    pub fn options(&self) -> Options {
        STRATEGIES[self.strategy].1
    }

    /// The fuse mode, guided by the program's warmup guidance.
    #[must_use]
    pub fn fuse_mode(&self, guidance: &FuseGuidance) -> FuseMode {
        match self.fuse {
            0 => FuseMode::Off,
            1 => FuseMode::Fuse,
            _ => FuseMode::Guided(Box::new(guidance.clone())),
        }
    }

    /// A readable label, e.g. `javac/both/no-dup/guided`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            isf_workloads::names()[self.program],
            KINDS[self.kind],
            STRATEGIES[self.strategy].0,
            FUSES[self.fuse]
        )
    }
}

/// splitmix64: small, seedable, and good enough for input generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` seeded draws.
#[must_use]
pub fn draws(seed: u64, n: usize) -> Vec<Draw> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| Draw {
            program: rng.below(PROGRAMS),
            kind: rng.below(KINDS.len()),
            strategy: rng.below(STRATEGIES.len()),
            fuse: rng.below(FUSES.len()),
        })
        .collect()
}

/// Chunk `i` of [`CHUNKS`] of `draws`: the chunks are contiguous, cover
/// every draw once, and differ in length by at most one.
#[must_use]
pub fn chunk(draws: &[Draw], i: usize) -> &[Draw] {
    let n = draws.len();
    &draws[i * n / CHUNKS..(i + 1) * n / CHUNKS]
}

/// The fixed draws behind the per-layer numbers of the suite workloads,
/// whose harness records do not split planning, per-mode preparation or
/// input generation: every program, both kinds, full duplication, in each
/// fuse mode.
#[must_use]
pub fn probe_draws() -> Vec<Draw> {
    (0..PROGRAMS)
        .flat_map(|program| {
            (0..FUSES.len()).map(move |fuse| Draw {
                program,
                kind: 2,
                strategy: 1,
                fuse,
            })
        })
        .collect()
}

/// The suite workloads' experiment order for `seed`: seed 1 is the paper
/// order, any other seed a seeded shuffle of it.
#[must_use]
pub fn experiment_order(seed: u64) -> Vec<&'static str> {
    let mut order = EXPERIMENTS.to_vec();
    if seed != 1 {
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
    }
    order
}

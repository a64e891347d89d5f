//! Sampling triggers (paper §2.1–§2.2).
//!
//! A trigger decides, at every check, whether the sample condition is true.
//! The reproduction provides every mechanism the paper discusses:
//!
//! * [`Trigger::Counter`] — the paper's compiler-inserted counter-based
//!   sampling: one **global** counter decremented by every check; at zero
//!   it resets to the sample interval and fires. Deterministic, and
//!   distributes samples across all sample points proportionally to their
//!   execution frequency.
//! * [`Trigger::CounterPerThread`] — the §2.2 remedy for multi-processor
//!   counter contention: one counter per thread, no shared state.
//! * [`Trigger::CounterRandomized`] — the §4.4 remedy for deterministic
//!   aliasing with periodic program behaviour: the reset value is jittered
//!   by a deterministic xorshift PRNG (as DCPI does).
//! * [`Trigger::TimerBit`] — the §4.6 comparison point: a simulated timer
//!   sets a sample bit every `period` cycles; the next executed check
//!   consumes it. Reproduces the mis-attribution the paper measures.
//! * [`Trigger::Never`] / [`Trigger::Always`] — the endpoints used to
//!   measure pure framework overhead and to collect perfect profiles.

/// Configuration of the sampling trigger.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Trigger {
    /// The sample condition is never true (framework-overhead runs; also
    /// the "setting the sample condition permanently to false" shutdown
    /// mode of §2).
    Never,
    /// Every check fires (sample interval 1 — the perfect profile).
    Always,
    /// Global counter-based sampling with the given sample interval.
    Counter {
        /// Number of checks between samples.
        interval: u64,
    },
    /// Per-thread counter-based sampling.
    CounterPerThread {
        /// Number of checks between samples, per thread.
        interval: u64,
    },
    /// Counter-based sampling with a randomized reset value, uniform in
    /// `[interval - jitter, interval + jitter]`.
    CounterRandomized {
        /// Mean number of checks between samples.
        interval: u64,
        /// Maximum deviation from `interval`.
        jitter: u64,
        /// PRNG seed (runs are reproducible given the seed).
        seed: u64,
    },
    /// Timer-based sampling: a bit set every `period` simulated cycles,
    /// consumed by the next check.
    TimerBit {
        /// Simulated cycles between bit sets.
        period: u64,
    },
}

impl Trigger {
    /// Stable kind label for this trigger, used to key per-trigger-kind
    /// observability metrics (inter-sample-gap and checks-per-sample
    /// histograms).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Trigger::Never => "never",
            Trigger::Always => "always",
            Trigger::Counter { .. } => "counter",
            Trigger::CounterPerThread { .. } => "counter-per-thread",
            Trigger::CounterRandomized { .. } => "counter-randomized",
            Trigger::TimerBit { .. } => "timer-bit",
        }
    }
}

impl Default for Trigger {
    fn default() -> Self {
        // The paper's sweet spot: high accuracy, ~1% sampling overhead.
        Trigger::Counter { interval: 1000 }
    }
}

/// Thread ids at or above this bound are tracked in a spill map instead of
/// the dense counter vector, so one huge sparse thread id cannot force a
/// multi-gigabyte `resize`.
const MAX_DENSE_THREADS: usize = 1024;

/// Runtime state of a trigger, owned by the interpreter.
#[derive(Clone, Debug)]
pub(crate) enum TriggerState {
    Never,
    Always,
    Counter {
        counter: u64,
        interval: u64,
    },
    PerThread {
        counters: Vec<u64>,
        sparse: std::collections::BTreeMap<usize, u64>,
        interval: u64,
    },
    Randomized {
        counter: u64,
        interval: u64,
        jitter: u64,
        rng: u64,
    },
    Timer {
        bit: bool,
        next_fire: u64,
        period: u64,
    },
}

pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Stream seed used when splitmix64 maps a user seed to the xorshift fixed
/// point 0 (exactly one input does).
const SEED_FALLBACK: u64 = 0x9E37_79B9_7F4A_7C15;

/// Expands a user-provided seed into the xorshift stream state. xorshift
/// streams from nearby states overlap after one step, so seeding the state
/// with (a trivial function of) the seed itself aliases adjacent seeds;
/// splitmix64 decorrelates them.
pub(crate) fn seed_stream(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        SEED_FALLBACK
    } else {
        z
    }
}

/// Draws uniformly from `[0, bound)` out of the xorshift stream using
/// Lemire's multiply-shift method with rejection. A plain
/// `xorshift(state) % bound` over-weights the low residues whenever
/// `bound` does not divide 2^64 (severely so for bounds near the top of
/// the range).
pub(crate) fn uniform_below(state: &mut u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Reject draws whose 128-bit product lands in the short first slice:
    // `threshold = 2^64 mod bound`, the number of over-represented values.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = u128::from(xorshift(state)) * u128::from(bound);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

impl TriggerState {
    pub(crate) fn new(trigger: Trigger) -> Self {
        match trigger {
            Trigger::Never => TriggerState::Never,
            Trigger::Always => TriggerState::Always,
            Trigger::Counter { interval } => TriggerState::Counter {
                counter: interval.max(1),
                interval: interval.max(1),
            },
            Trigger::CounterPerThread { interval } => TriggerState::PerThread {
                counters: Vec::new(),
                sparse: std::collections::BTreeMap::new(),
                interval: interval.max(1),
            },
            Trigger::CounterRandomized {
                interval,
                jitter,
                seed,
            } => TriggerState::Randomized {
                counter: interval.max(1),
                interval: interval.max(1),
                jitter,
                rng: seed_stream(seed),
            },
            Trigger::TimerBit { period } => TriggerState::Timer {
                bit: false,
                next_fire: period.max(1),
                period: period.max(1),
            },
        }
    }

    /// Called by the interpreter as the simulated clock advances; only the
    /// timer trigger cares.
    #[inline]
    pub(crate) fn on_tick(&mut self, now: u64) {
        if let TriggerState::Timer {
            bit,
            next_fire,
            period,
        } = self
        {
            if now >= *next_fire {
                *bit = true;
                // Jump straight past `now` instead of looping once per
                // elapsed period: a long simulated gap with a tiny period
                // must not spin O(gap/period) iterations.
                let behind = now - *next_fire;
                *next_fire =
                    (*next_fire).saturating_add((behind / *period + 1).saturating_mul(*period));
            }
        }
    }

    /// The clock value at which [`TriggerState::on_tick`] next changes
    /// state: the timer's next fire, `u64::MAX` for every other trigger.
    pub(crate) fn next_tick(&self) -> u64 {
        match self {
            TriggerState::Timer { next_fire, .. } => *next_fire,
            _ => u64::MAX,
        }
    }

    /// Evaluates the sample condition at a check executed by `thread`.
    #[inline]
    pub(crate) fn on_check(&mut self, thread: usize) -> bool {
        match self {
            TriggerState::Never => false,
            TriggerState::Always => true,
            TriggerState::Counter { counter, interval } => {
                *counter -= 1;
                if *counter == 0 {
                    *counter = *interval;
                    true
                } else {
                    false
                }
            }
            TriggerState::PerThread {
                counters,
                sparse,
                interval,
            } => {
                let c = if thread < MAX_DENSE_THREADS {
                    if counters.len() <= thread {
                        counters.resize(thread + 1, *interval);
                    }
                    &mut counters[thread]
                } else {
                    // A pathological sparse thread id must not allocate a
                    // `thread`-sized vector; spill to the map instead.
                    sparse.entry(thread).or_insert(*interval)
                };
                *c -= 1;
                if *c == 0 {
                    *c = *interval;
                    true
                } else {
                    false
                }
            }
            TriggerState::Randomized {
                counter,
                interval,
                jitter,
                rng,
            } => {
                *counter -= 1;
                if *counter == 0 {
                    // All arithmetic saturates: `interval` near `u64::MAX`
                    // must clamp into `[max(1, interval - jitter),
                    // interval + jitter]` instead of overflowing (a
                    // debug-build panic before this was fixed).
                    let spread = (*jitter).saturating_mul(2).saturating_add(1);
                    let offset = uniform_below(rng, spread);
                    *counter = (*interval)
                        .saturating_add(offset)
                        .saturating_sub(*jitter)
                        .max(1);
                    true
                } else {
                    false
                }
            }
            TriggerState::Timer { bit, .. } => std::mem::take(bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_fires_every_interval() {
        let mut t = TriggerState::new(Trigger::Counter { interval: 3 });
        let fires: Vec<bool> = (0..9).map(|_| t.on_check(0)).collect();
        assert_eq!(
            fires,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn interval_one_always_fires() {
        let mut t = TriggerState::new(Trigger::Counter { interval: 1 });
        assert!((0..5).all(|_| t.on_check(0)));
    }

    #[test]
    fn per_thread_counters_are_independent() {
        let mut t = TriggerState::new(Trigger::CounterPerThread { interval: 2 });
        assert!(!t.on_check(0));
        assert!(!t.on_check(1));
        assert!(t.on_check(0)); // thread 0 reached its interval
        assert!(t.on_check(1)); // so did thread 1, independently
    }

    #[test]
    fn timer_bit_set_by_tick_and_consumed_once() {
        let mut t = TriggerState::new(Trigger::TimerBit { period: 100 });
        assert!(!t.on_check(0));
        t.on_tick(50);
        assert!(!t.on_check(0));
        t.on_tick(100);
        assert!(t.on_check(0), "bit set at the period boundary");
        assert!(!t.on_check(0), "bit consumed by the previous check");
    }

    #[test]
    fn timer_catches_up_after_long_instruction() {
        let mut t = TriggerState::new(Trigger::TimerBit { period: 10 });
        t.on_tick(95); // one long instruction spanned many periods
        assert!(t.on_check(0));
        assert!(!t.on_check(0), "only one pending bit, not nine");
    }

    #[test]
    fn randomized_reset_stays_in_range_and_is_deterministic() {
        let mk = || {
            TriggerState::new(Trigger::CounterRandomized {
                interval: 100,
                jitter: 20,
                seed: 42,
            })
        };
        let run = |mut t: TriggerState| {
            let mut gaps = Vec::new();
            let mut since = 0u64;
            for _ in 0..100_000 {
                since += 1;
                if t.on_check(0) {
                    gaps.push(since);
                    since = 0;
                }
            }
            gaps
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.len() > 500);
        // After the first (deterministic) gap, all gaps are jittered.
        assert!(a[1..].iter().all(|&g| (80..=120).contains(&g)));
        assert!(a[1..].iter().any(|&g| g != 100), "jitter actually varies");
    }

    #[test]
    fn randomized_reset_near_u64_max_does_not_overflow() {
        // Regression: with `interval = u64::MAX - 1` the old reset computed
        // `interval + offset`, overflowing (a panic in debug builds) for
        // any positive offset. Drive the counter straight to the reset
        // point instead of iterating u64::MAX - 1 checks.
        let interval = u64::MAX - 1;
        let jitter = 5;
        let mut t = TriggerState::Randomized {
            counter: 1,
            interval,
            jitter,
            rng: 42 | 1,
        };
        for _ in 0..64 {
            assert!(t.on_check(0), "counter 1 fires and resets");
            let TriggerState::Randomized { counter, .. } = &mut t else {
                unreachable!()
            };
            assert!(
                (interval - jitter..=u64::MAX).contains(counter),
                "reset {counter} outside [interval - jitter, interval + jitter]"
            );
            *counter = 1; // rearm for the next reset draw
        }
        // Degenerate jitter must also be safe: spread saturates.
        let mut t = TriggerState::Randomized {
            counter: 1,
            interval: 10,
            jitter: u64::MAX,
            rng: 7 | 1,
        };
        assert!(t.on_check(0));
    }

    #[test]
    fn randomized_distinct_seeds_produce_distinct_schedules() {
        // Regression: the stream used to be seeded with `seed | 1`, so
        // seeds 2k and 2k+1 produced identical sample schedules.
        let schedule = |seed: u64| {
            let mut t = TriggerState::new(Trigger::CounterRandomized {
                interval: 50,
                jitter: 10,
                seed,
            });
            let mut gaps = Vec::new();
            let mut since = 0u64;
            for _ in 0..20_000 {
                since += 1;
                if t.on_check(0) {
                    gaps.push(since);
                    since = 0;
                }
            }
            gaps
        };
        for k in 0..8u64 {
            assert_ne!(
                schedule(2 * k),
                schedule(2 * k + 1),
                "seeds {} and {} alias",
                2 * k,
                2 * k + 1
            );
        }
        assert_eq!(schedule(42), schedule(42), "same seed stays deterministic");
    }

    #[test]
    fn jitter_offsets_are_unbiased() {
        // Chi-square-ish uniformity check on the offset sampler, with a
        // bound big enough that modulo reduction would be blatantly
        // non-uniform: for `bound = 3 << 62`, `x % bound` maps two 2^62-
        // sized slices of the u64 range onto `[0, 2^62)`, making the first
        // third of the offsets twice as likely (~50% instead of ~33%).
        let bound = 3u64 << 62;
        let third = bound / 3;
        let mut rng = seed_stream(12345);
        let draws = 30_000u64;
        let mut buckets = [0u64; 3];
        for _ in 0..draws {
            let x = uniform_below(&mut rng, bound);
            assert!(x < bound, "draw out of range");
            buckets[(x / third).min(2) as usize] += 1;
        }
        let expected = draws as f64 / 3.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&o| {
                let d = o as f64 - expected;
                d * d / expected
            })
            .sum();
        // 2 degrees of freedom: p < 0.001 above ~13.8. The pre-fix modulo
        // sampler scores in the thousands here.
        assert!(
            chi2 < 13.8,
            "offset distribution skewed: chi2 = {chi2}, buckets = {buckets:?}"
        );
    }

    #[test]
    fn timer_tick_over_huge_gap_is_constant_time() {
        // Regression: the old catch-up `while` looped once per elapsed
        // period — u64::MAX iterations here.
        let mut t = TriggerState::new(Trigger::TimerBit { period: 1 });
        t.on_tick(u64::MAX);
        assert!(t.on_check(0));
        assert!(!t.on_check(0), "only one pending bit");
    }

    #[test]
    fn per_thread_high_thread_index_does_not_allocate_huge_vec() {
        // Regression: a sparse thread id used to force
        // `counters.resize(thread + 1)` — gigabytes for an id like this.
        let big = usize::MAX / 2;
        let mut t = TriggerState::new(Trigger::CounterPerThread { interval: 2 });
        assert!(!t.on_check(big));
        assert!(t.on_check(big), "sparse thread fires at its interval");
        // Dense threads stay independent of the spilled one.
        assert!(!t.on_check(0));
        assert!(!t.on_check(big));
        assert!(t.on_check(0));
        let TriggerState::PerThread {
            counters, sparse, ..
        } = &t
        else {
            unreachable!()
        };
        assert!(counters.len() <= MAX_DENSE_THREADS);
        assert_eq!(sparse.len(), 1);
    }

    #[test]
    fn never_and_always() {
        let mut n = TriggerState::new(Trigger::Never);
        let mut a = TriggerState::new(Trigger::Always);
        assert!(!(0..10).any(|_| n.on_check(0)));
        assert!((0..10).all(|_| a.on_check(0)));
    }
}

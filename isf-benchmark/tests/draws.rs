//! The seeded inputs: deterministic per seed, and wide enough to cover
//! what they sample from.

use std::collections::BTreeSet;

use isf_benchmark::draws::{
    chunk, draws, experiment_order, probe_draws, Draw, CHUNKS, DEFAULT_DRAWS, FUSES, PROGRAMS,
    SMOKE_DRAWS, TUPLES,
};
use isf_benchmark::spec::EXPERIMENTS;

#[test]
fn draws_are_deterministic_per_seed() {
    assert_eq!(draws(7, 500), draws(7, 500));
    assert_ne!(draws(7, 500), draws(8, 500));
    assert_eq!(
        draws(7, 100),
        draws(7, 500)[..100],
        "a longer run extends a shorter one"
    );
}

#[test]
fn default_draws_cover_the_tuple_space() {
    for seed in [1, 2, 3] {
        let distinct: BTreeSet<Draw> = draws(seed, DEFAULT_DRAWS).into_iter().collect();
        assert_eq!(distinct.len(), TUPLES, "seed {seed}");
    }
    assert_eq!(TUPLES, 10 * 3 * 6 * 3);
}

#[test]
fn chunks_split_the_draws_in_order() {
    for n in [DEFAULT_DRAWS, SMOKE_DRAWS, CHUNKS - 1] {
        let all = draws(4, n);
        let chunks: Vec<&[Draw]> = (0..CHUNKS).map(|i| chunk(&all, i)).collect();
        assert_eq!(chunks.concat(), all, "{n} draws");
        let lens: BTreeSet<usize> = chunks.iter().map(|c| c.len()).collect();
        assert!(
            lens.last().unwrap() - lens.first().unwrap() <= 1,
            "{n}: {lens:?}"
        );
    }
}

#[test]
fn probe_covers_every_program_in_every_fuse_mode() {
    let probe = probe_draws();
    assert_eq!(probe.len(), PROGRAMS * FUSES.len());
    let distinct: BTreeSet<(usize, usize)> = probe.iter().map(|d| (d.program, d.fuse)).collect();
    assert_eq!(distinct.len(), probe.len());
}

#[test]
fn experiment_order_is_a_seeded_permutation() {
    assert_eq!(
        experiment_order(1),
        EXPERIMENTS,
        "seed 1 is the paper order"
    );
    let mut differs = false;
    for seed in 2..20 {
        let order = experiment_order(seed);
        assert_eq!(order, experiment_order(seed));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let mut expected = EXPERIMENTS.to_vec();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "seed {seed} is a permutation");
        differs |= order != EXPERIMENTS;
    }
    assert!(differs, "other seeds reorder the experiments");
}

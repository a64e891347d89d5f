//! The overlap-percentage accuracy metric (paper §4.4).
//!
//! For each key, compute its *sample percentage* in both profiles
//! (`count(key) / total * 100`); the overlap of a key is the minimum of the
//! two percentages, and the overlap of the profiles is the sum over all
//! keys. Identical distributions score 100; disjoint ones score 0.

use std::collections::HashMap;
use std::hash::Hash;

use crate::profile::ProfileData;

/// Overlap percentage (0–100) between two count distributions.
///
/// Two empty distributions are in perfect agreement (100); if exactly one
/// is empty the overlap is 0.
///
/// The sum runs in exact integer arithmetic over the common denominator
/// `ta * tb` — `min(ca/ta, cb/tb) = min(ca*tb, cb*ta) / (ta*tb)` — so the
/// result is independent of the map's iteration order. A floating-point
/// accumulation would pick up order-dependent rounding from `HashMap`'s
/// randomized hashing and break the byte-stable JSONL guarantee.
pub fn distribution_overlap<K: Eq + Hash>(a: &HashMap<K, u64>, b: &HashMap<K, u64>) -> f64 {
    let ta: u64 = a.values().sum();
    let tb: u64 = b.values().sum();
    match (ta, tb) {
        (0, 0) => return 100.0,
        (0, _) | (_, 0) => return 0.0,
        _ => {}
    }
    let mut overlap: u128 = 0;
    for (k, &ca) in a {
        if let Some(&cb) = b.get(k) {
            let pa = u128::from(ca) * u128::from(tb);
            let pb = u128::from(cb) * u128::from(ta);
            overlap += pa.min(pb);
        }
    }
    overlap as f64 / (u128::from(ta) * u128::from(tb)) as f64 * 100.0
}

/// Overlap percentage between the call-edge portions of two profiles.
/// Conventionally called as `call_edge_overlap(perfect, sampled)`.
pub fn call_edge_overlap(perfect: &ProfileData, sampled: &ProfileData) -> f64 {
    distribution_overlap(perfect.call_edges(), sampled.call_edges())
}

/// Overlap percentage between the field-access portions of two profiles.
pub fn field_access_overlap(perfect: &ProfileData, sampled: &ProfileData) -> f64 {
    distribution_overlap(perfect.field_accesses(), sampled.field_accesses())
}

/// Overlap percentage between the path portions of two profiles.
pub fn path_overlap(perfect: &ProfileData, sampled: &ProfileData) -> f64 {
    distribution_overlap(perfect.paths(), sampled.paths())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(u32, u64)]) -> HashMap<u32, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn identical_distributions_overlap_fully() {
        let a = dist(&[(1, 10), (2, 30)]);
        assert!((distribution_overlap(&a, &a) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_does_not_change_overlap() {
        // A sampled profile with 1/1000 of the counts but the same shape is
        // a perfect profile under this metric.
        let perfect = dist(&[(1, 10_000), (2, 30_000)]);
        let sampled = dist(&[(1, 10), (2, 30)]);
        assert!((distribution_overlap(&perfect, &sampled) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_distributions_do_not_overlap() {
        let a = dist(&[(1, 5)]);
        let b = dist(&[(2, 5)]);
        assert_eq!(distribution_overlap(&a, &b), 0.0);
    }

    #[test]
    fn partial_overlap_counts_minimum() {
        // a: 50%/50%; b: 75%/25% -> overlap = min(50,75) + min(50,25) = 75.
        let a = dist(&[(1, 50), (2, 50)]);
        let b = dist(&[(1, 75), (2, 25)]);
        assert!((distribution_overlap(&a, &b) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_edge_cases() {
        let empty: HashMap<u32, u64> = HashMap::new();
        let full = dist(&[(1, 5)]);
        assert_eq!(distribution_overlap(&empty, &empty), 100.0);
        assert_eq!(distribution_overlap(&empty, &full), 0.0);
        assert_eq!(distribution_overlap(&full, &empty), 0.0);
    }

    #[test]
    fn result_is_independent_of_iteration_order() {
        // Each HashMap instance gets its own random hash state, so two
        // equal maps iterate in different orders; the exact integer
        // accumulation must produce bit-identical results regardless.
        // (With float accumulation this fails intermittently at the ulp
        // level — that noise leaked into the raw JSONL row records.)
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i, u64::from(i) * 7 + 3)).collect();
        let other: Vec<(u32, u64)> = (0..100).map(|i| (i, u64::from(i % 13) + 1)).collect();
        let first = distribution_overlap(&dist(&pairs), &dist(&other));
        for _ in 0..8 {
            let again = distribution_overlap(&dist(&pairs), &dist(&other));
            assert_eq!(first.to_bits(), again.to_bits());
        }
    }

    #[test]
    fn symmetry() {
        let a = dist(&[(1, 10), (2, 20), (3, 70)]);
        let b = dist(&[(1, 30), (2, 10), (4, 60)]);
        let ab = distribution_overlap(&a, &b);
        let ba = distribution_overlap(&b, &a);
        assert!((ab - ba).abs() < 1e-9);
    }
}

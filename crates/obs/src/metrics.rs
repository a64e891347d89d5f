//! The self-profiling metrics registry: named counters and power-of-two
//! bucket histograms, sharded per thread, aggregated at drain.
//!
//! # Design
//!
//! Recording takes **no locks**: each thread accumulates into its own
//! thread-local `Shard`, and a shard merges into the process-global
//! accumulator only at coarse drain points — an explicit [`flush_thread`]
//! (the harness flushes after each cell), thread exit (worker threads of
//! a parallel section), and when the main thread takes a [`snapshot`].
//! Counters and histograms are commutative monoids, so the aggregate is
//! identical for any interleaving and any `--jobs` count; keys are
//! `BTreeMap`-ordered, so a snapshot's rendering is byte-deterministic.
//!
//! The registry is **runtime-gated** ([`set_enabled`], default off):
//! recording sites in cold harness code pay one atomic load when
//! disabled. Hot-loop profiling does not go through the registry at all —
//! the engines record into an `isf_exec::OpProfile` behind the
//! compile-time `ProfileSink` parameter, and the harness folds the
//! finished profile into the registry per run.
//!
//! Keys are free-form dotted names registered by their recording sites.
//! The harness's established namespaces: `op.<opcode>.*` (per-opcode
//! dispatch/instruction/cycle totals), `profile.*` (per-run folded
//! totals), `fusion.<bench>.*` (coverage totals — `fused_instructions`,
//! `total_instructions`), `prep.cache.*` (preparation-cache hits and
//! misses), and `trigger.<kind>.*` (sampling-cadence histograms).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Process-wide registry gate (default off: recording is a no-op and the
/// output stream stays byte-identical to a build without the registry).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables the registry for subsequent recordings.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the registry is currently recording.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A power-of-two-bucket histogram over `u64` values.
///
/// Bucket 0 counts zero values; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. Alongside the buckets it tracks count, sum, min and
/// max, so drain-time consumers can report both the distribution shape
/// and exact extrema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Occupied buckets as `(bucket_index, count)` pairs in index order.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Renders the histogram as its JSON object: count/sum/min/max plus
    /// the occupied buckets as `[bucket_index, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count().into()),
            ("sum", self.sum().into()),
            ("min", self.min().into()),
            ("max", self.max().into()),
            (
                "buckets",
                Json::Arr(
                    self.buckets()
                        .map(|(i, c)| Json::Arr(vec![(i as u64).into(), c.into()]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One thread's (or the aggregate's) named counters and histograms.
#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn merge_into(&mut self, global: &mut Shard) {
        for (name, v) in std::mem::take(&mut self.counters) {
            *global.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in std::mem::take(&mut self.histograms) {
            global.histograms.entry(name).or_default().merge(&h);
        }
    }
}

static GLOBAL: Mutex<Shard> = Mutex::new(Shard::new());

/// The thread-local shard, wrapped so thread exit flushes it into the
/// global accumulator — worker threads of a parallel section contribute
/// their recordings without any explicit drain call.
struct LocalShard(Shard);

impl Drop for LocalShard {
    fn drop(&mut self) {
        if let Ok(mut global) = GLOBAL.lock() {
            self.0.merge_into(&mut global);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalShard> = const { RefCell::new(LocalShard(Shard::new())) };
}

/// Adds `delta` to counter `name` on this thread's shard. No-op while the
/// registry is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(v) = l.0.counters.get_mut(name) {
            *v += delta;
        } else {
            l.0.counters.insert(name.to_owned(), delta);
        }
    });
}

/// Records `value` into histogram `name` on this thread's shard. No-op
/// while the registry is disabled.
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(h) = l.0.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            l.0.histograms.insert(name.to_owned(), h);
        }
    });
}

/// Flushes this thread's shard into the global accumulator now (thread
/// exit does this implicitly for worker threads).
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Ok(mut global) = GLOBAL.lock() {
            l.0.merge_into(&mut global);
        }
    });
}

/// An aggregated, drain-time view of the registry: every counter and
/// histogram merged across thread shards, keys sorted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// A counter's aggregated value (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as a JSONL `metrics` record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", "metrics".into()),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), v.into()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Flushes the calling thread's shard and returns the aggregated
/// registry contents. Call from the main thread after parallel sections
/// join: worker shards were flushed when their threads exited, so the
/// snapshot is complete and deterministic for any `--jobs` count.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    flush_thread();
    let global = GLOBAL.lock().expect("metrics registry poisoned");
    MetricsSnapshot {
        counters: global.counters.clone(),
        histograms: global.histograms.clone(),
    }
}

/// Clears the registry (the calling thread's shard and the global
/// accumulator). Intended for tests that assert on deltas.
pub fn reset() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.0.counters.clear();
        l.0.histograms.clear();
    });
    let mut global = GLOBAL.lock().expect("metrics registry poisoned");
    global.counters.clear();
    global.histograms.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry state is process-global; tests that enable it serialize
    /// here so they don't observe each other's recordings.
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);

        let mut h = Histogram::new();
        for v in [0, 1, 3, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);

        let mut other = Histogram::new();
        other.record(3);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets().find(|&(i, _)| i == 2), Some((2, 3)));
    }

    #[test]
    fn empty_histogram_reports_zero_extrema() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
        let json = h.to_json().to_string();
        assert!(json.contains("\"count\":0"));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _guard = REGISTRY_LOCK.lock().expect("registry lock");
        reset();
        set_enabled(false);
        counter_add("test.disabled", 7);
        histogram_record("test.disabled.h", 7);
        let snap = snapshot();
        assert_eq!(snap.counter("test.disabled"), 0);
        assert!(!snap.histograms.contains_key("test.disabled.h"));
    }

    #[test]
    fn counters_and_histograms_aggregate_across_threads() {
        let _guard = REGISTRY_LOCK.lock().expect("registry lock");
        reset();
        set_enabled(true);
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    counter_add("test.aggregate", 10);
                    histogram_record("test.aggregate.h", 1 << i);
                })
            })
            .collect();
        for t in threads {
            t.join().expect("metrics worker");
        }
        counter_add("test.aggregate", 2);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("test.aggregate"), 42);
        let h = snap.histograms.get("test.aggregate.h").expect("histogram");
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1 + 2 + 4 + 8);
        reset();
    }

    #[test]
    fn snapshot_renders_a_metrics_record() {
        let _guard = REGISTRY_LOCK.lock().expect("registry lock");
        reset();
        set_enabled(true);
        counter_add("b.second", 2);
        counter_add("a.first", 1);
        histogram_record("gap", 5);
        let snap = snapshot();
        set_enabled(false);
        let text = snap.to_json().to_string();
        // BTreeMap ordering: keys render sorted regardless of touch order.
        assert!(
            text.starts_with("{\"type\":\"metrics\",\"counters\":{\"a.first\":1,\"b.second\":2}")
        );
        assert!(text
            .contains("\"gap\":{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"buckets\":[[3,1]]}"));
        crate::json::parse(&text).expect("metrics record parses");
        reset();
    }
}

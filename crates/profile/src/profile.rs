//! The profile container recorded by the execution engine.

use std::collections::HashMap;

use isf_ir::{BlockId, CallSiteId, ClassId, FieldSym, FuncId};

/// Key of one call edge: the caller method, the call site within it (the
/// paper's "bytecode offset"), and the callee (paper §4.2, example 1).
pub type CallEdgeKey = (FuncId, CallSiteId, FuncId);

/// Key of one field counter: the runtime receiver class and the field
/// (paper §4.2, example 2: "a counter is maintained for each field of all
/// classes").
pub type FieldKey = (ClassId, FieldSym);

/// Key of one value-profiling site.
pub type ValueSiteKey = (FuncId, u32);

/// Key of one recorded Ball–Larus path: the function, the path-end site,
/// and the accumulated path id.
pub type PathKey = (FuncId, u32, i64);

/// Counters collected by every instrumentation kind during one run.
///
/// All maps are keyed in the *original* program's key space, so exhaustive
/// and sampled runs produce directly comparable profiles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileData {
    call_edges: HashMap<CallEdgeKey, u64>,
    field_accesses: HashMap<FieldKey, u64>,
    field_writes: HashMap<FieldKey, u64>,
    blocks: HashMap<(FuncId, BlockId), u64>,
    edges: HashMap<(FuncId, BlockId, BlockId), u64>,
    values: HashMap<ValueSiteKey, HashMap<i64, u64>>,
    paths: HashMap<PathKey, u64>,
}

impl ProfileData {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of a call edge.
    pub fn record_call_edge(&mut self, caller: FuncId, site: CallSiteId, callee: FuncId) {
        *self.call_edges.entry((caller, site, callee)).or_insert(0) += 1;
    }

    /// Records one field access. `write` additionally bumps the write-only
    /// counter (kept separately for data-layout clients that care about
    /// store ratios).
    pub fn record_field_access(&mut self, class: ClassId, field: FieldSym, write: bool) {
        *self.field_accesses.entry((class, field)).or_insert(0) += 1;
        if write {
            *self.field_writes.entry((class, field)).or_insert(0) += 1;
        }
    }

    /// Adds `accesses` field accesses (reads + writes), `writes` of them
    /// writes, to the counters of `(class, field)` at once: the same
    /// counters as that many [`ProfileData::record_field_access`] calls.
    /// A zero count creates no entry.
    pub fn add_field_counts(
        &mut self,
        class: ClassId,
        field: FieldSym,
        accesses: u64,
        writes: u64,
    ) {
        debug_assert!(writes <= accesses, "writes are a subset of accesses");
        if accesses > 0 {
            *self.field_accesses.entry((class, field)).or_insert(0) += accesses;
        }
        if writes > 0 {
            *self.field_writes.entry((class, field)).or_insert(0) += writes;
        }
    }

    /// Records one execution of a basic block.
    pub fn record_block(&mut self, func: FuncId, block: BlockId) {
        *self.blocks.entry((func, block)).or_insert(0) += 1;
    }

    /// Records one traversal of an intraprocedural CFG edge.
    pub fn record_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        *self.edges.entry((func, from, to)).or_insert(0) += 1;
    }

    /// Records one completed Ball–Larus path.
    pub fn record_path(&mut self, func: FuncId, site: u32, path_id: i64) {
        *self.paths.entry((func, site, path_id)).or_insert(0) += 1;
    }

    /// The recorded path counters.
    pub fn paths(&self) -> &HashMap<PathKey, u64> {
        &self.paths
    }

    /// Total number of recorded paths.
    pub fn total_path_events(&self) -> u64 {
        self.paths.values().sum()
    }

    /// Records one observed value at a value-profiling site.
    pub fn record_value(&mut self, func: FuncId, site: u32, value: i64) {
        *self
            .values
            .entry((func, site))
            .or_default()
            .entry(value)
            .or_insert(0) += 1;
    }

    /// The call-edge counters.
    pub fn call_edges(&self) -> &HashMap<CallEdgeKey, u64> {
        &self.call_edges
    }

    /// The field-access counters (reads + writes).
    pub fn field_accesses(&self) -> &HashMap<FieldKey, u64> {
        &self.field_accesses
    }

    /// The field-write counters.
    pub fn field_writes(&self) -> &HashMap<FieldKey, u64> {
        &self.field_writes
    }

    /// The basic-block counters.
    pub fn blocks(&self) -> &HashMap<(FuncId, BlockId), u64> {
        &self.blocks
    }

    /// The intraprocedural edge counters.
    pub fn edges(&self) -> &HashMap<(FuncId, BlockId, BlockId), u64> {
        &self.edges
    }

    /// The per-site value histograms.
    pub fn values(&self) -> &HashMap<ValueSiteKey, HashMap<i64, u64>> {
        &self.values
    }

    /// Total number of call-edge events.
    pub fn total_call_edge_events(&self) -> u64 {
        self.call_edges.values().sum()
    }

    /// Total number of field-access events.
    pub fn total_field_access_events(&self) -> u64 {
        self.field_accesses.values().sum()
    }

    /// Returns `true` if no events of any kind were recorded.
    pub fn is_empty(&self) -> bool {
        self.call_edges.is_empty()
            && self.field_accesses.is_empty()
            && self.blocks.is_empty()
            && self.edges.is_empty()
            && self.values.is_empty()
            && self.paths.is_empty()
    }

    /// For a value-profiling site, the most frequent value and the fraction
    /// of observations it accounts for — the "top value" that convergent
    /// value profiling (Calder et al.) would specialize on.
    pub fn top_value(&self, func: FuncId, site: u32) -> Option<(i64, f64)> {
        let hist = self.values.get(&(func, site))?;
        let total: u64 = hist.values().sum();
        let (&v, &n) = hist
            .iter()
            .max_by_key(|&(v, n)| (*n, std::cmp::Reverse(*v)))?;
        Some((v, n as f64 / total as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> FuncId {
        FuncId::new(n)
    }

    #[test]
    fn counters_accumulate() {
        let mut p = ProfileData::new();
        let key = (fid(0), CallSiteId::new(1), fid(2));
        p.record_call_edge(key.0, key.1, key.2);
        p.record_call_edge(key.0, key.1, key.2);
        assert_eq!(p.call_edges()[&key], 2);
        assert_eq!(p.total_call_edge_events(), 2);
    }

    #[test]
    fn writes_tracked_separately() {
        let mut p = ProfileData::new();
        let k = (ClassId::new(0), FieldSym::new(3));
        p.record_field_access(k.0, k.1, false);
        p.record_field_access(k.0, k.1, true);
        assert_eq!(p.field_accesses()[&k], 2);
        assert_eq!(p.field_writes()[&k], 1);
    }

    #[test]
    fn bulk_field_counts_equal_per_event_recording() {
        let k = (ClassId::new(2), FieldSym::new(1));
        let mut per_event = ProfileData::new();
        for write in [false, true, false, true, true] {
            per_event.record_field_access(k.0, k.1, write);
        }
        let mut bulk = ProfileData::new();
        bulk.add_field_counts(k.0, k.1, 5, 3);
        bulk.add_field_counts(ClassId::new(0), FieldSym::new(0), 0, 0);
        assert_eq!(bulk, per_event);
        let mut reads_only = ProfileData::new();
        reads_only.add_field_counts(k.0, k.1, 2, 0);
        assert!(reads_only.field_writes().is_empty());
    }

    #[test]
    fn empty_detection() {
        let mut p = ProfileData::new();
        assert!(p.is_empty());
        p.record_block(fid(0), BlockId::new(0));
        assert!(!p.is_empty());
    }

    #[test]
    fn top_value_fraction() {
        let mut p = ProfileData::new();
        for _ in 0..3 {
            p.record_value(fid(0), 7, 42);
        }
        p.record_value(fid(0), 7, 5);
        let (v, frac) = p.top_value(fid(0), 7).unwrap();
        assert_eq!(v, 42);
        assert!((frac - 0.75).abs() < 1e-9);
        assert_eq!(p.top_value(fid(0), 8), None);
    }
}

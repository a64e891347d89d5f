//! Sample-burst trace recording.
//!
//! Sampling partitions an execution into *bursts*: stretches of ordinary
//! execution separated by firing sample points. A [`TraceSink`] observes
//! the boundary of every burst — which check fired, on which thread, how
//! long the burst ran in instructions and simulated cycles, and whether
//! the firing check guards a backedge — for every [`crate::Engine`], given
//! to a run with [`crate::Request::trace`]. The engines produce identical
//! traces; the differential tests pin that.
//!
//! # Zero cost when off
//!
//! The sink is a *compile-time* parameter of the interpreter loop, not a
//! runtime flag: [`NoTrace`] sets [`TraceSink::ENABLED`] to `false`, and
//! every recording site is guarded by `if S::ENABLED`, so the
//! monomorphized untraced loop — the one a request without a trace sink
//! runs — contains no trace code at all. The
//! `interp_dispatch` bench guards this: the untraced hot loop must not
//! regress against the pre-trace engine.
//!
//! # Identifying sample points
//!
//! A sample point is named `(func, check_ip)`: the function's index and
//! the absolute index of the `check` terminator in that function's decoded
//! op arena (blocks laid out in order, each contributing its instructions
//! plus one inlined terminator). The naive engine computes the same arena
//! index from its block/offset position, so identifiers agree across
//! engines and are stable for a given module.

/// One burst boundary: a check whose sample condition was true.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BurstRecord {
    /// Thread that executed the firing check.
    pub thread: u32,
    /// Function containing the firing check (its [`isf_ir::FuncId`] index).
    pub func: u32,
    /// Arena index of the firing `check` op within `func` — together with
    /// `func`, the sample-point identifier.
    pub check_ip: u32,
    /// Whether the firing check guards a backedge (either outgoing edge of
    /// the check is a backedge of the transformed CFG); `false` for
    /// method-entry checks.
    pub backedge: bool,
    /// Burst length in interpreted instructions: the count since the
    /// previous sample on any thread (or since the run started).
    pub len_instructions: u64,
    /// Burst length in simulated cycles, measured at the moment the check
    /// fired — before the sample-switch surcharge of *this* sample is
    /// charged (surcharges of earlier samples are included in their
    /// following burst).
    pub len_cycles: u64,
}

/// Observer of burst boundaries, chosen at compile time by the `*_traced`
/// entry points.
pub trait TraceSink {
    /// Whether this sink records anything. When `false` (see [`NoTrace`]),
    /// the interpreter's recording sites compile away entirely.
    const ENABLED: bool = true;

    /// Called once per sample taken, in execution order.
    fn record(&mut self, record: BurstRecord);
}

/// The disabled sink: records nothing, costs nothing. A
/// [`crate::Request`] without a trace sink runs the loop monomorphized
/// over this type.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _record: BurstRecord) {}
}

/// A sink that buffers every burst record in memory, in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceBuffer {
    records: Vec<BurstRecord>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded bursts, in execution order.
    pub fn records(&self) -> &[BurstRecord] {
        &self.records
    }

    /// Consumes the buffer, returning the recorded bursts.
    pub fn into_records(self) -> Vec<BurstRecord> {
        self.records
    }
}

impl TraceSink for TraceBuffer {
    #[inline]
    fn record(&mut self, record: BurstRecord) {
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_is_statically_disabled() {
        const { assert!(!NoTrace::ENABLED) };
        const { assert!(TraceBuffer::ENABLED) };
    }

    #[test]
    fn buffer_preserves_order() {
        let mut b = TraceBuffer::new();
        for i in 0..3 {
            b.record(BurstRecord {
                thread: 0,
                func: 0,
                check_ip: i,
                backedge: false,
                len_instructions: u64::from(i),
                len_cycles: u64::from(i) * 2,
            });
        }
        let ips: Vec<u32> = b.records().iter().map(|r| r.check_ip).collect();
        assert_eq!(ips, vec![0, 1, 2]);
        assert_eq!(b.into_records().len(), 3);
    }
}

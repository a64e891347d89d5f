//! Hierarchical span tracing for the harness: wall + CPU time per named
//! region, exportable as Chrome trace-event JSON (loadable in Perfetto)
//! and summarizable as a deterministic JSONL `span-summary` record.
//!
//! Spans nest by scope on each thread (run → phase → experiment on the
//! main thread; cell → attempt on workers), which is exactly the nesting
//! Perfetto reconstructs from complete (`"ph":"X"`) duration events that
//! share a track. Recording is runtime-gated ([`set_enabled`], default
//! off) and collection mirrors the metrics registry: events buffer in a
//! thread-local vector that flushes into a process-global list on thread
//! exit and at [`take_events`], so worker spans survive their threads.
//!
//! CPU time comes from `/proc/thread-self/schedstat` (nanoseconds of
//! on-CPU time for the calling thread); on platforms without procfs the
//! field reads 0. Wall and CPU fields are nondeterministic, so the
//! summary renders them through the emitter's redaction mode — counts
//! and names alone make the `--jobs` determinism contract.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::emit;
use crate::json::Json;

/// Process-wide span-recording gate (default off).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables span recording for subsequently opened spans.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process trace epoch: timestamps are measured from the first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Stable per-thread track id for trace rendering (main thread is 1 if it
/// touches spans first; worker ids follow registration order).
fn thread_track() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TRACK: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TRACK.with(|t| *t)
}

/// Nanoseconds of CPU time the calling thread has consumed, from
/// `/proc/thread-self/schedstat` (0 where procfs is unavailable).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Hierarchy level (`run`, `phase`, `experiment`, `cell`, `attempt`).
    pub cat: &'static str,
    /// Span name within its level (experiment or cell label, …).
    pub name: String,
    /// Track (thread) the span ran on.
    pub track: u64,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub wall_ns: u64,
    /// Thread CPU time consumed between open and close, nanoseconds.
    pub cpu_ns: u64,
}

static GLOBAL: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

/// Thread-local event buffer that flushes to [`GLOBAL`] on thread exit,
/// so spans recorded on pool workers survive the pool.
struct LocalEvents(Vec<SpanEvent>);

impl Drop for LocalEvents {
    fn drop(&mut self) {
        if let Ok(mut global) = GLOBAL.lock() {
            global.append(&mut self.0);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalEvents> = const { RefCell::new(LocalEvents(Vec::new())) };
}

fn push_event(event: SpanEvent) {
    LOCAL.with(|l| l.borrow_mut().0.push(event));
}

/// An open span; records a [`SpanEvent`] when dropped. Obtained from
/// [`begin`].
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when recording was disabled at open time (drop is free).
    open: Option<(&'static str, String, Instant, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((cat, name, started, cpu0)) = self.open.take() else {
            return;
        };
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start_ns =
            u64::try_from(started.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        push_event(SpanEvent {
            cat,
            name,
            track: thread_track(),
            start_ns,
            wall_ns,
            cpu_ns: thread_cpu_ns().saturating_sub(cpu0),
        });
    }
}

/// Opens a span at hierarchy level `cat` with the given name. The span
/// closes (and records) when the returned guard drops; when recording is
/// disabled the guard is inert.
#[must_use]
pub fn begin(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let _ = epoch();
    SpanGuard {
        open: Some((cat, name.into(), Instant::now(), thread_cpu_ns())),
    }
}

/// Records an already-measured span ending now — how pre-aggregated phase
/// totals enter the trace without having carried a guard through worker
/// code. No-op while recording is disabled.
pub fn record_completed(cat: &'static str, name: impl Into<String>, wall_ns: u64) {
    if !enabled() {
        return;
    }
    let now = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    push_event(SpanEvent {
        cat,
        name: name.into(),
        track: thread_track(),
        start_ns: now.saturating_sub(wall_ns),
        wall_ns,
        cpu_ns: 0,
    });
}

/// Moves the calling thread's buffered spans to the global store now.
/// A pool worker calls this before it returns: `std::thread::scope` can
/// return before a finished thread's thread-local destructors have run,
/// so a flush left to thread exit may land after the main thread drained
/// the store.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Ok(mut global) = GLOBAL.lock() {
            global.append(&mut l.0);
        }
    });
}

/// Flushes the calling thread's buffer and drains every recorded span,
/// ordered by (start, track) for stable rendering. Call from the main
/// thread after parallel sections join.
#[must_use]
pub fn take_events() -> Vec<SpanEvent> {
    flush_thread();
    let mut events = std::mem::take(&mut *GLOBAL.lock().expect("span store poisoned"));
    events.sort_by(|a, b| (a.start_ns, a.track, &a.name).cmp(&(b.start_ns, b.track, &b.name)));
    events
}

/// Per-(cat, name) aggregate of recorded spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    /// Hierarchy level.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// How many spans aggregated.
    pub count: u64,
    /// Total wall nanoseconds.
    pub wall_ns: u64,
    /// Total CPU nanoseconds.
    pub cpu_ns: u64,
}

/// Aggregates events per `(cat, name)`, sorted by key. Counts and names
/// are deterministic for a given run plan; wall/CPU totals are not and
/// must be rendered through the emitter's redaction.
#[must_use]
pub fn summarize(events: &[SpanEvent]) -> Vec<SpanSummary> {
    let mut agg: BTreeMap<(String, String), (u64, u64, u64)> = BTreeMap::new();
    for e in events {
        let entry = agg
            .entry((e.cat.to_owned(), e.name.clone()))
            .or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 = entry.1.saturating_add(e.wall_ns);
        entry.2 = entry.2.saturating_add(e.cpu_ns);
    }
    agg.into_iter()
        .map(|((cat, name), (count, wall_ns, cpu_ns))| SpanSummary {
            cat,
            name,
            count,
            wall_ns,
            cpu_ns,
        })
        .collect()
}

/// Renders span summaries as a JSONL `span-summary` record, wall/CPU
/// fields subject to the emitter's redaction mode.
#[must_use]
pub fn summary_record(summaries: &[SpanSummary]) -> Json {
    Json::obj([
        ("type", "span-summary".into()),
        (
            "spans",
            Json::Arr(
                summaries
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("cat", s.cat.as_str().into()),
                            ("name", s.name.as_str().into()),
                            ("count", s.count.into()),
                            ("wall_ns", emit::wall_ns(s.wall_ns)),
                            ("cpu_ns", emit::wall_ns(s.cpu_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders events as a Chrome trace-event JSON document (the
/// `traceEvents` array form), loadable in Perfetto / `chrome://tracing`.
/// Timestamps and durations are microseconds as the format requires;
/// per-event args carry the exact nanosecond wall and CPU figures.
#[must_use]
pub fn chrome_trace(events: &[SpanEvent]) -> Json {
    let mut trace: Vec<Json> = vec![Json::obj([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", 1u64.into()),
        ("args", Json::obj([("name", "isf-harness".into())])),
    ])];
    trace.extend(events.iter().map(|e| {
        Json::obj([
            ("name", e.name.as_str().into()),
            ("cat", e.cat.into()),
            ("ph", "X".into()),
            ("ts", (e.start_ns / 1_000).into()),
            ("dur", (e.wall_ns / 1_000).max(1).into()),
            ("pid", 1u64.into()),
            ("tid", e.track.into()),
            (
                "args",
                Json::obj([("wall_ns", e.wall_ns.into()), ("cpu_ns", e.cpu_ns.into())]),
            ),
        ])
    }));
    Json::obj([
        ("traceEvents", Json::Arr(trace)),
        ("displayTimeUnit", "ms".into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span state is process-global; tests that enable recording
    /// serialize here and drain what they produced.
    static SPAN_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = SPAN_LOCK.lock().expect("span lock");
        set_enabled(false);
        drop(begin("cell", "t/disabled"));
        record_completed("phase", "p/disabled", 5);
        assert!(take_events()
            .iter()
            .all(|e| e.name != "t/disabled" && e.name != "p/disabled"));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _guard = SPAN_LOCK.lock().expect("span lock");
        let _ = take_events();
        set_enabled(true);
        {
            let _outer = begin("experiment", "t/outer");
            for _ in 0..2 {
                let _inner = begin("cell", "t/inner");
            }
        }
        let worker = std::thread::spawn(|| {
            let _span = begin("cell", "t/worker");
        });
        worker.join().expect("span worker");
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 4);
        // Inner spans start no earlier and end no later than the outer.
        let outer = events.iter().find(|e| e.name == "t/outer").expect("outer");
        for inner in events.iter().filter(|e| e.name == "t/inner") {
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.wall_ns <= outer.start_ns + outer.wall_ns);
        }
        let summaries = summarize(&events);
        assert_eq!(
            summaries
                .iter()
                .map(|s| (s.cat.as_str(), s.name.as_str(), s.count))
                .collect::<Vec<_>>(),
            vec![
                ("cell", "t/inner", 2),
                ("cell", "t/worker", 1),
                ("experiment", "t/outer", 1),
            ]
        );
        assert!(take_events().is_empty(), "take drains the store");
    }

    #[test]
    fn summary_record_and_chrome_trace_render() {
        let events = vec![SpanEvent {
            cat: "cell",
            name: "table1/compress".into(),
            track: 2,
            start_ns: 5_000,
            wall_ns: 1_500,
            cpu_ns: 900,
        }];
        let summaries = summarize(&events);
        let record = summary_record(&summaries).to_string();
        assert!(record.starts_with("{\"type\":\"span-summary\",\"spans\":["));
        assert!(record.contains("\"cat\":\"cell\""));
        assert!(record.contains("\"count\":1"));
        crate::json::parse(&record).expect("span-summary parses");

        let trace = chrome_trace(&events);
        let text = trace.to_string();
        crate::json::parse(&text).expect("chrome trace parses");
        let arr = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(arr.len(), 2, "metadata + one span");
        let span = &arr[1];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(5));
        assert_eq!(span.get("tid").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn cpu_clock_is_monotone() {
        let a = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = thread_cpu_ns();
        assert!(b >= a);
    }
}

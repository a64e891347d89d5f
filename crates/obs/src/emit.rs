//! Machine-readable experiment output: a JSONL record stream plus a
//! phase-timing accumulator.
//!
//! The emitter is deliberately *thread-local*: the harness's worker pool
//! computes cells on many threads, but every record is emitted by the
//! main thread **in submission order** after the parallel section joins.
//! That is what makes the stream byte-stable across `--jobs` counts, and
//! it also keeps concurrently running tests from polluting each other's
//! captured output.
//!
//! Wall-clock fields are inherently nondeterministic, so the emitter has
//! a redaction mode ([`set_redact`], or `ISF_EMIT_REDACT_WALL=1`) that
//! zeroes them; everything else in a record — simulated cycles,
//! instruction counts, labels, ordering — is deterministic by
//! construction.
//!
//! Phase timings (compile / instrument / prepare / run) are accumulated
//! in a process-global table because the phases themselves run on worker
//! threads; only the main thread drains it ([`take_phases`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;

/// What the thread-local emitter does with records.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EmitMode {
    /// Discard records (the default).
    Off,
    /// Buffer records as JSONL lines for [`drain`].
    Json,
}

struct EmitState {
    mode: EmitMode,
    redact_wall: bool,
    buffer: String,
}

impl EmitState {
    fn from_env() -> Self {
        let redact_wall = matches!(
            std::env::var("ISF_EMIT_REDACT_WALL")
                .ok()
                .as_deref()
                .map(str::trim),
            Some("1") | Some("true")
        );
        EmitState {
            mode: EmitMode::Off,
            redact_wall,
            buffer: String::new(),
        }
    }
}

thread_local! {
    static STATE: RefCell<EmitState> = RefCell::new(EmitState::from_env());
}

/// Sets this thread's emit mode ([`EmitMode::Off`] until set).
pub fn set_mode(mode: EmitMode) {
    STATE.with(|s| s.borrow_mut().mode = mode);
}

/// This thread's emit mode.
pub fn mode() -> EmitMode {
    STATE.with(|s| s.borrow().mode)
}

/// Whether records are currently being captured on this thread.
pub fn enabled() -> bool {
    mode() == EmitMode::Json
}

/// Sets wall-clock redaction for this thread, overriding
/// `ISF_EMIT_REDACT_WALL`.
pub fn set_redact(redact: bool) {
    STATE.with(|s| s.borrow_mut().redact_wall = redact);
}

/// Whether wall-clock fields are being redacted to `0` on this thread.
pub fn redacting_wall() -> bool {
    STATE.with(|s| s.borrow().redact_wall)
}

/// A wall-clock nanosecond field: the measured value, or `0` under
/// redaction so the stream stays byte-stable.
pub fn wall_ns(ns: u64) -> Json {
    if redacting_wall() {
        Json::UInt(0)
    } else {
        Json::UInt(ns)
    }
}

/// A wall-clock-derived rate field (e.g. MIPS): the measured value, or
/// `0` under redaction.
pub fn wall_rate(rate: f64) -> Json {
    if redacting_wall() {
        Json::UInt(0)
    } else {
        Json::Num(rate)
    }
}

/// Appends one record to this thread's JSONL buffer (no-op when the
/// emitter is off). Call only from the thread that will [`drain`].
pub fn record(value: &Json) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.mode == EmitMode::Json {
            use std::fmt::Write;
            writeln!(s.buffer, "{value}").expect("String write is infallible");
        }
    });
}

/// Takes everything buffered on this thread: a JSONL string, one record
/// per `\n`-terminated line (empty when nothing was recorded).
pub fn drain() -> String {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().buffer))
}

/// Appends one `error` record — a failed experiment cell — to this
/// thread's JSONL buffer (no-op when the emitter is off). `kind` is the
/// failure class (`trap`, `panic`, `budget`), `detail` the human-readable
/// cause, `attempts` how many times the cell ran including retries. Every
/// field is deterministic, so error records stay byte-stable across job
/// counts like the rest of the stream.
pub fn error(label: &str, kind: &str, detail: &str, attempts: u64) {
    record(&Json::obj([
        ("type", "error".into()),
        ("label", label.into()),
        ("kind", kind.into()),
        ("detail", detail.into()),
        ("attempts", attempts.into()),
    ]));
}

/// Accumulated wall time for one named phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotal {
    /// The phase name (`compile`, `instrument`, `prepare`, `run`, ...).
    pub name: String,
    /// How many timed sections contributed.
    pub count: u64,
    /// Total wall nanoseconds across those sections.
    pub wall_ns: u64,
}

static PHASES: Mutex<BTreeMap<String, (u64, u64)>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// When a capture is active on this thread, every [`phase`] call is
    /// additionally tallied here, attributing timed sections to the cell
    /// the thread is currently running — the harness journals these so a
    /// resumed run can replay a skipped cell's phase contributions.
    static CAPTURE: RefCell<Option<BTreeMap<String, (u64, u64)>>> = const { RefCell::new(None) };
}

/// Starts attributing this thread's [`phase`] calls to a per-cell capture
/// (in addition to the global accumulator). Ended by [`take_phase_capture`].
pub fn begin_phase_capture() {
    CAPTURE.with(|c| *c.borrow_mut() = Some(BTreeMap::new()));
}

/// Ends the capture started by [`begin_phase_capture`], returning the
/// sections attributed to it, sorted by phase name. Empty when no capture
/// was active.
pub fn take_phase_capture() -> Vec<PhaseTotal> {
    CAPTURE.with(|c| {
        c.borrow_mut()
            .take()
            .map(|map| {
                map.into_iter()
                    .map(|(name, (count, wall_ns))| PhaseTotal {
                        name,
                        count,
                        wall_ns,
                    })
                    .collect()
            })
            .unwrap_or_default()
    })
}

/// Adds one timed section to the global accumulator for `name`. Safe to
/// call from worker threads.
pub fn phase(name: &str, wall: Duration) {
    let ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    add_phase_total(name, 1, ns);
    CAPTURE.with(|c| {
        if let Some(map) = c.borrow_mut().as_mut() {
            let entry = map.entry(name.to_owned()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(ns);
        }
    });
}

/// Adds a pre-aggregated phase total straight to the global accumulator —
/// how the harness re-injects a journal-replayed cell's phase sections so
/// a resumed run's `phase` records match an uninterrupted run's.
pub fn add_phase_total(name: &str, count: u64, wall_ns: u64) {
    let mut phases = PHASES.lock().expect("phase accumulator poisoned");
    let entry = phases.entry(name.to_owned()).or_insert((0, 0));
    entry.0 += count;
    entry.1 = entry.1.saturating_add(wall_ns);
}

/// Drains the global phase accumulator, returning totals sorted by phase
/// name. Call from the main thread after parallel sections join.
pub fn take_phases() -> Vec<PhaseTotal> {
    let mut phases = PHASES.lock().expect("phase accumulator poisoned");
    std::mem::take(&mut *phases)
        .into_iter()
        .map(|(name, (count, wall_ns))| PhaseTotal {
            name,
            count,
            wall_ns,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_buffer_only_when_enabled() {
        // Thread-local state: isolate from other tests by running on a
        // dedicated thread.
        std::thread::spawn(|| {
            set_mode(EmitMode::Off);
            record(&Json::obj([("type", "x".into())]));
            assert_eq!(drain(), "");
            set_mode(EmitMode::Json);
            assert!(enabled());
            record(&Json::obj([("type", "a".into())]));
            record(&Json::obj([("type", "b".into())]));
            assert_eq!(drain(), "{\"type\":\"a\"}\n{\"type\":\"b\"}\n");
            assert_eq!(drain(), "", "drain takes the buffer");
        })
        .join()
        .expect("emit test thread");
    }

    #[test]
    fn error_records_have_the_contract_shape() {
        std::thread::spawn(|| {
            set_mode(EmitMode::Json);
            error("table1/db", "trap", "trap in `main`: division by zero", 2);
            assert_eq!(
                drain(),
                "{\"type\":\"error\",\"label\":\"table1/db\",\"kind\":\"trap\",\
                 \"detail\":\"trap in `main`: division by zero\",\"attempts\":2}\n"
            );
        })
        .join()
        .expect("error record test thread");
    }

    #[test]
    fn redaction_zeroes_wall_fields() {
        std::thread::spawn(|| {
            set_redact(false);
            assert_eq!(wall_ns(123), Json::UInt(123));
            assert_eq!(wall_rate(1.5), Json::Num(1.5));
            set_redact(true);
            assert!(redacting_wall());
            assert_eq!(wall_ns(123), Json::UInt(0));
            assert_eq!(wall_rate(1.5), Json::UInt(0));
        })
        .join()
        .expect("redact test thread");
    }

    #[test]
    fn phase_capture_attributes_sections_to_the_active_cell() {
        std::thread::spawn(|| {
            // No capture active: take returns empty, global still accumulates.
            phase("capture-test", Duration::from_nanos(5));
            assert_eq!(take_phase_capture(), Vec::new());

            begin_phase_capture();
            phase("capture-test", Duration::from_nanos(10));
            phase("capture-test", Duration::from_nanos(7));
            phase("capture-other", Duration::from_nanos(3));
            let captured = take_phase_capture();
            assert_eq!(
                captured,
                vec![
                    PhaseTotal {
                        name: "capture-other".into(),
                        count: 1,
                        wall_ns: 3,
                    },
                    PhaseTotal {
                        name: "capture-test".into(),
                        count: 2,
                        wall_ns: 17,
                    },
                ]
            );
            assert_eq!(take_phase_capture(), Vec::new(), "capture is taken once");
        })
        .join()
        .expect("capture test thread");
    }

    /// `take_phases` drains the process-global table, so tests that drain
    /// must not interleave or they steal each other's entries.
    static PHASE_DRAIN_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn add_phase_total_merges_pre_aggregated_sections() {
        let _guard = PHASE_DRAIN_LOCK.lock().expect("phase drain lock");
        add_phase_total("injected-phase-test", 4, 100);
        add_phase_total("injected-phase-test", 2, 50);
        let all = take_phases();
        let total = all
            .iter()
            .find(|p| p.name == "injected-phase-test")
            .expect("injected phase");
        assert_eq!(total.count, 6);
        assert_eq!(total.wall_ns, 150);
    }

    #[test]
    fn phases_aggregate_across_threads() {
        let _guard = PHASE_DRAIN_LOCK.lock().expect("phase drain lock");
        let name = "test-phase-aggregation";
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    phase(name, Duration::from_nanos(10));
                })
            })
            .collect();
        for t in threads {
            t.join().expect("phase worker");
        }
        let all = take_phases();
        let total = all
            .iter()
            .find(|p| p.name == name)
            .expect("aggregated phase");
        assert_eq!(total.count, 4);
        assert_eq!(total.wall_ns, 40);
    }
}

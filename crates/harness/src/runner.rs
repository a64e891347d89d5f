//! Shared experiment machinery: compiling the suite, instrumenting it,
//! running it, and expressing results relative to the uninstrumented
//! baseline — the paper's methodology of §4.1.
//!
//! The harness's policy is a value: a [`HarnessConfig`] that
//! [`crate::cli`] resolves once (flag, else `ISF_*` variable, else
//! built-in default) and a [`Harness`] that carries it together with the
//! preparation cache its runs share and the deadline-hit flag `main`
//! reads at exit. No setting lives in a mutable global, so two harnesses
//! with different configurations can run side by side in one process;
//! only the observation sinks (emit mode, span and metrics gates, log
//! level) and the attached journal are process-wide.
//!
//! Experiments decompose into independent *cells*, one (benchmark ×
//! configuration) unit of work each, executed by
//! [`Harness::par_cells_isolated`] on a scoped worker pool of
//! [`HarnessConfig::jobs`] threads. The VM is
//! deterministic and every cell is a pure function of its inputs, so a
//! parallel run produces the same rows, bit for bit, as a serial one;
//! results come back in submission order, so table output never depends
//! on the schedule. Per-cell statistics (simulated cycles, wall time,
//! effective simulated MIPS) go to stderr through the leveled
//! [`isf_obs::log`] emitter (`ISF_LOG=off|cells|debug`), keeping stdout
//! byte-identical across job counts; with `ISF_EMIT=json` the same
//! metrics are also captured as machine-readable JSONL records, emitted
//! in submission order.
//!
//! Cells that run one module several times (interval sweeps, trigger
//! comparisons) pre-decode it once with [`Harness::prepare_for_runs`] and
//! replay the decoded form with [`Harness::run_prepared_module`],
//! amortizing preparation over the whole sweep. No deterministic run
//! executes twice: a repeated unsampled run is served from the run memo
//! next to the preparation cache, and [`Harness::run_sweep`] executes
//! the prefix a counter-interval sweep shares once (DESIGN.md decision
//! 30).

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use isf_core::{instrument_module, Options, Strategy, TransformStats};
use isf_exec::{
    fuse_mode, CancelToken, Code, CostModel, Engine, ExecLimits, FuseMode, NoMetrics, NoTrace,
    OpProfile, Outcome, ProfileSink, Request, SchedControl, Swept, Trigger, VmConfig, VmError,
    NUM_OPCODES, OPCODE_NAMES,
};
use isf_instr::{CallEdgeInstrumentation, FieldAccessInstrumentation, Instrumentation, ModulePlan};
use isf_ir::Module;
use isf_obs::{emit, log, metrics, span, Json};
use isf_workloads::{suite, Scale, Workload};

use crate::journal;

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// Every setting that shapes a harness run, resolved once. Each field has
/// a flag and (except `fault`) an `ISF_*` variable; [`crate::cli`] applies
/// the precedence flag > variable > [`HarnessConfig::default`].
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessConfig {
    /// Worker threads cells run on (`--jobs`, `ISF_JOBS`; default: the
    /// machine's available parallelism).
    pub jobs: usize,
    /// How many times a panicked or deadlined cell is re-run before its
    /// failure is recorded (`--retries`, `ISF_RETRIES`; default 0). Traps
    /// and budget exhaustion are deterministic and never retried.
    pub retries: usize,
    /// Simulated-cycle cap on every harness run (`--cell-budget`,
    /// `ISF_CELL_BUDGET`; `0` = uncapped); a run over it is a
    /// [`CellResult::Budget`].
    pub cell_budget: u64,
    /// Per-cell wall-clock deadline in milliseconds (`--cell-deadline`,
    /// `ISF_CELL_DEADLINE`; `0` = off); an attempt over it is cancelled
    /// by the watchdog and recorded as a [`CellResult::Deadline`].
    pub cell_deadline_ms: u64,
    /// Fault injection `(p, seed)` (`--fault-inject`; `p = 0` = off): an
    /// attempt whose `(seed, label, attempt)` hash falls below `p` panics
    /// or traps before its work runs.
    pub fault: (f64, u64),
    /// Superinstruction fusion (`--no-fuse` turns it off, `ISF_FUSE`
    /// sets it; default: [`isf_exec::fuse_mode`], on unless `ISF_FUSE=0`).
    pub fuse: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            retries: 0,
            cell_budget: 0,
            cell_deadline_ms: 0,
            fault: (0.0, 0),
            fuse: matches!(fuse_mode(), FuseMode::Fuse),
        }
    }
}

impl HarnessConfig {
    /// The engine harness runs execute on: fused, or unfused with
    /// [`HarnessConfig::fuse`] off.
    fn engine(&self) -> Engine {
        if self.fuse {
            Engine::Fused
        } else {
            Engine::Unfused
        }
    }

    /// The VM configuration every harness run gets: `trigger`, plus the
    /// cell budget as execution fuel when one is configured.
    fn vm_config(&self, trigger: Trigger) -> VmConfig {
        let limits = match self.cell_budget {
            0 => ExecLimits::default(),
            cycles => ExecLimits::cycles(cycles),
        };
        VmConfig {
            trigger,
            limits,
            ..VmConfig::default()
        }
    }

    /// Every input that determines cell results under this configuration
    /// — what the cell journal fingerprints. The destructuring is
    /// exhaustive, so a new field must be hashed or excluded here.
    pub fn run_inputs(&self, scale: Scale, experiments: &[String]) -> journal::RunInputs {
        let HarnessConfig {
            // Cells are schedule-independent: a journal resumes under any job count.
            jobs: _,
            retries,
            cell_budget,
            // The wall-clock deadline bounds waiting, not what a cell computes.
            cell_deadline_ms: _,
            fault: (fault_prob, fault_seed),
            // Fusion is observably equivalent: CI diffs fused against unfused runs.
            fuse: _,
        } = self;
        journal::RunInputs {
            version: env!("CARGO_PKG_VERSION").to_owned(),
            scale: crate::scale_name(scale).to_owned(),
            experiments: experiments.to_vec(),
            cell_budget: *cell_budget,
            retries: u64::try_from(*retries).unwrap_or(u64::MAX),
            fault_prob_bits: fault_prob.to_bits(),
            fault_seed: *fault_seed,
            vm_config: format!("{:?}", self.vm_config(Trigger::Never)),
        }
    }
}

/// Parses a `--fault-inject` spec of the form `p=<prob>,seed=<s>` (the
/// seed is optional and defaults to 0).
///
/// # Errors
///
/// Returns a description of the first malformed component.
pub fn parse_fault_spec(spec: &str) -> Result<(f64, u64), String> {
    let mut p: Option<f64> = None;
    let mut seed = 0u64;
    for part in spec.split(',') {
        match part.split_once('=') {
            Some(("p", v)) => {
                let prob = v
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("fault probability `{v}` not in [0, 1]"))?;
                p = Some(prob);
            }
            Some(("seed", v)) => {
                seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("fault seed `{v}` is not a u64"))?;
            }
            _ => return Err(format!("unknown fault-inject component `{part}`")),
        }
    }
    let p = p.ok_or_else(|| "fault-inject spec needs `p=<prob>`".to_owned())?;
    Ok((p, seed))
}

/// Deterministically decides whether to inject a fault into this attempt
/// of the labelled cell, and which kind: `Some(true)` injects a trap,
/// `Some(false)` a panic. A pure function of `(p, seed, label, attempt)`,
/// so it is identical across job counts and schedules, and a retried
/// attempt rolls fresh.
fn roll(p: f64, seed: u64, label: &str, attempt: u32) -> Option<bool> {
    if p <= 0.0 {
        return None;
    }
    // FNV-1a over the label (the same machinery the cell journal keys
    // with), folded with the seed and attempt, then an xorshift finalizer
    // — cheap, stable, and well-mixed enough to hit the target probability
    // on short label sets.
    let h0 = journal::fnv1a(journal::FNV_OFFSET ^ seed, label.as_bytes());
    let h = (h0 ^ u64::from(attempt)).wrapping_mul(journal::FNV_PRIME);
    let mut x = h | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    (unit < p).then_some(x & (1 << 7) != 0)
}

// ---------------------------------------------------------------------
// The harness value.
// ---------------------------------------------------------------------

/// Values computed once per key. One lazily-initialized slot per key:
/// the map lock is released before computing, so requests for
/// *different* keys compute in parallel while concurrent requests for
/// the *same* key block on the slot and share one computation. Misses
/// are therefore the number of distinct keys and hits the requests
/// beyond them, both independent of how requests were scheduled.
struct OnceMap<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap(Mutex::default())
    }
}

impl<K: Hash + Eq, V: Clone> OnceMap<K, V> {
    /// The value for `key`, computed by `init` unless another request
    /// got there first, and whether it was (a hit).
    fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> (V, bool) {
        let slot = {
            let mut map = self.0.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry(key).or_default())
        };
        let mut hit = true;
        let value = slot
            .get_or_init(|| {
                hit = false;
                init()
            })
            .clone();
        (value, hit)
    }
}

/// Code loaded through the preparation cache, with the fingerprint that
/// keys it there — and keys its runs in the run memo.
pub struct Loaded {
    key: u64,
    /// The loaded code.
    pub code: Code<'static>,
}

/// What one run produced: its whole result and, for a profiled run, its
/// dispatch profile.
#[derive(Clone)]
struct Ran {
    result: Result<Outcome, VmError>,
    profile: Option<OpProfile>,
}

/// The run memo's key: the loaded code's fingerprint, the VM
/// configuration and whether the run is profiled.
type RunKey = (u64, VmConfig, bool);

/// A configured harness: the resolved [`HarnessConfig`], the preparation
/// cache and run memo its runs share, and whether any fresh cell hit the
/// wall-clock deadline. Experiments take it by reference and their cells
/// capture it.
pub struct Harness {
    /// The resolved configuration.
    pub config: HarnessConfig,
    /// Loaded code by fingerprint of the module text, the cost model and
    /// the engine (see [`Harness::cached_prepare`]).
    cache: Arc<OnceMap<u64, Arc<Loaded>>>,
    /// Unsampled runs by [`RunKey`] (see [`Harness::run_prepared_module`]).
    memo: Arc<OnceMap<RunKey, Arc<Ran>>>,
    deadline_hit: AtomicBool,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new(HarnessConfig::default())
    }
}

impl Harness {
    /// A harness with a fresh preparation cache and run memo.
    #[must_use]
    pub fn new(config: HarnessConfig) -> Harness {
        Harness {
            config,
            cache: Arc::default(),
            memo: Arc::default(),
            deadline_hit: AtomicBool::new(false),
        }
    }

    /// A harness under `config` that shares this one's preparation cache
    /// and run memo. Cache keys carry the engine and memo keys the VM
    /// configuration, so entries of different configurations coexist
    /// without aliasing.
    #[must_use]
    pub fn with_config(&self, config: HarnessConfig) -> Harness {
        Harness {
            cache: Arc::clone(&self.cache),
            memo: Arc::clone(&self.memo),
            ..Harness::new(config)
        }
    }

    /// How many distinct runs the run memo holds.
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.memo.0.lock().unwrap().len()
    }

    /// Whether any *fresh* (non-replayed) cell run hit the wall-clock
    /// deadline. `main` checks
    /// this at exit: such a run finishes its remaining cells and output,
    /// then exits with [`journal::RESUMABLE_EXIT`].
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Cell results.
// ---------------------------------------------------------------------

/// Why a cell failed: the label it ran under, a human-readable cause, and
/// how many attempts were made (1 unless retries were configured).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// The failed cell's label.
    pub label: String,
    /// Failure class: `trap`, `panic`, `budget`, or `deadline`.
    pub kind: &'static str,
    /// Human-readable cause (trap description or panic message).
    pub detail: String,
    /// Total times the cell ran, including the failing attempt.
    pub attempts: u32,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.label, self.kind, self.detail)
    }
}

/// The outcome of one isolated cell: its result, or a classified failure
/// that did not take the rest of the experiment down.
#[derive(Clone, Debug)]
pub enum CellResult<R> {
    /// The cell completed.
    Ok(R),
    /// The program trapped (semantic error: division by zero, null
    /// dereference, ...).
    Trapped(CellError),
    /// The cell's closure panicked (assertion failure, injected fault).
    Panicked(CellError),
    /// A configured resource budget ran out (fuel, heap, stack).
    Budget(CellError),
    /// The cell exceeded the wall-clock [`HarnessConfig::cell_deadline_ms`]
    /// and was cooperatively cancelled. Retried like a panic — the
    /// deadline measures host conditions, not the deterministic VM —
    /// never like a budget trap.
    Deadline(CellError),
}

impl<R> CellResult<R> {
    /// Converts into a `Result`, surfacing the failure for partial-result
    /// rendering.
    #[allow(clippy::missing_errors_doc)]
    pub fn into_result(self) -> Result<R, CellError> {
        match self {
            CellResult::Ok(r) => Ok(r),
            CellResult::Trapped(e)
            | CellResult::Panicked(e)
            | CellResult::Budget(e)
            | CellResult::Deadline(e) => Err(e),
        }
    }
}

/// Partitions isolated cell results into successes and failures, each in
/// submission order — the shape every table needs to render partial
/// results with error annotations.
pub fn split_results<R>(results: Vec<CellResult<R>>) -> (Vec<R>, Vec<CellError>) {
    let mut oks = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r.into_result() {
            Ok(v) => oks.push(v),
            Err(e) => errors.push(e),
        }
    }
    (oks, errors)
}

/// The typed panic payload [`Harness::run_prepared_module`] throws when a
/// program traps, so the isolation layer can classify the failure
/// precisely instead of parsing a message.
struct CellTrap(VmError);

// ---------------------------------------------------------------------
// The cell engine.
// ---------------------------------------------------------------------

/// One independent unit of experiment work: a label (for the per-cell
/// statistics line on stderr) and a closure producing the cell's result.
/// The closure is `Fn`, not `FnOnce`, so a panicked cell can be re-run
/// under the bounded-retry policy.
pub struct Cell<'scope, R> {
    label: String,
    work: Box<dyn Fn() -> R + Send + Sync + 'scope>,
}

/// Builds a [`Cell`] for [`Harness::par_cells_isolated`] /
/// [`Harness::par_cells_journaled`].
pub fn cell<'scope, R>(
    label: impl Into<String>,
    work: impl Fn() -> R + Send + Sync + 'scope,
) -> Cell<'scope, R> {
    Cell {
        label: label.into(),
        work: Box::new(work),
    }
}

/// A cell result type that can round-trip through the cell journal: it
/// encodes itself as JSON for the `payload` field of a `journal-cell`
/// record and decodes back on `--resume`. Every cell is a pure function
/// of the journal's fingerprinted inputs, so a decoded payload is exactly
/// what re-running the cell would compute.
pub trait JournalPayload: Sized {
    /// Encodes the result for the journal.
    fn encode(&self) -> Json;
    /// Decodes a journaled result; `None` marks an undecodable payload,
    /// which makes the engine recompute the cell instead of replaying it.
    fn decode(v: &Json) -> Option<Self>;
}

/// The encode/decode pair the engine uses for journaling, as plain
/// function pointers so the engine stays monomorphic per result type.
struct Codec<R> {
    encode: fn(&R) -> Json,
    decode: fn(&Json) -> Option<R>,
}

/// One finished slot: the cell's result and metrics, and whether they
/// were replayed from the journal (replayed cells re-inject their phase
/// sections at emission time; fresh cells contributed them while running).
type Finished<R> = (CellResult<R>, CellMetrics, bool);

impl Harness {
    /// Runs the cells on [`HarnessConfig::jobs`] worker threads with per-cell fault
    /// isolation, returning one [`CellResult`] per cell in submission order.
    ///
    /// Workers claim cells from an atomic cursor, so the schedule is dynamic,
    /// but each cell computes the same result wherever it runs (the VM is
    /// deterministic), and the slot a result lands in is fixed by submission
    /// order — a table built from the returned vector is identical however
    /// many workers ran it. With one worker (or one cell) everything runs on
    /// the calling thread.
    ///
    /// Each attempt runs under `catch_unwind`: a trapping or panicking cell
    /// becomes a classified [`CellResult`] while its siblings keep running —
    /// workers never unwind, so no queue or slot mutex is ever poisoned.
    /// Panicked cells are retried up to [`HarnessConfig::retries`] times with a short
    /// deterministic backoff.
    pub fn par_cells_isolated<R: Send>(&self, cells: Vec<Cell<'_, R>>) -> Vec<CellResult<R>> {
        self.run_cells(cells, None)
    }

    /// [`Harness::par_cells_isolated`] plus durability: when a journal is attached
    /// (`--journal`), every finished cell is appended to it, and journaled
    /// results from a previous interrupted run are *replayed* instead of
    /// recomputed (`--resume`) — emitted through exactly the same
    /// submission-order path as fresh results, so the JSONL stream and the
    /// returned vector are byte-for-byte what an uninterrupted run produces.
    /// Without an attached journal this is [`Harness::par_cells_isolated`].
    pub fn par_cells_journaled<R: Send + JournalPayload>(
        &self,
        cells: Vec<Cell<'_, R>>,
    ) -> Vec<CellResult<R>> {
        self.run_cells(
            cells,
            Some(Codec {
                encode: <R as JournalPayload>::encode,
                decode: <R as JournalPayload>::decode,
            }),
        )
    }

    /// The shared cell engine behind [`Harness::par_cells_isolated`] and
    /// [`Harness::par_cells_journaled`]: replay journaled cells, run the rest on the
    /// worker pool (stopping at a requested drain), then emit everything on
    /// the calling thread in submission order.
    fn run_cells<R: Send>(
        &self,
        cells: Vec<Cell<'_, R>>,
        codec: Option<Codec<R>>,
    ) -> Vec<CellResult<R>> {
        let _hook = CellHookGuard::install();
        let n = cells.len();
        let mut entries: Vec<Option<Finished<R>>> = Vec::with_capacity(n);
        let mut pending: Vec<usize> = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            let replayed = codec.as_ref().and_then(|codec| replay_cell(c, codec));
            if replayed.is_none() {
                pending.push(i);
            }
            entries.push(replayed);
        }
        let workers = self.config.jobs.min(pending.len());
        if workers <= 1 {
            for &i in &pending {
                if journal::drain_requested() {
                    break;
                }
                let (r, m) = self.run_cell(&cells[i]);
                journal_append(&cells[i].label, &r, &m, codec.as_ref());
                entries[i] = Some((r, m, false));
            }
        } else {
            let slots: Vec<Mutex<Option<Finished<R>>>> =
                pending.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        loop {
                            // The drain flag (SIGINT/SIGTERM) stops workers
                            // from *claiming*; the in-flight cell below always
                            // finishes and is journaled before the process
                            // exits.
                            if journal::drain_requested() {
                                break;
                            }
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            if k >= pending.len() {
                                break;
                            }
                            let i = pending[k];
                            let (r, m) = self.run_cell(&cells[i]);
                            journal_append(&cells[i].label, &r, &m, codec.as_ref());
                            *slots[k].lock().unwrap_or_else(|p| p.into_inner()) =
                                Some((r, m, false));
                        }
                        // The scope's join does not wait for thread exit.
                        span::flush_thread();
                    });
                }
            });
            for (k, slot) in slots.into_iter().enumerate() {
                if let Some(e) = slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
                    entries[pending[k]] = Some(e);
                }
            }
        }
        let done = entries.iter().filter(|e| e.is_some()).count();
        if done < n {
            assert!(
                journal::drain_requested(),
                "every claimed cell stores a result"
            );
            // A graceful drain left this group incomplete: nothing of it is
            // emitted (a resumed run regenerates the whole stream), finished
            // cells are already journaled, and the distinct exit code tells
            // the caller the run is resumable.
            log::error(&format!(
                "interrupted: drained after {done}/{n} cell(s) in this group; \
                 journaled results are preserved — rerun with --resume to complete"
            ));
            std::process::exit(journal::RESUMABLE_EXIT);
        }
        // JSONL cell and error records are emitted here, on the calling thread
        // and in submission order, so the stream is byte-stable however many
        // workers ran the cells (wall-clock fields are separately subject to
        // redaction — see `isf_obs::emit`). Replayed cells take the identical
        // path: raw journaled values, redacted at this emission point exactly
        // as fresh values are.
        entries
            .into_iter()
            .map(|e| {
                let (r, metrics, replayed) = e.expect("incomplete groups exited above");
                if replayed {
                    for p in &metrics.phases {
                        emit::add_phase_total(&p.name, p.count, p.wall_ns);
                    }
                }
                if emit::enabled() {
                    emit::record(&metrics.to_json());
                    if let CellResult::Trapped(e)
                    | CellResult::Panicked(e)
                    | CellResult::Budget(e)
                    | CellResult::Deadline(e) = &r
                    {
                        emit::error(&e.label, e.kind, &e.detail, u64::from(e.attempts));
                    }
                }
                r
            })
            .collect()
    }

    /// Runs one cell on the current thread under `catch_unwind`, logging its
    /// statistics line — simulated cycles, wall time, and effective simulated
    /// MIPS (interpreted instructions per wall-clock microsecond) — at the
    /// `cells` level (`ISF_LOG=off` silences it) and returning the
    /// measurements alongside the result. Panicked attempts are retried up to
    /// [`HarnessConfig::retries`] times with a short deterministic backoff; traps and budget
    /// exhaustion are deterministic, so they fail immediately.
    fn run_cell<R>(&self, c: &Cell<'_, R>) -> (CellResult<R>, CellMetrics) {
        let _cell_span = span::begin("cell", c.label.clone());
        // Capture the phase sections this cell contributes (across every
        // attempt) so they can be journaled with it and re-injected on replay.
        emit::begin_phase_capture();
        let deadline_ms = self.config.cell_deadline_ms;
        let (fault_p, fault_seed) = self.config.fault;
        let max_attempts = u32::try_from(self.config.retries)
            .unwrap_or(u32::MAX)
            .saturating_add(1);
        let mut attempt = 1u32;
        loop {
            let _attempt_span = span::begin("attempt", c.label.clone());
            CELL_STATS.with(|s| s.set((0, 0, 0)));
            // Each attempt gets a fresh token: the watchdog fires against the
            // epoch snapshotted here, so a stale fire from a previous attempt
            // (or a previous cell on this worker) can never land on this one.
            let token = (deadline_ms > 0).then(CancelToken::new);
            let _watch = token
                .as_ref()
                .map(|t| crate::watchdog::watch(t, Duration::from_millis(deadline_ms)));
            if token.is_some() {
                metrics::counter_add("watchdog.armed", 1);
            }
            AttemptCancel::set(token);
            let start = Instant::now();
            IN_CELL.with(|f| f.set(true));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(inject_trap) = roll(fault_p, fault_seed, &c.label, attempt) {
                    if inject_trap {
                        std::panic::panic_any(CellTrap(VmError {
                            kind: isf_exec::TrapKind::DivisionByZero,
                            function: "<fault-injection>".to_owned(),
                        }));
                    }
                    panic!("injected fault");
                }
                (c.work)()
            }));
            IN_CELL.with(|f| f.set(false));
            AttemptCancel::set(None);
            let wall = start.elapsed();
            let (cycles, instructions, prepares) = CELL_STATS.with(|s| s.get());
            let secs = wall.as_secs_f64();
            let mips = if secs > 0.0 {
                instructions as f64 / 1e6 / secs
            } else {
                0.0
            };
            if log::enabled(log::Level::Cells) {
                log::cells(&format!(
                    "[cell] {}: {} simulated cycles, {:.1} ms, {:.1} MIPS",
                    c.label,
                    cycles,
                    secs * 1e3,
                    mips
                ));
            }
            if prepares > 0 {
                log::debug(&format!(
                    "[cell] {}: {prepares} preparation request(s)",
                    c.label
                ));
            }
            let metrics = CellMetrics {
                label: c.label.clone(),
                cycles,
                instructions,
                prepares,
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                mips,
                phases: Vec::new(),
            };
            let result = match outcome {
                Ok(r) => CellResult::Ok(r),
                Err(payload) => classify_failure(&self.config, payload, &c.label, attempt),
            };
            if matches!(&result, CellResult::Deadline(_)) {
                self.deadline_hit.store(true, Ordering::Relaxed);
                if deadline_ms > 0 {
                    metrics::counter_add("watchdog.fired", 1);
                }
            }
            // Deadlines retry like panics — a hang may be a transient host
            // stall, and the bounded-retry policy already exists for exactly
            // that class of failure — and never like a budget trap, which is
            // deterministic and would only fail identically again.
            if let CellResult::Panicked(e) | CellResult::Deadline(e) = &result {
                if attempt < max_attempts {
                    log::debug(&format!(
                        "[cell] {}: attempt {attempt} failed ({}), retrying",
                        c.label, e.detail
                    ));
                    // Deterministic linear backoff: transient host conditions
                    // (not the deterministic VM) are what retries are for.
                    std::thread::sleep(Duration::from_millis(5 * u64::from(attempt)));
                    attempt += 1;
                    continue;
                }
            }
            if let CellResult::Trapped(e)
            | CellResult::Panicked(e)
            | CellResult::Budget(e)
            | CellResult::Deadline(e) = &result
            {
                log::error(&format!("[cell] {e} ({} attempt(s))", e.attempts));
            }
            let mut metrics = metrics;
            metrics.phases = emit::take_phase_capture();
            // Flush this worker's metrics shard now, not at thread exit: an
            // experiment summary snapshots the registry as soon as its cells
            // complete, and every count a cell made must be visible by then
            // whatever worker ran it — per-experiment `prep_cache_*` fields
            // stay byte-identical across `--jobs`.
            metrics::flush_thread();
            return (result, metrics);
        }
    }
}

/// Reconstructs a journaled cell for replay: metrics, phases, and either
/// the decoded success payload or the classified failure. Any undecodable
/// piece makes the cell recompute instead — the VM is deterministic, so
/// recomputing is always correct, just slower.
fn replay_cell<R>(c: &Cell<'_, R>, codec: &Codec<R>) -> Option<Finished<R>> {
    let rc = journal::lookup(&c.label)?;
    let decoded = decode_replay(&rc, &c.label, codec);
    if decoded.is_none() {
        log::error(&format!(
            "[journal] cell `{}` has an undecodable journal record; recomputing",
            c.label
        ));
    }
    decoded
}

fn decode_replay<R>(
    rc: &journal::ReplayCell,
    label: &str,
    codec: &Codec<R>,
) -> Option<Finished<R>> {
    let cell = &rc.cell;
    let field = |name: &str| cell.get(name).and_then(Json::as_u64);
    let metrics = CellMetrics {
        label: label.to_owned(),
        cycles: field("sim_cycles")?,
        instructions: field("instructions")?,
        prepares: field("prepares")?,
        wall_ns: field("wall_ns")?,
        mips: cell.get("mips").and_then(Json::as_f64)?,
        phases: rc
            .phases
            .iter()
            .map(|(name, count, wall_ns)| emit::PhaseTotal {
                name: name.clone(),
                count: *count,
                wall_ns: *wall_ns,
            })
            .collect(),
    };
    let result = match &rc.error {
        Some(err) => decode_error(err)?,
        None => CellResult::Ok((codec.decode)(rc.payload.as_ref()?)?),
    };
    Some((result, metrics, true))
}

/// Reconstructs a classified failure from a journaled `error` record.
fn decode_error<R>(err: &Json) -> Option<CellResult<R>> {
    let kind = match err.get("kind").and_then(Json::as_str)? {
        "trap" => "trap",
        "panic" => "panic",
        "budget" => "budget",
        "deadline" => "deadline",
        _ => return None,
    };
    let e = CellError {
        label: err.get("label").and_then(Json::as_str)?.to_owned(),
        kind,
        detail: err.get("detail").and_then(Json::as_str)?.to_owned(),
        attempts: u32::try_from(err.get("attempts").and_then(Json::as_u64)?).ok()?,
    };
    Some(match kind {
        "trap" => CellResult::Trapped(e),
        "panic" => CellResult::Panicked(e),
        "deadline" => CellResult::Deadline(e),
        _ => CellResult::Budget(e),
    })
}

/// Appends one freshly finished cell to the attached journal: raw
/// (unredacted) metrics, the failure record if it failed, the encoded
/// payload if it succeeded, and the phase sections it contributed. No-op
/// for non-journaled engines or when no journal is attached.
fn journal_append<R>(label: &str, r: &CellResult<R>, m: &CellMetrics, codec: Option<&Codec<R>>) {
    let Some(codec) = codec else { return };
    if !journal::is_active() {
        return;
    }
    let (error, payload) = match r {
        CellResult::Ok(v) => (None, Some((codec.encode)(v))),
        CellResult::Trapped(e)
        | CellResult::Panicked(e)
        | CellResult::Budget(e)
        | CellResult::Deadline(e) => (
            Some(Json::obj([
                ("type", "error".into()),
                ("label", e.label.as_str().into()),
                ("kind", e.kind.into()),
                ("detail", e.detail.as_str().into()),
                ("attempts", u64::from(e.attempts).into()),
            ])),
            None,
        ),
    };
    journal::append(
        label,
        &m.to_json_raw(),
        error.as_ref(),
        payload.as_ref(),
        &m.phases,
    );
}

thread_local! {
    /// (simulated cycles, instructions, preparation requests) of the
    /// current cell, fed by [`Harness::run_prepared_module`] and
    /// [`Harness::cached_prepare`].
    static CELL_STATS: std::cell::Cell<(u64, u64, u64)> =
        const { std::cell::Cell::new((0, 0, 0)) };
    /// The running attempt's cancellation input; empty between attempts.
    static ATTEMPT_CANCEL: std::cell::RefCell<AttemptCancel> =
        const { std::cell::RefCell::new(AttemptCancel { token: None }) };
}

/// A cell attempt's cancellation input: its watchdog token. Every run the
/// attempt makes carries it ([`Harness::run_prepared_module`],
/// `--explore`'s recordings and replays); runs outside cells are never
/// cancelled.
#[derive(Clone, Default)]
pub(crate) struct AttemptCancel {
    token: Option<CancelToken>,
}

impl AttemptCancel {
    /// The running attempt's input.
    pub(crate) fn current() -> AttemptCancel {
        ATTEMPT_CANCEL.with(|a| a.borrow().clone())
    }

    /// Makes `token` the running attempt's input on this thread (`None`
    /// between attempts).
    pub(crate) fn set(token: Option<CancelToken>) {
        ATTEMPT_CANCEL.with(|a| *a.borrow_mut() = AttemptCancel { token });
    }

    /// `request` carrying this input.
    pub(crate) fn apply<'r, S, P>(&'r self, request: Request<'r, S, P>) -> Request<'r, S, P> {
        match &self.token {
            Some(token) => request.cancel(token),
            None => request,
        }
    }

    /// The attempt's token, when it has one.
    pub(crate) fn token(&self) -> Option<&CancelToken> {
        self.token.as_ref()
    }
}

/// Books one run the way every run is booked, executed or not: folds its
/// profile into the registry (`profile.runs` only when it executed,
/// `run.memo.hits` when the memo served it, and the instructions it did
/// not dispatch itself as `run.shared_instructions`), then raises its
/// trap as a `CellTrap` or times it as one `run` phase and notes it in
/// the cell's metrics.
fn finish_run(
    ran: Ran,
    trigger: Trigger,
    memo_hit: bool,
    shared_instructions: u64,
    wall: Duration,
) -> Outcome {
    if let Some(profile) = &ran.profile {
        record_profile(profile, trigger);
        if memo_hit {
            metrics::counter_add("run.memo.hits", 1);
        } else {
            metrics::counter_add("profile.runs", 1);
        }
        if shared_instructions > 0 {
            metrics::counter_add("run.shared_instructions", shared_instructions);
        }
    }
    let outcome = ran
        .result
        .unwrap_or_else(|e| std::panic::panic_any(CellTrap(e)));
    emit::phase("run", wall);
    note_run(&outcome);
    outcome
}

fn note_run(outcome: &Outcome) {
    CELL_STATS.with(|c| {
        let (cycles, instructions, prepares) = c.get();
        c.set((
            cycles + outcome.cycles,
            instructions + outcome.instructions,
            prepares,
        ));
    });
}

fn note_prepare_request() {
    CELL_STATS.with(|c| {
        let (cycles, instructions, prepares) = c.get();
        c.set((cycles, instructions, prepares + 1));
    });
}

/// Everything [`Harness::run_cell`] measures about one cell: the deterministic
/// counters (simulated cycles, instructions, preparation requests) plus
/// the wall-clock figures, which are redactable in JSONL output.
struct CellMetrics {
    label: String,
    cycles: u64,
    instructions: u64,
    prepares: u64,
    wall_ns: u64,
    mips: f64,
    /// Phase sections this cell contributed (captured across all
    /// attempts), journaled so a replayed cell re-injects them.
    phases: Vec<emit::PhaseTotal>,
}

impl CellMetrics {
    /// The `cell` record as emitted: wall-clock fields pass through the
    /// redaction gate on the emitting thread.
    fn to_json(&self) -> Json {
        Json::obj([
            ("type", "cell".into()),
            ("label", self.label.as_str().into()),
            ("sim_cycles", self.cycles.into()),
            ("instructions", self.instructions.into()),
            ("prepares", self.prepares.into()),
            ("wall_ns", emit::wall_ns(self.wall_ns)),
            ("mips", emit::wall_rate(self.mips)),
        ])
    }

    /// The `cell` record with raw wall-clock values, for the journal:
    /// redaction is a property of the *emitting* run, so the journal
    /// stores measurements and replay re-applies whatever redaction the
    /// resuming run was asked for.
    fn to_json_raw(&self) -> Json {
        Json::obj([
            ("type", "cell".into()),
            ("label", self.label.as_str().into()),
            ("sim_cycles", self.cycles.into()),
            ("instructions", self.instructions.into()),
            ("prepares", self.prepares.into()),
            ("wall_ns", self.wall_ns.into()),
            ("mips", self.mips.into()),
        ])
    }
}

/// Classifies a caught panic payload into a [`CellResult`] failure.
fn classify_failure<R>(
    config: &HarnessConfig,
    payload: Box<dyn std::any::Any + Send>,
    label: &str,
    attempts: u32,
) -> CellResult<R> {
    let err = |kind, detail| CellError {
        label: label.to_owned(),
        kind,
        detail,
        attempts,
    };
    match payload.downcast::<CellTrap>() {
        Ok(trap) => {
            let CellTrap(e) = *trap;
            if e.kind == isf_exec::TrapKind::Cancelled {
                // Only the watchdog cancels a cell, at a nondeterministic
                // point, so the detail reports the configured limit — the
                // only thing every firing has in common.
                let detail = format!("cell deadline of {} ms exceeded", config.cell_deadline_ms);
                CellResult::Deadline(err("deadline", detail))
            } else if e.kind.is_budget() {
                CellResult::Budget(err("budget", e.to_string()))
            } else {
                CellResult::Trapped(err("trap", e.to_string()))
            }
        }
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_owned());
            CellResult::Panicked(err("panic", detail))
        }
    }
}

thread_local! {
    /// Whether the current thread is inside an isolated cell attempt —
    /// consulted by the process panic hook to suppress the default
    /// panic-message-plus-backtrace noise for unwinds that the isolation
    /// layer catches and reports as classified failures.
    static IN_CELL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Depth of nested [`CellHookGuard`] installations (concurrent
/// `par_cells` groups in one process share a single hook swap).
static HOOK_DEPTH: Mutex<u32> = Mutex::new(0);
/// The hook displaced by the cell hook, restored when the last guard
/// drops. The cell hook reads this to delegate out-of-cell panics.
static PREVIOUS_HOOK: Mutex<Option<PanicHook>> = Mutex::new(None);

/// RAII installation of a panic hook that stays silent for panics
/// unwinding out of an isolated cell attempt and defers to the previous
/// hook everywhere else. Without this, every trapped or injected cell
/// would spray a backtrace on stderr even though the failure is caught,
/// classified, and reported through the table annotation and the `error`
/// JSONL record. The guard is reference-counted: the first install swaps
/// the process hook in, the last drop restores whatever was there before,
/// so embedding code (and the test harness itself) gets its own hook back
/// once no cell group is running.
struct CellHookGuard;

impl CellHookGuard {
    fn install() -> CellHookGuard {
        let mut depth = HOOK_DEPTH.lock().unwrap_or_else(|p| p.into_inner());
        if *depth == 0 {
            *PREVIOUS_HOOK.lock().unwrap_or_else(|p| p.into_inner()) =
                Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|info| {
                if IN_CELL.with(std::cell::Cell::get) {
                    return;
                }
                let previous = PREVIOUS_HOOK.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(previous) = previous.as_ref() {
                    previous(info);
                }
            }));
        }
        *depth += 1;
        CellHookGuard
    }
}

impl Drop for CellHookGuard {
    fn drop(&mut self) {
        let mut depth = HOOK_DEPTH.lock().unwrap_or_else(|p| p.into_inner());
        *depth -= 1;
        if *depth == 0 {
            // Bind the displaced hook *before* calling `set_hook`: the
            // temporary `MutexGuard` in `if let Some(prev) = LOCK.lock()…`
            // would live across the call, and `set_hook` synchronizes with
            // concurrently-running hooks that take the same lock.
            let previous = PREVIOUS_HOOK
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take();
            if let Some(previous) = previous {
                drop(std::panic::take_hook());
                std::panic::set_hook(previous);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Suite preparation.
// ---------------------------------------------------------------------

/// A compiled benchmark with its uninstrumented baseline run.
pub struct PreparedBench {
    /// Benchmark name.
    pub name: &'static str,
    /// The uninstrumented module.
    pub module: Module,
    /// The baseline outcome (original code, no checks, no samples).
    pub baseline: Outcome,
    /// Wall-clock time the front end took to produce the module — the
    /// denominator of the compile-time-increase column.
    pub frontend_time: Duration,
}

/// The compiled suite plus the benchmarks that failed to prepare: a cell
/// that traps or panics during compilation/baselining drops out of
/// `benches` and lands in `errors`, so experiments run on the survivors
/// and tables annotate the casualties.
pub struct PreparedSuite {
    /// Benchmarks that compiled and baselined, suite order.
    pub benches: Vec<PreparedBench>,
    /// Failures, suite order.
    pub errors: Vec<CellError>,
}

// ---------------------------------------------------------------------
// Instrumentation and execution.
// ---------------------------------------------------------------------

/// Which of the paper's two example instrumentations to apply.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kinds {
    /// Call-edge only (§4.2 example 1).
    CallEdge,
    /// Field-access only (§4.2 example 2).
    FieldAccess,
    /// Both at once (the §4.4 configuration).
    Both,
    /// No instrumentation (framework-overhead runs).
    None,
}

/// Builds the plan for the selected instrumentation kinds.
pub fn plan_for(module: &Module, kinds: Kinds) -> ModulePlan {
    let call = CallEdgeInstrumentation;
    let field = FieldAccessInstrumentation;
    let selected: Vec<&dyn Instrumentation> = match kinds {
        Kinds::CallEdge => vec![&call],
        Kinds::FieldAccess => vec![&field],
        Kinds::Both => vec![&call, &field],
        Kinds::None => vec![],
    };
    ModulePlan::build(module, &selected)
}

/// Instruments a module, returning the result, the transform statistics,
/// and the wall-clock transformation time (the numerator of the
/// compile-time-increase column).
///
/// # Panics
///
/// Panics on invalid option combinations — experiment code is expected to
/// pass valid ones.
pub fn instrument(
    module: &Module,
    kinds: Kinds,
    options: &Options,
) -> (Module, TransformStats, Duration) {
    let plan = plan_for(module, kinds);
    let start = Instant::now();
    let (out, stats) =
        instrument_module(module, &plan, options).expect("experiment configurations are valid");
    let elapsed = start.elapsed();
    emit::phase("instrument", elapsed);
    (out, stats, elapsed)
}

/// Fingerprints everything that determines the loaded code: the module's
/// canonical text plus the cost model and the engine it is loaded for.
fn prep_fingerprint(module: &Module, cost: &CostModel, engine: Engine) -> u64 {
    let h = journal::fnv1a(journal::FNV_OFFSET, module.to_string().as_bytes());
    journal::fnv1a(h, format!("{cost:?}/{}", engine.label()).as_bytes())
}

/// The `op.<opcode>.{count,instructions,cycles}` counter names, built
/// once per process.
fn op_counter_names() -> &'static [[String; 3]; NUM_OPCODES] {
    static NAMES: OnceLock<[[String; 3]; NUM_OPCODES]> = OnceLock::new();
    NAMES.get_or_init(|| {
        OPCODE_NAMES.map(|name| {
            ["count", "instructions", "cycles"].map(|field| format!("op.{name}.{field}"))
        })
    })
}

/// Folds one run's finished [`OpProfile`] into the metrics registry:
/// per-opcode dispatch/instruction/cycle counters, the dynamic
/// fused-vs-total instruction totals behind the fusion-coverage report,
/// and the per-trigger-kind inter-sample-gap and checks-per-sample
/// histograms of the §4.6 skew analysis. Each series is binned into a
/// local histogram and merged into the registry once. The caller counts
/// the run itself (`profile.runs`) only when it executed.
fn record_profile(profile: &OpProfile, trigger: Trigger) {
    let names = op_counter_names();
    for (op, _, count, instructions, cycles) in profile.nonzero() {
        let [count_name, instructions_name, cycles_name] = &names[op];
        metrics::counter_add(count_name, count);
        metrics::counter_add(instructions_name, instructions);
        metrics::counter_add(cycles_name, cycles);
    }
    metrics::counter_add("profile.fused_instructions", profile.fused_instructions());
    metrics::counter_add("profile.total_instructions", profile.total_instructions());
    let kind = trigger.kind_name();
    for (series, values) in [
        ("sample_gap_cycles", profile.sample_gap_cycles()),
        ("checks_per_sample", profile.checks_per_sample()),
    ] {
        if values.is_empty() {
            continue;
        }
        let mut histogram = metrics::Histogram::new();
        for &v in values {
            histogram.record(v);
        }
        metrics::histogram_merge(&format!("trigger.{kind}.{series}"), &histogram);
    }
}

/// One benchmark's fusion-coverage measurement: how much of its dynamic
/// instruction stream the prepared engine executed through fused
/// superinstructions.
pub struct FusionCoverage {
    /// Benchmark name.
    pub name: &'static str,
    /// Dynamic instructions executed under a fused dispatch.
    pub fused_instructions: u64,
    /// Total dynamic instructions.
    pub total_instructions: u64,
    /// `fused / total`, in percent.
    pub coverage_pct: f64,
}

impl Harness {
    /// Loads `module` for the harness engine ([`HarnessConfig::fuse`])
    /// under the harness cost model through the
    /// preparation cache, returning the (possibly shared) code.
    /// Experiments sweep the same program across many configurations —
    /// Table 4 alone runs one instrumented module at six sampling
    /// intervals, and every strategy re-compiles and re-baselines the
    /// whole suite — so sharing one preparation across cells (and across
    /// the workers that run them) removes most preparation work from a
    /// harness run. Each engine has cache keys of its own, so fused and
    /// unfused entries coexist in a shared cache.
    ///
    /// Counts one preparation *request* toward the current cell's
    /// `prepares` metric whether or not the cache already held the
    /// module: requests are a pure function of the cell's own work, so
    /// the JSONL `cell` records stay byte-identical however cells are
    /// scheduled. Hits and misses feed the metrics registry
    /// (`prep.cache.hits` / `prep.cache.misses`) when self-profiling is
    /// enabled: the miss total is the number of *distinct* fingerprints
    /// decoded and the hit total is requests minus misses, so both are
    /// themselves deterministic across job counts even though which
    /// worker pays each decode is not (that only surfaces in
    /// `ISF_LOG=debug`).
    pub fn cached_prepare(&self, module: &Module) -> Arc<Loaded> {
        note_prepare_request();
        let cost = CostModel::default();
        let engine = self.config.engine();
        let key = prep_fingerprint(module, &cost, engine);
        let (loaded, hit) = self.cache.get_or_init(key, || {
            Arc::new(Loaded {
                key,
                code: engine.load(module, &cost),
            })
        });
        if hit {
            metrics::counter_add("prep.cache.hits", 1);
            log::debug(&format!("[prep-cache] hit {key:016x}"));
        } else {
            metrics::counter_add("prep.cache.misses", 1);
            log::debug(&format!("[prep-cache] miss, decoded {key:016x}"));
        }
        loaded
    }

    /// Runs a module under the harness VM configuration (including the
    /// [`HarnessConfig::cell_budget`] cycle cap, when one is set),
    /// loading it through the preparation cache first. For a cell that
    /// runs the same module repeatedly, [`Harness::prepare_for_runs`] +
    /// [`Harness::run_prepared_module`] keeps the loaded code in hand
    /// across the sweep.
    ///
    /// # Panics
    ///
    /// Unwinds with a typed `CellTrap` payload if the program traps,
    /// which the cell isolation layer classifies into
    /// [`CellResult::Trapped`] or [`CellResult::Budget`] without taking
    /// sibling cells down.
    pub fn run_module(&self, module: &Module, trigger: Trigger) -> Outcome {
        let code = self.cached_prepare(module);
        self.run_prepared_module(&code, trigger)
    }

    /// Loads a module once, through the preparation cache, for repeated
    /// [`Harness::run_prepared_module`] runs: identical (program, cost,
    /// engine) requests across cells — Table 4's per-strategy suites, for
    /// instance — share one decode.
    pub fn prepare_for_runs(&self, module: &Module) -> Arc<Loaded> {
        let start = Instant::now();
        let code = self.cached_prepare(module);
        emit::phase("prepare", start.elapsed());
        code
    }

    /// Runs already-loaded code under the harness VM configuration
    /// (including the [`HarnessConfig::cell_budget`] cycle cap, when one
    /// is set). With self-profiling enabled the run records a dispatch
    /// profile, which is folded into the registry.
    ///
    /// A [`Trigger::Never`] run is a pure function of the code's
    /// fingerprint and the VM configuration, so it executes once per
    /// harness: a repeat is served from the run memo (`run.memo.hits`)
    /// and replays the stored profile, counting no `profile.runs`. Every
    /// repeat in the experiments is unsampled, and a sampled run never
    /// repeats, so the memo holds nothing else. A run under a watchdog
    /// token bypasses it: a wall-clock cancellation is not a function of
    /// those inputs.
    ///
    /// # Panics
    ///
    /// Unwinds with a typed `CellTrap` payload if the program traps,
    /// which the cell isolation layer classifies into
    /// [`CellResult::Trapped`] or [`CellResult::Budget`] without taking
    /// sibling cells down.
    pub fn run_prepared_module(&self, loaded: &Loaded, trigger: Trigger) -> Outcome {
        let cfg = self.config.vm_config(trigger);
        let start = Instant::now();
        let cancel = AttemptCancel::current();
        let profiled = metrics::enabled();
        let run = || {
            let request = cancel.apply(Request::new(&cfg));
            if profiled {
                let mut profile = OpProfile::new();
                let result = loaded.code.execute(request.profile(&mut profile));
                Ran {
                    result,
                    profile: Some(profile),
                }
            } else {
                Ran {
                    result: loaded.code.execute(request),
                    profile: None,
                }
            }
        };
        let (ran, hit) = if trigger == Trigger::Never && cancel.token().is_none() {
            self.memo
                .get_or_init((loaded.key, cfg, profiled), || Arc::new(run()))
        } else {
            (Arc::new(run()), false)
        };
        let shared = if hit {
            ran.profile
                .as_ref()
                .map_or(0, OpProfile::total_instructions)
        } else {
            0
        };
        // A memo entry stays in its slot; anything else is ours to take.
        finish_run(
            Arc::unwrap_or_clone(ran),
            trigger,
            hit,
            shared,
            start.elapsed(),
        )
    }

    /// Runs already-loaded code once per trigger of a counter-interval
    /// sweep — each [`Trigger::Never`] or [`Trigger::Counter`] — and
    /// returns the outcomes in `triggers` order, each exactly what
    /// [`Harness::run_prepared_module`] returns for its trigger. The
    /// prefix the runs share executes once
    /// ([`Code::execute_sweep`]); the instructions not dispatched again
    /// are counted in `run.shared_instructions`. Each outcome is
    /// profiled, noted and timed as its own run, the sweep's wall time
    /// split evenly among them.
    ///
    /// # Panics
    ///
    /// Unwinds like [`Harness::run_prepared_module`] at the first run, in
    /// `triggers` order, that trapped.
    pub fn run_sweep(&self, loaded: &Loaded, triggers: &[Trigger]) -> Vec<Outcome> {
        /// The sweep under profile sink `P`, whose recording `keep` turns
        /// into what [`finish_run`] folds.
        fn sweep<P: ProfileSink + Clone + Default>(
            h: &Harness,
            loaded: &Loaded,
            triggers: &[Trigger],
            keep: fn(P) -> Option<OpProfile>,
        ) -> Vec<(Ran, u64)> {
            let cancel = AttemptCancel::current();
            let cfg = h.config.vm_config(Trigger::Never);
            let runs: Vec<Swept<NoTrace, P>> =
                loaded
                    .code
                    .execute_sweep(&cfg, triggers, &SchedControl::default(), cancel.token());
            runs.into_iter()
                .map(|s| {
                    let ran = Ran {
                        result: s.result,
                        profile: keep(s.profile),
                    };
                    (ran, s.shared_instructions)
                })
                .collect()
        }
        let start = Instant::now();
        let runs = if metrics::enabled() {
            sweep::<OpProfile>(self, loaded, triggers, Some)
        } else {
            sweep::<NoMetrics>(self, loaded, triggers, |_| None)
        };
        let wall = start.elapsed() / triggers.len().max(1) as u32;
        runs.into_iter()
            .zip(triggers)
            .map(|((ran, shared), &trigger)| finish_run(ran, trigger, false, shared, wall))
            .collect()
    }

    /// Measures fusion coverage for every suite benchmark at `scale` by
    /// running each one uninstrumented under the profiled prepared engine
    /// (decodes come from the preparation cache, and a profiled baseline
    /// an experiment already ran comes from the run memo). Coverage
    /// totals also land in the registry as
    /// `fusion.<bench>.fused_instructions` / `.total_instructions`
    /// counters when profiling is enabled; nothing else is recorded. Runs
    /// on the calling thread and emits no JSONL, so the stream's cell
    /// records are untouched.
    pub fn fusion_coverage(&self, scale: Scale) -> Vec<FusionCoverage> {
        suite(scale)
            .iter()
            .map(|w| {
                let module = w.compile();
                let loaded = self.cached_prepare(&module);
                let cfg = VmConfig {
                    trigger: Trigger::Never,
                    ..VmConfig::default()
                };
                let (ran, _) = self.memo.get_or_init((loaded.key, cfg, true), || {
                    let mut profile = OpProfile::new();
                    let result = loaded
                        .code
                        .execute(Request::new(&cfg).profile(&mut profile));
                    Arc::new(Ran {
                        result,
                        profile: Some(profile),
                    })
                });
                let profile = ran.profile.as_ref().expect("a profiled run's entry");
                let c = FusionCoverage {
                    name: w.name(),
                    fused_instructions: profile.fused_instructions(),
                    total_instructions: profile.total_instructions(),
                    coverage_pct: profile.fusion_coverage_pct(),
                };
                metrics::counter_add(
                    &format!("fusion.{}.fused_instructions", c.name),
                    c.fused_instructions,
                );
                metrics::counter_add(
                    &format!("fusion.{}.total_instructions", c.name),
                    c.total_instructions,
                );
                c
            })
            .collect()
    }

    /// Convenience: instrument with `strategy`, run with `trigger`, return
    /// the overhead relative to the prepared baseline along with the
    /// outcome.
    pub fn overhead_of(
        &self,
        bench: &PreparedBench,
        kinds: Kinds,
        strategy: Strategy,
        trigger: Trigger,
    ) -> (f64, Outcome) {
        let (module, _, _) = instrument(&bench.module, kinds, &Options::new(strategy));
        let outcome = self.run_module(&module, trigger);
        let pct = outcome.overhead_vs(&bench.baseline);
        (pct, outcome)
    }

    /// The perfect (exhaustive) profile of a benchmark for the given kinds.
    pub fn perfect_profile(&self, bench: &PreparedBench, kinds: Kinds) -> isf_profile::ProfileData {
        let (module, _, _) = instrument(&bench.module, kinds, &Options::new(Strategy::Exhaustive));
        self.run_module(&module, Trigger::Never).profile
    }

    /// Compiles and baselines the whole suite at `scale`, one isolated
    /// cell per benchmark.
    pub fn prepare_suite(&self, scale: Scale) -> PreparedSuite {
        let workloads = suite(scale);
        let results = self.par_cells_isolated(
            workloads
                .iter()
                .map(|w| cell(format!("prepare/{}", w.name()), move || self.prepare(w)))
                .collect(),
        );
        let (benches, errors) = split_results(results);
        PreparedSuite { benches, errors }
    }

    /// Compiles and baselines one workload.
    pub fn prepare(&self, w: &Workload) -> PreparedBench {
        let start = Instant::now();
        let module = w.compile();
        let frontend_time = start.elapsed();
        emit::phase("compile", frontend_time);
        let baseline = self.run_module(&module, Trigger::Never);
        PreparedBench {
            name: w.name(),
            module,
            baseline,
            frontend_time,
        }
    }
}

/// The registry-backed preparation-cache fields a `summary` record
/// carries when self-profiling is enabled — empty otherwise, so
/// profiling-off streams stay byte-identical to pre-registry ones.
pub fn summary_profile_fields() -> Vec<(&'static str, Json)> {
    if !metrics::enabled() {
        return Vec::new();
    }
    let snap = metrics::snapshot();
    vec![
        ("prep_cache_hits", snap.counter("prep.cache.hits").into()),
        (
            "prep_cache_misses",
            snap.counter("prep.cache.misses").into(),
        ),
    ]
}

#[cfg(test)]
/// Serializes tests that flip the process-wide metrics gate
/// (`isf_obs::metrics::set_enabled`), poison-tolerantly: a test that
/// panics while holding it fails once instead of failing every later
/// holder too.
pub(crate) fn metrics_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default harness with `jobs` workers.
    fn with_jobs(jobs: usize) -> Harness {
        Harness::new(HarnessConfig {
            jobs,
            ..HarnessConfig::default()
        })
    }

    #[test]
    fn prepare_runs_baselines() {
        let w = isf_workloads::by_name("db", Scale::Smoke).unwrap();
        let b = Harness::default().prepare(&w);
        assert!(b.baseline.cycles > 0);
        assert_eq!(b.baseline.checks_executed, 0);
    }

    #[test]
    fn exhaustive_overhead_positive() {
        let h = Harness::default();
        let w = isf_workloads::by_name("jess", Scale::Smoke).unwrap();
        let b = h.prepare(&w);
        let (pct, o) = h.overhead_of(&b, Kinds::Both, Strategy::Exhaustive, Trigger::Never);
        assert!(pct > 0.0);
        assert!(o.profile.total_call_edge_events() > 0);
    }

    #[test]
    fn perfect_profile_nonempty() {
        let h = Harness::default();
        let w = isf_workloads::by_name("compress", Scale::Smoke).unwrap();
        let b = h.prepare(&w);
        let p = h.perfect_profile(&b, Kinds::Both);
        assert!(p.total_field_access_events() > 0);
        assert!(p.total_call_edge_events() > 0);
    }

    /// Runs `cells` isolated and unwraps every result.
    fn oks<R: Send>(h: &Harness, cells: Vec<Cell<'_, R>>) -> Vec<R> {
        h.par_cells_isolated(cells)
            .into_iter()
            .map(|r| r.into_result().unwrap_or_else(|e| panic!("cell {e}")))
            .collect()
    }

    #[test]
    fn par_cells_preserves_submission_order() {
        let cells = (0..37)
            .map(|i| cell(format!("order/{i}"), move || i * 3))
            .collect();
        let results = oks(&with_jobs(4), cells);
        assert_eq!(results, (0..37).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_cells_runs_borrowing_closures() {
        let data: Vec<u64> = (0..8).collect();
        let cells = data
            .iter()
            .map(|x| cell(format!("borrow/{x}"), move || x + 1))
            .collect();
        assert_eq!(
            oks(&Harness::default(), cells),
            (1..=8).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn run_inputs_fingerprint_is_derived_from_the_config() {
        // Pinned hex values: journals written before the configuration
        // became a value must still resume, so a default and a fully
        // result-shaping configuration keep their fingerprints — while
        // settings that do not shape results leave them alone.
        let experiments = ["table1".to_owned(), "table4".to_owned()];
        let fingerprint = |c: &HarnessConfig| {
            format!(
                "{:016x}",
                c.run_inputs(Scale::Smoke, &experiments).fingerprint()
            )
        };
        let default = HarnessConfig::default();
        assert_eq!(fingerprint(&default), "7b6ec393474ca120");
        let shaped = HarnessConfig {
            retries: 2,
            cell_budget: 50_000_000,
            fault: (0.25, 7),
            ..HarnessConfig::default()
        };
        assert_eq!(fingerprint(&shaped), "1dafa8b3b7e7cc60");
        let unshaped = HarnessConfig {
            jobs: default.jobs + 3,
            cell_deadline_ms: 500,
            fuse: !default.fuse,
            ..shaped.clone()
        };
        assert_eq!(fingerprint(&unshaped), fingerprint(&shaped));
    }

    #[test]
    fn cell_jsonl_is_byte_identical_across_job_counts() {
        // The machine-readable counterpart of table4's determinism test:
        // with wall-clock fields redacted, the JSONL cell stream — labels,
        // simulated cycles, instruction and preparation counts, order —
        // must not depend on the worker count. The emitter is per thread,
        // so this stream is the test's own.
        emit::set_mode(emit::EmitMode::Json);
        emit::set_redact(true);
        let run_once = |jobs: usize| {
            let t = crate::table1::run(&with_jobs(jobs), Scale::Smoke);
            t.emit_jsonl();
            emit::drain()
        };
        let serial = run_once(1);
        let parallel = run_once(8);
        emit::set_mode(emit::EmitMode::Off);
        emit::set_redact(false);
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel, "JSONL stream depends on the job count");
        let records = crate::jsonl::validate(&serial).expect("stream validates");
        // 10 prepare cells + 10 table cells + 10 rows + 1 summary.
        assert_eq!(records, 31);
        assert!(serial.contains("\"type\":\"cell\""));
        assert!(serial.contains("\"wall_ns\":0"), "wall fields are redacted");
    }

    #[test]
    fn preparation_cache_shares_decodes() {
        // The thread-local preparation counter isolates exactly what this
        // thread decoded regardless of concurrently running tests. The
        // hit/miss counters live in the metrics registry, so the test
        // profiles while holding the lock that serializes registry users.
        let _guard = metrics_test_lock();
        let h = Harness::default();
        metrics::set_enabled(true);
        let before = metrics::snapshot();
        let m = isf_frontend::compile("fn main() { print(424242); }").unwrap();
        let preps_before = isf_exec::thread_preparations();
        let first = h.cached_prepare(&m);
        assert_eq!(
            isf_exec::thread_preparations(),
            preps_before + 1,
            "first request pays the decode"
        );
        let second = h.cached_prepare(&m);
        assert_eq!(
            isf_exec::thread_preparations(),
            preps_before + 1,
            "second request is served from the cache"
        );
        let after = metrics::snapshot();
        metrics::set_enabled(false);
        assert!(
            Arc::ptr_eq(&first, &second),
            "both requests share one PreparedModule"
        );
        assert!(
            after.counter("prep.cache.misses") > before.counter("prep.cache.misses"),
            "the initial request counts as a registry miss"
        );
        assert!(
            after.counter("prep.cache.hits") > before.counter("prep.cache.hits"),
            "the repeat request counts as a registry hit"
        );
    }

    #[test]
    fn run_module_counts_requests_not_decodes() {
        // `prepares` in the cell record is the number of preparation
        // *requests* — a deterministic property of the cell's work — so a
        // cache hit must count exactly like the decode it avoided.
        let _guard = metrics_test_lock();
        let h = Harness::default();
        metrics::set_enabled(true);
        let m = isf_frontend::compile("fn main() { print(777001); }").unwrap();
        let run_once = || {
            let results = h.par_cells_isolated(vec![cell("prep-req/unique", || {
                h.run_module(&m, Trigger::Never).cycles
            })]);
            assert!(matches!(results[0], CellResult::Ok(_)));
        };
        run_once(); // decodes
        let hits_before = metrics::snapshot().counter("prep.cache.hits");
        run_once(); // hits
        let hits_after = metrics::snapshot().counter("prep.cache.hits");
        metrics::set_enabled(false);
        assert!(hits_after > hits_before, "second run hits the cache");
    }

    #[test]
    fn profiled_runs_fold_into_the_registry_and_match_unprofiled() {
        let _guard = metrics_test_lock();
        let h = Harness::default();
        let w = isf_workloads::by_name("compress", Scale::Smoke).unwrap();
        // Instrumented module: sampling checks are what feed the trigger
        // gap histograms (an uninstrumented program never samples).
        let (m, _, _) = instrument(
            &w.compile(),
            Kinds::Both,
            &Options::new(Strategy::FullDuplication),
        );
        let plain = h.run_module(&m, Trigger::Counter { interval: 50 });
        metrics::set_enabled(true);
        let before = metrics::snapshot();
        let profiled = h.run_module(&m, Trigger::Counter { interval: 50 });
        let coverage = h.fusion_coverage(Scale::Smoke);
        let snap = metrics::snapshot();
        metrics::set_enabled(false);
        assert_eq!(plain, profiled, "profiling must not change the outcome");
        // The registry is process-global and other tests may record while
        // profiling is on, so registry assertions are delta-based.
        let op_cycles = |s: &metrics::MetricsSnapshot| -> u64 {
            s.counters
                .iter()
                .filter(|(k, _)| k.starts_with("op.") && k.ends_with(".cycles"))
                .map(|(_, &v)| v)
                .sum()
        };
        assert!(
            op_cycles(&snap) >= op_cycles(&before) + profiled.cycles,
            "the profiled run's cycles are attributed to opcodes"
        );
        // The counter trigger's gap histogram grew by one entry per sample.
        let gap_count = |s: &metrics::MetricsSnapshot| {
            s.histograms
                .get("trigger.counter.sample_gap_cycles")
                .map_or(0, isf_obs::metrics::Histogram::count)
        };
        assert!(profiled.samples_taken > 0, "interval 50 samples at smoke");
        assert!(gap_count(&snap) >= gap_count(&before) + profiled.samples_taken);
        // Fusion coverage is measured for the whole suite and is high on
        // the loop-heavy benchmarks, or nil with fusion off.
        assert_eq!(coverage.len(), suite(Scale::Smoke).len());
        let compress = coverage.iter().find(|c| c.name == "compress").unwrap();
        assert!(compress.total_instructions > 0);
        if h.config.fuse {
            assert!(
                compress.coverage_pct > 10.0,
                "compress fusion coverage {:.1}% unexpectedly low",
                compress.coverage_pct
            );
        } else {
            assert_eq!(compress.fused_instructions, 0, "fusion off fused ops");
        }
        assert_eq!(
            snap.counter("fusion.compress.total_instructions"),
            compress.total_instructions
        );
    }

    #[test]
    fn runs_under_an_armed_token_bypass_the_run_memo() {
        let m = isf_frontend::compile(
            "fn main() { var i = 0; while (i < 10) { i = i + 1; } print(i); }",
        )
        .unwrap();
        // Never stored: armed runs leave the memo empty.
        let h = Harness::default();
        let loaded = h.prepare_for_runs(&m);
        AttemptCancel::set(Some(CancelToken::new()));
        let armed = h.run_prepared_module(&loaded, Trigger::Never);
        let again = h.run_prepared_module(&loaded, Trigger::Never);
        AttemptCancel::set(None);
        assert_eq!(armed, again);
        assert_eq!(h.memo_len(), 0, "a run under an armed token was stored");
        // Never served: with the clean outcome stored, a run under a fired
        // token executes and traps at its first loop jump.
        let clean = h.run_prepared_module(&loaded, Trigger::Never);
        assert_eq!((clean, h.memo_len()), (armed, 1));
        let fired = CancelToken::new();
        fired.cancel();
        AttemptCancel::set(Some(fired));
        let cancelled = std::panic::catch_unwind(AssertUnwindSafe(|| {
            h.run_prepared_module(&loaded, Trigger::Never)
        }));
        AttemptCancel::set(None);
        let payload = cancelled.expect_err("a fired token's run was served from the memo");
        let trap = payload.downcast::<CellTrap>().expect("the run trapped");
        assert_eq!(trap.0.kind, isf_exec::TrapKind::Cancelled);
    }

    #[test]
    fn sweep_outcomes_match_separate_runs() {
        let h = Harness::default();
        let w = isf_workloads::by_name("jess", Scale::Smoke).unwrap();
        let (m, _, _) = instrument(
            &w.compile(),
            Kinds::Both,
            &Options::new(Strategy::FullDuplication),
        );
        let loaded = h.prepare_for_runs(&m);
        let triggers = [1, 1_000_000, 7, 0, 100].map(|interval| Trigger::Counter { interval });
        let triggers = [&triggers[..2], &[Trigger::Never], &triggers[2..]].concat();
        let swept = h.run_sweep(&loaded, &triggers);
        for (trigger, outcome) in triggers.iter().zip(&swept) {
            let separate = h.run_prepared_module(&loaded, *trigger);
            assert_eq!(outcome, &separate, "{trigger:?}");
        }
    }

    #[test]
    fn prepared_run_matches_unprepared() {
        let h = Harness::default();
        let w = isf_workloads::by_name("db", Scale::Smoke).unwrap();
        let m = w.compile();
        let p = h.prepare_for_runs(&m);
        let direct = h.run_module(&m, Trigger::Counter { interval: 7 });
        let replay = h.run_prepared_module(&p, Trigger::Counter { interval: 7 });
        assert_eq!(direct, replay);
    }

    #[test]
    fn parse_fault_spec_accepts_and_rejects() {
        assert_eq!(parse_fault_spec("p=0.3"), Ok((0.3, 0)));
        assert_eq!(parse_fault_spec("p=0.25,seed=42"), Ok((0.25, 42)));
        assert_eq!(parse_fault_spec("p=1"), Ok((1.0, 0)));
        assert!(parse_fault_spec("p=1.5").is_err());
        assert!(parse_fault_spec("p=-0.1").is_err());
        assert!(parse_fault_spec("seed=3").is_err());
        assert!(parse_fault_spec("p=0.3,seed=x").is_err());
        assert!(parse_fault_spec("frequency=0.3").is_err());
        assert!(parse_fault_spec("").is_err());
    }

    #[test]
    fn fault_roll_is_deterministic_and_tracks_probability() {
        // Pure function of (p, seed, label, attempt): identical inputs give
        // identical decisions, p = 0 never fires, p = 1 always fires, and
        // intermediate p fires at roughly its rate over many labels.
        for attempt in 1..4 {
            assert_eq!(
                roll(0.5, 7, "table1/db", attempt),
                roll(0.5, 7, "table1/db", attempt)
            );
            assert_eq!(roll(0.0, 7, "table1/db", attempt), None);
            assert!(roll(1.0, 7, "table1/db", attempt).is_some());
        }
        let fired = (0..1000)
            .filter(|i| roll(0.3, 9, &format!("cell/{i}"), 1).is_some())
            .count();
        assert!((150..450).contains(&fired), "fired {fired}/1000 at p=0.3");
        // A retried attempt rolls fresh: some label must decide differently
        // between attempts.
        assert!((0..100).any(|i| {
            let label = format!("cell/{i}");
            roll(0.5, 7, &label, 1).is_some() != roll(0.5, 7, &label, 2).is_some()
        }));
    }

    #[test]
    fn isolated_cells_classify_failures_and_siblings_complete() {
        let mk_cells = || {
            vec![
                cell("iso/ok-1", || 1u64),
                cell("iso/trap", || -> u64 {
                    std::panic::panic_any(CellTrap(VmError {
                        kind: isf_exec::TrapKind::DivisionByZero,
                        function: "f".to_owned(),
                    }))
                }),
                cell("iso/panic", || -> u64 { panic!("boom") }),
                cell("iso/budget", || -> u64 {
                    std::panic::panic_any(CellTrap(VmError {
                        kind: isf_exec::TrapKind::FuelExhausted(99),
                        function: "g".to_owned(),
                    }))
                }),
                cell("iso/ok-2", || 2u64),
            ]
        };
        let check = |results: Vec<CellResult<u64>>| {
            assert!(matches!(results[0], CellResult::Ok(1)));
            match &results[1] {
                CellResult::Trapped(e) => {
                    assert_eq!(e.kind, "trap");
                    assert_eq!(e.detail, "trap in `f`: division by zero");
                    assert_eq!(e.attempts, 1);
                }
                other => panic!("expected trap, got {other:?}"),
            }
            match &results[2] {
                CellResult::Panicked(e) => assert_eq!(e.detail, "boom"),
                other => panic!("expected panic, got {other:?}"),
            }
            match &results[3] {
                CellResult::Budget(e) => {
                    assert_eq!(e.kind, "budget");
                    assert_eq!(e.detail, "trap in `g`: cycle budget of 99 exceeded");
                }
                other => panic!("expected budget, got {other:?}"),
            }
            assert!(matches!(results[4], CellResult::Ok(2)));
        };
        for jobs in [1, 4] {
            check(with_jobs(jobs).par_cells_isolated(mk_cells()));
        }
    }

    #[test]
    fn error_jsonl_is_byte_identical_across_job_counts() {
        // Failure records obey the same determinism contract as cell
        // records: emitted on the calling thread in submission order,
        // byte-identical however many workers ran the cells.
        emit::set_mode(emit::EmitMode::Json);
        emit::set_redact(true);
        let run_once = |jobs: usize| {
            let cells = (0..12)
                .map(|i| {
                    cell(format!("mix/{i}"), move || -> u64 {
                        if i % 3 == 0 {
                            std::panic::panic_any(CellTrap(VmError {
                                kind: isf_exec::TrapKind::NullDereference,
                                function: format!("f{i}"),
                            }));
                        }
                        i
                    })
                })
                .collect();
            let results = with_jobs(jobs).par_cells_isolated(cells);
            let (oks, errors) = split_results(results);
            assert_eq!(oks.len(), 8);
            assert_eq!(errors.len(), 4);
            emit::drain()
        };
        let serial = run_once(1);
        let parallel = run_once(4);
        emit::set_mode(emit::EmitMode::Off);
        emit::set_redact(false);
        assert_eq!(serial, parallel, "error stream depends on the job count");
        // 12 cell records + 4 error records, each error right after its
        // cell, in submission order.
        assert_eq!(crate::jsonl::validate(&serial), Ok(16));
        let lines: Vec<&str> = serial.lines().collect();
        assert!(lines[0].contains("\"label\":\"mix/0\""));
        assert!(lines[1].contains("\"type\":\"error\""));
        assert!(lines[1].contains("\"kind\":\"trap\""));
        assert!(lines[1].contains("null dereference"));
    }

    #[test]
    fn panicked_cells_retry_up_to_the_bound() {
        let retrying = |retries| {
            Harness::new(HarnessConfig {
                retries,
                ..HarnessConfig::default()
            })
        };
        let attempts = std::sync::atomic::AtomicU32::new(0);
        let results =
            retrying(2).par_cells_isolated(vec![cell("retry/always-fails", || -> u64 {
                attempts.fetch_add(1, Ordering::Relaxed);
                panic!("flaky")
            })]);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        match &results[0] {
            CellResult::Panicked(e) => {
                assert_eq!(e.attempts, 3);
                assert_eq!(e.detail, "flaky");
            }
            other => panic!("expected panic, got {other:?}"),
        }
        // Traps are deterministic: never retried even with retries set.
        let trap_attempts = std::sync::atomic::AtomicU32::new(0);
        let results = retrying(5).par_cells_isolated(vec![cell("retry/trap", || -> u64 {
            trap_attempts.fetch_add(1, Ordering::Relaxed);
            std::panic::panic_any(CellTrap(VmError {
                kind: isf_exec::TrapKind::DivisionByZero,
                function: "f".to_owned(),
            }))
        })]);
        assert_eq!(trap_attempts.load(Ordering::Relaxed), 1);
        assert!(matches!(&results[0], CellResult::Trapped(e) if e.attempts == 1));
    }

    #[test]
    fn deadlined_cells_become_deadline_failures_that_retry_like_panics() {
        let h = Harness::new(HarnessConfig {
            retries: 1,
            cell_deadline_ms: 20,
            ..HarnessConfig::default()
        });
        let attempts = std::sync::atomic::AtomicU32::new(0);
        let m = isf_frontend::compile("fn main() { while (true) { } }").unwrap();
        let results = h.par_cells_isolated(vec![cell("deadline/spin", || {
            attempts.fetch_add(1, Ordering::Relaxed);
            h.run_module(&m, Trigger::Never).cycles
        })]);
        // Cancelled attempts are retried like panics (and unlike budget
        // traps): 1 + the configured retry.
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        match &results[0] {
            CellResult::Deadline(e) => {
                assert_eq!(e.kind, "deadline");
                assert_eq!(e.detail, "cell deadline of 20 ms exceeded");
                assert_eq!(e.attempts, 2);
            }
            other => panic!("expected deadline failure, got {other:?}"),
        }
        // A fresh deadline marks the run resumable.
        assert!(h.deadline_hit());
    }

    #[test]
    fn deadline_errors_roundtrip_through_the_journal_codec() {
        let err = Json::obj([
            ("type", "error".into()),
            ("label", "spin/hang".into()),
            ("kind", "deadline".into()),
            ("detail", "cell deadline of 200 ms exceeded".into()),
            ("attempts", 2u64.into()),
        ]);
        let r: CellResult<u64> = decode_error(&err).expect("deadline errors decode");
        match &r {
            CellResult::Deadline(e) => {
                assert_eq!(e.label, "spin/hang");
                assert_eq!(e.kind, "deadline");
                assert_eq!(e.detail, "cell deadline of 200 ms exceeded");
                assert_eq!(e.attempts, 2);
            }
            other => panic!("expected a replayed deadline, got {other:?}"),
        }
        assert!(r.into_result().is_err(), "a deadline is still a failure");
        let unknown = Json::obj([
            ("type", "error".into()),
            ("label", "x".into()),
            ("kind", "timeout".into()),
            ("detail", "d".into()),
            ("attempts", 1u64.into()),
        ]);
        assert!(
            decode_error::<u64>(&unknown).is_none(),
            "unknown kinds must not decode"
        );
    }

    #[test]
    fn cell_budget_turns_runaway_cells_into_budget_failures() {
        let h = Harness::new(HarnessConfig {
            cell_budget: 1_000,
            ..HarnessConfig::default()
        });
        let w = isf_workloads::by_name("db", Scale::Smoke).unwrap();
        let m = w.compile();
        let results = h.par_cells_isolated(vec![cell("budget/db", || {
            h.run_module(&m, Trigger::Never).cycles
        })]);
        match &results[0] {
            CellResult::Budget(e) => {
                assert_eq!(e.kind, "budget");
                assert!(e.detail.contains("cycle budget of 1000 exceeded"), "{e}");
            }
            other => panic!("expected budget failure, got {other:?}"),
        }
    }
}

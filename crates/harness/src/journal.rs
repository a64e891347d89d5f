//! Crash-safe cell journal: the durability layer behind `--journal` /
//! `--resume`.
//!
//! A journal is an append-only JSONL file. Its first line is a *header*
//! record naming every input that determines cell results — crate
//! version, scale, experiment list, budgets, fault injection, the VM
//! configuration — folded into an FNV-1a fingerprint (the same hash
//! machinery fault injection uses). Each finished cell then becomes one
//! fsync'd `journal-cell` line carrying the cell's raw metrics, its
//! classified failure (if any), an experiment-specific result payload,
//! and the phase sections the cell contributed. Because every cell is a
//! pure function of the header inputs, a journaled result can be replayed
//! verbatim on `--resume` and the resumed stdout/JSONL stream is
//! byte-identical to an uninterrupted run's.
//!
//! Robustness contract:
//!
//! - the header is written atomically (temp file + rename), so a crash
//!   during journal creation never leaves a half-written header;
//! - each cell line is one `write_all` + `sync_data`, so a crash can only
//!   damage the *final* line, and only by truncating it — resume drops an
//!   unterminated tail and keeps the surviving prefix;
//! - any other damage (a terminated line that does not parse, a missing
//!   header, a line that breaks the record grammar) is refused outright
//!   with a diagnostic, as is a fingerprint mismatch — a stale journal is
//!   never silently reused.
//!
//! The record grammar is not restated here: every line passes the same
//! schema check as `validate-jsonl` ([`crate::jsonl`]), and this module
//! adds only the journal's own meaning — the header comes first, its
//! fingerprint matches this run's (a refusal names each changed input),
//! each cell's key matches its label, and the values are decoded.
//!
//! The module also owns the interrupt *drain* flag: signal handlers call
//! [`request_drain`], workers stop claiming new cells, in-flight cells
//! finish and are journaled, and the process exits with
//! [`RESUMABLE_EXIT`] so callers can distinguish "interrupted but
//! resumable" from failure.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use isf_obs::{emit, json, log, Json};

use crate::jsonl;

/// Exit code of a run interrupted by SIGINT/SIGTERM after draining: the
/// run is incomplete but every finished cell is journaled, so rerunning
/// with `--resume` completes it. 75 is `EX_TEMPFAIL` — "try again".
pub const RESUMABLE_EXIT: i32 = 75;

/// The journal format identifier written in the header record.
pub const SCHEMA: &str = "isf-journal/1";

// ---------------------------------------------------------------------
// FNV-1a — shared with fault injection's deterministic roll.
// ---------------------------------------------------------------------

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash state.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The journal key of a cell: the run fingerprint folded with the cell
/// label, so a key only matches when both the run inputs and the cell
/// identity do.
pub(crate) fn cell_key(fingerprint: u64, label: &str) -> u64 {
    fnv1a(fnv1a(fingerprint, label.as_bytes()), &[0x00])
}

// ---------------------------------------------------------------------
// Run inputs and their fingerprint.
// ---------------------------------------------------------------------

/// Everything that determines cell results: change any field and every
/// journaled result is potentially invalid, so the fingerprint — and with
/// it the whole journal — changes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunInputs {
    /// The harness crate version (results may change between releases).
    pub version: String,
    /// Workload scale name (`smoke`, `default`, `paper`).
    pub scale: String,
    /// The expanded experiment list, in run order.
    pub experiments: Vec<String>,
    /// Per-cell simulated-cycle cap (0 = uncapped).
    pub cell_budget: u64,
    /// Bounded retry count for panicked cells.
    pub retries: u64,
    /// Fault-injection probability as `f64` bits (0 = off).
    pub fault_prob_bits: u64,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// `Debug` rendering of the base VM configuration (cost model,
    /// execution limits).
    pub vm_config: String,
}

impl RunInputs {
    /// The FNV-1a fingerprint over every field, with separators so field
    /// boundaries cannot alias.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, SCHEMA.as_bytes());
        let field = |h: u64, bytes: &[u8]| fnv1a(fnv1a(h, bytes), &[0xff]);
        h = field(h, self.version.as_bytes());
        h = field(h, self.scale.as_bytes());
        for e in &self.experiments {
            h = field(h, e.as_bytes());
        }
        h = field(h, &self.cell_budget.to_le_bytes());
        h = field(h, &self.retries.to_le_bytes());
        h = field(h, &self.fault_prob_bits.to_le_bytes());
        h = field(h, &self.fault_seed.to_le_bytes());
        h = field(h, self.vm_config.as_bytes());
        h
    }

    /// The `journal-meta` header record: the fingerprint plus every input
    /// in the clear, so a stale journal can be diagnosed field by field.
    fn header_record(&self) -> Json {
        Json::obj([
            ("type", "journal-meta".into()),
            ("schema", SCHEMA.into()),
            ("fingerprint", format!("{:016x}", self.fingerprint()).into()),
            ("version", self.version.as_str().into()),
            ("scale", self.scale.as_str().into()),
            (
                "experiments",
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
            ("cell_budget", self.cell_budget.into()),
            ("retries", self.retries.into()),
            ("fault_prob_bits", self.fault_prob_bits.into()),
            ("fault_seed", self.fault_seed.into()),
            ("vm_config", self.vm_config.as_str().into()),
        ])
    }

    /// Human-readable list of fields on which `self` and a journal header
    /// disagree, for the stale-journal diagnostic.
    fn diff_header(&self, header: &Json) -> Vec<String> {
        let text = |name: &'static str, ours: &str| {
            (name, ours.to_owned(), str_field(header, name).to_owned())
        };
        let number = |name: &'static str, ours: u64| {
            (name, ours.to_string(), u64_field(header, name).to_string())
        };
        let experiments = header.get("experiments").and_then(Json::as_arr);
        let experiments: Vec<&str> = experiments
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let fields = [
            text("version", &self.version),
            text("scale", &self.scale),
            (
                "experiments",
                self.experiments.join(","),
                experiments.join(","),
            ),
            number("cell_budget", self.cell_budget),
            number("retries", self.retries),
            number("fault_prob_bits", self.fault_prob_bits),
            number("fault_seed", self.fault_seed),
            text("vm_config", &self.vm_config),
        ];
        fields
            .into_iter()
            .filter(|(_, ours, theirs)| ours != theirs)
            .map(|(name, ours, theirs)| {
                format!("{name}: journal has {theirs}, this run has {ours}")
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Why a journal could not be created or resumed from.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the journal file failed.
    Io(String),
    /// The journal's contents are damaged beyond the tolerated truncated
    /// final line.
    Corrupt(String),
    /// The journal was written by a run with different key inputs and
    /// must not be reused.
    Stale(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(m) => write!(f, "journal I/O error: {m}"),
            JournalError::Corrupt(m) => write!(f, "corrupt journal: {m}"),
            JournalError::Stale(m) => write!(f, "stale journal: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(context: &str, path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io(format!("{context} {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Journal state.
// ---------------------------------------------------------------------

/// One journaled cell, parsed back for replay. The `cell` and `error`
/// records hold *raw* (unredacted) values; redaction is re-applied at
/// emission time on the main thread, exactly as for a freshly run cell.
#[derive(Clone, Debug)]
pub(crate) struct ReplayCell {
    /// The cell's raw metrics record (`type: cell`, wall fields raw).
    pub cell: Json,
    /// The cell's failure record (`type: error`), if it failed.
    pub error: Option<Json>,
    /// The experiment-specific result payload, if the cell succeeded.
    pub payload: Option<Json>,
    /// Phase sections the cell contributed: `(name, count, wall_ns)`.
    pub phases: Vec<(String, u64, u64)>,
}

struct JournalState {
    fingerprint: u64,
    path: PathBuf,
    file: Mutex<File>,
    replay: HashMap<String, Arc<ReplayCell>>,
}

static JOURNAL: Mutex<Option<Arc<JournalState>>> = Mutex::new(None);
static DRAIN: AtomicBool = AtomicBool::new(false);

fn active_state() -> Option<Arc<JournalState>> {
    JOURNAL
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// Whether a journal is currently attached to the process.
pub fn is_active() -> bool {
    active_state().is_some()
}

/// Detaches the journal and clears the drain flag. Called at the end of a
/// run and by tests that attach journals.
pub fn deactivate() {
    *JOURNAL.lock().unwrap_or_else(|p| p.into_inner()) = None;
    DRAIN.store(false, Ordering::SeqCst);
}

/// Flags a graceful drain: workers stop claiming new cells, in-flight
/// cells finish and are journaled, and the run exits [`RESUMABLE_EXIT`].
/// The only work the signal handler does — an atomic store is
/// async-signal-safe.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Whether a graceful drain has been requested.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------
// Creating and resuming journals.
// ---------------------------------------------------------------------

/// Starts a fresh journal at `path`, replacing any existing file. The
/// header is written to a temporary sibling and renamed into place, so an
/// interrupted start never leaves a journal with a torn header.
///
/// # Errors
///
/// [`JournalError::Io`] if the header cannot be written.
pub fn start_fresh(path: &Path, inputs: &RunInputs) -> Result<(), JournalError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, &e))?;
    let header = format!("{}\n", inputs.header_record());
    file.write_all(header.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| io_err("cannot write header to", &tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("cannot rename journal into", path, &e))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = File::open(dir).and_then(|d| d.sync_all());
    }
    install(JournalState {
        fingerprint: inputs.fingerprint(),
        path: path.to_owned(),
        file: Mutex::new(file),
        replay: HashMap::new(),
    });
    Ok(())
}

/// Opens an existing journal at `path` for resumption: validates the
/// header against `inputs`, parses every journaled cell, drops a
/// truncated final line (restoring the file to its valid prefix), and
/// attaches the journal so new cells append after the survivors. Returns
/// the number of replayable cells.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read; [`JournalError::Stale`]
/// if the header fingerprint does not match `inputs` (the diagnostic names
/// each differing field); [`JournalError::Corrupt`] for damage beyond a
/// truncated final line.
pub fn open_resume(path: &Path, inputs: &RunInputs) -> Result<usize, JournalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| io_err("cannot open", path, &e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("cannot read", path, &e))?;
    let parsed = parse_journal(&bytes, inputs)?;
    if parsed.valid_len < bytes.len() {
        log::debug(&format!(
            "[journal] dropping {} bytes of truncated tail from {}",
            bytes.len() - parsed.valid_len,
            path.display()
        ));
        file.set_len(parsed.valid_len as u64)
            .map_err(|e| io_err("cannot truncate", path, &e))?;
    }
    file.seek(SeekFrom::Start(parsed.valid_len as u64))
        .map_err(|e| io_err("cannot seek", path, &e))?;
    let cells = parsed.cells.len();
    install(JournalState {
        fingerprint: inputs.fingerprint(),
        path: path.to_owned(),
        file: Mutex::new(file),
        replay: parsed.cells,
    });
    Ok(cells)
}

fn install(state: JournalState) {
    *JOURNAL.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(state));
}

/// A parsed journal: the replayable cells keyed by label, and the byte
/// length of the valid prefix (everything before a truncated final line).
#[derive(Debug)]
struct ParsedJournal {
    cells: HashMap<String, Arc<ReplayCell>>,
    valid_len: usize,
}

/// Parses journal bytes, validating the header against `inputs`. Pure, so
/// the truncation proptest can exercise it on arbitrary prefixes.
fn parse_journal(bytes: &[u8], inputs: &RunInputs) -> Result<ParsedJournal, JournalError> {
    let fingerprint = inputs.fingerprint();
    let mut cells = HashMap::new();
    let mut offset = 0usize;
    let mut line_no = 0usize;
    let mut header_seen = false;
    while offset < bytes.len() {
        let Some(rel) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            // Unterminated tail: the crash artifact we tolerate. Each cell
            // line is one write + fsync, so only the final line can be
            // partial; drop it and keep the surviving prefix.
            break;
        };
        let line_bytes = &bytes[offset..offset + rel];
        line_no += 1;
        let corrupt = |m: String| JournalError::Corrupt(format!("line {line_no}: {m}"));
        let text =
            std::str::from_utf8(line_bytes).map_err(|_| corrupt("not valid UTF-8".to_owned()))?;
        let record = json::parse(text).map_err(|e| corrupt(format!("not valid JSON: {e}")))?;
        let kind = str_field(&record, "type");
        if !header_seen && kind != "journal-meta" {
            return Err(corrupt(format!(
                "first record is `{kind}`, expected the `journal-meta` header"
            )));
        }
        jsonl::check_record(&record).map_err(corrupt)?;
        if !header_seen {
            check_header(&record, inputs, fingerprint)?;
            header_seen = true;
        } else if kind == "journal-cell" {
            let (label, cell) = parse_cell(&record, fingerprint).map_err(corrupt)?;
            cells.insert(label, Arc::new(cell));
        } else {
            return Err(corrupt(format!("unknown journal record type `{kind}`")));
        }
        offset += rel + 1;
    }
    if !header_seen {
        return Err(JournalError::Corrupt(
            "no complete `journal-meta` header record; the journal cannot be resumed".to_owned(),
        ));
    }
    Ok(ParsedJournal {
        cells,
        valid_len: offset,
    })
}

// The decoders below run after `jsonl::check_record`, so every field the
// schema requires is present with its type and pattern: they read values
// without checking them again, and check only what the schema cannot, the
// run's fingerprint and the cells' keys.

/// A string field of a checked record.
fn str_field<'a>(record: &'a Json, name: &str) -> &'a str {
    record.get(name).and_then(Json::as_str).unwrap_or_default()
}

/// A non-negative integer field of a checked record.
fn u64_field(record: &Json, name: &str) -> u64 {
    record.get(name).and_then(Json::as_u64).unwrap_or_default()
}

/// Refuses a header whose fingerprint differs from this run's, naming
/// every input that changed.
fn check_header(record: &Json, inputs: &RunInputs, fingerprint: u64) -> Result<(), JournalError> {
    let ours = format!("{fingerprint:016x}");
    let theirs = str_field(record, "fingerprint");
    if theirs != ours {
        let mut diffs = inputs.diff_header(record);
        if diffs.is_empty() {
            diffs.push("fingerprint differs but no named field does".to_owned());
        }
        return Err(JournalError::Stale(format!(
            "journal fingerprint {theirs} does not match this run's {ours} \
             ({}); delete the journal or rerun without --resume",
            diffs.join("; ")
        )));
    }
    Ok(())
}

/// Decodes a `journal-cell` record whose key matches its label under
/// this run's fingerprint.
fn parse_cell(record: &Json, fingerprint: u64) -> Result<(String, ReplayCell), String> {
    let label = str_field(record, "label");
    let key = str_field(record, "key");
    if key != format!("{:016x}", cell_key(fingerprint, label)) {
        return Err(format!(
            "key {key} does not match cell `{label}` under this run's fingerprint"
        ));
    }
    let phases = record
        .get("phases")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    Ok((
        label.to_owned(),
        ReplayCell {
            cell: record.get("cell").cloned().unwrap_or(Json::Null),
            error: record.get("error").cloned(),
            payload: record.get("payload").cloned(),
            phases: phases
                .iter()
                .map(|p| {
                    let name = str_field(p, "name").to_owned();
                    (name, u64_field(p, "count"), u64_field(p, "wall_ns"))
                })
                .collect(),
        },
    ))
}

// ---------------------------------------------------------------------
// The hot path: lookup and append.
// ---------------------------------------------------------------------

/// The replayable result for `label`, if the attached journal has one.
pub(crate) fn lookup(label: &str) -> Option<Arc<ReplayCell>> {
    active_state()?.replay.get(label).cloned()
}

/// Appends one finished cell to the attached journal (no-op when none is
/// attached): a single `write_all` of the whole line followed by
/// `sync_data`, so a crash can only truncate the final line. A failing
/// append is logged but does not take the run down — the journal degrades
/// to a shorter resume prefix.
///
/// Public so the integration-test crate can build journals through the
/// real write path; the harness itself appends via the cell engine.
pub fn append(
    label: &str,
    cell: &Json,
    error: Option<&Json>,
    payload: Option<&Json>,
    phases: &[emit::PhaseTotal],
) {
    let Some(state) = active_state() else {
        return;
    };
    let key = cell_key(state.fingerprint, label);
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("type", "journal-cell".into()),
        ("key", format!("{key:016x}").into()),
        ("label", label.into()),
        ("cell", cell.clone()),
    ];
    if let Some(e) = error {
        pairs.push(("error", e.clone()));
    }
    if let Some(p) = payload {
        pairs.push(("payload", p.clone()));
    }
    pairs.push((
        "phases",
        Json::Arr(
            phases
                .iter()
                .map(|p| {
                    Json::obj([
                        ("name", p.name.as_str().into()),
                        ("count", p.count.into()),
                        ("wall_ns", p.wall_ns.into()),
                    ])
                })
                .collect(),
        ),
    ));
    let line = format!("{}\n", Json::obj(pairs));
    let mut file = state.file.lock().unwrap_or_else(|p| p.into_inner());
    if let Err(e) = file
        .write_all(line.as_bytes())
        .and_then(|()| file.sync_data())
    {
        log::error(&format!(
            "[journal] failed to append cell `{label}` to {}: {e}",
            state.path.display()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that attach the process-wide journal,
    /// poison-tolerantly, so one failure reports once.
    fn journal_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn inputs() -> RunInputs {
        RunInputs {
            version: "1.2.3".to_owned(),
            scale: "smoke".to_owned(),
            experiments: vec!["table1".to_owned(), "table4".to_owned()],
            cell_budget: 0,
            retries: 0,
            fault_prob_bits: 0,
            fault_seed: 0,
            vm_config: "VmConfig { .. }".to_owned(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("isf-journal-{tag}-{}.jsonl", std::process::id()))
    }

    fn phases() -> Vec<emit::PhaseTotal> {
        vec![emit::PhaseTotal {
            name: "run".to_owned(),
            count: 2,
            wall_ns: 99,
        }]
    }

    #[test]
    fn fingerprint_changes_with_every_input() {
        let base = inputs().fingerprint();
        let variants = [
            RunInputs {
                version: "9.9.9".to_owned(),
                ..inputs()
            },
            RunInputs {
                scale: "paper".to_owned(),
                ..inputs()
            },
            RunInputs {
                experiments: vec!["table1".to_owned()],
                ..inputs()
            },
            RunInputs {
                cell_budget: 5,
                ..inputs()
            },
            RunInputs {
                retries: 1,
                ..inputs()
            },
            RunInputs {
                fault_prob_bits: 0.5f64.to_bits(),
                ..inputs()
            },
            RunInputs {
                fault_seed: 7,
                ..inputs()
            },
            RunInputs {
                vm_config: "VmConfig { other }".to_owned(),
                ..inputs()
            },
        ];
        for v in variants {
            assert_ne!(v.fingerprint(), base, "{v:?} should change the fingerprint");
        }
        assert_eq!(inputs().fingerprint(), base, "fingerprint is stable");
    }

    #[test]
    fn round_trip_through_a_real_file() {
        let _guard = journal_lock();
        let path = temp_path("roundtrip");
        start_fresh(&path, &inputs()).expect("start fresh");
        assert!(is_active());
        let cell = Json::obj([("type", "cell".into()), ("label", "table1/db".into())]);
        let payload = Json::obj([("call_edge", Json::Num(1.5))]);
        append("table1/db", &cell, None, Some(&payload), &phases());
        deactivate();
        // The header and the cell line satisfy the schema, as written with
        // the default `retries` of 0.
        let written = std::fs::read_to_string(&path).expect("read journal");
        assert_eq!(jsonl::validate(&written), Ok(2), "{written}");

        let replayed = open_resume(&path, &inputs()).expect("resume");
        assert_eq!(replayed, 1);
        let r = lookup("table1/db").expect("journaled cell");
        assert_eq!(
            r.cell.get("label").and_then(Json::as_str),
            Some("table1/db")
        );
        assert_eq!(
            r.payload
                .as_ref()
                .and_then(|p| p.get("call_edge"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(r.phases, vec![("run".to_owned(), 2, 99)]);
        assert!(r.error.is_none());
        assert!(lookup("table1/jess").is_none());
        deactivate();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_the_prefix_survives() {
        let _guard = journal_lock();
        let path = temp_path("truncate");
        start_fresh(&path, &inputs()).expect("start fresh");
        let cell = Json::obj([("type", "cell".into())]);
        append("table1/db", &cell, None, None, &phases());
        append("table1/jess", &cell, None, None, &phases());
        deactivate();

        // Chop the last line in half, as a crash mid-append would.
        let bytes = std::fs::read(&path).expect("read journal");
        let cut = bytes.len() - 10;
        std::fs::write(&path, &bytes[..cut]).expect("truncate journal");

        let replayed = open_resume(&path, &inputs()).expect("resume survives truncation");
        assert_eq!(replayed, 1, "only the intact cell survives");
        assert!(lookup("table1/db").is_some());
        assert!(lookup("table1/jess").is_none());
        // The file was restored to its valid prefix, so appends are clean.
        append("table1/jess", &cell, None, None, &phases());
        deactivate();
        let replayed = open_resume(&path, &inputs()).expect("resume after repair");
        assert_eq!(replayed, 2);
        deactivate();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_journal_is_refused_with_named_fields() {
        let _guard = journal_lock();
        let path = temp_path("stale");
        start_fresh(&path, &inputs()).expect("start fresh");
        deactivate();
        let changed = RunInputs {
            scale: "paper".to_owned(),
            ..inputs()
        };
        let e = open_resume(&path, &changed).expect_err("stale journal must be refused");
        assert!(!is_active(), "a refused journal must not attach");
        let msg = e.to_string();
        assert!(msg.contains("stale journal"), "{msg}");
        assert!(
            msg.contains("scale: journal has smoke, this run has paper"),
            "{msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_and_headerless_journals_are_refused() {
        let empty = parse_journal(b"", &inputs()).expect_err("empty journal");
        assert!(empty
            .to_string()
            .contains("no complete `journal-meta` header"));

        // A terminated garbage line mid-file is corruption, not truncation.
        let header = format!("{}\n", inputs().header_record());
        let garbage = format!("{header}not json\n");
        let e = parse_journal(garbage.as_bytes(), &inputs()).expect_err("corrupt line");
        assert!(e.to_string().contains("line 2"), "{e}");

        // A journal whose first record is not the header is refused.
        let no_header = "{\"type\":\"journal-cell\"}\n";
        let e = parse_journal(no_header.as_bytes(), &inputs()).expect_err("cell before header");
        assert!(e.to_string().contains("journal-meta"), "{e}");

        // A cell whose key does not match its label is refused.
        let bad_key = format!(
            "{header}{}\n",
            Json::obj([
                ("type", "journal-cell".into()),
                ("key", "0000000000000000".into()),
                ("label", "table1/db".into()),
                ("cell", Json::obj([])),
                ("phases", Json::Arr(vec![])),
            ])
        );
        let e = parse_journal(bad_key.as_bytes(), &inputs()).expect_err("bad key");
        assert!(e.to_string().contains("does not match cell"), "{e}");
    }

    #[test]
    fn truncation_anywhere_keeps_a_prefix_or_refuses_cleanly() {
        // Exhaustive version of the integration proptest, on the pure
        // parser: cutting a valid journal at *any* byte offset either
        // yields a prefix of the original cells or a clean refusal —
        // never a panic, never an invented cell.
        let header = format!("{}\n", inputs().header_record());
        let fp = inputs().fingerprint();
        let mk_cell = |label: &str| {
            format!(
                "{}\n",
                Json::obj([
                    ("type", "journal-cell".into()),
                    ("key", format!("{:016x}", cell_key(fp, label)).into()),
                    ("label", label.into()),
                    ("cell", Json::obj([("type", "cell".into())])),
                    ("phases", Json::Arr(vec![])),
                ])
            )
        };
        let full = format!("{header}{}{}", mk_cell("table1/db"), mk_cell("table1/jess"));
        let bytes = full.as_bytes();
        let header_len = header.len();
        for cut in 0..=bytes.len() {
            match parse_journal(&bytes[..cut], &inputs()) {
                Ok(parsed) => {
                    assert!(cut >= header_len, "header must be complete to parse");
                    assert!(parsed.valid_len <= cut);
                    for label in parsed.cells.keys() {
                        assert!(label == "table1/db" || label == "table1/jess");
                    }
                }
                Err(JournalError::Corrupt(_)) => {
                    assert!(cut < header_len, "only a cut header refuses; got cut={cut}");
                }
                Err(e) => panic!("unexpected error class at cut={cut}: {e}"),
            }
        }
    }
}

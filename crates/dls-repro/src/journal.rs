//! Checkpoint journal and crash-consistent file I/O.
//!
//! The paper's verdicts rest on campaigns of up to a thousand seeded runs
//! per grid cell. This module makes every long-running entry point
//! restartable:
//!
//! * [`write_artifact`] — write-to-tmp, fsync, rename, under the standard
//!   retry policy: a crash mid-write leaves the old artifact or the new
//!   one, never a torn half. Every artifact the harness emits goes through
//!   [`atomic_write_with`], the journal's rewrites included.
//! * [`Journal`] — an append-only record of completed runs (`dls-journal/2`)
//!   keyed by campaign cell and run index. `--resume DIR` replays every
//!   journaled run bit-identically (shortest-round-trip `f64`; pinned by
//!   `tests/resume_determinism.rs`) and executes only the rest.
//!
//! The file is a header line followed by one record line per run, every
//! line sealed by the [`record`] codec the result cache also uses. On open
//! (`read_journal`), a header that fails its check or names another
//! campaign is refused (a usage error); a record line that fails its check
//! or its decode — a torn tail, a flipped bit, wherever it is — is counted
//! in [`JournalStats::quarantined`], reported on stderr and dropped, so its
//! run re-executes. A value is replayed only if its bytes are the recorded
//! ones.
//!
//! The journal holds checked bytes, not decoded values. `read_journal`
//! unseals each record line, reads its key at the one layout
//! `record_line` writes (`{"key":…,"value":…}`), and checks the value's
//! JSON without building it (`serde_json::Reader`: no allocation, no number
//! conversion, and exactly the texts the decoder accepts), so a line that
//! would fail its decode is still quarantined at open. The index maps each
//! run key to its value's byte range in the body, which is the read buffer
//! itself when the file is whole; [`Journal::lookup`] decodes that range
//! when its run replays. Each value is decoded once, and no tree is cloned
//! or kept: a journal's memory is its line bytes plus the index. On the
//! 11,520-record journal of perfbench's `sweep_journaled` (2-vCPU VM), a
//! full `repro sweep` resume fell from a median 41.0 ms to 27.0 ms: open
//! 26.8 → 9.8 ms, replay 8.4 → 12.8 ms (it now holds the one decode per
//! value), freeing the journal 2.6 → 0.6 ms.
//!
//! Each record is serialized once, and a flush appends only the lines
//! recorded since the previous flush (one `write_all` + `sync_all`), so
//! journaling costs O(records). The whole file is rewritten only to create
//! or heal it:
//!
//! 1. the first flush of a fresh journal (it writes the header);
//! 2. the first flush after [`Journal::open`] loaded anything but this
//!    session's header and whole valid record lines — a quarantined line, a
//!    last line without its `\n`, a blank or duplicate line, or a header
//!    from another build;
//! 3. any failed append, torn partial writes included, redone under the
//!    journal's [`RetryPolicy`]; until a rewrite succeeds every flush
//!    stays a rewrite, since the file may end in stray bytes.
//!
//! Either path leaves the same bytes — header plus every record line in
//! record order — whatever the flush cadence.

use crate::error::ReproError;
use crate::record;
use dls_chaos::{HostIo, RealIo, RetryPolicy};
use serde::{Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema tag of the journal header line; bump on breaking layout changes.
pub const SCHEMA: &str = "dls-journal/2";

/// File name of the journal inside a `--resume` directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Completed runs buffered between automatic journal flushes.
pub const FLUSH_EVERY: usize = 64;

/// Writes `contents` to `path` crash-consistently through `io`: the bytes
/// go to a uniquely named `<path>.tmp.<pid>.<counter>` first, are fsync'd,
/// and the tmp file is renamed over the destination (atomic on POSIX
/// filesystems). The parent directory is fsync'd afterwards so the rename
/// itself survives a power cut. On *any* error the tmp file is removed
/// (best-effort), so a failed create, write, fsync or rename cannot leak
/// stale tmp files into the artifact directory. `io` is the seam the chaos
/// harness uses to fault every boundary of the write sequence.
pub fn atomic_write_with(io: &dyn HostIo, path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let res = (|| {
        let mut f = io.create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        drop(f);
        io.rename(&tmp, path)
    })();
    if let Err(e) = res {
        let _ = io.remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Best-effort: the rename already landed; a directory-sync failure
        // only weakens power-cut durability, it cannot tear the artifact.
        let _ = io.sync_dir(dir);
    }
    Ok(())
}

/// Process-wide discriminator for tmp names — with the pid it makes every
/// in-flight atomic write target its own tmp file, so two concurrent
/// writers racing for one destination can no longer clobber (or delete)
/// each other's half-written bytes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// [`atomic_write_with`] over the real filesystem under the standard retry
/// policy, with the path in the error message — the one-call artifact
/// writer the CLI paths use.
pub fn write_artifact(path: &Path, contents: &[u8]) -> Result<(), ReproError> {
    write_artifact_with(&RealIo, RetryPolicy::standard(), path, contents)
}

/// [`write_artifact`] over an injectable [`HostIo`] and retry policy —
/// the chaos harness writes its CSVs through the faulted I/O with a
/// zero-delay policy so thousands of injected failures do not sleep.
pub fn write_artifact_with(
    io: &dyn HostIo,
    retry: RetryPolicy,
    path: &Path,
    contents: &[u8],
) -> Result<(), ReproError> {
    retry
        .run(|| atomic_write_with(io, path, contents))
        .map_err(|e| ReproError::io(format!("{}: {e}", path.display())))
}

/// Identity of the campaign a journal belongs to. A resumed invocation
/// must present the same metadata; anything else would silently merge
/// results from different experiments.
///
/// The triple (`fingerprint`, `seed`, `git_rev`) is also the
/// content-address the result cache keys on: a campaign result is a pure
/// function of those three components, so carrying them all here lets the
/// journal header and the cache share one identity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalMeta {
    /// Subcommand that owns the journal (`fig5`, `sweep`, `faults`, …).
    pub command: String,
    /// Canonical rendering of every option that affects the results
    /// (runs, grid, techniques — not `--threads` or output paths).
    pub fingerprint: String,
    /// Master seed of the campaign, carried explicitly (not just embedded
    /// in the fingerprint text) so cache keys and resume checks can rely
    /// on it structurally.
    pub seed: u64,
    /// Build identity (`git rev-parse --short HEAD`, `"unknown"` outside a
    /// checkout). A mismatch on resume only warns — replayed records are
    /// bit-exact regardless of the binary that wrote them — but the result
    /// cache treats it as a distinct key.
    pub git_rev: String,
}

impl JournalMeta {
    /// Metadata for `command` with the build's git revision captured
    /// automatically.
    pub fn new(command: impl Into<String>, fingerprint: impl Into<String>, seed: u64) -> Self {
        JournalMeta {
            command: command.into(),
            fingerprint: fingerprint.into(),
            seed,
            git_rev: git_rev(),
        }
    }

    /// The content-address of this campaign's result: every component that
    /// determines the output bytes, in a stable rendering.
    pub fn cache_key(&self) -> String {
        format!(
            "command={} fingerprint=[{}] seed={:#x} git_rev={}",
            self.command, self.fingerprint, self.seed, self.git_rev
        )
    }
}

/// Short git revision of the source tree this binary was built from, or
/// `"unknown"` when that tree was not a git checkout (or git was
/// unavailable). Part of journal headers and cache keys: results are only
/// guaranteed bit-identical for one build.
///
/// The build script captures it (`git rev-parse --short HEAD` in this
/// crate's directory), so one binary keys a request the same wherever it
/// runs, and a cache key costs no fork. A build of a dirty tree keys like
/// its HEAD: uncommitted edits do not change the revision.
pub fn git_rev() -> String {
    env!("DLS_GIT_REV").to_string()
}

/// Counters describing one journal session; surfaced by the CLI summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records loaded from an existing journal at open time.
    pub resumed: u64,
    /// Records appended by this session.
    pub recorded: u64,
    /// Successful flushes to disk.
    pub flushes: u64,
    /// Record lines dropped at open time because they failed their check
    /// or their decode; their runs re-execute.
    pub quarantined: u64,
    /// Bytes this session's successful flushes handed to the host: the
    /// appended lines, or the whole file for a rewrite.
    pub bytes_written: u64,
}

#[derive(Default)]
struct JournalState {
    /// Byte range in `body` of the journaled value's JSON per run key
    /// (first write wins; keys never repeat in normal operation). The
    /// value is decoded only when [`Journal::lookup`] asks for it.
    index: HashMap<String, Range<usize>>,
    /// Every record line (`\n`-terminated) in record order, serialized
    /// once; the file is the header line followed by exactly these bytes.
    body: Vec<u8>,
    /// Length of the prefix of `body` known to be on disk.
    persisted: usize,
    /// Whether the next flush must rewrite the whole file instead of
    /// appending `body[persisted..]` (see the module docs).
    rewrite: bool,
    /// Records appended since the last successful flush.
    dirty: usize,
    /// First flush failure that exhausted its retries; returned by the
    /// final [`Journal::flush`] so a campaign is not torn down mid-run by
    /// a transient disk error.
    sticky_error: Option<ReproError>,
    /// Quarantined lines not yet credited to a campaign's telemetry.
    unreported_quarantined: u64,
    stats: JournalStats,
}

impl JournalState {
    /// Books a successful flush of `bytes`: every line is now on disk.
    fn mark_flushed(&mut self, bytes: usize) {
        self.persisted = self.body.len();
        self.dirty = 0;
        self.stats.flushes += 1;
        self.stats.bytes_written += bytes as u64;
    }
}

/// The checkpoint journal behind `--resume DIR`; see the module docs.
///
/// Thread-safe: campaign workers record completed runs concurrently.
pub struct Journal {
    path: PathBuf,
    /// This session's header line, `\n` included.
    header: String,
    io: Arc<dyn HostIo>,
    retry: RetryPolicy,
    flush_every: usize,
    state: Mutex<JournalState>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

/// The canonical record key for run `run` of the campaign seeded with
/// `cell_seed`, inside the uniquely-labelled grid cell `cell`.
///
/// The label is part of the key because two campaigns of one command may
/// deliberately share a seed (the fault sweep's baseline and fault cells
/// reuse the same realizations) yet must journal independently.
pub fn run_key(cell: &str, cell_seed: u64, run: u32) -> String {
    use std::fmt::Write;
    // Sized up front: `format!` would grow the string several times, and a
    // resume builds one key per journaled run.
    let mut key = String::with_capacity(cell.len() + 28);
    key.push_str(cell);
    write!(key, "#{cell_seed:016x}:{run}").expect("writing to a String cannot fail");
    key
}

impl Journal {
    /// Opens (resuming) or creates the journal in `dir`.
    ///
    /// An existing journal's header must pass its check, carry the current
    /// [`SCHEMA`] and match `meta`; anything else is rejected with an
    /// actionable [`ReproError::Usage`]. A record line that fails its
    /// check — a torn tail from a crash between flushes, a flipped bit —
    /// is quarantined (see the module docs), not an error.
    pub fn open(dir: &Path, meta: &JournalMeta) -> Result<Journal, ReproError> {
        Journal::open_with_io(dir, meta, Arc::new(RealIo), RetryPolicy::standard())
    }

    /// [`Journal::open`] over an injectable [`HostIo`] and retry policy.
    ///
    /// The *read* path (loading an existing journal) always goes through the
    /// real filesystem — fault injection targets the write/flush boundaries,
    /// which are the ones a crash can tear.
    pub fn open_with_io(
        dir: &Path,
        meta: &JournalMeta,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
    ) -> Result<Journal, ReproError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ReproError::io(format!("{}: {e}", dir.display())))?;
        let path = dir.join(JOURNAL_FILE);
        let header = header_line(meta);
        let mut state = JournalState { rewrite: true, ..JournalState::default() };
        match std::fs::read(&path) {
            Ok(bytes) => load_existing(&path, bytes, &header, meta, &mut state)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ReproError::io(format!("{}: {e}", path.display()))),
        }
        Ok(Journal { path, header, io, retry, flush_every: FLUSH_EVERY, state: Mutex::new(state) })
    }

    /// Overrides the automatic flush cadence (default [`FLUSH_EVERY`]).
    ///
    /// The chaos harness flushes every couple of records so a reduced
    /// campaign still crosses many journal-flush I/O boundaries; values
    /// below 1 are clamped to 1. The journal's final bytes are
    /// cadence-independent — a flush appends the lines recorded since the
    /// previous one, and a rewrite emits all of them — so changing this
    /// never changes the final artifact, only how many appends build it.
    pub fn with_flush_every(mut self, every: usize) -> Journal {
        self.flush_every = every.max(1);
        self
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The `--resume` directory containing the journal.
    pub fn dir(&self) -> PathBuf {
        self.path.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."))
    }

    /// The journaled value for `key`, if that run already completed,
    /// decoded from its checked bytes. A resumed value and one recorded in
    /// this session read back the same way, so they compare equal.
    pub fn lookup(&self, key: &str) -> Option<Value> {
        // All four journal-lock sites recover from poisoning: the state is
        // a plain data record that stays valid after a writer panic, and a
        // quarantined panic must not abort every later run's checkpointing.
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let span = state.index.get(key)?.clone();
        serde_json::from_slice(&state.body[span]).ok()
    }

    /// Appends a completed run. Flushes every [`FLUSH_EVERY`] records; a
    /// flush failure is remembered and returned by the final [`flush`],
    /// never panicking a worker thread mid-campaign.
    ///
    /// [`flush`]: Journal::flush
    pub fn record(&self, key: String, value: Value) {
        // Serialized before taking the lock, which the other workers need.
        let (line, span) = record_line(&key, &value);
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut *guard;
        let Entry::Vacant(slot) = state.index.entry(key) else {
            return; // idempotent: a re-executed run re-records its result
        };
        let at = state.body.len();
        slot.insert(at + span.start..at + span.end);
        state.body.extend_from_slice(line.as_bytes());
        state.dirty += 1;
        state.stats.recorded += 1;
        if state.dirty >= self.flush_every {
            self.flush_locked(state);
        }
    }

    /// Puts every record on disk: appends the lines recorded since the last
    /// flush, or rewrites the whole file via [`atomic_write_with`] under the
    /// retry policy when the module docs' rewrite cases apply. A clean
    /// journal with nothing new performs no I/O. Returns the first error
    /// any earlier automatic flush swallowed, so persistent I/O trouble is
    /// reported exactly once.
    pub fn flush(&self) -> Result<(), ReproError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.flush_locked(&mut state);
        state.sticky_error.take().map_or(Ok(()), Err)
    }

    /// Session statistics for the CLI summary line.
    pub fn stats(&self) -> JournalStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Records already present when the journal was opened.
    pub fn resumed(&self) -> u64 {
        self.stats().resumed
    }

    /// [`JournalStats::quarantined`] on the first call and 0 after, so a
    /// campaign of many cells credits `journal.records_quarantined` once.
    pub(crate) fn take_unreported_quarantined(&self) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut state.unreported_quarantined)
    }

    fn flush_locked(&self, state: &mut JournalState) {
        if !state.rewrite {
            let tail = &state.body[state.persisted..];
            let len = tail.len();
            if len == 0 {
                return;
            }
            match self.append(tail) {
                Ok(()) => return state.mark_flushed(len),
                // A failed append may have left a torn prefix at the end of
                // the file: only a whole-file rewrite can heal it.
                Err(_) => state.rewrite = true,
            }
        }
        let mut file = Vec::with_capacity(self.header.len() + state.body.len());
        file.extend_from_slice(self.header.as_bytes());
        file.extend_from_slice(&state.body);
        match self.retry.run(|| atomic_write_with(&*self.io, &self.path, &file)) {
            Ok(()) => {
                state.rewrite = false;
                state.mark_flushed(file.len());
            }
            Err(e) => {
                if state.sticky_error.is_none() {
                    state.sticky_error =
                        Some(ReproError::io(format!("{}: {e}", self.path.display())));
                }
            }
        }
    }

    /// One append: the new lines as a single write, then an fsync.
    fn append(&self, tail: &[u8]) -> std::io::Result<()> {
        let mut file = self.io.open_append(&self.path)?;
        file.write_all(tail)?;
        file.sync_all()
    }
}

/// The sealed line, `\n` included, journaling `value` under `key`, and
/// the byte range of the value's JSON in it. The payload is the compact
/// object `{"key":…,"value":…}`, the one layout [`read_record`] reads.
fn record_line(key: &str, value: &Value) -> (String, Range<usize>) {
    let key = serde_json::to_string(key).expect("journal key serialization");
    let value = serde_json::to_string(value).expect("journal value serialization");
    let payload = format!(r#"{{"key":{key},"value":{value}}}"#);
    // The value ends one byte (the closing brace) before the payload does.
    let start = record::DIGEST_HEX + 1 + payload.len() - 1 - value.len();
    (record::seal(&payload), start..start + value.len())
}

/// The sealed header line, `\n` included: the schema, then `meta`.
fn header_line(meta: &JournalMeta) -> String {
    let Value::Object(mut fields) = meta.to_value() else { unreachable!("a struct is an object") };
    fields.insert(0, ("schema".into(), Value::String(SCHEMA.into())));
    record::seal(&serde_json::to_string(&Value::Object(fields)).expect("journal header"))
}

/// A journal file as read back through the record codec: the one reader
/// behind [`Journal::open`] and `repro report`. It holds checked byte
/// ranges, not decoded values: a record's value is parsed only when it is
/// used.
pub(crate) struct JournalFile {
    /// The campaign the header names.
    pub meta: JournalMeta,
    /// Offset of the first byte after the header line's `\n`.
    pub records_from: usize,
    /// Each record line that passed, in order.
    pub records: Vec<JournalRecord>,
    /// 1-based numbers of the record lines that failed their check or decode.
    pub quarantined: Vec<usize>,
}

/// One record line that passed its seal, its shape and its value's syntax
/// check, as byte ranges in the journal file.
pub(crate) struct JournalRecord {
    /// The run key, decoded.
    pub key: String,
    /// The line, `\n` excluded.
    pub line: Range<usize>,
    /// The value's JSON, which `serde_json::from_slice` decodes.
    pub value: Range<usize>,
}

/// Reads the bytes of a journal file; `Ok(None)` for an empty file. A
/// header that fails its check, names another schema or lacks a campaign
/// field is an `Err` describing why. Works on bytes, so a tail torn inside
/// a multi-byte character is just another line that fails its check.
pub(crate) fn read_journal(bytes: &[u8]) -> Result<Option<JournalFile>, String> {
    let mut at = 0;
    let mut lines = bytes
        .split(|&b| b == b'\n')
        .map(|line| {
            let start = at;
            at += line.len() + 1;
            start..start + line.len()
        })
        .enumerate()
        .filter(|(_, line)| !is_blank(&bytes[line.clone()]));
    let Some((_, first)) = lines.next() else {
        return Ok(None); // empty file: a fresh journal
    };
    let schema_error = |schema: &str| {
        format!(
            "journal schema `{schema}` is not `{SCHEMA}` (written by a different repro version)"
        )
    };
    let records_from = first.end + 1;
    let first = &bytes[first];
    let Some(header) = record::decode(first) else {
        // The last unsealed layout's header is bare JSON opening with its schema.
        return Err(if first.starts_with(br#"{"schema":"dls-journal/1""#) {
            schema_error("dls-journal/1")
        } else {
            "unreadable journal header (it fails its integrity check)".into()
        });
    };
    let schema = header.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(schema_error(schema));
    }
    let meta = JournalMeta::from_value(&header).map_err(|e| format!("journal header: {e}"))?;
    let mut file = JournalFile { meta, records_from, records: Vec::new(), quarantined: Vec::new() };
    for (i, line) in lines {
        match record::unseal(&bytes[line.clone()]).and_then(read_record) {
            Some((key, value)) => {
                // The payload follows the digest field and its space.
                let at = line.start + record::DIGEST_HEX + 1;
                file.records.push(JournalRecord {
                    key,
                    line,
                    value: at + value.start..at + value.end,
                });
            }
            None => file.quarantined.push(i + 1),
        }
    }
    Ok(Some(file))
}

fn is_blank(line: &[u8]) -> bool {
    line.iter().all(u8::is_ascii_whitespace)
}

/// The key, and the range of the value's JSON, of one record payload: an
/// object holding exactly `key` (a string) and then `value`, the layout
/// [`record_line`] writes (JSON whitespace between tokens is allowed). The
/// value is checked under the decoder's grammar but not built, so a
/// payload passes exactly when decoding it would.
fn read_record(payload: &str) -> Option<(String, Range<usize>)> {
    let mut r = serde_json::Reader::new(payload);
    let field = |r: &mut serde_json::Reader, name: &str| {
        (r.string().ok()? == name).then_some(())?;
        r.expect(b':').ok()
    };
    r.expect(b'{').ok()?;
    field(&mut r, "key")?;
    let key = r.string().ok()?.into_owned();
    r.expect(b',').ok()?;
    field(&mut r, "value")?;
    let value = r.value_span().ok()?;
    r.expect(b'}').ok()?;
    r.end().ok()?;
    Some((key, value))
}

/// Loads an existing journal file into `state`: refuses a header that
/// fails [`read_journal`] or names another campaign, warns once per
/// quarantined line, and indexes the first record per key. The body is
/// the kept record lines: the read buffer itself, header dropped, when the
/// file holds nothing else; a copy of just those lines otherwise. The
/// first flush appends only onto a file that is exactly this session's
/// `header` plus that body; anything else it rewrites.
fn load_existing(
    path: &Path,
    mut bytes: Vec<u8>,
    header: &str,
    meta: &JournalMeta,
    state: &mut JournalState,
) -> Result<(), ReproError> {
    let refuse = |why: String| {
        ReproError::usage(format!("{}: {why} — pass a fresh --resume directory", path.display()))
    };
    let Some(file) = read_journal(&bytes).map_err(refuse)? else {
        return Ok(());
    };
    let found = &file.meta;
    let show = |m: &JournalMeta| format!("`{}` [{}] seed={:#x}", m.command, m.fingerprint, m.seed);
    if (&found.command, &found.fingerprint, found.seed)
        != (&meta.command, &meta.fingerprint, meta.seed)
    {
        let why =
            format!("journal belongs to {} but this invocation is {}", show(found), show(meta));
        return Err(refuse(why + " (resume with the original options)"));
    }
    // A different build can still replay the journal bit-exactly (records
    // are data, not code), so a git-rev mismatch is a warning, not an error.
    if found.git_rev != meta.git_rev {
        crate::errln!(
            "warning: {}: journal was written by build {}, this build is {} — resuming \
             anyway (journaled records replay bit-exactly)",
            path.display(),
            found.git_rev,
            meta.git_rev,
        );
    }
    for line in &file.quarantined {
        crate::errln!(
            "warning: {}: line {line} fails its check; its run re-executes",
            path.display()
        );
    }
    state.stats.quarantined = file.quarantined.len() as u64;
    state.unreported_quarantined = state.stats.quarantined;
    state.index.reserve(file.records.len());
    // Spans are indexed at their offsets in the body-to-be. The file is
    // whole when each kept line starts where the previous one's `\n` ended
    // and the last `\n` ends the file: no quarantined, blank or duplicate
    // line in between, no torn tail.
    let (mut kept, mut body_len) = (Vec::with_capacity(file.records.len()), 0);
    let mut next = file.records_from;
    let mut whole = true;
    for JournalRecord { key, line, value } in file.records {
        if let Entry::Vacant(slot) = state.index.entry(key) {
            let at = |i: usize| i - line.start + body_len;
            slot.insert(at(value.start)..at(value.end));
            whole &= line.start == next;
            next = line.end + 1;
            body_len += line.len() + 1;
            kept.push(line);
        }
    }
    whole &= next == bytes.len();
    state.stats.resumed = kept.len() as u64;
    state.rewrite = !(whole && bytes.starts_with(header.as_bytes()));
    state.body = if whole {
        bytes.drain(..file.records_from);
        bytes
    } else {
        let mut body = Vec::with_capacity(body_len);
        for line in kept {
            body.extend_from_slice(&bytes[line]);
            body.push(b'\n');
        }
        body
    };
    state.persisted = state.body.len();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dls-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta() -> JournalMeta {
        JournalMeta::new("fig5", "n=1024 runs=8", 7)
    }

    #[test]
    fn the_git_revision_is_the_build_trees() {
        let (a, b) = (meta(), JournalMeta::new("fig6", "n=8192 runs=2", 9));
        assert_eq!(a.git_rev, b.git_rev, "one revision per build");
        assert_eq!(a.git_rev, git_rev());
        let built_from = std::process::Command::new("git")
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        assert_eq!(git_rev(), built_from.unwrap_or_else(|| "unknown".into()));
    }

    /// Any tmp files left in `dir` — atomic writes must never leak them.
    fn lingering_tmp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect()
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = tmp_dir("aw");
        let path = dir.join("artifact.csv");
        atomic_write_with(&RealIo, &path, b"old").unwrap();
        atomic_write_with(&RealIo, &path, b"new contents").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new contents");
        assert_eq!(lingering_tmp_files(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_names_are_unique_per_call() {
        let path = Path::new("/x/artifact.csv");
        let a = tmp_path(path);
        let b = tmp_path(path);
        assert_ne!(a, b, "concurrent writers must not share a tmp file");
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("artifact.csv.tmp."),
            "site-stable prefix for fault-site identity: {name}"
        );
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_never_tear_or_leak() {
        let dir = tmp_dir("race");
        let path = dir.join("artifact.csv");
        let bodies: Vec<String> =
            (0..8).map(|t| format!("writer-{t}-{}", "x".repeat(512))).collect();
        std::thread::scope(|scope| {
            for body in &bodies {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..25 {
                        atomic_write_with(&RealIo, path, body.as_bytes()).unwrap();
                    }
                });
            }
        });
        // The survivor is one complete body, never an interleaving.
        let survivor = std::fs::read_to_string(&path).unwrap();
        assert!(bodies.contains(&survivor), "torn artifact: {survivor:.40}…");
        assert_eq!(lingering_tmp_files(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_atomic_write_cleans_up_its_tmp_file() {
        use dls_chaos::{ChaosIo, HostFaultPlan, IoOp};
        let dir = tmp_dir("cleanup");
        let path = dir.join("artifact.csv");
        // Fault every op kind in turn: create, write, fsync, rename.
        for op in [IoOp::Create, IoOp::Write, IoOp::Fsync, IoOp::Rename] {
            let plan = HostFaultPlan::none().with_errors(1.0).only_ops(vec![op]);
            let io = ChaosIo::new(plan, &dir);
            atomic_write_with(&io, &path, b"doomed").unwrap_err();
            assert_eq!(
                lingering_tmp_files(&dir),
                Vec::<String>::new(),
                "tmp leaked after injected {op:?} failure"
            );
            assert!(!path.exists(), "destination must stay absent after {op:?} failure");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_round_trips_across_sessions() {
        let dir = tmp_dir("rt");
        {
            let j = Journal::open(&dir, &meta()).unwrap();
            j.record(run_key("p=2", 0xAB, 0), Value::F64(1.5));
            j.record(run_key("p=2", 0xAB, 1), Value::Array(vec![Value::U64(3)]));
            j.flush().unwrap();
            assert_eq!(j.stats().recorded, 2);
        }
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!(j.resumed(), 2);
        assert_eq!(j.lookup(&run_key("p=2", 0xAB, 0)), Some(Value::F64(1.5)));
        assert_eq!(j.lookup(&run_key("p=2", 0xAB, 1)), Some(Value::Array(vec![Value::U64(3)])));
        assert_eq!(j.lookup(&run_key("p=2", 0xAB, 2)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_campaign_is_rejected_with_an_actionable_error() {
        let dir = tmp_dir("mm");
        Journal::open(&dir, &meta()).unwrap().flush().unwrap();
        let other = JournalMeta::new("fig6", "n=8192 runs=8", 7);
        let err = Journal::open(&dir, &other).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_USAGE);
        assert!(err.to_string().contains("fig5"), "names the journal's campaign: {err}");
        assert!(err.to_string().contains("fig6"), "names this invocation: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_seed_is_rejected_but_git_rev_only_warns() {
        let dir = tmp_dir("seed-mm");
        Journal::open(&dir, &meta()).unwrap().flush().unwrap();

        // Same command+fingerprint, different seed: a different experiment.
        let mut reseeded = meta();
        reseeded.seed = 8;
        let err = Journal::open(&dir, &reseeded).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_USAGE);
        assert!(err.to_string().contains("seed=0x8"), "names this seed: {err}");

        // Different build, same campaign: resume must still work.
        let mut rebuilt = meta();
        rebuilt.git_rev = "deadbeef".into();
        Journal::open(&dir, &rebuilt).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_journal_is_refused_as_a_different_version() {
        // Unsealed lines from before the record codec: the header names
        // its schema, and the refusal says which.
        let dir = tmp_dir("v1");
        std::fs::write(
            dir.join(JOURNAL_FILE),
            "{\"schema\":\"dls-journal/1\",\"command\":\"fig5\",\
             \"fingerprint\":\"n=1024 runs=8\",\"seed\":7,\"git_rev\":\"abc\"}\n\
             {\"key\":\"c#0000000000000001:0\",\"value\":1}\n",
        )
        .unwrap();
        let err = Journal::open(&dir, &meta()).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_USAGE);
        assert!(err.to_string().contains("`dls-journal/1`"), "{err}");
        assert!(err.to_string().contains("different repro version"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_header_that_fails_its_check_is_refused() {
        let dir = tmp_dir("bad-hdr");
        Journal::open(&dir, &meta()).unwrap().flush().unwrap();
        let path = dir.join(JOURNAL_FILE);
        let tampered = std::fs::read_to_string(&path).unwrap().replace("fig5", "fig6");
        std::fs::write(&path, tampered).unwrap();
        let other = JournalMeta::new("fig6", "n=1024 runs=8", 7);
        let err = Journal::open(&dir, &other).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_USAGE);
        assert!(err.to_string().contains("integrity check"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_key_carries_all_three_components() {
        let m = meta();
        let key = m.cache_key();
        assert!(key.contains("fig5"));
        assert!(key.contains("n=1024 runs=8"));
        assert!(key.contains("seed=0x7"));
        assert!(key.contains(&m.git_rev));
        let mut other = meta();
        other.seed ^= 1;
        assert_ne!(key, other.cache_key(), "seed must change the cache key");
        let mut other = meta();
        other.git_rev = format!("{}x", other.git_rev);
        assert_ne!(key, other.cache_key(), "git rev must change the cache key");
    }

    #[test]
    fn poisoned_journal_lock_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir = tmp_dir("poison");
        let j = Journal::open(&dir, &meta()).unwrap();
        j.record(run_key("c", 1, 0), Value::U64(1));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = j.state.lock().unwrap();
            panic!("poison for test");
        }));
        assert!(caught.is_err());
        assert!(j.state.is_poisoned());
        // Record, lookup, flush and stats must all still work.
        j.record(run_key("c", 1, 1), Value::U64(2));
        assert_eq!(j.lookup(&run_key("c", 1, 1)), Some(Value::U64(2)));
        j.flush().unwrap();
        assert_eq!(j.stats().recorded, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_schema_is_rejected_with_an_upgrade_hint() {
        let dir = tmp_dir("fs");
        let path = dir.join(JOURNAL_FILE);
        let header = r#"{"schema":"dls-journal/9","command":"fig5","fingerprint":"x"}"#;
        std::fs::write(&path, record::seal(header)).unwrap();
        let err = Journal::open(&dir, &meta()).unwrap_err();
        assert!(err.is_usage());
        assert!(err.to_string().contains("dls-journal/9"));
        assert!(err.to_string().contains("different repro version"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_corrupt_lines_are_quarantined_wherever_they_are() {
        let dir = tmp_dir("torn");
        {
            let j = Journal::open(&dir, &meta()).unwrap();
            for run in 0..3 {
                j.record(run_key("c", 1, run), Value::U64(10 + u64::from(run)));
            }
            j.flush().unwrap();
        }
        // Tear the last line, as a crash between flushes would.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 8]).unwrap();
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!(j.resumed(), 2);
        assert_eq!(j.stats().quarantined, 1);
        assert!(j.lookup(&run_key("c", 1, 1)).is_some());
        assert!(j.lookup(&run_key("c", 1, 2)).is_none());

        // A changed digit in the middle is quarantined the same way: its
        // run re-executes instead of replaying a wrong value.
        std::fs::write(&path, text.replacen("\"value\":11", "\"value\":12", 1)).unwrap();
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!((j.resumed(), j.stats().quarantined), (2, 1));
        assert_eq!(j.lookup(&run_key("c", 1, 1)), None);
        assert_eq!(j.lookup(&run_key("c", 1, 2)), Some(Value::U64(12)));
        // The first flush heals the file: the re-executed run lands at the end.
        j.record(run_key("c", 1, 1), Value::U64(11));
        j.flush().unwrap();
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!((j.resumed(), j.stats().quarantined), (3, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_is_idempotent_and_concurrent() {
        let dir = tmp_dir("conc");
        let j = Journal::open(&dir, &meta()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..50u32 {
                        j.record(run_key("c", 9, t * 50 + i), Value::U64(u64::from(i)));
                        // Every thread also re-records run 0: first write wins.
                        j.record(run_key("c", 9, 0), Value::U64(999));
                    }
                });
            }
        });
        j.flush().unwrap();
        assert_eq!(j.stats().recorded, 200);
        let j2 = Journal::open(&dir, &meta()).unwrap();
        assert_eq!(j2.resumed(), 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A campaign-shaped record stream: three cells of 50 runs with
    /// seed-derived `f64` payloads.
    fn record_stream() -> Vec<(String, Value)> {
        let mut rng = dls_rng::SplitMix64::new(0x0DD5);
        (0..150u32)
            .map(|i| {
                let value = Value::Array(vec![Value::F64(rng.next_f64() * 1e3), Value::U64(7)]);
                (run_key(&format!("cell {}", i / 50), 0xAB, i % 50), value)
            })
            .collect()
    }

    /// Journals `stream` in `dir` through `io` at cadence `every`, closing
    /// each cell with a flush as the runner does; returns the file bytes.
    fn journal_stream(
        dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
        every: usize,
        stream: &[(String, Value)],
    ) -> Vec<u8> {
        let j = Journal::open_with_io(dir, &meta(), io, retry).unwrap().with_flush_every(every);
        for (i, (k, v)) in stream.iter().enumerate() {
            j.record(k.clone(), v.clone());
            if i % 50 == 49 {
                j.flush().unwrap();
            }
        }
        j.flush().unwrap();
        std::fs::read(j.path()).unwrap()
    }

    #[test]
    fn flush_cadence_never_changes_the_bytes() {
        let stream = record_stream();
        let mut reference: Option<Vec<u8>> = None;
        for every in [1, 2, 7, 64, 1_000_000] {
            let dir = tmp_dir(&format!("cadence-{every}"));
            let bytes =
                journal_stream(&dir, Arc::new(RealIo), RetryPolicy::standard(), every, &stream);
            assert_eq!(Journal::open(&dir, &meta()).unwrap().resumed(), 150);
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert!(bytes == *r, "flush_every={every} changed the journal bytes"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn each_line_is_written_once_when_nothing_fails() {
        let dir = tmp_dir("once");
        let j = Journal::open(&dir, &meta()).unwrap().with_flush_every(3);
        for (k, v) in record_stream() {
            j.record(k, v);
        }
        j.flush().unwrap();
        let size = std::fs::metadata(j.path()).unwrap().len();
        assert_eq!(j.stats().flushes, 50);
        assert_eq!(j.stats().bytes_written, size, "appends write no line twice");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_appends_fall_back_to_an_identical_rewrite() {
        use dls_chaos::{ChaosIo, HostFaultPlan, IoOp};
        let stream = record_stream();
        let dir = tmp_dir("fallback-ref");
        let reference = journal_stream(&dir, Arc::new(RealIo), RetryPolicy::standard(), 7, &stream);
        std::fs::remove_dir_all(&dir).unwrap();
        let plans = [
            // Every append fails to open: each flush becomes a rewrite.
            HostFaultPlan::none().with_errors(1.0).only_ops(vec![IoOp::Append]),
            // Half of all writes error, appended and tmp handles alike.
            HostFaultPlan::none().with_seed(3).with_errors(0.5).only_ops(vec![IoOp::Write]),
            // Half of all writes tear: stray prefixes land at the end of
            // the journal itself, which only the rewrite can remove.
            HostFaultPlan::none().with_seed(5).with_torn_writes(0.5),
        ];
        for (n, plan) in plans.into_iter().enumerate() {
            let dir = tmp_dir(&format!("fallback-{n}"));
            let io = Arc::new(ChaosIo::new(plan, &dir));
            let bytes = journal_stream(&dir, io.clone(), RetryPolicy::no_delay(24), 7, &stream);
            let stats = io.stats();
            assert!(stats.errors_injected + stats.torn_writes > 0, "plan {n} injected nothing");
            assert!(bytes == reference, "plan {n}: the fallback changed the journal bytes");
            assert_eq!(lingering_tmp_files(&dir), Vec::<String>::new());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_failed_rewrite_keeps_rewriting_and_stays_sticky() {
        use dls_chaos::{ChaosIo, HostFaultPlan};
        let dir = tmp_dir("sticky");
        let j = Journal::open(&dir, &meta()).unwrap();
        j.record(run_key("c", 1, 0), Value::U64(1));
        j.flush().unwrap();
        drop(j);
        // Every write tears: the append strands a prefix in the journal
        // and every rewrite attempt fails too.
        let plan = HostFaultPlan::none().with_seed(9).with_torn_writes(1.0);
        let j = Journal::open_with_io(
            &dir,
            &meta(),
            Arc::new(ChaosIo::new(plan, &dir)),
            RetryPolicy::no_delay(2),
        )
        .unwrap();
        j.record(run_key("c", 1, 1), Value::U64(2));
        let err = j.flush().unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_IO);
        {
            let state = j.state.lock().unwrap();
            assert!(state.rewrite, "a torn append must never be appended onto");
            assert!(state.persisted < state.body.len(), "the record is still pending");
        }
        assert_eq!(j.stats().flushes, 0);
        // A later session drops the torn tail and heals the file.
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!(j.resumed(), 1);
        j.record(run_key("c", 1, 1), Value::U64(2));
        j.flush().unwrap();
        let healed = std::fs::read(j.path()).unwrap();
        let clean_dir = tmp_dir("sticky-clean");
        let clean = Journal::open(&clean_dir, &meta()).unwrap();
        clean.record(run_key("c", 1, 0), Value::U64(1));
        clean.record(run_key("c", 1, 1), Value::U64(2));
        clean.flush().unwrap();
        assert!(healed == std::fs::read(clean.path()).unwrap(), "healed journal differs");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&clean_dir).unwrap();
    }

    #[test]
    fn reopening_a_clean_journal_and_flushing_performs_no_io() {
        use dls_chaos::{ChaosIo, HostFaultPlan};
        let dir = tmp_dir("no-io");
        journal_stream(&dir, Arc::new(RealIo), RetryPolicy::standard(), 64, &record_stream());
        let io = Arc::new(ChaosIo::new(HostFaultPlan::none(), &dir));
        let j = Journal::open_with_io(&dir, &meta(), io.clone(), RetryPolicy::standard()).unwrap();
        assert_eq!(j.resumed(), 150);
        j.record(run_key("cell 0", 0xAB, 0), Value::U64(0)); // already journaled
        j.flush().unwrap();
        assert_eq!(io.ops_executed(), 0, "a clean, complete journal needs no writes");
        assert_eq!(j.stats().bytes_written, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_header_from_another_build_is_rewritten_on_first_flush() {
        let dir = tmp_dir("rev");
        let mut old = meta();
        old.git_rev = "0ldbu1d".into();
        let j = Journal::open(&dir, &old).unwrap();
        j.record(run_key("c", 1, 0), Value::U64(1));
        j.flush().unwrap();
        let j = Journal::open(&dir, &meta()).unwrap();
        j.flush().unwrap();
        let text = std::fs::read_to_string(j.path()).unwrap();
        assert!(text.starts_with(&j.header), "the header names the last writer: {text}");
        assert_eq!(j.resumed(), 1);
        assert!(text.ends_with("\"value\":1}\n"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_with_json_escapes_and_non_ascii_text_round_trip() {
        let dir = tmp_dir("keys");
        let cells = [
            "quote \" cell",
            "back\\slash",
            "hash # cell",
            "colon : cell",
            "naïve 単位 ✓",
            "tab\tand\u{1}",
        ];
        {
            let j = Journal::open(&dir, &meta()).unwrap();
            for (run, cell) in (0..).zip(cells) {
                j.record(run_key(cell, 0xAB, run), Value::U64(u64::from(run)));
            }
            j.flush().unwrap();
        }
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!((j.resumed(), j.stats().quarantined), (cells.len() as u64, 0));
        for (run, cell) in (0..).zip(cells) {
            let value = j.lookup(&run_key(cell, 0xAB, run));
            assert_eq!(value, Some(Value::U64(u64::from(run))), "{cell}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_lines_that_are_not_records_are_quarantined_by_line_number() {
        let dir = tmp_dir("hand-sealed");
        {
            let j = Journal::open(&dir, &meta()).unwrap();
            j.record(run_key("c", 1, 0), Value::U64(10));
            j.flush().unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Lines 1 and 2 are the header and the record above.
        for payload in [
            r#"{"schema":"dls-journal/2"}"#,                 // 3: not a record
            r#"[1,2]"#,                                      // 4: not an object
            r#"{"key":"c#0000000000000001:1","value":[1,}"#, // 5: malformed value
            r#"{"key":"c#0000000000000001:2","value":1.e}"#, // 6: malformed number
            r#"{"key":"c#0000000000000001:3","value":3} trailing"#, // 7: trailing bytes
            r#"{"key":"c#0000000000000001:4","value":4,"more":0}"#, // 8: a third field
            r#"{"value":5,"key":"c#0000000000000001:5"}"#,   // 9: fields swapped
            r#"{"key":7,"value":7}"#,                        // 10: a non-string key
            r#"{ "key" : "c#0000000000000001:6" , "value" : [6, 7] }"#, // 11: a record
        ] {
            text.push_str(&record::seal(payload));
        }
        std::fs::write(&path, &text).unwrap();
        let file = read_journal(text.as_bytes()).unwrap().unwrap();
        assert_eq!(file.quarantined, vec![3, 4, 5, 6, 7, 8, 9, 10]);
        let j = Journal::open(&dir, &meta()).unwrap();
        assert_eq!((j.resumed(), j.stats().quarantined), (2, 8));
        let six_seven = Value::Array(vec![Value::U64(6), Value::U64(7)]);
        assert_eq!(j.lookup(&run_key("c", 1, 6)), Some(six_seven));
        assert_eq!(j.lookup(&run_key("c", 1, 1)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_in_session_lookup_equals_the_resumed_one() {
        let dir = tmp_dir("same-read");
        let nested = Value::Array(vec![
            Value::Array(vec![Value::F64(0.1), Value::I64(-1)]),
            Value::Array(Vec::new()),
        ]);
        // A non-negative `I64` prints as a plain integer and reads back as
        // `U64`, the same in session as after a resume.
        let values = [Value::F64(2.0), Value::U64(7), Value::I64(-3), Value::I64(5), nested];
        let j = Journal::open(&dir, &meta()).unwrap();
        for (run, value) in (0..).zip(&values) {
            j.record(run_key("c", 1, run), value.clone());
        }
        j.flush().unwrap();
        let resumed = Journal::open(&dir, &meta()).unwrap();
        for (run, value) in (0..).zip(&values) {
            let key = run_key("c", 1, run);
            assert_eq!(j.lookup(&key), resumed.lookup(&key), "{value:?}");
        }
        assert_eq!(j.lookup(&run_key("c", 1, 0)), Some(Value::F64(2.0)));
        assert_eq!(j.lookup(&run_key("c", 1, 3)), Some(Value::U64(5)));
        assert_eq!(j.lookup(&run_key("c", 1, 4)), Some(values[4].clone()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_keys_disambiguate_cells_sharing_a_seed() {
        // The fault sweep's baseline and scenario campaigns reuse one seed.
        assert_ne!(run_key("FAC2 baseline", 7, 0), run_key("FAC2 loss(2%)", 7, 0));
        assert_ne!(run_key("c", 7, 0), run_key("c", 7, 1));
        assert_ne!(run_key("c", 7, 0), run_key("c", 8, 0));
    }
}

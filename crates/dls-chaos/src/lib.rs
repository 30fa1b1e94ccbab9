//! Deterministic host-I/O fault injection.
//!
//! The checkpoint journal and every artifact writer in `dls-repro` claim
//! crash consistency: tmp + fsync + rename, bounded retries, torn-tail
//! tolerance. Claims that are only exercised by documentation are worth
//! little — this crate makes the host's failure modes injectable so those
//! paths can be *tested*, in the same spirit as `dls-faults` makes the
//! simulated network's failure modes injectable:
//!
//! * [`HostIo`] — the narrow host-I/O surface the crash-consistent writers
//!   use (create, open-for-append, write, fsync, rename, directory sync,
//!   remove);
//! * [`RealIo`] — the passthrough implementation backed by `std::fs`;
//! * [`ChaosIo`] — a fault-injecting wrapper driven by a seeded,
//!   serializable [`HostFaultPlan`]: generic I/O errors, `ENOSPC`, torn
//!   partial writes and transient-then-recover flakes, with sites selected
//!   deterministically by operation index from a [`SplitMix64`] stream —
//!   plus a `crash_at` arming point that simulates a hard crash by failing
//!   one operation mid-effect and rejecting everything after it;
//! * [`RetryPolicy`] — the configurable retry loop (attempts, base delay,
//!   deterministic jitter) with [`is_permanent`] error classification, so
//!   a `NotFound` is never retried while an `Interrupted` flake is.
//!
//! Everything is a pure function of `(plan, operation index, path)`, the
//! path taken relative to the directory the [`ChaosIo`] guards: two runs of
//! the same write sequence under the same plan inject the same faults,
//! wherever that directory lives. That is what lets the `repro chaos` harness enumerate every I/O
//! boundary of a campaign, crash at each one, and assert the resumed
//! output byte-identical to an uninterrupted run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dls_rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Golden-ratio increment used to decorrelate per-index fault streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Raw `errno` for "no space left on device" (POSIX `ENOSPC`).
pub const ENOSPC: i32 = 28;

// ---------------------------------------------------------------------------
// The injectable host-I/O surface
// ---------------------------------------------------------------------------

/// An open file handle on the injectable I/O surface.
pub trait HostFile: Send {
    /// Writes the whole buffer (`std::io::Write::write_all` semantics).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Syncs data and metadata to the storage device (`File::sync_all`).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The host-I/O operations the crash-consistent writers perform.
///
/// Implementations must be shareable across campaign worker threads; the
/// journal holds one behind an `Arc`.
pub trait HostIo: Send + Sync + std::fmt::Debug {
    /// Creates (truncating) a file for writing.
    fn create<'a>(&'a self, path: &Path) -> io::Result<Box<dyn HostFile + 'a>>;
    /// Opens an existing file for appending; every write lands at its end.
    /// A missing file is an error (`NotFound`), never silently created.
    fn open_append<'a>(&'a self, path: &Path) -> io::Result<Box<dyn HostFile + 'a>>;
    /// Renames `from` over `to` (atomic on POSIX filesystems).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Syncs a directory so a completed rename survives a power cut.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file (tmp-file cleanup on error paths).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The passthrough [`HostIo`]: plain `std::fs`, no fault injection.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

/// [`RealIo`]'s file handle: a plain `std::fs::File`.
#[derive(Debug)]
pub struct RealFile(std::fs::File);

impl HostFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl HostIo for RealIo {
    fn create<'a>(&'a self, path: &Path) -> io::Result<Box<dyn HostFile + 'a>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open_append<'a>(&'a self, path: &Path) -> io::Result<Box<dyn HostFile + 'a>> {
        Ok(Box::new(RealFile(std::fs::OpenOptions::new().append(true).open(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// One kind of host-I/O operation — the unit faults are targeted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// `File::create` of a tmp file.
    Create,
    /// `write_all` of the artifact bytes (to a created or appended file).
    Write,
    /// `sync_all` of the written file.
    Fsync,
    /// The rename of tmp over the destination.
    Rename,
    /// The parent-directory sync after a rename.
    DirSync,
    /// Tmp-file removal on an error path.
    Remove,
    /// Opening an existing file for append (the journal's flush path).
    /// Last, so the earlier kinds keep the discriminants that seed their
    /// flake sites.
    Append,
}

impl IoOp {
    /// Lower-case operation name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
            IoOp::DirSync => "dir-sync",
            IoOp::Remove => "remove",
            IoOp::Append => "append",
        }
    }
}

/// A complete, seedable description of the host-I/O faults injected into
/// one run — the `dls-faults` `FaultPlan` idea applied to the filesystem.
///
/// The JSON form is what `repro chaos --host-fault-plan <file>` consumes;
/// all fields default so partial plans parse:
///
/// ```json
/// {
///   "seed": 7,
///   "error_probability": 0.05,
///   "enospc_probability": 0.01,
///   "torn_write_probability": 0.02,
///   "flake_probability": 0.3,
///   "flake_depth": 2,
///   "ops": ["Write", "Fsync"]
/// }
/// ```
///
/// Per operation index `i`, an independent [`SplitMix64`] stream seeded
/// from `(seed, i)` draws the error / `ENOSPC` / torn-write decisions in a
/// fixed order, so the fault sequence is a pure function of the plan and
/// the write sequence. Flakes are keyed by *site* — `(path, op)`, the path
/// relative to the guarded directory with any unique tmp suffix stripped —
/// and fail the first [`flake_depth`] visits
/// to a flaky site before recovering, modelling `EINTR`-style transients
/// that a retry loop must survive.
///
/// [`flake_depth`]: HostFaultPlan::flake_depth
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HostFaultPlan {
    /// Seed for every fault decision stream.
    #[serde(default)]
    pub seed: u64,
    /// Per-operation probability of a generic I/O error.
    #[serde(default)]
    pub error_probability: f64,
    /// Per-operation probability of an `ENOSPC` (disk full) error.
    #[serde(default)]
    pub enospc_probability: f64,
    /// Per-write probability that only a prefix of the buffer lands before
    /// the write errors (a torn write; only meaningful for [`IoOp::Write`]).
    #[serde(default)]
    pub torn_write_probability: f64,
    /// Per-site probability that a `(path, op)` site is flaky.
    #[serde(default)]
    pub flake_probability: f64,
    /// How many visits to a flaky site fail (with `ErrorKind::Interrupted`)
    /// before the site recovers. Must be ≥ 1 when `flake_probability > 0`.
    #[serde(default)]
    pub flake_depth: u32,
    /// Operation kinds the plan applies to; empty means all of them.
    #[serde(default)]
    pub ops: Vec<IoOp>,
}

/// Why a [`HostFaultPlan`] was rejected by [`HostFaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum HostFaultPlanError {
    /// A probability field is not finite or outside `[0, 1]`.
    InvalidProbability {
        /// Field name.
        field: &'static str,
        /// Value as given.
        value: f64,
    },
    /// `flake_probability > 0` but `flake_depth == 0` (flakes would never
    /// fire).
    ZeroFlakeDepth,
}

impl std::fmt::Display for HostFaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostFaultPlanError::InvalidProbability { field, value } => {
                write!(f, "{field} {value} must be finite and in [0, 1]")
            }
            HostFaultPlanError::ZeroFlakeDepth => {
                f.write_str("flake_probability > 0 requires flake_depth >= 1")
            }
        }
    }
}

impl std::error::Error for HostFaultPlanError {}

impl HostFaultPlan {
    /// The empty plan: nothing fails. Running under it must be
    /// byte-identical to running on [`RealIo`] with no fault machinery at
    /// all (pinned by the `repro chaos` harness).
    pub fn none() -> Self {
        HostFaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.error_probability == 0.0
            && self.enospc_probability == 0.0
            && self.torn_write_probability == 0.0
            && self.flake_probability == 0.0
    }

    /// Sets the decision-stream seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the generic-error probability (builder style).
    pub fn with_errors(mut self, probability: f64) -> Self {
        self.error_probability = probability;
        self
    }

    /// Sets the `ENOSPC` probability (builder style).
    pub fn with_enospc(mut self, probability: f64) -> Self {
        self.enospc_probability = probability;
        self
    }

    /// Sets the torn-write probability (builder style).
    pub fn with_torn_writes(mut self, probability: f64) -> Self {
        self.torn_write_probability = probability;
        self
    }

    /// Sets the flaky-site probability and recovery depth (builder style).
    pub fn with_flakes(mut self, probability: f64, depth: u32) -> Self {
        self.flake_probability = probability;
        self.flake_depth = depth;
        self
    }

    /// Restricts the plan to the given operation kinds (builder style).
    pub fn only_ops(mut self, ops: Vec<IoOp>) -> Self {
        self.ops = ops;
        self
    }

    /// Checks every numeric field for plausibility.
    pub fn validate(&self) -> Result<(), HostFaultPlanError> {
        for (field, value) in [
            ("error_probability", self.error_probability),
            ("enospc_probability", self.enospc_probability),
            ("torn_write_probability", self.torn_write_probability),
            ("flake_probability", self.flake_probability),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(HostFaultPlanError::InvalidProbability { field, value });
            }
        }
        if self.flake_probability > 0.0 && self.flake_depth == 0 {
            return Err(HostFaultPlanError::ZeroFlakeDepth);
        }
        Ok(())
    }

    /// Whether the plan's fault kinds apply to operation kind `op`.
    pub fn applies_to(&self, op: IoOp) -> bool {
        self.ops.is_empty() || self.ops.contains(&op)
    }
}

// ---------------------------------------------------------------------------
// ChaosIo
// ---------------------------------------------------------------------------

/// Counters describing what one [`ChaosIo`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Host-I/O operations observed (the crash-point count).
    pub ops: u64,
    /// Generic errors + `ENOSPC` errors injected.
    pub errors_injected: u64,
    /// Torn (partial) writes injected.
    pub torn_writes: u64,
    /// Transient flake failures injected.
    pub flakes: u64,
}

/// What [`ChaosIo::gate`] decided for one operation.
enum Gate {
    /// Perform the operation normally.
    Proceed,
    /// Fail without touching the filesystem.
    Fail(io::Error),
    /// Write only this many bytes, then fail (torn write).
    Torn(usize),
    /// The armed crash point: apply the op's partial effect, then enter
    /// the crashed state.
    Crash,
}

/// A fault-injecting [`HostIo`] driven by a [`HostFaultPlan`].
///
/// Every operation is numbered in call order; the number selects the
/// fault decisions (see [`HostFaultPlan`]) and is what [`with_crash_at`]
/// arms. After the crash point fires, the instance is *crashed*: every
/// further operation fails, exactly as a dead host would behave until the
/// process is restarted. The wrapped inner I/O (normally [`RealIo`]) still
/// performs whatever the plan lets through, so the on-disk state after a
/// simulated crash is the state a real crash would have left.
///
/// [`with_crash_at`]: ChaosIo::with_crash_at
pub struct ChaosIo {
    inner: Box<dyn HostIo>,
    plan: HostFaultPlan,
    /// The guarded directory; flake sites are keyed relative to it.
    root: PathBuf,
    crash_at: Option<u64>,
    ops: AtomicU64,
    crashed: AtomicBool,
    errors_injected: AtomicU64,
    torn_writes: AtomicU64,
    flakes: AtomicU64,
    /// Visit counters for flaky `(site path, op)` sites.
    flaky_sites: Mutex<HashMap<(String, IoOp), u32>>,
}

impl std::fmt::Debug for ChaosIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosIo")
            .field("plan", &self.plan)
            .field("root", &self.root)
            .field("crash_at", &self.crash_at)
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .finish()
    }
}

/// The flake-site identity of a path: relative to `root` (a path outside
/// it keeps its full form), with any `.tmp.<pid>.<counter>` unique suffix
/// stripped to `.tmp`, so every retry of one atomic write hits the *same*
/// site and a flaky site recovers by depth instead of being re-rolled per
/// attempt.
fn site_path(root: &Path, path: &Path) -> String {
    let s = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
    match s.find(".tmp.") {
        Some(i) => s[..i + 4].to_string(),
        None => s.into_owned(),
    }
}

/// FNV-1a over the site key, mixed with the plan seed — the per-site
/// stream selector for flake decisions.
fn site_hash(seed: u64, site: &str, op: IoOp) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.bytes().chain([op as u8]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ seed
}

fn crashed_error() -> io::Error {
    io::Error::other("chaos: simulated host crash — all subsequent I/O fails")
}

impl ChaosIo {
    /// Wraps [`RealIo`] with fault injection per `plan` for the writes
    /// under `root`, the directory whose relative paths key the flake
    /// sites. The plan is taken as given — call [`HostFaultPlan::validate`]
    /// first for user input.
    pub fn new(plan: HostFaultPlan, root: impl Into<PathBuf>) -> Self {
        ChaosIo {
            inner: Box::new(RealIo),
            plan,
            root: root.into(),
            crash_at: None,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            errors_injected: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            flakes: AtomicU64::new(0),
            flaky_sites: Mutex::new(HashMap::new()),
        }
    }

    /// Arms a hard crash at operation index `index` (0-based, builder
    /// style): that operation fails mid-effect and every later one is
    /// rejected, simulating a process death at that I/O boundary.
    pub fn with_crash_at(mut self, index: u64) -> Self {
        self.crash_at = Some(index);
        self
    }

    /// Operations observed so far — on a completed fault-free run, the
    /// number of distinct crash points the write sequence exposes.
    pub fn ops_executed(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the armed crash point has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            ops: self.ops.load(Ordering::SeqCst),
            errors_injected: self.errors_injected.load(Ordering::SeqCst),
            torn_writes: self.torn_writes.load(Ordering::SeqCst),
            flakes: self.flakes.load(Ordering::SeqCst),
        }
    }

    /// Decides the fate of one operation. Increments the op counter for
    /// live operations; a crashed instance rejects without counting, so
    /// `ops_executed` after a clean run equals the crash-point count.
    fn gate(&self, op: IoOp, path: &Path, write_len: usize) -> Gate {
        if self.crashed.load(Ordering::SeqCst) {
            return Gate::Fail(crashed_error());
        }
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.crash_at == Some(index) {
            self.crashed.store(true, Ordering::SeqCst);
            return Gate::Crash;
        }
        if !self.plan.applies_to(op) {
            return Gate::Proceed;
        }
        // Flakes first: they are per-site (deterministic across retries of
        // one logical write), while the remaining kinds are per-index.
        if self.plan.flake_probability > 0.0 {
            let site = site_path(&self.root, path);
            let mut rng = SplitMix64::new(site_hash(self.plan.seed, &site, op));
            if rng.next_f64() < self.plan.flake_probability {
                // A panic while a writer held this lock leaves the visit map
                // intact (plain data, every update is a single insert), so
                // recover the guard instead of cascading the poison into
                // every later operation.
                let mut sites = self.flaky_sites.lock().unwrap_or_else(|e| e.into_inner());
                let visits = sites.entry((site, op)).or_insert(0);
                if *visits < self.plan.flake_depth {
                    *visits += 1;
                    self.flakes.fetch_add(1, Ordering::SeqCst);
                    return Gate::Fail(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("chaos: transient {} flake (attempt {visits})", op.name()),
                    ));
                }
            }
        }
        let mut rng = SplitMix64::new(self.plan.seed ^ index.wrapping_add(1).wrapping_mul(GOLDEN));
        let (u_err, u_enospc, u_torn) = (rng.next_f64(), rng.next_f64(), rng.next_f64());
        if u_err < self.plan.error_probability {
            self.errors_injected.fetch_add(1, Ordering::SeqCst);
            return Gate::Fail(io::Error::other(format!(
                "chaos: injected {} error at op #{index}",
                op.name()
            )));
        }
        if u_enospc < self.plan.enospc_probability {
            self.errors_injected.fetch_add(1, Ordering::SeqCst);
            return Gate::Fail(io::Error::from_raw_os_error(ENOSPC));
        }
        if op == IoOp::Write && u_torn < self.plan.torn_write_probability {
            self.torn_writes.fetch_add(1, Ordering::SeqCst);
            return Gate::Torn((rng.next_f64() * write_len as f64) as usize);
        }
        Gate::Proceed
    }
}

/// [`ChaosIo`]'s file handle: holds the path so write faults can be
/// site-addressed, and defers to the gate per operation.
struct ChaosFile<'a> {
    io: &'a ChaosIo,
    inner: Box<dyn HostFile + 'a>,
    path: PathBuf,
}

impl HostFile for ChaosFile<'_> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.io.gate(IoOp::Write, &self.path, buf.len()) {
            Gate::Proceed => self.inner.write_all(buf),
            Gate::Fail(e) => Err(e),
            Gate::Torn(prefix) => {
                let _ = self.inner.write_all(&buf[..prefix]);
                Err(io::Error::other(format!(
                    "chaos: torn write ({prefix} of {} bytes landed)",
                    buf.len()
                )))
            }
            Gate::Crash => {
                // A crash mid-write leaves a prefix in the tmp file — the
                // state `atomic_write`'s rename discipline must tolerate —
                // or a torn tail on an appended file, which the journal's
                // loader drops and its next flush rewrites.
                let _ = self.inner.write_all(&buf[..buf.len() / 2]);
                Err(crashed_error())
            }
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.io.gate(IoOp::Fsync, &self.path, 0) {
            Gate::Proceed => self.inner.sync_all(),
            Gate::Fail(e) => Err(e),
            // A crash at the fsync boundary: the data may or may not have
            // reached the device; modelling "not synced" (no-op) covers
            // the pessimistic half, and crash-at-rename covers the other.
            Gate::Torn(_) | Gate::Crash => Err(crashed_error()),
        }
    }
}

impl HostIo for ChaosIo {
    fn create<'a>(&'a self, path: &Path) -> io::Result<Box<dyn HostFile + 'a>> {
        match self.gate(IoOp::Create, path, 0) {
            Gate::Proceed => Ok(Box::new(ChaosFile {
                io: self,
                inner: self.inner.create(path)?,
                path: path.to_path_buf(),
            })),
            Gate::Fail(e) => Err(e),
            Gate::Torn(_) => unreachable!("torn faults only target writes"),
            Gate::Crash => {
                // The crash lands after the create syscall: an empty tmp
                // file exists, nothing was written.
                let _ = self.inner.create(path);
                Err(crashed_error())
            }
        }
    }

    fn open_append<'a>(&'a self, path: &Path) -> io::Result<Box<dyn HostFile + 'a>> {
        match self.gate(IoOp::Append, path, 0) {
            Gate::Proceed => Ok(Box::new(ChaosFile {
                io: self,
                inner: self.inner.open_append(path)?,
                path: path.to_path_buf(),
            })),
            Gate::Fail(e) => Err(e),
            Gate::Torn(_) => unreachable!("torn faults only target writes"),
            // The crash lands after the open: the file is untouched.
            Gate::Crash => Err(crashed_error()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.gate(IoOp::Rename, to, 0) {
            Gate::Proceed => self.inner.rename(from, to),
            Gate::Fail(e) => Err(e),
            // A crash at the rename boundary: the rename did not happen,
            // the destination still holds its previous content.
            Gate::Torn(_) | Gate::Crash => Err(crashed_error()),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.gate(IoOp::DirSync, dir, 0) {
            Gate::Proceed => self.inner.sync_dir(dir),
            Gate::Fail(e) => Err(e),
            Gate::Torn(_) | Gate::Crash => Err(crashed_error()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.gate(IoOp::Remove, path, 0) {
            Gate::Proceed => self.inner.remove_file(path),
            Gate::Fail(e) => Err(e),
            Gate::Torn(_) | Gate::Crash => Err(crashed_error()),
        }
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// True for errors that retrying cannot fix: the file is missing, access
/// is denied, the argument is malformed, the data is bad — or the disk is
/// full (`ENOSPC`), which a sub-second backoff will not free. Everything
/// else (interrupts, timeouts, `WouldBlock`, unclassified `Other` errors
/// from NFS-style hiccups) is worth the bounded retry.
pub fn is_permanent(e: &io::Error) -> bool {
    if e.raw_os_error() == Some(ENOSPC) {
        return true;
    }
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        NotFound | PermissionDenied | InvalidInput | InvalidData | AlreadyExists | Unsupported
    )
}

/// A bounded, classified retry loop for host I/O.
///
/// Replaces the fixed `10 ms · 2^i` loop: attempts, base delay and jitter
/// are configurable, the jitter is deterministic (seeded, so two runs of
/// one campaign sleep identically), and [`is_permanent`] errors bail out
/// immediately instead of burning the full backoff on an error that
/// cannot succeed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts (min 1).
    pub attempts: u32,
    /// Backoff before retry `i` is `base_delay_ms · 2^i`, jittered.
    pub base_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

impl RetryPolicy {
    /// The production policy: 3 attempts, 10 ms base — the same budget the
    /// journal has always used, now with permanent-error classification.
    pub const fn standard() -> Self {
        RetryPolicy { attempts: 3, base_delay_ms: 10, jitter_seed: 0x10_5EED }
    }

    /// A zero-delay policy for tests and the chaos harness, where sleeping
    /// through thousands of injected failures would dominate the runtime.
    pub const fn no_delay(attempts: u32) -> Self {
        RetryPolicy { attempts, base_delay_ms: 0, jitter_seed: 0 }
    }

    /// Hard cap on any single backoff sleep, jitter included (60 s). A
    /// user-supplied `base_delay_ms` can be arbitrarily large; the cap
    /// bounds the worst case instead of letting the exponential scaling
    /// wrap around `u64` into a tiny — or zero — sleep.
    pub const MAX_DELAY_MS: u64 = 60_000;

    /// Overrides the attempt budget (builder style).
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// The backoff before retry `attempt` (0-based): exponential on the
    /// base delay, scaled by a deterministic jitter factor in `[0.5, 1.5)`
    /// so a fleet of workers retrying one shared resource spreads out.
    /// The result is capped at [`RetryPolicy::MAX_DELAY_MS`]: a large
    /// `base_delay_ms` saturates at the cap instead of wrapping the shift.
    pub fn delay(&self, attempt: u32) -> std::time::Duration {
        if self.base_delay_ms == 0 {
            return std::time::Duration::ZERO;
        }
        // 2^min(attempt, 16) never overflows the shift itself, but the
        // scaled product can exceed u64 for a huge base delay — saturate,
        // then clamp to the cap before the jitter touches it.
        let scale = 1u64.checked_shl(attempt.min(16)).unwrap_or(u64::MAX);
        let base_ms = self.base_delay_ms.saturating_mul(scale);
        let base_us = base_ms.min(Self::MAX_DELAY_MS) as f64 * 1_000.0;
        let mut rng = SplitMix64::new(
            self.jitter_seed ^ u64::from(attempt).wrapping_add(1).wrapping_mul(GOLDEN),
        );
        let jitter = 0.5 + rng.next_f64();
        let capped_us = (base_us * jitter).min(Self::MAX_DELAY_MS as f64 * 1_000.0);
        std::time::Duration::from_micros(capped_us as u64)
    }

    /// Runs `op` under this policy: returns the first success, bails
    /// immediately on a [`is_permanent`] error, and otherwise retries with
    /// backoff until the attempt budget is spent.
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut last = None;
        for i in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_permanent(&e) => return Err(e),
                Err(e) => last = Some(e),
            }
            if i + 1 < attempts {
                std::thread::sleep(self.delay(i));
            }
        }
        Err(last.expect("at least one attempt was made"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dls-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A minimal atomic-write pipeline over a `HostIo`, mirroring what the
    /// journal does: create tmp, write, fsync, rename, dir-sync.
    fn pipeline(io: &dyn HostIo, path: &Path, contents: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = io.create(&tmp)?;
            f.write_all(contents)?;
            f.sync_all()?;
        }
        io.rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            io.sync_dir(dir)?;
        }
        Ok(())
    }

    #[test]
    fn real_io_round_trips() {
        let dir = tmp_dir("real");
        let path = dir.join("a.txt");
        pipeline(&RealIo, &path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_plan_is_transparent() {
        let dir = tmp_dir("transparent");
        let path = dir.join("a.txt");
        let io = ChaosIo::new(HostFaultPlan::none(), &dir);
        pipeline(&io, &path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        // create + write + fsync + rename + dir-sync = 5 boundaries.
        assert_eq!(io.ops_executed(), 5);
        assert_eq!(io.stats(), ChaosStats { ops: 5, ..ChaosStats::default() });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_round_trips_through_json_with_defaults() {
        let plan = HostFaultPlan::none()
            .with_seed(7)
            .with_errors(0.05)
            .with_torn_writes(0.02)
            .with_flakes(0.3, 2)
            .only_ops(vec![IoOp::Write, IoOp::Fsync]);
        let json = serde_json::to_string(&plan.to_value()).unwrap();
        let back = HostFaultPlan::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, plan);
        // Partial plans parse: missing fields default.
        let partial =
            HostFaultPlan::from_value(&serde_json::from_str("{\"seed\": 9}").unwrap()).unwrap();
        assert_eq!(partial.seed, 9);
        assert!(partial.is_none());
        assert!(partial.ops.is_empty());
    }

    #[test]
    fn validate_rejects_bad_probabilities_and_zero_depth() {
        assert!(HostFaultPlan::none().validate().is_ok());
        let bad = HostFaultPlan::none().with_errors(1.5);
        assert!(matches!(
            bad.validate(),
            Err(HostFaultPlanError::InvalidProbability { field: "error_probability", .. })
        ));
        let nan = HostFaultPlan::none().with_enospc(f64::NAN);
        assert!(nan.validate().is_err());
        let flaky = HostFaultPlan::none().with_flakes(0.5, 0);
        assert_eq!(flaky.validate(), Err(HostFaultPlanError::ZeroFlakeDepth));
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let dir = tmp_dir("det");
        let plan = HostFaultPlan::none().with_seed(11).with_errors(0.5);
        let trial = |tag: &str| {
            let io = ChaosIo::new(plan.clone(), &dir);
            let mut outcomes = Vec::new();
            for i in 0..20 {
                let path = dir.join(format!("{tag}-{i}.txt"));
                outcomes.push(pipeline(&io, &path, b"x").is_ok());
            }
            outcomes
        };
        assert_eq!(trial("a"), trial("b"), "same plan, same op sequence, same faults");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn op_filter_scopes_faults() {
        let dir = tmp_dir("filter");
        // Everything fails, but only renames are in scope.
        let plan = HostFaultPlan::none().with_errors(1.0).only_ops(vec![IoOp::Rename]);
        let io = ChaosIo::new(plan, &dir);
        let path = dir.join("a.txt");
        let err = pipeline(&io, &path, b"x").unwrap_err();
        assert!(err.to_string().contains("rename"), "fault names its op: {err}");
        assert!(!path.exists(), "rename never happened");
        assert!(path.with_extension("tmp").exists(), "tmp landed before the rename fault");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_is_injected_and_classified_permanent() {
        let plan = HostFaultPlan::none().with_enospc(1.0).only_ops(vec![IoOp::Write]);
        let dir = tmp_dir("enospc");
        let io = ChaosIo::new(plan, &dir);
        let err = pipeline(&io, &dir.join("a.txt"), b"x").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        assert!(is_permanent(&err), "a full disk is not retryable at this timescale");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_leaves_a_prefix_in_the_tmp_file() {
        let dir = tmp_dir("torn");
        let plan = HostFaultPlan::none().with_seed(3).with_torn_writes(1.0);
        let io = ChaosIo::new(plan, &dir);
        let path = dir.join("a.txt");
        let payload = vec![0xAB; 1000];
        let err = pipeline(&io, &path, &payload).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let tmp = std::fs::read(path.with_extension("tmp")).unwrap();
        assert!(tmp.len() < payload.len(), "only a prefix landed ({} bytes)", tmp.len());
        assert_eq!(tmp, payload[..tmp.len()], "the prefix is the real data, not garbage");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flaky_sites_recover_by_depth_and_are_tmp_suffix_stable() {
        let dir = tmp_dir("flake");
        let plan = HostFaultPlan::none().with_seed(5).with_flakes(1.0, 2);
        let io = ChaosIo::new(plan, &dir);
        // Unique tmp suffixes (as the journal's collision-safe tmp names
        // produce) must hit the same flake site.
        for attempt in 0..3u32 {
            let tmp = dir.join(format!("a.txt.tmp.1234.{attempt}"));
            let res = io.create(&tmp);
            if attempt < 2 {
                let e = res.err().expect("first visits to a flaky site fail");
                assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                assert!(!is_permanent(&e), "flakes must be classified retryable");
            } else {
                res.expect("the site recovers after flake_depth visits");
            }
        }
        assert_eq!(io.stats().flakes, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One append flush over a `HostIo`: open for append, write, fsync.
    fn append(io: &dyn HostIo, path: &Path, contents: &[u8]) -> io::Result<()> {
        let mut f = io.open_append(path)?;
        f.write_all(contents)?;
        f.sync_all()
    }

    #[test]
    fn append_extends_an_existing_file_and_never_creates_one() {
        let dir = tmp_dir("append");
        let path = dir.join("a.txt");
        let err = append(&RealIo, &path, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "append must not create the file");
        pipeline(&RealIo, &path, b"head\n").unwrap();
        let io = ChaosIo::new(HostFaultPlan::none(), &dir);
        append(&io, &path, b"tail\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"head\ntail\n");
        // open-for-append + write + fsync = 3 boundaries.
        assert_eq!(io.ops_executed(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_faults_follow_the_write_fault_model() {
        let dir = tmp_dir("append-faults");
        let path = dir.join("a.txt");
        pipeline(&RealIo, &path, b"head\n").unwrap();
        // A crash at the open leaves the file untouched.
        let io = ChaosIo::new(HostFaultPlan::none(), &dir).with_crash_at(0);
        append(&io, &path, b"tail\n").unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), b"head\n");
        // An injected error scoped to `Append` fails the open, not writes.
        let plan = HostFaultPlan::none().with_errors(1.0).only_ops(vec![IoOp::Append]);
        let err = append(&ChaosIo::new(plan, &dir), &path, b"tail\n").unwrap_err();
        assert!(err.to_string().contains("append"), "fault names its op: {err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"head\n");
        // A crash mid-write on the appended handle leaves a torn tail.
        let io = ChaosIo::new(HostFaultPlan::none(), &dir).with_crash_at(1);
        append(&io, &path, b"0123456789").unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), b"head\n01234");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_point_halts_all_subsequent_io_and_never_tears_the_destination() {
        let dir = tmp_dir("crash");
        let path = dir.join("a.txt");
        pipeline(&RealIo, &path, b"OLD").unwrap();
        // Crash at every boundary of one atomic write; the destination
        // must hold exactly OLD or NEW afterwards, never a mix.
        for k in 0..5 {
            let io = ChaosIo::new(HostFaultPlan::none(), &dir).with_crash_at(k);
            let res = pipeline(&io, &path, b"NEW");
            assert!(io.is_crashed(), "crash point {k} must fire");
            let on_disk = std::fs::read(&path).unwrap();
            assert!(
                on_disk == b"OLD" || on_disk == b"NEW",
                "crash at op {k} tore the destination: {on_disk:?}"
            );
            // Post-crash, every operation is rejected.
            let probe = io.create(&dir.join("probe.txt")).err().expect("crashed io rejects");
            assert!(probe.to_string().contains("crash"));
            // "Reboot": plain RealIo completes the write.
            if res.is_err() {
                pipeline(&RealIo, &path, b"NEW").unwrap();
            }
            assert_eq!(std::fs::read(&path).unwrap(), b"NEW");
            pipeline(&RealIo, &path, b"OLD").unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_policy_bails_immediately_on_permanent_errors() {
        let calls = AtomicU32::new(0);
        let err = RetryPolicy::no_delay(5)
            .run(|| -> io::Result<()> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "permanent errors must not be retried");

        let calls = AtomicU32::new(0);
        let err = RetryPolicy::no_delay(5)
            .run(|| -> io::Result<()> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::from_raw_os_error(ENOSPC))
            })
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "ENOSPC must not be retried");
    }

    #[test]
    fn retry_policy_retries_transients_within_budget() {
        let failures = AtomicU32::new(2);
        let out = RetryPolicy::no_delay(3)
            .run(|| {
                if failures.fetch_sub(1, Ordering::Relaxed) > 0 {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "flake"))
                } else {
                    Ok(42)
                }
            })
            .unwrap();
        assert_eq!(out, 42);

        let calls = AtomicU32::new(0);
        let err = RetryPolicy::no_delay(2)
            .run(|| -> io::Result<()> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other("persistent"))
            })
            .unwrap_err();
        assert!(err.to_string().contains("persistent"));
        assert_eq!(calls.load(Ordering::Relaxed), 2, "budget spent on retryable errors");
    }

    #[test]
    fn retry_delays_are_deterministic_and_exponential() {
        let p = RetryPolicy::standard();
        assert_eq!(p.delay(0), p.delay(0), "jitter is seeded, not wall-clock");
        assert!(p.delay(1) > p.delay(0) / 2, "backoff grows (up to jitter)");
        assert_eq!(RetryPolicy::no_delay(3).delay(2), std::time::Duration::ZERO);
        // Jitter factor stays in [0.5, 1.5): bounded around the base.
        for i in 0..5 {
            let base = std::time::Duration::from_millis(10 << i);
            let d = p.delay(i);
            assert!(d >= base / 2 && d < base * 3 / 2, "delay({i}) = {d:?} out of band");
        }
    }

    #[test]
    fn retry_delay_saturates_instead_of_wrapping() {
        let cap = std::time::Duration::from_millis(RetryPolicy::MAX_DELAY_MS);
        // 2^63 ms shifted once used to wrap to exactly zero — the silent
        // busy-retry loop this guards against.
        let huge = RetryPolicy { attempts: 3, base_delay_ms: 1 << 63, jitter_seed: 1 };
        for attempt in [0, 1, 16, 17, u32::MAX] {
            let d = huge.delay(attempt);
            assert!(d > std::time::Duration::ZERO, "delay({attempt}) wrapped to zero");
            assert!(d <= cap, "delay({attempt}) = {d:?} exceeds the cap");
        }
        let max = RetryPolicy { attempts: 3, base_delay_ms: u64::MAX, jitter_seed: 2 };
        assert!(max.delay(5) <= cap && max.delay(5) > std::time::Duration::ZERO);
        // A sane base delay reaching the exponential ceiling also clamps.
        let grown = RetryPolicy { attempts: 20, base_delay_ms: 10_000, jitter_seed: 3 };
        assert!(grown.delay(16) <= cap);
        // The cap never touches the standard policy's band.
        let p = RetryPolicy::standard();
        assert!(p.delay(4) < cap / 100, "standard backoff is far below the cap");
    }

    #[test]
    fn poisoned_flake_site_lock_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir = tmp_dir("poisoned-sites");
        let plan = HostFaultPlan::none().with_flakes(1.0, 1);
        let io = ChaosIo::new(plan, &dir);
        // Poison the site map the way a panicking writer thread would:
        // unwind while the guard is alive.
        let poison = catch_unwind(AssertUnwindSafe(|| {
            let _guard = io.flaky_sites.lock().unwrap();
            panic!("writer dies while holding the chaos site lock");
        }));
        assert!(poison.is_err());
        assert!(io.flaky_sites.is_poisoned());
        // The gate still classifies operations: first attempt flakes
        // (depth 1), the retry proceeds — no poison cascade.
        let path = dir.join("a.txt");
        let first = io.create(&path);
        assert!(first.is_err(), "depth-1 flake still fires after recovery");
        let second = io.create(&path);
        assert!(second.is_ok(), "retry proceeds after the flake budget");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

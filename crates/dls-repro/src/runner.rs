//! Multi-run campaign execution.
//!
//! The paper's Figures 5–8 average 1,000 independent runs per configuration
//! (executed "in parallel on the HPC cluster taurus"). Runs are
//! statistically independent, so the one campaign runner,
//! [`run_campaign_resilient_batched`], farms them over the host's cores
//! on scoped threads; each run derives its own seed from the
//! campaign seed via [`dls_rng::seed_stream`], making every individual run
//! reproducible regardless of the thread interleaving, the batch width, or
//! an interrupt-and-resume in between. Every experiment (figures, sweeps,
//! fault sweeps, Figure 9, the server) is a closure over
//! it; the unjournaled case is an [`ExecContext::transient`] context.

use crate::error::ReproError;
use crate::journal::{self, Journal};
use dls_rng::seed_stream;
use dls_telemetry::{Logger, Telemetry};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Derives the campaign seed for grid cell `index` from an experiment's
/// top-level seed: element `index` of the [`seed_stream`].
///
/// Every multi-cell experiment (figure grids, sweeps) must derive its
/// per-cell seeds through this helper. The previous ad-hoc mixing
/// (`seed ^ (p as u64) << 32`-style expressions) was doubly fragile: the
/// shift binds tighter than the xor, which is easy to misread and easy to
/// break when editing, and xor-ing structured values (powers of two for
/// `n`, small integers for `p`) can collide between cells, silently
/// correlating campaigns that must be independent. SplitMix64 decorrelates
/// even adjacent indices.
pub fn cell_seed(campaign_seed: u64, index: u64) -> u64 {
    seed_stream(campaign_seed).nth(index as usize).expect("seed stream is infinite")
}

/// The default worker-thread count: the host's available parallelism.
///
/// The count is read once per process and then reused (the read goes
/// through cgroup files and costs tens of microseconds, on every service
/// request that builds a config). A later change to the cgroup CPU quota
/// or to the process's CPU affinity is therefore not seen.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

// ---------------------------------------------------------------------------
// Resilient execution
// ---------------------------------------------------------------------------

/// Cooperative cancellation flag, checked between runs by the resilient
/// campaign runner. Cloning shares the flag (it is an `Arc` inside), so the
/// CLI's signal handler and every campaign worker observe one state.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Safe to call from a signal handler's thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Record of a run whose workload panicked. The sweep keeps going; the CLI
/// reports quarantined cells at the end instead of aborting everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRun {
    /// Grid-cell label the run belonged to (e.g. `n=4096 p=8`).
    pub cell: String,
    /// Run index within the cell's campaign.
    pub run: u32,
    /// The run's derived seed — enough to replay the exact failure.
    pub seed: u64,
    /// The panic payload, when it was a string (the common case).
    pub panic_message: String,
}

impl std::fmt::Display for QuarantinedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell [{}] run {} (seed {:#018x}): {}",
            self.cell, self.run, self.seed, self.panic_message
        )
    }
}

/// Emit a progress heartbeat every this many newly executed runs (and at
/// campaign completion). Runs-based, so the heartbeat schedule is a pure
/// function of execution order, not of the host clock.
pub const HEARTBEAT_EVERY: u64 = 32;

/// Shared, thread-safe campaign progress state: runs completed / total plus
/// a wall-clock ETA. The campaign service exposes it via `GET /progress`;
/// the CLI announces it on stderr when `--log` is active.
///
/// All updates are relaxed atomics — progress is a monitoring surface, not
/// a synchronization point, and it never feeds back into the simulation.
#[derive(Clone, Debug, Default)]
pub struct Progress(Arc<ProgressInner>);

#[derive(Debug, Default)]
struct ProgressInner {
    total: AtomicU64,
    done: AtomicU64,
    announce: AtomicBool,
    label: Mutex<String>,
    started: Mutex<Option<Instant>>,
    /// `done` of the last heartbeat emitted; its lock serialises heartbeats.
    last_beat: Mutex<u64>,
}

/// Point-in-time view of a [`Progress`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Label of the most recently started campaign cell.
    pub label: String,
    /// Runs executed so far (completed or quarantined; replays excluded).
    pub done: u64,
    /// Runs scheduled for execution so far (grows as cells start).
    pub total: u64,
    /// Host seconds since the first cell started (0 before any work).
    pub elapsed_s: f64,
    /// Estimated seconds remaining, extrapolated from the mean run rate;
    /// `None` until at least one run has finished.
    pub eta_s: Option<f64>,
}

impl Progress {
    /// A fresh tracker with nothing scheduled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Also announce heartbeats on stderr (the CLI surface).
    pub fn announcing(self) -> Self {
        self.0.announce.store(true, Ordering::Relaxed);
        self
    }

    /// Registers a campaign cell about to execute `pending` runs: extends
    /// the total, updates the label, and stamps the start time on first use.
    pub fn begin_cell(&self, label: &str, pending: u64) {
        *self.0.label.lock().unwrap_or_else(|e| e.into_inner()) = label.to_string();
        self.0.total.fetch_add(pending, Ordering::Relaxed);
        let mut started = self.0.started.lock().unwrap_or_else(|e| e.into_inner());
        if started.is_none() {
            *started = Some(Instant::now());
        }
    }

    /// Counts one executed run; returns the new `done` value.
    pub fn note_done(&self) -> u64 {
        self.0.done.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether heartbeats should also go to stderr.
    pub fn announces(&self) -> bool {
        self.0.announce.load(Ordering::Relaxed)
    }

    /// Calls `emit` with a fresh snapshot unless a heartbeat at least as
    /// far along was already emitted. Serialised, so heartbeats leave in
    /// increasing `done` order and a cell's completion heartbeat is its
    /// last: a worker overtaken between its count and its heartbeat drops
    /// the stale one.
    fn heartbeat(&self, emit: impl FnOnce(&ProgressSnapshot)) {
        let mut last = self.0.last_beat.lock().unwrap_or_else(|e| e.into_inner());
        let snap = self.snapshot();
        if snap.done > *last {
            *last = snap.done;
            emit(&snap);
        }
    }

    /// The current progress view.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let done = self.0.done.load(Ordering::Relaxed);
        let total = self.0.total.load(Ordering::Relaxed);
        let label = self.0.label.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let elapsed_s = self
            .0
            .started
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        let eta_s = (done > 0).then(|| elapsed_s / done as f64 * total.saturating_sub(done) as f64);
        ProgressSnapshot { label, done, total, elapsed_s, eta_s }
    }
}

/// Shared state of one resilient invocation: the optional checkpoint
/// journal, the cancellation flag and deadline, and the quarantine list.
/// One context spans every campaign a command executes, so a `repro sweep`
/// journals all its grid cells into a single `--resume` directory.
#[derive(Debug)]
pub struct ExecContext {
    journal: Option<Journal>,
    cancel: CancelFlag,
    deadline: Option<Instant>,
    quarantined: Mutex<Vec<QuarantinedRun>>,
    cancel_after: Option<u64>,
    finished: AtomicU64,
    progress: Option<Progress>,
    logger: Logger,
}

impl ExecContext {
    /// A context with no journal: runs are not checkpointed (the default
    /// when `--resume` is not passed) but panic isolation and cancellation
    /// still apply.
    pub fn transient() -> Self {
        ExecContext {
            journal: None,
            cancel: CancelFlag::new(),
            deadline: None,
            quarantined: Mutex::new(Vec::new()),
            cancel_after: None,
            finished: AtomicU64::new(0),
            progress: None,
            logger: Logger::disabled(),
        }
    }

    /// A context checkpointing into `journal`.
    pub fn with_journal(journal: Journal) -> Self {
        let mut ctx = Self::transient();
        ctx.journal = Some(journal);
        ctx
    }

    /// Uses `flag` for cancellation (e.g. the CLI's SIGINT-backed flag).
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.cancel = flag;
        self
    }

    /// Stops the campaign once `at` has passed: a passed deadline counts as
    /// a raised cancellation flag, so no block is claimed after it and the
    /// campaign returns [`ReproError::Interrupted`]. Blocks already running
    /// complete.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Injects a cancellation after `n` newly executed runs — the test
    /// hook behind `--cancel-after`, simulating a mid-campaign kill at a
    /// deterministic point.
    pub fn with_cancel_after(mut self, n: u64) -> Self {
        self.cancel_after = Some(n);
        self
    }

    /// Tracks campaign progress (runs completed / total, ETA) in `p` and
    /// emits periodic heartbeats; see [`Progress`] and [`HEARTBEAT_EVERY`].
    pub fn with_progress(mut self, p: Progress) -> Self {
        self.progress = Some(p);
        self
    }

    /// Emits structured campaign events (cell starts, heartbeats,
    /// quarantines) into `logger`.
    pub fn with_logger(mut self, logger: Logger) -> Self {
        self.logger = logger;
        self
    }

    /// The attached progress tracker, if any.
    pub fn progress(&self) -> Option<&Progress> {
        self.progress.as_ref()
    }

    /// The attached structured logger (disabled by default).
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Whether cancellation has been requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// Adds a run to the quarantine list.
    ///
    /// Recovers a poisoned lock: the list is a plain data record that stays
    /// valid after a writer panic, and aborting here would defeat the whole
    /// point of quarantine — one panicking run must not poison the campaign.
    pub fn quarantine(&self, run: QuarantinedRun) {
        self.logger.warn(
            "campaign",
            "run quarantined",
            &[
                ("cell", Value::String(run.cell.clone())),
                ("run", Value::U64(run.run as u64)),
                ("seed", Value::String(format!("{:#018x}", run.seed))),
                ("panic", Value::String(run.panic_message.clone())),
            ],
        );
        self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).push(run);
    }

    /// The quarantined runs so far, in quarantine order.
    pub fn quarantined(&self) -> Vec<QuarantinedRun> {
        self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Flushes the journal (no-op without one). Returns the first error
    /// that survived the retry policy, including ones swallowed by
    /// automatic mid-campaign flushes.
    pub fn flush(&self) -> Result<(), ReproError> {
        match &self.journal {
            Some(j) => j.flush(),
            None => Ok(()),
        }
    }

    /// The [`ReproError::Interrupted`] for this context, carrying the
    /// resume hint when a journal is attached.
    pub fn interrupted_error(&self) -> ReproError {
        ReproError::Interrupted {
            resume_dir: self.journal.as_ref().map(|j| j.dir().display().to_string()),
        }
    }

    /// Bookkeeping after a run finishes (completed *or* quarantined):
    /// advances the progress tracker (emitting a heartbeat every
    /// [`HEARTBEAT_EVERY`] runs and at completion) and trips the
    /// cancellation flag once `--cancel-after` is reached.
    fn note_run_finished(&self) {
        let done = self.finished.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(progress) = &self.progress {
            let done = progress.note_done();
            if done % HEARTBEAT_EVERY == 0 || done >= progress.0.total.load(Ordering::Relaxed) {
                progress.heartbeat(|snap| {
                    self.logger.info(
                        "campaign",
                        "heartbeat",
                        &[
                            ("cell", Value::String(snap.label.clone())),
                            ("done", Value::U64(snap.done)),
                            ("total", Value::U64(snap.total)),
                            ("elapsed_s", Value::F64(snap.elapsed_s)),
                            ("eta_s", snap.eta_s.map_or(Value::Null, Value::F64)),
                        ],
                    );
                    if progress.announces() {
                        let eta = snap.eta_s.map_or("?".to_string(), |e| format!("{e:.1}"));
                        crate::errln!(
                            "progress: [{}] {}/{} runs, {:.1}s elapsed, eta {eta}s",
                            snap.label,
                            snap.done,
                            snap.total,
                            snap.elapsed_s
                        );
                    }
                });
            }
        }
        if let Some(limit) = self.cancel_after {
            if done >= limit {
                self.cancel.cancel();
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Batch width for a batched campaign over a cell with `n` tasks — the
/// scratch-arena tier. Wider batches amortize the shared chunk-stream
/// generation over more seeds but keep B realizations (`B × (n + 1)` f64
/// prefix entries each) live at once, so the width shrinks as `n` grows:
/// `2^18 / n`, clamped to `[4, 32]`.
pub fn batch_width_for(n: u64) -> usize {
    ((1u64 << 18) / n.max(1)).clamp(4, 32) as usize
}

/// Runs `runs` independent replications of one campaign cell and returns
/// them in run order: `Some` per completed (or journal-replayed) run,
/// `None` per quarantined run, or `Err(Interrupted)` when cancelled.
///
/// **Claiming.** Pending runs are claimed in contiguous blocks of up to
/// `batch_width` by **work-stealing** — an atomic cursor every worker
/// `fetch_add`s — and handed to `f` as a `&[(run_index, run_seed)]` slice;
/// `f` returns one `T` per item, in item order. Width 1 is the scalar case
/// (one run per claim, the finest load balance); wider blocks let `f`
/// simulate the seeds in lockstep (see `dls-hagerup`'s
/// `BatchDirectSimulator`). Stealing instead of static slabs keeps every
/// core busy behind the heavy-tailed run times the paper's campaigns
/// produce (FAC outlier runs, Figure 9). Each run's seed depends only on
/// its index, so the output is element-identical for any thread count and
/// any width (pinned by tests below).
///
/// **Threads and scratch.** At `threads == 1` the worker loop runs on the
/// calling thread; otherwise in `threads` scoped workers (never more than
/// there are blocks). Each worker builds one `S` via `make_scratch` and
/// hands `&mut S` to every block it executes, so workload buffers are
/// reused across replications. The scratch is an allocation cache, never
/// an input: `f`'s results must depend only on the items' seeds.
///
/// **Resilience.** `cell` uniquely labels this campaign within its command
/// and is part of every journal key, because two campaigns of one command
/// may legitimately share `campaign_seed` (the fault sweep's
/// baseline/scenario pairs) yet must checkpoint independently. Journaled
/// runs are replayed instead of re-executed — bit-identical, because the
/// journal serializes `f64`s losslessly — and fresh results are journaled
/// **per run**, so batch boundaries are an execution detail: a resumed
/// campaign re-batches whatever is still pending. A panicking block of
/// width > 1 gets its scratch rebuilt and is retried one run at a time, so
/// a poisoned seed quarantines only itself; a closure that returns the
/// wrong number of results quarantines its whole block with an explanatory
/// message rather than guessing at the alignment. Cancellation is honoured
/// between block claims; an in-flight block completes (and journals)
/// before the final flush.
///
/// **Telemetry.** `campaign.runs_started`, `campaign.runs_completed` and
/// `campaign.runs_quarantined` count runs; `campaign.run_wall_s` times
/// every run executed on its own and `campaign.batch_wall_s` every
/// lockstep block; `journal.runs_skipped` / `journal.runs_recorded` count
/// replays and checkpoints, `journal.bytes_written` the journal bytes the
/// cell's flushes (automatic and final) handed to the host, and
/// `journal.records_quarantined` (when non-zero, credited by the first
/// cell) the journal lines dropped at open time.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_resilient_batched<T, S, G, F>(
    runs: u32,
    campaign_seed: u64,
    threads: usize,
    batch_width: usize,
    telemetry: &Telemetry,
    ctx: &ExecContext,
    cell: &str,
    make_scratch: G,
    f: F,
) -> Result<Vec<Option<T>>, ReproError>
where
    T: Send + Serialize + for<'de> Deserialize<'de>,
    G: Fn() -> S + Sync,
    F: Fn(&[(u32, u64)], &mut S) -> Vec<T> + Sync,
{
    let batch_width = batch_width.max(1);
    let seeds: Vec<u64> = seed_stream(campaign_seed).take(runs as usize).collect();
    let bytes_before = ctx.journal().map(|j| j.stats().bytes_written);
    if let Some(q) = ctx.journal().map(Journal::take_unreported_quarantined).filter(|&q| q > 0) {
        telemetry.counter_add("journal.records_quarantined", q);
    }
    // The cell's closing flush, crediting `journal.bytes_written`.
    let final_flush = || {
        let flushed = ctx.flush();
        if let (Some(j), Some(before)) = (ctx.journal(), bytes_before) {
            telemetry.counter_add("journal.bytes_written", j.stats().bytes_written - before);
        }
        flushed
    };
    let mut results: Vec<Option<T>> = (0..runs).map(|_| None).collect();

    // Replay journaled runs; anything missing or undecodable re-executes.
    let mut pending: Vec<u32> = Vec::new();
    for i in 0..runs {
        let replayed = ctx.journal().and_then(|j| {
            let v = j.lookup(&journal::run_key(cell, campaign_seed, i))?;
            T::from_value(&v).ok()
        });
        match replayed {
            Some(v) => {
                results[i as usize] = Some(v);
                telemetry.counter_inc("journal.runs_skipped");
            }
            None => pending.push(i),
        }
    }

    if let Some(progress) = ctx.progress() {
        progress.begin_cell(cell, pending.len() as u64);
    }
    if ctx.logger().is_enabled() {
        ctx.logger().info(
            "campaign",
            "cell start",
            &[
                ("cell", Value::String(cell.to_string())),
                ("runs", Value::U64(runs as u64)),
                ("replayed", Value::U64((runs as usize - pending.len()) as u64)),
                ("pending", Value::U64(pending.len() as u64)),
                ("batch_width", Value::U64(batch_width as u64)),
            ],
        );
    }

    if ctx.is_cancelled() {
        final_flush()?;
        return Err(ctx.interrupted_error());
    }

    let record_success = |i: u32, v: &T| {
        telemetry.counter_inc("campaign.runs_completed");
        if let Some(j) = ctx.journal() {
            j.record(journal::run_key(cell, campaign_seed, i), v.to_value());
            telemetry.counter_inc("journal.runs_recorded");
        }
    };
    let quarantine_run = |i: u32, msg: String| {
        telemetry.counter_inc("campaign.runs_quarantined");
        ctx.quarantine(QuarantinedRun {
            cell: cell.to_string(),
            run: i,
            seed: seeds[i as usize],
            panic_message: msg,
        });
    };

    // One run through the batch closure (width-1 slice) with panic
    // isolation. A panic abandons the thread's scratch so a half-filled
    // buffer cannot survive into the next run. `campaign.runs_started` is
    // counted by the caller (once per run per block claim, never again on
    // retry).
    let execute_single = |i: u32, scratch: &mut S| -> Option<T> {
        let items = [(i, seeds[i as usize])];
        let span = telemetry.span("campaign.run_wall_s");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items, scratch)));
        span.finish();
        match outcome {
            Ok(mut vs) if vs.len() == 1 => {
                let v = vs.pop().expect("length checked above");
                record_success(i, &v);
                Some(v)
            }
            Ok(vs) => {
                *scratch = make_scratch();
                quarantine_run(i, format!("batch closure returned {} results for 1 run", vs.len()));
                None
            }
            Err(payload) => {
                *scratch = make_scratch();
                quarantine_run(i, panic_message(payload.as_ref()));
                None
            }
        }
    };

    // One claimed block: lockstep first, per-run retry on panic.
    let execute_block = |block: &[u32], scratch: &mut S| -> Vec<(u32, Option<T>)> {
        for _ in block {
            telemetry.counter_inc("campaign.runs_started");
        }
        if block.len() > 1 {
            let items: Vec<(u32, u64)> = block.iter().map(|&i| (i, seeds[i as usize])).collect();
            let span = telemetry.span("campaign.batch_wall_s");
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items, scratch)));
            span.finish();
            match outcome {
                Ok(vs) if vs.len() == items.len() => {
                    return items
                        .iter()
                        .zip(vs)
                        .map(|(&(i, _), v)| {
                            record_success(i, &v);
                            ctx.note_run_finished();
                            (i, Some(v))
                        })
                        .collect();
                }
                Ok(vs) => {
                    *scratch = make_scratch();
                    let msg = format!(
                        "batch closure returned {} results for {} runs",
                        vs.len(),
                        items.len()
                    );
                    return block
                        .iter()
                        .map(|&i| {
                            quarantine_run(i, msg.clone());
                            ctx.note_run_finished();
                            (i, None)
                        })
                        .collect();
                }
                Err(_) => {
                    // A poisoned seed somewhere in the block: rebuild the
                    // scratch and fall through to one-run-at-a-time retry
                    // so the healthy seeds still complete.
                    telemetry.counter_inc("campaign.batches_retried");
                    *scratch = make_scratch();
                }
            }
        }
        block
            .iter()
            .map(|&i| {
                let v = execute_single(i, scratch);
                ctx.note_run_finished();
                (i, v)
            })
            .collect()
    };

    // The worker loop: claim blocks until the pending list runs dry or
    // cancellation is requested, keeping results locally.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = make_scratch();
        let mut local = Vec::new();
        while !ctx.is_cancelled() {
            let start = cursor.fetch_add(batch_width, Ordering::Relaxed);
            if start >= pending.len() {
                break;
            }
            let end = (start + batch_width).min(pending.len());
            local.extend(execute_block(&pending[start..end], &mut scratch));
        }
        local
    };
    // A single worker stays on the calling thread: the server runs its
    // campaigns at one thread on the handler thread, with no spawn. A
    // spawned worker's telemetry shard is folded into the registry's
    // accumulator once the worker exits.
    let threads = threads.max(1).min(pending.len().div_ceil(batch_width).max(1));
    let partials: Vec<Vec<(u32, Option<T>)>> = if threads == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join().expect("campaign worker panicked")).collect()
        })
    };
    for (i, v) in partials.into_iter().flatten() {
        results[i as usize] = v;
    }

    let cancelled = ctx.is_cancelled();
    final_flush()?;
    if cancelled {
        return Err(ctx.interrupted_error());
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalMeta};
    use dls_telemetry::Level;
    use std::time::Duration;

    /// The runner at width 1 over a per-run closure — the shape of every
    /// scalar caller (sweeps, fault sweeps, Figure 9).
    fn scalar<T, F>(
        runs: u32,
        seed: u64,
        threads: usize,
        telemetry: &Telemetry,
        ctx: &ExecContext,
        cell: &str,
        f: F,
    ) -> Result<Vec<Option<T>>, ReproError>
    where
        T: Send + Serialize + for<'de> Deserialize<'de>,
        F: Fn(u32, u64) -> T + Sync,
    {
        run_campaign_resilient_batched(
            runs,
            seed,
            threads,
            1,
            telemetry,
            ctx,
            cell,
            || (),
            |items, _: &mut ()| items.iter().map(|&(i, s)| f(i, s)).collect(),
        )
    }

    /// [`scalar`] on a fresh transient context, every run present.
    fn plain<T, F>(runs: u32, seed: u64, threads: usize, f: F) -> Vec<T>
    where
        T: Send + Serialize + for<'de> Deserialize<'de>,
        F: Fn(u32, u64) -> T + Sync,
    {
        let ctx = ExecContext::transient();
        let out = scalar(runs, seed, threads, &Telemetry::disabled(), &ctx, "c", f).unwrap();
        out.into_iter().map(|r| r.expect("no run quarantined")).collect()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dls-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> JournalMeta {
        JournalMeta::new("test", "runs=40", 5)
    }

    #[test]
    fn runs_come_back_in_order_with_stream_seeds() {
        let seq = plain(37, 9, 1, |i, s| vec![u64::from(i), s]);
        assert_eq!(seq[0][0], 0);
        assert_eq!(seq[36][0], 36);
        let expect: Vec<u64> = dls_rng::seed_stream(9).take(37).collect();
        assert_eq!(seq.iter().map(|x| x[1]).collect::<Vec<_>>(), expect);
        assert_ne!(plain(10, 1, 2, |_, s| s), plain(10, 2, 2, |_, s| s), "seed-dependent");
    }

    #[test]
    fn zero_runs_and_surplus_threads_are_fine() {
        assert!(plain(0, 1, 4, |_, s| s).is_empty());
        assert_eq!(plain(3, 1, 64, |i, _| i), vec![0, 1, 2]);
    }

    /// Work-stealing must stay element-identical to the sequential path for
    /// every thread count and batch width, even when run times are wildly
    /// uneven (the Figure 9 outlier shape that motivated stealing over
    /// static blocks).
    #[test]
    fn element_identical_under_skew_for_any_threads_and_width() {
        let skewed = |i: u32, s: u64| {
            // Make run 0 of each group of 8 far heavier than the rest.
            let spins = if i.is_multiple_of(8) { 20_000 } else { 50 };
            let mut acc = s;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            acc ^ u64::from(i)
        };
        let want = plain(64, 11, 1, skewed);
        for width in [1usize, 3, 4, 16, 64] {
            for threads in [1usize, 2, 3, 8, 16] {
                let ctx = ExecContext::transient();
                let out = run_campaign_resilient_batched(
                    64,
                    11,
                    threads,
                    width,
                    &Telemetry::disabled(),
                    &ctx,
                    "c",
                    || (),
                    |items, _: &mut ()| items.iter().map(|&(i, s)| skewed(i, s)).collect(),
                )
                .unwrap();
                let out: Vec<u64> = out.into_iter().map(Option::unwrap).collect();
                assert_eq!(out, want, "width={width} threads={threads}");
                assert!(ctx.quarantined().is_empty());
            }
        }
    }

    /// Width 1 is the scalar runner: every run is started, completed and
    /// timed on its own, and no lockstep block is ever recorded.
    #[test]
    fn width_one_times_every_run_and_records_no_batch() {
        for threads in [1, 4] {
            let tel = Telemetry::enabled();
            let out = scalar(25, 7, threads, &tel, &ExecContext::transient(), "c", |_, s| s);
            assert_eq!(
                out.unwrap().into_iter().flatten().collect::<Vec<_>>(),
                plain(25, 7, 1, |_, s| s)
            );
            let snap = tel.snapshot();
            assert_eq!(snap.counter("campaign.runs_started"), Some(25));
            assert_eq!(snap.counter("campaign.runs_completed"), Some(25));
            assert_eq!(snap.histogram("campaign.run_wall_s").unwrap().count, 25);
            assert!(snap.histogram("campaign.batch_wall_s").is_none(), "threads = {threads}");
        }
    }

    /// Golden values pinning the per-cell seed derivation. Changing these
    /// silently re-seeds every published figure campaign — any failure here
    /// must be a deliberate, documented break.
    #[test]
    fn cell_seed_golden_values() {
        assert_eq!(cell_seed(0x20170529, 0), 0x8212BA4D4A5EFF91);
        assert_eq!(cell_seed(0x20170529, 1), 0x69D47056233C54D3);
        assert_eq!(cell_seed(0x20170529, 2), 0x6FADA7CD46E679F5);
        assert_eq!(cell_seed(0x20170529, 4), 0xE213256B3760F3C8);
        assert_eq!(cell_seed(0x53EE9, 0), 0x0F4A9A060E303809);
        assert_eq!(cell_seed(0x53EE9, 3), 0xA6E988352D521AFE);
    }

    #[test]
    fn cell_seeds_are_distinct_where_xor_mixing_collided() {
        // The old `seed ^ n ^ (p << 24)` mixing collided whenever two cells
        // xor-ed to the same value; stream-derived seeds cannot.
        let seeds: Vec<u64> = (0..64).map(|i| cell_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    /// A scratch arena is a cache, not an input: reusing buffers across
    /// replications must leave every element identical to the scratch-free
    /// runner, for any thread count.
    #[test]
    fn scratch_campaign_is_element_identical() {
        let want = plain(48, 13, 1, |i, s| s.rotate_left(i % 7));
        for threads in [1, 3, 8] {
            let out = run_campaign_resilient_batched(
                48,
                13,
                threads,
                1,
                &Telemetry::disabled(),
                &ExecContext::transient(),
                "c",
                Vec::<u64>::new,
                |items, scratch| {
                    // Dirty the scratch with run-dependent junk; the result
                    // must not depend on what a previous run left behind.
                    scratch.extend(items.iter().map(|&(_, s)| s));
                    items.iter().map(|&(i, s)| s.rotate_left(i % 7)).collect()
                },
            )
            .unwrap();
            let out: Vec<u64> = out.into_iter().map(Option::unwrap).collect();
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_is_rebuilt_after_a_panic() {
        for width in [1, 3] {
            let ctx = ExecContext::transient();
            let out = run_campaign_resilient_batched(
                12,
                5,
                1,
                width,
                &Telemetry::disabled(),
                &ctx,
                "c",
                || 0u64,
                |items, scratch: &mut u64| {
                    assert_eq!(*scratch % 2, 0, "scratch from a panicked run leaked");
                    *scratch += 2;
                    if items.iter().any(|&(i, _)| i == 7) {
                        *scratch = 1; // poison, then die: the runner must rebuild
                        panic!("boom");
                    }
                    items.iter().map(|&(_, s)| s).collect()
                },
            )
            .unwrap();
            assert!(out[7].is_none(), "width = {width}");
            assert_eq!(out.iter().filter(|r| r.is_some()).count(), 11, "width = {width}");
            assert_eq!(ctx.quarantined().len(), 1);
        }
    }

    #[test]
    fn panicking_run_is_quarantined_and_the_rest_complete() {
        let ctx = ExecContext::transient();
        let out = scalar(16, 5, 4, &Telemetry::disabled(), &ctx, "cell-x", |i, s| {
            if i == 3 {
                panic!("injected failure in run {i}");
            }
            s
        })
        .unwrap();
        assert!(out[3].is_none(), "panicking run must be quarantined");
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 15);
        let q = ctx.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].cell, "cell-x");
        assert_eq!(q[0].run, 3);
        assert_eq!(q[0].seed, seed_stream(5).nth(3).unwrap());
        assert!(q[0].panic_message.contains("injected failure in run 3"));
    }

    #[test]
    fn progress_and_logger_observe_a_campaign() {
        let progress = Progress::new();
        let logger = Logger::enabled();
        let ctx =
            ExecContext::transient().with_progress(progress.clone()).with_logger(logger.clone());
        let out = scalar(
            HEARTBEAT_EVERY as u32 + 3,
            7,
            2,
            &Telemetry::disabled(),
            &ctx,
            "cell-p",
            |i, s| {
                if i == 1 {
                    panic!("boom");
                }
                s
            },
        )
        .unwrap();
        assert_eq!(out.len(), HEARTBEAT_EVERY as usize + 3);

        let snap = progress.snapshot();
        assert_eq!(snap.label, "cell-p");
        assert_eq!(snap.total, HEARTBEAT_EVERY + 3);
        assert_eq!(snap.done, HEARTBEAT_EVERY + 3, "quarantined runs still count as executed");
        assert_eq!(snap.eta_s.map(|e| e < 1e3), Some(true));

        let records = logger.recent();
        let msgs: Vec<&str> = records.iter().map(|r| r.message.as_str()).collect();
        assert!(msgs.contains(&"cell start"));
        assert!(msgs.contains(&"heartbeat"), "{msgs:?}");
        let quarantine =
            records.iter().find(|r| r.message == "run quarantined").expect("quarantine event");
        assert_eq!(quarantine.level, Level::Warn);
        assert!(quarantine
            .fields
            .iter()
            .any(|(k, v)| *k == "cell" && v.as_str() == Some("cell-p")));
        // The completion heartbeat reports done == total.
        let last_beat = records.iter().rev().find(|r| r.message == "heartbeat").unwrap();
        assert!(last_beat
            .fields
            .iter()
            .any(|(k, v)| *k == "done" && v.as_f64() == Some((HEARTBEAT_EVERY + 3) as f64)));
    }

    /// Workers finishing at once must never log a heartbeat behind an
    /// earlier one, and the completion heartbeat comes last.
    #[test]
    fn heartbeats_never_go_backwards_across_workers() {
        // The interleaving that used to reorder them, forced: worker A
        // counts run 32, worker B counts the last three runs and beats,
        // then A's overtaken beat arrives.
        let p = Progress::new();
        p.begin_cell("c", HEARTBEAT_EVERY + 3);
        for _ in 0..HEARTBEAT_EVERY + 3 {
            p.note_done();
        }
        let mut beats = Vec::new();
        p.heartbeat(|snap| beats.push(snap.done));
        p.heartbeat(|snap| beats.push(snap.done));
        assert_eq!(beats, [HEARTBEAT_EVERY + 3]);

        let progress = Progress::new();
        let logger = Logger::enabled();
        let ctx =
            ExecContext::transient().with_progress(progress.clone()).with_logger(logger.clone());
        let total = 256 * HEARTBEAT_EVERY;
        progress.begin_cell("cell-h", total);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| (0..total / 8).for_each(|_| ctx.note_run_finished()));
            }
        });
        let done: Vec<f64> = logger
            .recent()
            .iter()
            .filter(|r| r.message == "heartbeat")
            .flat_map(|r| r.fields.iter().filter(|(k, _)| *k == "done").map(|(_, v)| v.as_f64()))
            .map(Option::unwrap)
            .collect();
        assert!(done.windows(2).all(|w| w[0] < w[1]), "{done:?}");
        assert_eq!(done.last(), Some(&(total as f64)));
    }

    #[test]
    fn progress_eta_extrapolates_from_rate() {
        let p = Progress::new();
        p.begin_cell("c", 10);
        assert_eq!(p.snapshot().eta_s, None, "no ETA before the first run");
        for _ in 0..5 {
            p.note_done();
        }
        let snap = p.snapshot();
        assert_eq!((snap.done, snap.total), (5, 10));
        let eta = snap.eta_s.unwrap();
        // Half done: ETA equals elapsed (to floating-point accuracy).
        assert!((eta - snap.elapsed_s).abs() <= 1e-3 * snap.elapsed_s.max(1e-9));
    }

    /// Regression for the poisoned-lock cascade: a panic while holding the
    /// quarantine mutex used to abort every later run via
    /// `.expect("quarantine lock poisoned")`, despite `catch_unwind`
    /// quarantine existing precisely to contain panics. A quarantined
    /// panicking run followed by a clean campaign must now complete cleanly.
    #[test]
    fn quarantined_panic_does_not_poison_later_campaigns() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ctx = ExecContext::transient();
        // Poison the quarantine mutex the way a worker panic would: die
        // while holding the guard.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = ctx.quarantined.lock().unwrap();
            panic!("poison for test");
        }));
        assert!(caught.is_err());
        assert!(ctx.quarantined.is_poisoned());

        // Campaign 1: one panicking run. Recording its quarantine entry
        // goes through the poisoned lock and must recover.
        let out = scalar(8, 5, 2, &Telemetry::disabled(), &ctx, "c1", |i, s| {
            if i == 2 {
                panic!("boom");
            }
            s
        })
        .unwrap();
        assert!(out[2].is_none());
        assert_eq!(ctx.quarantined().len(), 1);

        // Campaign 2 on the same context: clean, all runs present — the
        // earlier panic must not cascade.
        let out = scalar(8, 5, 2, &Telemetry::disabled(), &ctx, "c2", |_, s| s).unwrap();
        assert!(out.iter().all(Option::is_some), "clean campaign after a quarantined panic");
        assert_eq!(ctx.quarantined().len(), 1);
    }

    fn run_value(i: u32, s: u64) -> f64 {
        (s ^ u64::from(i)) as f64 * 0.1
    }

    /// Interrupt at one batch width, resume at another: batch boundaries
    /// are an execution detail, so the journal replays per-run values and
    /// the final vector is bit-identical to the uninterrupted campaign.
    #[test]
    fn interrupted_campaign_resumes_bit_identically_across_widths() {
        let full = plain(40, 5, 1, run_value);
        for (phase1_width, phase2_width) in [(1, 1), (8, 5), (1, 16)] {
            let dir = tmp_dir(&format!("resume-{phase1_width}-{phase2_width}"));
            let run = |width: usize, tel: &Telemetry, ctx: &ExecContext| {
                run_campaign_resilient_batched(
                    40,
                    5,
                    3,
                    width,
                    tel,
                    ctx,
                    "c",
                    || (),
                    |items, _: &mut ()| items.iter().map(|&(i, s)| run_value(i, s)).collect(),
                )
            };

            // Phase 1: cancel after ~half the runs.
            let ctx = ExecContext::with_journal(Journal::open(&dir, &meta()).unwrap())
                .with_cancel_after(16);
            let err = run(phase1_width, &Telemetry::disabled(), &ctx).unwrap_err();
            assert_eq!(err.exit_code(), crate::error::EXIT_INTERRUPTED);
            assert!(err.to_string().contains("--resume"), "hint present: {err}");

            // Phase 2: resume from the journal.
            let tel = Telemetry::enabled();
            let journal = Journal::open(&dir, &meta()).unwrap();
            assert!(journal.resumed() >= 16, "phase 1 journaled its completed runs");
            let resumed = journal.resumed();
            let out = run(phase2_width, &tel, &ExecContext::with_journal(journal)).unwrap();
            let out: Vec<f64> = out.into_iter().map(Option::unwrap).collect();
            assert_eq!(out, full, "widths {phase1_width} -> {phase2_width}");
            let snap = tel.snapshot();
            assert_eq!(snap.counter("journal.runs_skipped"), Some(resumed));
            assert_eq!(snap.counter("campaign.runs_started"), Some(40 - resumed));
            assert_eq!(snap.counter("journal.records_quarantined"), None, "a clean journal");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn pre_cancelled_context_flushes_and_interrupts_immediately() {
        let flag = CancelFlag::new();
        flag.cancel();
        let ctx = ExecContext::transient().with_cancel_flag(flag);
        let executed = AtomicU64::new(0);
        let err = scalar(8, 5, 2, &Telemetry::disabled(), &ctx, "c", |_, s| {
            executed.fetch_add(1, Ordering::Relaxed);
            s
        })
        .unwrap_err();
        assert!(matches!(err, ReproError::Interrupted { resume_dir: None }));
        assert_eq!(executed.load(Ordering::Relaxed), 0, "no run may start after cancel");
    }

    #[test]
    fn a_passed_deadline_stops_the_campaign_at_the_next_block_claim() {
        let at = Instant::now() + Duration::from_millis(50);
        let ctx = ExecContext::transient().with_deadline(at);
        let executed = AtomicU64::new(0);
        let err = scalar(8, 5, 1, &Telemetry::disabled(), &ctx, "c", |i, s| {
            executed.fetch_add(1, Ordering::Relaxed);
            while i == 2 && Instant::now() < at {
                std::thread::sleep(Duration::from_millis(1));
            }
            s
        })
        .unwrap_err();
        assert!(matches!(err, ReproError::Interrupted { resume_dir: None }));
        assert_eq!(executed.load(Ordering::Relaxed), 3, "no block is claimed past the deadline");
    }

    #[test]
    fn a_transient_context_without_a_deadline_runs_to_completion() {
        let ctx = ExecContext::transient();
        assert!(!ctx.is_cancelled());
        let out = scalar(8, 5, 2, &Telemetry::disabled(), &ctx, "c", |_, s| s).unwrap();
        assert!(out.iter().all(Option::is_some));
        // A deadline that has not passed changes nothing either.
        let ctx =
            ExecContext::transient().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(scalar(8, 5, 2, &Telemetry::disabled(), &ctx, "c", |_, s| s).unwrap(), out);
    }

    #[test]
    fn campaigns_sharing_a_seed_journal_independently() {
        let dir = tmp_dir("shared-seed");
        let ctx = ExecContext::with_journal(Journal::open(&dir, &meta()).unwrap());
        let tel = Telemetry::disabled();
        let a = scalar(6, 9, 1, &tel, &ctx, "baseline", |_, s| s).unwrap();
        let b = scalar(6, 9, 1, &tel, &ctx, "loss(2%)", |_, s| s ^ 1).unwrap();
        assert_ne!(a, b, "distinct cells with one seed must not replay each other");
        assert_eq!(ctx.journal().unwrap().stats().recorded, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A pure per-item function of `(run_index, run_seed)`.
    fn per_item(items: &[(u32, u64)]) -> Vec<u64> {
        items.iter().map(|&(i, s)| s.wrapping_mul(31).wrapping_add(u64::from(i))).collect()
    }

    #[test]
    fn batched_panic_quarantines_only_the_poisoned_run() {
        let tel = Telemetry::enabled();
        let ctx = ExecContext::transient();
        let out = run_campaign_resilient_batched(
            20,
            7,
            2,
            4,
            &tel,
            &ctx,
            "cell-b",
            || (),
            |items, _: &mut ()| {
                if items.iter().any(|&(i, _)| i == 5) {
                    panic!("poisoned seed in run 5");
                }
                per_item(items)
            },
        )
        .unwrap();
        assert!(out[5].is_none(), "poisoned run quarantined");
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 19, "healthy block mates complete");
        let q = ctx.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].run, 5);
        assert!(q[0].panic_message.contains("poisoned seed"));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("campaign.runs_started"), Some(20), "no double-count on retry");
        assert_eq!(snap.counter("campaign.runs_completed"), Some(19));
        assert_eq!(snap.counter("campaign.runs_quarantined"), Some(1));
        assert_eq!(snap.counter("campaign.batches_retried"), Some(1));
    }

    #[test]
    fn batched_arity_mismatch_quarantines_the_block_with_explanation() {
        let ctx = ExecContext::transient();
        let out = run_campaign_resilient_batched(
            8,
            7,
            1,
            4,
            &Telemetry::disabled(),
            &ctx,
            "c",
            || (),
            |items, _: &mut ()| {
                let mut v = per_item(items);
                if items[0].0 == 4 {
                    v.pop(); // drop one result: alignment is unknowable
                }
                v
            },
        )
        .unwrap();
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 4, "first block unaffected");
        assert!(out[4..].iter().all(Option::is_none), "whole misaligned block quarantined");
        let q = ctx.quarantined();
        assert_eq!(q.len(), 4);
        assert!(q[0].panic_message.contains("returned 3 results for 4 runs"));
    }

    #[test]
    fn batch_width_tiers_shrink_with_n() {
        assert_eq!(batch_width_for(1024), 32);
        assert_eq!(batch_width_for(8192), 32);
        assert_eq!(batch_width_for(65536), 4);
        assert_eq!(batch_width_for(524288), 4);
        assert_eq!(batch_width_for(0), 32, "degenerate n clamps instead of dividing by zero");
        assert_eq!(batch_width_for(u64::MAX), 4);
    }
}

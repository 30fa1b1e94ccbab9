//! Benchmark-side spans: self time and call counts per layer.
//!
//! Every call into a layer is wrapped in [`span`]. A span's self time is its
//! duration minus the time covered by spans opened inside it on the same
//! thread. Totals accumulate in a thread-local and are merged into a global
//! table by [`flush_thread`], so the hot path never takes a lock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers the benchmark opens spans around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The campaign closure handed to the runner (its inclusive time is
    /// what the runner's self time is measured against).
    Closure,
    /// `Workload::generate_into` / `Workload::generate`.
    Generate,
    /// `Technique::build`.
    Build,
    /// `ChunkScheduler::next_chunk` and `record_completion`, called from
    /// inside the simulator (sampled, see [`sampled_span`]).
    Chunk,
    /// `simulate_with_scheduler_metered`.
    Msgsim,
    /// `BatchDirectSimulator::run_batch` on the lockstep kernel.
    HagerupBatch,
    /// `BatchDirectSimulator::run_batch` on the per-seed scalar path.
    HagerupFallback,
    /// `Journal::record` and `Journal::flush`.
    JournalRecord,
    /// `Journal::open` over a complete journal.
    JournalOpen,
    /// `write_artifact`.
    Artifact,
    /// `ResultCache::open` over a populated cache directory.
    CacheOpen,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 11;

/// Work counted at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Task times generated.
    Tasks,
    /// Realizations generated.
    Realizations,
    /// Simulator calls.
    MsgsimCalls,
    /// Chunks scheduled by msgsim (its outcome's count).
    MsgsimChunks,
    /// Discrete events the engine dispatched inside msgsim.
    DesEvents,
    /// Tasks simulated by the replica.
    HagerupTasks,
    /// Chunks scheduled by the replica.
    HagerupChunks,
    /// Campaign runs completed.
    Runs,
}

/// Number of [`Count`] variants.
pub const COUNTS: usize = 8;

/// Per-layer accumulators.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Self time, nanoseconds.
    pub self_ns: [u64; LAYERS],
    /// Inclusive time, nanoseconds.
    pub total_ns: [u64; LAYERS],
    /// Spans closed.
    pub calls: [u64; LAYERS],
    /// Counters.
    pub counts: [u64; COUNTS],
}

impl Totals {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..LAYERS {
            self.self_ns[i] += other.self_ns[i];
            self.total_ns[i] += other.total_ns[i];
            self.calls[i] += other.calls[i];
        }
        for i in 0..COUNTS {
            self.counts[i] += other.counts[i];
        }
    }

    /// Self time of `layer`, seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Inclusive time of `layer`, seconds.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64 * 1e-9
    }

    /// Spans closed for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Value of counter `c`.
    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }
}

#[derive(Default)]
struct ThreadState {
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    /// Calls seen by [`sampled_span`].
    ticks: u64,
    totals: Totals,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

static GLOBAL: Mutex<Option<Totals>> = Mutex::new(None);

/// What an empty span measures, nanoseconds; subtracted from every span.
static TIMER_NS: AtomicU64 = AtomicU64::new(0);

/// Measures the cost of an empty span (the median of many) so that
/// [`sampled_span`] estimates of very short calls do not count the clock.
pub fn calibrate() {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    TIMER_NS.store(samples[samples.len() / 2], Ordering::Relaxed);
}

/// The calibrated empty-span cost, nanoseconds.
pub fn timer_ns() -> u64 {
    TIMER_NS.load(Ordering::Relaxed)
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    timed(layer, 1, f)
}

/// A span for calls too frequent and too short to time each one: times
/// every `every`-th call on this thread and counts its duration `every`
/// times, so the layer's (and its parent's) totals are an unbiased
/// estimate at a `1/every` share of the timer cost.
#[inline]
pub fn sampled_span<R>(layer: Layer, every: u64, f: impl FnOnce() -> R) -> R {
    let sample = STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.ticks += 1;
        s.ticks % every == 0
    });
    if sample {
        timed(layer, every, f)
    } else {
        f()
    }
}

#[inline]
fn timed<R>(layer: Layer, weight: u64, f: impl FnOnce() -> R) -> R {
    STATE.with(|s| s.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let raw = start.elapsed().as_nanos() as u64;
    let dur = raw.saturating_sub(TIMER_NS.load(Ordering::Relaxed)) * weight;
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let child = s.open.pop().expect("span stack is balanced");
        if let Some(parent) = s.open.last_mut() {
            *parent += dur;
        }
        let i = layer as usize;
        s.totals.self_ns[i] += dur.saturating_sub(child);
        s.totals.total_ns[i] += dur;
        s.totals.calls[i] += weight;
    });
    out
}

/// Adds `n` to counter `c` on this thread.
#[inline]
pub fn count(c: Count, n: u64) {
    STATE.with(|s| s.borrow_mut().totals.counts[c as usize] += n);
}

/// Moves this thread's totals into the global table. Never panics (it
/// runs from `Drop`): a poisoned table only loses this thread's share.
pub fn flush_thread() {
    let local = STATE.with(|s| std::mem::take(&mut s.borrow_mut().totals));
    if let Ok(mut global) = GLOBAL.lock() {
        global.get_or_insert_with(Totals::default).merge(&local);
    }
}

/// Flushes this thread and returns (and resets) the global table.
pub fn take() -> Totals {
    flush_thread();
    GLOBAL.lock().expect("span table lock poisoned").take().unwrap_or_default()
}

/// Flushes the owning thread's spans when dropped. Campaign scratch holds
/// one, so each runner worker hands its totals over before it is joined.
#[derive(Default)]
pub struct FlushOnDrop;

impl Drop for FlushOnDrop {
    fn drop(&mut self) {
        flush_thread();
    }
}

//! Host-side telemetry: a lock-cheap metrics registry and scoped timers.
//!
//! `dls-trace` observes the *simulated* (virtual-time) world; this crate
//! observes the *host-side* execution cost of running those simulations —
//! the quantity the `repro bench` perf harness tracks PR-over-PR. It
//! follows the same zero-cost-when-disabled pattern as `dls_trace::Tracer`:
//!
//! * [`Telemetry`] — the cheap, cloneable, `Send + Sync` handle threaded
//!   through the campaign runner and the simulator entry points. A disabled
//!   handle ([`Telemetry::disabled`]) reduces every hook to one `Option`
//!   branch: no clock is read, nothing allocates, nothing locks, and the
//!   simulation outputs stay bit-identical to uninstrumented runs (pinned
//!   by `tests/telemetry_determinism.rs` at the workspace root).
//! * Monotonic **counters** (saturating `u64`), last-write-wins **gauges**
//!   and **histograms** with fixed log-spaced buckets. Histograms keep the
//!   raw observations, so percentiles computed at [`Telemetry::snapshot`]
//!   time are *exact*, not bucket-interpolated.
//! * [`Span`] — a drop guard that times a scope on the wall clock and
//!   records the elapsed seconds into a histogram.
//! * Per-thread **shards**: each recording thread writes to its own shard
//!   (an uncontended mutex — one CAS), so campaign worker threads never
//!   contend on a shared line. [`Telemetry::snapshot`] merges all shards.
//! * [`Logger`] — a structured, leveled JSONL event log (monotonic
//!   sequence numbers, bounded ring buffer) with the same
//!   zero-cost-when-disabled contract.
//! * [`to_prometheus_text`] — the Prometheus text-exposition encoding of
//!   a [`Snapshot`], shared by the CLI artifact writer and the campaign
//!   service's `GET /metrics`.
//!
//! # Example
//!
//! ```
//! use dls_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.counter_add("runs", 3);
//! tel.observe_secs("run_wall_s", 0.25);
//! {
//!     let _span = tel.span("scope_wall_s"); // records on drop
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("runs"), Some(3));
//! assert_eq!(snap.histogram("run_wall_s").unwrap().count, 1);
//!
//! // A disabled handle never reads the clock or allocates.
//! let off = Telemetry::disabled();
//! off.counter_add("runs", 1);
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod log;
mod prom;
mod registry;
mod snapshot;

pub use hist::{bucket_le, exact_percentile, BUCKETS, MAX_SAMPLES};
pub use log::{Level, LogRecord, Logger, DEFAULT_LOG_CAPACITY};
pub use prom::{
    escape_label_value, parse_prometheus_text, sanitize_metric_name, to_prometheus_text, PromSample,
};
pub use snapshot::{BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};

use registry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// The cloneable telemetry handle.
///
/// Clones share one registry; recording from any thread lands in that
/// thread's shard of the shared registry. The handle is `Send + Sync`, so
/// one instance can be captured by every worker closure of a campaign.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Telemetry {
    /// The no-op handle (also the `Default`): every operation is one branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A handle backed by a fresh, empty registry.
    pub fn enabled() -> Self {
        Telemetry { inner: Some(Arc::new(Registry::new())) }
    }

    /// Whether a registry is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the named monotonic counter.
    ///
    /// Counters saturate at `u64::MAX` instead of wrapping: a long-running
    /// process reports a pegged counter rather than a small bogus value.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(reg) = &self.inner {
            reg.with_shard(|shard| {
                let c = shard.counters.entry(name).or_insert(0);
                *c = c.saturating_add(delta);
            });
        }
    }

    /// Increments the named counter by one.
    pub fn counter_inc(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Sets the named gauge (last write wins, across all threads).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(reg) = &self.inner {
            let seq = reg.next_gauge_seq();
            reg.with_shard(|shard| {
                shard.gauges.insert(name, (seq, value));
            });
        }
    }

    /// Records one observation (in seconds for wall-clock histograms,
    /// though any non-negative unit works) into the named histogram.
    ///
    /// NaN observations are counted separately (`nan_count`) and excluded
    /// from the buckets, the moments and the percentiles — mirroring the
    /// workspace NaN policy in `dls-metrics`.
    pub fn observe_secs(&self, name: &'static str, value: f64) {
        if let Some(reg) = &self.inner {
            reg.with_shard(|shard| {
                shard.histograms.entry(name).or_default().record(value);
            });
        }
    }

    /// Starts a scoped wall-clock timer that records the elapsed seconds
    /// into histogram `name` when dropped. When disabled, the clock is
    /// never read.
    pub fn span(&self, name: &'static str) -> Span {
        Span { telemetry: self.clone(), name, start: self.inner.as_ref().map(|_| Instant::now()) }
    }

    /// Aggregates every per-thread shard into one deterministic snapshot
    /// (metrics sorted by name). Recording may continue afterwards; the
    /// snapshot is a consistent point-in-time merge, not a reset.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(reg) => reg.snapshot(),
            None => Snapshot::default(),
        }
    }
}

/// Scoped wall-clock timer; see [`Telemetry::span`].
///
/// Dropping the span records the elapsed time. Use [`Span::finish`] to end
/// it explicitly mid-scope.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    telemetry: Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span now, recording the elapsed seconds.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.telemetry.observe_secs(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_add("c", 5);
        t.gauge_set("g", 1.0);
        t.observe_secs("h", 0.5);
        t.span("s").finish();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let t = Telemetry::enabled();
        t.counter_add("a", 2);
        t.counter_inc("a");
        t.counter_add("b", u64::MAX);
        t.counter_add("b", 10); // must saturate, not wrap
        let s = t.snapshot();
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.counter("b"), Some(u64::MAX));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let t = Telemetry::enabled();
        t.gauge_set("g", 1.0);
        t.gauge_set("g", 7.5);
        assert_eq!(t.snapshot().gauge("g"), Some(7.5));
    }

    #[test]
    fn histogram_moments_and_exact_percentiles() {
        let t = Telemetry::enabled();
        for v in [1.0, 2.0, 3.0, 4.0] {
            t.observe_secs("h", v);
        }
        let s = t.snapshot();
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean - 2.5).abs() < 1e-12);
        // Exact (sample-based) percentiles, not bucket midpoints.
        assert!((h.p50 - 2.5).abs() < 1e-12);
        assert_eq!(h.p10, 1.3);
        assert!((h.p90 - 3.7).abs() < 1e-12);
        let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_total, 4);
    }

    #[test]
    fn histogram_counts_nan_separately() {
        let t = Telemetry::enabled();
        t.observe_secs("h", 1.0);
        t.observe_secs("h", f64::NAN);
        let s = t.snapshot();
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.nan_count, 1);
        assert_eq!(h.p50, 1.0);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter_inc("c");
        t2.counter_inc("c");
        assert_eq!(t.snapshot().counter("c"), Some(2));
    }

    #[test]
    fn shards_merge_across_threads() {
        let t = Telemetry::enabled();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.counter_inc("runs");
                    }
                    t.observe_secs("wall", i as f64 + 1.0);
                });
            }
        });
        let s = t.snapshot();
        assert_eq!(s.counter("runs"), Some(400));
        let h = s.histogram("wall").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn two_registries_do_not_bleed_into_each_other() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.counter_inc("x");
        b.counter_add("x", 10);
        assert_eq!(a.snapshot().counter("x"), Some(1));
        assert_eq!(b.snapshot().counter("x"), Some(10));
    }

    #[test]
    fn span_records_nonnegative_elapsed() {
        let t = Telemetry::enabled();
        {
            let _span = t.span("scope");
        }
        let s = t.snapshot();
        let h = s.histogram("scope").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.min >= 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_json_round_trips() {
        let t = Telemetry::enabled();
        t.counter_inc("z");
        t.counter_inc("a");
        t.gauge_set("m", 2.0);
        t.observe_secs("h", 0.125);
        let s = t.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
        let json = s.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.counter("a"), Some(1));
        assert_eq!(back.gauge("m"), Some(2.0));
        assert_eq!(back.histogram("h").unwrap().count, 1);
    }
}

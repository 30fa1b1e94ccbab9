//! Performance metrics used across the paper and its reproduction targets.
//!
//! * **Tzen & Ni (TSS publication) metrics** — speedup Γ, degree of
//!   scheduling overhead Θ and degree of load imbalance Λ (their eqs.
//!   11–13), computed from total computing time X, scheduling time O and
//!   waiting time W over `p` PEs.
//! * **Hagerup (BOLD publication) metric** — the *average wasted time* of a
//!   run: per worker, idle + scheduling overhead; averaged over workers,
//!   then over runs (paper §III-B).
//! * **Reproducibility metrics** — discrepancy and relative discrepancy
//!   between a simulated value and the originally published value
//!   (paper Figures 5c/5d … 8c/8d).
//! * **Summary statistics** — Welford online mean/variance, percentiles,
//!   trimmed means (used for the Figure 9 outlier analysis).
//! * **Robustness metrics** — makespan degradation, flexibility and the
//!   wasted-work fraction of fault-injected executions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod fairness;
mod robustness;
mod stats;
mod trace_metrics;
mod tzen_ni;
mod wasted;

pub use compare::{ks_test, welch_t_test, TestResult};
pub use fairness::{cov, jain_fairness, max_mean_imbalance, percent_imbalance};
pub use robustness::{flexibility, makespan_degradation, wasted_work_fraction};
pub use stats::{mean_below_threshold, percentile, sort_ascending, trimmed_mean, SummaryStats};
pub use trace_metrics::{breakdown_csv, chunk_size_series, pe_breakdowns, PeBreakdown};
pub use tzen_ni::{LoopMetrics, ResourceSplit};
pub use wasted::{average_wasted_time, wasted_times, OverheadModel, RunCost};

/// Absolute discrepancy `simulated − original` (paper Figures 5c–8c).
///
/// Positive values mean the present simulation runs slower than the
/// originally published value.
pub fn discrepancy(simulated: f64, original: f64) -> f64 {
    simulated - original
}

/// Relative discrepancy in percent of the original value
/// (paper Figures 5d–8d).
pub fn relative_discrepancy_pct(simulated: f64, original: f64) -> f64 {
    assert!(original != 0.0, "relative discrepancy undefined for original == 0");
    100.0 * (simulated - original) / original
}

/// Speedup of a parallel execution against the serial time.
pub fn speedup(serial_time: f64, parallel_time: f64) -> f64 {
    assert!(parallel_time > 0.0, "parallel time must be > 0");
    serial_time / parallel_time
}

/// Parallel efficiency: speedup divided by PE count.
pub fn efficiency(serial_time: f64, parallel_time: f64, p: usize) -> f64 {
    assert!(p > 0, "need at least one PE");
    speedup(serial_time, parallel_time) / p as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrepancy_sign_convention() {
        // "A positive difference indicates that the present simulation runs
        // slower" (paper §IV-B1).
        assert_eq!(discrepancy(10.0, 8.0), 2.0);
        assert_eq!(discrepancy(8.0, 10.0), -2.0);
    }

    #[test]
    fn relative_discrepancy_is_percent_of_original() {
        assert!((relative_discrepancy_pct(11.0, 10.0) - 10.0).abs() < 1e-12);
        assert!((relative_discrepancy_pct(8.5, 10.0) + 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn relative_discrepancy_zero_original_panics() {
        relative_discrepancy_pct(1.0, 0.0);
    }

    #[test]
    fn speedup_and_efficiency() {
        assert_eq!(speedup(100.0, 10.0), 10.0);
        assert_eq!(efficiency(100.0, 10.0, 20), 0.5);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn speedup_rejects_zero_parallel_time() {
        speedup(1.0, 0.0);
    }
}

//! Figure 9: per-run wasted times for FAC with 2 PEs and 524,288 tasks.
//!
//! The paper explains the one outlying discrepancy cell of Figure 8 by
//! plotting each of the 1,000 runs: 15 runs (1.5 %) exceed 400 s, and
//! excluding them collapses the mean to 25.82 s. The mechanism is FAC's
//! moment-aware first batch: with σ/µ = 1 and R = 524,288, the factor
//! x₀ ≈ 1.002, so the first two chunks cover almost all tasks — when the
//! two halves' sums diverge by more than the leftover work can absorb, the
//! run's wasted time explodes.

use crate::error::ReproError;
use crate::runner::{run_campaign_resilient_batched, ExecContext};
use dls_core::{SetupError, Technique};
use dls_metrics::{mean_below_threshold, OverheadModel, SummaryStats};
use dls_msgsim::{simulate, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_workload::Workload;

/// Configuration for the Figure 9 campaign.
#[derive(Debug, Clone)]
pub struct OutlierConfig {
    /// Task count (paper: 524,288).
    pub n: u64,
    /// PE count (paper: 2).
    pub p: usize,
    /// Number of runs (paper: 1,000).
    pub runs: u32,
    /// Scheduling overhead, seconds (paper: 0.5).
    pub h: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl OutlierConfig {
    /// The paper's Figure 9 configuration with a configurable run count.
    pub fn paper(runs: u32) -> Self {
        OutlierConfig {
            n: 524_288,
            p: 2,
            runs,
            h: 0.5,
            seed: 0xF169,
            threads: crate::runner::default_threads(),
        }
    }

    /// A scaled-down configuration exhibiting the same heavy tail in
    /// seconds of CPU time instead of minutes (for tests and benches).
    pub fn scaled(n: u64, runs: u32) -> Self {
        OutlierConfig { n, p: 2, runs, h: 0.5, seed: 0xF169, threads: 1 }
    }
}

/// The outcome of the Figure 9 campaign.
#[derive(Debug, Clone)]
pub struct OutlierAnalysis {
    /// Average wasted time of each run, in run order (the Figure 9 series).
    pub per_run: Vec<f64>,
    /// Outlier threshold used (seconds).
    pub threshold: f64,
    /// Number of runs above the threshold.
    pub outliers: usize,
    /// Mean over all runs.
    pub mean: f64,
    /// Mean excluding runs above the threshold (the paper's 25.82 s).
    pub trimmed_mean: Option<f64>,
    /// Full statistics.
    pub stats: SummaryStats,
}

/// Runs the Figure 9 campaign: FAC through the SimGrid-MSG analog.
///
/// The series is indexed by run (`repro fig9`'s CSV numbers its rows by
/// position), so a quarantined run cannot simply be dropped: a panicking
/// run fails the whole campaign with [`ReproError::RunPanicked`], naming
/// the run and its seed.
pub fn run_outlier(cfg: &OutlierConfig, threshold: f64) -> Result<OutlierAnalysis, ReproError> {
    let workload = Workload::exponential(cfg.n, 1.0)
        .map_err(|_| SetupError::BadMoment("exponential mean must be > 0"))?;
    let platform = Platform::homogeneous_star("pe", cfg.p, 1.0, LinkSpec::negligible());
    let spec = SimSpec::new(Technique::Fac, workload, platform)
        .with_overhead(OverheadModel::PostHocTotal { h: cfg.h });
    // Check the spec once, up front: a bad configuration must come back
    // as Err from this function, not panic a campaign worker thread (where
    // the expect below would otherwise be the first to see it).
    spec.check(None)?;

    let per_run = per_run_series(cfg, |run_seed| {
        simulate(&spec, run_seed).expect("spec checked before the campaign").average_wasted()
    })?;
    let stats = SummaryStats::from_slice(&per_run);
    let outliers = per_run.iter().filter(|&&w| w > threshold).count();
    Ok(OutlierAnalysis {
        threshold,
        outliers,
        mean: stats.mean(),
        trimmed_mean: mean_below_threshold(&per_run, threshold),
        stats,
        per_run,
    })
}

/// Runs `wasted(run_seed)` for every run of `cfg`'s campaign, in run
/// order; the first quarantined run becomes the error.
fn per_run_series(
    cfg: &OutlierConfig,
    wasted: impl Fn(u64) -> f64 + Sync,
) -> Result<Vec<f64>, ReproError> {
    let ctx = ExecContext::transient();
    let per_run = run_campaign_resilient_batched(
        cfg.runs,
        cfg.seed,
        cfg.threads,
        1,
        &Telemetry::disabled(),
        &ctx,
        &format!("FAC n={} p={}", cfg.n, cfg.p),
        || (),
        |items, _: &mut ()| items.iter().map(|&(_, run_seed)| wasted(run_seed)).collect(),
    )?;
    match ctx.quarantined().into_iter().min_by_key(|q| q.run) {
        Some(q) => Err(ReproError::RunPanicked(q)),
        None => Ok(per_run.into_iter().map(|w| w.expect("no run was quarantined")).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_metrics::{percentile, sort_ascending};

    #[test]
    fn scaled_campaign_shows_fac_tail_mechanics() {
        // n = 16,384 keeps a unit test fast while preserving the mechanism:
        // FAC's first batch covers ~97 % of the tasks at p = 2.
        let cfg = OutlierConfig::scaled(16_384, 40);
        let a = run_outlier(&cfg, 100.0).unwrap();
        assert_eq!(a.per_run.len(), 40);
        assert!(a.mean > 0.0);
        // The trimmed mean never exceeds the raw mean.
        if let Some(tm) = a.trimmed_mean {
            assert!(tm <= a.mean + 1e-9);
        }
        // Most runs are cheap: the median is far below the max. The sort
        // goes through the NaN-asserting helper — the unified policy from
        // PR 2 — not a bare `partial_cmp().unwrap()`.
        let mut sorted = a.per_run.clone();
        sort_ascending(&mut sorted);
        let median = percentile(&sorted, 50.0);
        assert!(
            a.stats.max() > 2.0 * median || a.outliers == 0,
            "heavy tail expected: median {median}, max {}",
            a.stats.max()
        );
    }

    #[test]
    fn determinism() {
        let cfg = OutlierConfig::scaled(4_096, 10);
        let a = run_outlier(&cfg, 50.0).unwrap();
        let b = run_outlier(&cfg, 50.0).unwrap();
        assert_eq!(a.per_run, b.per_run);
    }

    #[test]
    fn a_panicking_run_is_a_typed_error_naming_run_and_seed() {
        let cfg = OutlierConfig { threads: 2, ..OutlierConfig::scaled(64, 8) };
        let err = per_run_series(&cfg, |seed| {
            assert_ne!(seed, dls_rng::seed_stream(cfg.seed).nth(5).unwrap(), "poisoned run");
            1.0
        })
        .unwrap_err();
        let ReproError::RunPanicked(q) = &err else { panic!("untyped error: {err:?}") };
        assert_eq!(q.run, 5);
        assert_eq!(q.seed, dls_rng::seed_stream(cfg.seed).nth(5).unwrap());
        assert_eq!(q.cell, "FAC n=64 p=2");
        assert!(q.panic_message.contains("poisoned run"), "{q}");
        let msg = err.to_string();
        assert!(msg.contains("run 5") && msg.contains(&format!("{:#018x}", q.seed)), "{msg}");
        assert_eq!(err.exit_code(), crate::error::EXIT_REGRESSION);
    }

    #[test]
    fn paper_config_shape() {
        let c = OutlierConfig::paper(1000);
        assert_eq!(c.n, 524_288);
        assert_eq!(c.p, 2);
        assert_eq!(c.h, 0.5);
    }
}

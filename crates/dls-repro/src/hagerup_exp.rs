//! Figures 5–8: reproducing the BOLD publication's experiment 1.
//!
//! Eight techniques (STAT, SS, FSC, GSS, TSS, FAC, FAC2, BOLD) schedule
//! `n ∈ {1,024; 8,192; 65,536; 524,288}` tasks onto
//! `p ∈ {2; 8; 64; 256; 1,024}` PEs; task times are exponential with
//! µ = 1 s (σ = 1 s), the scheduling overhead is h = 0.5 s, and the sample
//! mean of the *average wasted time* over 1,000 runs is reported
//! (paper Table III).
//!
//! Per run, both simulators consume the **same** task-time realization:
//!
//! * `dls-msgsim` — the SimGrid-MSG analog (network zeroed out per §III-B:
//!   "bandwidth to a very high value and the latency to a very low value");
//! * `dls-hagerup` — the replica of Hagerup's own simulator, the oracle the
//!   discrepancy columns (Figures 5c/d–8c/d) compare against.

use crate::error::ReproError;
use crate::runner::{batch_width_for, cell_seed, run_campaign_resilient_batched, ExecContext};
use dls_core::{SetupError, Technique};
use dls_hagerup::BatchDirectSimulator;
use dls_metrics::{discrepancy, relative_discrepancy_pct, OverheadModel, SummaryStats};
use dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::{TaskTimes, Workload};
use serde::{Deserialize, Serialize};

/// How the replica oracle's workload realizations relate to msgsim's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// The replica draws its own realizations from a different seed stream
    /// — mirroring the paper, whose comparison values came from Hagerup's
    /// runs with an unreported seed. Discrepancies then reflect
    /// finite-sample noise and shrink as `n` grows (the paper's headline
    /// observation).
    IndependentSeeds,
    /// Both simulators consume identical realizations — the stronger
    /// verification this workspace can do that the paper could not:
    /// discrepancies isolate *simulator* differences and are ≈ 0.
    SharedRealizations,
}

/// Campaign parameters for one figure.
#[derive(Debug, Clone)]
pub struct HagerupConfig {
    /// Task count `n` (one of the four figure variants).
    pub n: u64,
    /// PE counts to sweep.
    pub pes: Vec<usize>,
    /// Independent runs per (technique, p) cell.
    pub runs: u32,
    /// Scheduling overhead `h`, seconds.
    pub h: f64,
    /// Mean task time µ, seconds (σ = µ for the exponential).
    pub mean: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads for the campaign.
    pub threads: usize,
    /// Oracle seeding mode.
    pub oracle: OracleMode,
    /// Techniques to measure (default: the paper's eight).
    pub techniques: Vec<Technique>,
    /// Replica-side batch width: how many seeds the `BatchDirectSimulator`
    /// simulates in lockstep per claimed block (the scratch-arena tier,
    /// [`batch_width_for`]`(n)` by default). `1` forces the scalar path.
    /// Outputs are bit-identical either way; only throughput changes.
    pub batch_width: usize,
}

impl HagerupConfig {
    /// The paper's configuration for task count `n` (Table III),
    /// with a configurable run count.
    pub fn paper(n: u64, runs: u32) -> Self {
        HagerupConfig {
            n,
            pes: vec![2, 8, 64, 256, 1024],
            runs,
            h: 0.5,
            mean: 1.0,
            seed: 0x20170529 ^ n,
            threads: crate::runner::default_threads(),
            oracle: OracleMode::IndependentSeeds,
            techniques: Technique::hagerup_set().to_vec(),
            batch_width: batch_width_for(n),
        }
    }

    /// The campaign's identity for `--resume` journals and the server's
    /// result cache: every field that can change a row (`threads` and
    /// `batch_width` never change an output bit, so they are left out).
    /// The CLI's `fig5`–`fig8` and `repro serve` both key on this text and
    /// existing journals embed it, so its rendering must never change.
    pub fn fingerprint(&self) -> String {
        format!(
            "n={} pes={:?} runs={} h={} mean={} seed={:#x} oracle={:?} techniques={:?}",
            self.n, self.pes, self.runs, self.h, self.mean, self.seed, self.oracle, self.techniques
        )
    }
}

/// Task count `n` of a figure variant (paper Table III): `fig5` → 1,024,
/// `fig6` → 8,192, `fig7` → 65,536, `fig8` → 524,288; `None` for any
/// other name.
pub fn figure_n(fig: &str) -> Option<u64> {
    match fig {
        "fig5" => Some(1_024),
        "fig6" => Some(8_192),
        "fig7" => Some(65_536),
        "fig8" => Some(524_288),
        _ => None,
    }
}

fn figure_workload(cfg: &HagerupConfig) -> Result<Workload, SetupError> {
    Workload::exponential(cfg.n, cfg.mean)
        .map_err(|_| SetupError::BadMoment("exponential mean must be > 0"))
}

/// The spec every msgsim run of the figure's `(technique, p)` cell
/// simulates — and the one `trace::trace_figure_cell` traces.
pub(crate) fn cell_spec(
    cfg: &HagerupConfig,
    technique: Technique,
    p: usize,
) -> Result<SimSpec, SetupError> {
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    Ok(SimSpec::new(technique, figure_workload(cfg)?, platform)
        .with_overhead(OverheadModel::PostHocTotal { h: cfg.h }))
}

/// Seed salt separating the oracle's realization stream from msgsim's.
const ORACLE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-thread scratch for figure campaigns: one realization slot per batch
/// lane, refilled in place across blocks instead of reallocated per run.
/// Purely an allocation cache — every lane's contents depend only on its
/// run's seed. (Clones taken for a `run_batch` call are dropped before the
/// block returns, so the slots stay uniquely owned and `generate_into`
/// keeps its zero-allocation refill.)
#[derive(Default)]
struct FigScratch {
    tasks: Vec<Option<TaskTimes>>,
    oracle: Vec<Option<TaskTimes>>,
}

/// Aggregated result for one (technique, p) cell.
#[derive(Debug, Clone)]
pub struct WastedRow {
    /// Technique name.
    pub technique: String,
    /// Number of PEs.
    pub p: usize,
    /// Sample mean of the average wasted time, SimGrid-MSG analog.
    pub msgsim: f64,
    /// Sample mean of the average wasted time, Hagerup replica (oracle).
    pub replica: f64,
    /// `msgsim − replica`, seconds (Figures 5c–8c).
    pub discrepancy: f64,
    /// `100·(msgsim − replica)/replica` (Figures 5d–8d).
    pub relative_pct: f64,
    /// Full statistics of the msgsim runs.
    pub msgsim_stats: SummaryStats,
    /// Full statistics of the replica runs.
    pub replica_stats: SummaryStats,
}

/// One run's per-technique wasted-time pair, in `cfg.techniques` order —
/// the unit the checkpoint journal stores for figure campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigPair {
    /// Average wasted time, SimGrid-MSG analog.
    pub msgsim: f64,
    /// Average wasted time, Hagerup replica (oracle).
    pub replica: f64,
}

/// Runs the full campaign for one figure (all techniques × all PE counts)
/// under `ctx`: checkpointed into the context's journal (one cell per `p`),
/// cancellable between runs, and with panicking runs quarantined instead
/// of aborting the figure. Quarantined runs are simply excluded from the
/// per-cell statistics. `telemetry` receives campaign-level counters and
/// wall-time histograms plus the `msgsim.*` / `hagerup.*` engine metrics;
/// it never changes the rows (pinned by the workspace
/// `telemetry_determinism` tests). Plain callers pass
/// `&Telemetry::disabled(), &ExecContext::transient()`.
pub fn run_figure_resilient(
    cfg: &HagerupConfig,
    telemetry: &Telemetry,
    ctx: &ExecContext,
) -> Result<Vec<WastedRow>, ReproError> {
    let _wall = telemetry.span("figure.wall_s");
    let techniques = &cfg.techniques;
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let workload = figure_workload(cfg)?;
    let mut rows = Vec::new();

    for (pi, &p) in cfg.pes.iter().enumerate() {
        let sim = BatchDirectSimulator::new(p, overhead);
        // Check every technique's spec once per cell: a bad configuration
        // must surface as Err here, not as a panic inside a worker thread.
        // The replica side reuses each spec's setup for the whole cell.
        let mut prepared = Vec::with_capacity(techniques.len());
        for &technique in techniques {
            let spec = cell_spec(cfg, technique, p)?;
            spec.check(None)?;
            let setup = spec.loop_setup();
            prepared.push((spec, setup));
        }
        // One campaign per p: each run generates a single realization and
        // evaluates every technique on it, in both simulators. Runs are
        // claimed in blocks of `cfg.batch_width`; the msgsim side stays
        // per-run (its cost is the message engine, not the scheduler), the
        // replica side goes through the lockstep batch simulator. The
        // journal still records one `Vec<FigPair>` per run, so resume and
        // quarantine semantics are identical to the scalar runner's.
        let per_run: Vec<Option<Vec<FigPair>>> = run_campaign_resilient_batched(
            cfg.runs,
            cell_seed(cfg.seed, pi as u64),
            cfg.threads,
            cfg.batch_width.max(1),
            telemetry,
            ctx,
            &format!("n={} p={}", cfg.n, p),
            FigScratch::default,
            |items, scratch: &mut FigScratch| {
                let b = items.len();
                if scratch.tasks.len() < b {
                    scratch.tasks.resize_with(b, || None);
                    scratch.oracle.resize_with(b, || None);
                }
                for (lane, &(_, run_seed)) in items.iter().enumerate() {
                    workload.generate_into(run_seed, &mut scratch.tasks[lane]);
                    if cfg.oracle == OracleMode::IndependentSeeds {
                        workload.generate_into(run_seed ^ ORACLE_SALT, &mut scratch.oracle[lane]);
                    }
                }
                let mut pairs: Vec<Vec<FigPair>> =
                    vec![vec![FigPair { msgsim: 0.0, replica: 0.0 }; techniques.len()]; b];
                for (lane, lane_pairs) in pairs.iter_mut().enumerate() {
                    let tasks = scratch.tasks[lane].as_ref().expect("generate_into fills slots");
                    for (ti, (spec, _)) in prepared.iter().enumerate() {
                        lane_pairs[ti].msgsim =
                            simulate_with_tasks(spec, tasks, &Tracer::disabled(), telemetry)
                                .expect("checked spec cannot fail")
                                .average_wasted();
                    }
                }
                // Arc-bump clones for the batch call; dropped before return.
                let oracle_batch: Vec<TaskTimes> = (0..b)
                    .map(|lane| match cfg.oracle {
                        OracleMode::SharedRealizations => scratch.tasks[lane].clone(),
                        OracleMode::IndependentSeeds => scratch.oracle[lane].clone(),
                    })
                    .map(|slot| slot.expect("generate_into fills slots"))
                    .collect();
                for ((ti, &technique), (_, setup)) in techniques.iter().enumerate().zip(&prepared) {
                    let outcomes = sim
                        .run_batch_metered(technique, setup, &oracle_batch, telemetry)
                        .expect("validated setup cannot fail");
                    for (lane, outcome) in outcomes.iter().enumerate() {
                        pairs[lane][ti].replica = outcome.average_wasted(overhead);
                    }
                }
                pairs
            },
        )?;
        telemetry.counter_inc("figure.campaigns");

        for (ti, &technique) in techniques.iter().enumerate() {
            let mut msg_stats = SummaryStats::new();
            let mut rep_stats = SummaryStats::new();
            for pair in per_run.iter().flatten() {
                msg_stats.push(pair[ti].msgsim);
                rep_stats.push(pair[ti].replica);
            }
            let (m, r) = (msg_stats.mean(), rep_stats.mean());
            rows.push(WastedRow {
                technique: technique.name().to_string(),
                p,
                msgsim: m,
                replica: r,
                discrepancy: discrepancy(m, r),
                relative_pct: if r != 0.0 { relative_discrepancy_pct(m, r) } else { 0.0 },
                msgsim_stats: msg_stats,
                replica_stats: rep_stats,
            });
        }
    }
    Ok(rows)
}

/// Maximum absolute relative discrepancy over all rows, excluding the
/// FAC/2-PE heavy-tail outlier the paper also excludes (§IV-B4).
pub fn max_relative_discrepancy_excluding_outlier(rows: &[WastedRow]) -> f64 {
    rows.iter()
        .filter(|r| !(r.technique == "FAC" && r.p == 2))
        .map(|r| r.relative_pct.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(cfg: &HagerupConfig) -> Result<Vec<WastedRow>, ReproError> {
        run_figure_resilient(cfg, &Telemetry::disabled(), &ExecContext::transient())
    }

    #[test]
    fn fingerprint_is_pinned_byte_for_byte() {
        // Journals and cache keys written before `fingerprint()` existed
        // embed exactly this text; a change would orphan every one of them.
        assert_eq!(
            HagerupConfig::paper(1024, 8).fingerprint(),
            "n=1024 pes=[2, 8, 64, 256, 1024] runs=8 h=0.5 mean=1 seed=0x20170129 \
             oracle=IndependentSeeds techniques=[Stat, SS, Fsc, Gss { min_chunk: 1 }, \
             Tss { first: None, last: None }, Fac, Fac2, Bold]"
        );
        let mut cfg = HagerupConfig::paper(8192, 3);
        cfg.threads = 7;
        cfg.batch_width = 1;
        assert_eq!(
            cfg.fingerprint(),
            HagerupConfig::paper(8192, 3).fingerprint(),
            "threads and batch width never change a row"
        );
    }

    #[test]
    fn figure_lookup_covers_the_four_variants() {
        let ns: Vec<_> = ["fig5", "fig6", "fig7", "fig8"].map(figure_n).into();
        assert_eq!(ns, [Some(1_024), Some(8_192), Some(65_536), Some(524_288)]);
        assert_eq!(figure_n("fig9"), None);
    }

    fn tiny_cfg(oracle: OracleMode) -> HagerupConfig {
        HagerupConfig {
            n: 1024,
            pes: vec![2, 8],
            runs: 20,
            h: 0.5,
            mean: 1.0,
            seed: 7,
            threads: 1,
            oracle,
            techniques: Technique::hagerup_set().to_vec(),
            batch_width: 4,
        }
    }

    #[test]
    fn produces_all_cells() {
        let rows = figure(&tiny_cfg(OracleMode::SharedRealizations)).unwrap();
        assert_eq!(rows.len(), 8 * 2);
        assert!(rows.iter().any(|r| r.technique == "BOLD" && r.p == 8));
    }

    #[test]
    fn shared_realizations_verify_the_simulators_agree() {
        // The stronger-than-paper verification: identical realizations and
        // a zeroed network make the two simulators agree almost exactly.
        let rows = figure(&tiny_cfg(OracleMode::SharedRealizations)).unwrap();
        for r in &rows {
            assert!(
                r.relative_pct.abs() < 0.1,
                "{} p={}: msgsim {} vs replica {} ({}%)",
                r.technique,
                r.p,
                r.msgsim,
                r.replica,
                r.relative_pct
            );
        }
    }

    #[test]
    fn independent_seeds_mirror_the_papers_comparison() {
        // With independent realizations (the paper's situation) the means
        // agree only up to sampling noise; at 20 runs the noisiest cell
        // (STAT at p=2, whose per-run waste is itself heavy-tailed) can be
        // tens of percent off. The 1,000-run campaigns in EXPERIMENTS.md
        // show the paper's <=15 % behavior.
        let rows = figure(&tiny_cfg(OracleMode::IndependentSeeds)).unwrap();
        for r in &rows {
            assert!(
                r.relative_pct.abs() < 100.0,
                "{} p={}: {}% off",
                r.technique,
                r.p,
                r.relative_pct
            );
        }
        // ... and are not bit-identical (otherwise the salt is broken).
        assert!(rows.iter().any(|r| r.discrepancy != 0.0));
    }

    #[test]
    fn ss_pays_the_overhead_bill() {
        // SS makes n scheduling operations: h·n = 512 s dominates its
        // wasted time at every p.
        let rows = figure(&tiny_cfg(OracleMode::SharedRealizations)).unwrap();
        for r in rows.iter().filter(|r| r.technique == "SS") {
            assert!(r.msgsim > 500.0, "SS p={} wasted {}", r.p, r.msgsim);
        }
    }

    #[test]
    fn stat_has_minimal_overhead_at_small_p() {
        let rows = figure(&tiny_cfg(OracleMode::SharedRealizations)).unwrap();
        let stat2 = rows.iter().find(|r| r.technique == "STAT" && r.p == 2).unwrap();
        let ss2 = rows.iter().find(|r| r.technique == "SS" && r.p == 2).unwrap();
        assert!(stat2.msgsim < ss2.msgsim / 10.0);
    }

    #[test]
    fn outlier_exclusion_helper() {
        let rows = figure(&tiny_cfg(OracleMode::SharedRealizations)).unwrap();
        let all_max = rows.iter().map(|r| r.relative_pct.abs()).fold(0.0, f64::max);
        let excl = max_relative_discrepancy_excluding_outlier(&rows);
        assert!(excl <= all_max);
    }

    #[test]
    fn paper_config_matches_table3() {
        let c = HagerupConfig::paper(8192, 1000);
        assert_eq!(c.pes, vec![2, 8, 64, 256, 1024]);
        assert_eq!(c.h, 0.5);
        assert_eq!(c.mean, 1.0);
        assert_eq!(c.runs, 1000);
        assert_eq!(c.batch_width, 32, "paper cells default to the batched replica path");
    }

    /// The tentpole pin at the figure level: batch width is invisible in
    /// the outputs — every statistic of every row is bit-identical between
    /// the scalar path (width 1) and lockstep batching, for both oracle
    /// modes (BOLD rides along via the in-batch scalar fallback).
    #[test]
    fn figure_rows_bit_identical_across_batch_widths() {
        for oracle in [OracleMode::SharedRealizations, OracleMode::IndependentSeeds] {
            let mut scalar_cfg = tiny_cfg(oracle);
            scalar_cfg.batch_width = 1;
            let mut batched_cfg = tiny_cfg(oracle);
            batched_cfg.batch_width = 7; // deliberately not a divisor of runs
            let scalar = figure(&scalar_cfg).unwrap();
            let batched = figure(&batched_cfg).unwrap();
            assert_eq!(scalar.len(), batched.len());
            for (a, b) in scalar.iter().zip(&batched) {
                assert_eq!(a.technique, b.technique);
                assert_eq!(a.p, b.p);
                assert_eq!(a.msgsim.to_bits(), b.msgsim.to_bits(), "{} p={}", a.technique, a.p);
                assert_eq!(a.replica.to_bits(), b.replica.to_bits(), "{} p={}", a.technique, a.p);
                assert_eq!(a.discrepancy.to_bits(), b.discrepancy.to_bits());
                assert_eq!(a.relative_pct.to_bits(), b.relative_pct.to_bits());
            }
        }
    }
}

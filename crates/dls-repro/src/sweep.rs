//! General parameter sweeps beyond the paper's fixed grids.
//!
//! §II of the paper motivates simulation with "the use of a wider range of
//! application and system parameters than measurements of real applications
//! on real machines can offer" and "any probability distribution of the
//! task execution times". This module delivers that: a cross-product sweep
//! over loop sizes, PE counts, task-time distributions and techniques, with
//! summary statistics per cell.

use crate::error::ReproError;
use crate::runner::{cell_seed, run_campaign_resilient_batched, ExecContext};
use dls_core::{SetupError, Technique};
use dls_metrics::{OverheadModel, SummaryStats};
use dls_msgsim::{simulate, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_workload::{TimeModel, Workload};
use serde::{Deserialize, Serialize};

/// A named workload family for the sweep (the task count is supplied per
/// grid point).
#[derive(Debug, Clone)]
pub struct WorkloadFamily {
    /// Display name (e.g. `"exponential"`).
    pub name: String,
    /// The time model; its µ should be ~1 s so cells are comparable.
    pub model: TimeModel,
}

impl WorkloadFamily {
    /// The standard families: exponential, gamma, lognormal, uniform,
    /// constant — all with mean 1 s.
    pub fn standard() -> Vec<WorkloadFamily> {
        vec![
            WorkloadFamily { name: "constant".into(), model: TimeModel::Constant { time: 1.0 } },
            WorkloadFamily {
                name: "uniform".into(),
                model: TimeModel::Uniform { lo: 0.0, hi: 2.0 },
            },
            WorkloadFamily {
                name: "exponential".into(),
                model: TimeModel::Exponential { mean: 1.0 },
            },
            WorkloadFamily {
                name: "gamma(k=2)".into(),
                model: TimeModel::Gamma { shape: 2.0, scale: 0.5 },
            },
            WorkloadFamily {
                name: "lognormal".into(),
                model: TimeModel::LogNormal { mean: 1.0, std: 1.0 },
            },
        ]
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Loop sizes.
    pub ns: Vec<u64>,
    /// PE counts.
    pub pes: Vec<usize>,
    /// Workload families.
    pub families: Vec<WorkloadFamily>,
    /// Techniques.
    pub techniques: Vec<Technique>,
    /// Runs per cell (1 is enough for deterministic workloads).
    pub runs: u32,
    /// Scheduling overhead h.
    pub h: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            ns: vec![4_096],
            pes: vec![4, 16, 64],
            families: WorkloadFamily::standard(),
            techniques: Technique::hagerup_set().to_vec(),
            runs: 20,
            h: 0.01,
            seed: 0x53EE9,
            threads: crate::runner::default_threads(),
        }
    }
}

impl SweepConfig {
    /// The sweep's identity for `--resume` journals: every field that can
    /// change a row (`threads` never does). Existing journals embed this
    /// text, so its rendering must never change.
    pub fn fingerprint(&self) -> String {
        let families: Vec<&str> = self.families.iter().map(|f| f.name.as_str()).collect();
        format!(
            "ns={:?} pes={:?} families={:?} techniques={:?} runs={} h={} seed={:#x}",
            self.ns, self.pes, families, self.techniques, self.runs, self.h, self.seed
        )
    }
}

/// The spec every run of the `(n, p, family, technique)` sweep cell
/// simulates — and the one `trace::trace_sweep_cell` traces.
pub(crate) fn cell_spec(
    cfg: &SweepConfig,
    n: u64,
    p: usize,
    family: &WorkloadFamily,
    technique: Technique,
) -> Result<SimSpec, SetupError> {
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    let workload = Workload::new(n, family.model.clone())
        .map_err(|_| SetupError::BadParam("invalid sweep workload"))?;
    Ok(SimSpec::new(technique, workload, platform)
        .with_overhead(OverheadModel::PostHocTotal { h: cfg.h }))
}

/// One sweep cell's summary.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Loop size.
    pub n: u64,
    /// PE count.
    pub p: usize,
    /// Workload family name.
    pub workload: String,
    /// Technique name.
    pub technique: String,
    /// Average wasted time statistics over the runs.
    pub wasted: SummaryStats,
    /// Speedup statistics over the runs.
    pub speedup: SummaryStats,
    /// Mean scheduling operations per run.
    pub chunks_mean: f64,
}

/// One run's observation in a sweep cell — the unit the checkpoint journal
/// stores for sweep campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRunObs {
    /// Average wasted time of the run.
    pub wasted: f64,
    /// Speedup of the run.
    pub speedup: f64,
    /// Scheduling operations (chunks) of the run.
    pub chunks: u64,
}

/// Runs the sweep under `ctx`; the row order is the nesting order
/// (n, p, family, technique). Each grid cell is its own journaled
/// campaign, cancellation is honoured between runs, and a panicking run is
/// quarantined (excluded from its cell's statistics) instead of aborting
/// the sweep.
pub fn run_sweep_resilient(
    cfg: &SweepConfig,
    telemetry: &Telemetry,
    ctx: &ExecContext,
) -> Result<Vec<SweepRow>, ReproError> {
    let mut rows = Vec::new();
    // Cells are seeded by their position in the nesting order, so two cells
    // can never share a campaign seed (the old xor mixing could collide).
    let mut cell = 0u64;
    for &n in &cfg.ns {
        for &p in &cfg.pes {
            for family in &cfg.families {
                for &technique in &cfg.techniques {
                    let spec = cell_spec(cfg, n, p, family, technique)?;
                    spec.check(None)?;
                    let seed = cell_seed(cfg.seed, cell);
                    cell += 1;
                    let label = format!("n={n} p={p} {} {}", family.name, technique.name());
                    // Sweep cells are msgsim-only, so there is no lockstep
                    // kernel to amortize: runs are claimed one at a time,
                    // the finest work-stealing granule.
                    let per_run: Vec<Option<SweepRunObs>> = run_campaign_resilient_batched(
                        cfg.runs,
                        seed,
                        cfg.threads,
                        1,
                        telemetry,
                        ctx,
                        &label,
                        || (),
                        |items, _: &mut ()| {
                            items
                                .iter()
                                .map(|&(_, run_seed)| {
                                    let out = simulate(&spec, run_seed)
                                        .expect("checked spec cannot fail");
                                    SweepRunObs {
                                        wasted: out.average_wasted(),
                                        speedup: out.speedup(),
                                        chunks: out.chunks,
                                    }
                                })
                                .collect()
                        },
                    )?;
                    let mut wasted = SummaryStats::new();
                    let mut speedup = SummaryStats::new();
                    let mut chunks = 0u64;
                    let mut completed = 0u64;
                    for obs in per_run.iter().flatten() {
                        wasted.push(obs.wasted);
                        speedup.push(obs.speedup);
                        chunks += obs.chunks;
                        completed += 1;
                    }
                    rows.push(SweepRow {
                        n,
                        p,
                        workload: family.name.clone(),
                        technique: technique.name().to_string(),
                        wasted,
                        speedup,
                        chunks_mean: chunks as f64 / completed.max(1) as f64,
                    });
                }
            }
        }
    }
    Ok(rows)
}

/// Renders sweep rows as the CLI's table/CSV cells. Shared by the `sweep`
/// command and the chaos harness, which must reproduce the command's CSV
/// byte-for-byte to compare crashed-and-resumed campaigns against it.
pub fn table_rows(rows: &[SweepRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "n",
        "p",
        "workload",
        "technique",
        "wasted mean[s]",
        "wasted sd[s]",
        "speedup",
        "chunks",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.p.to_string(),
                r.workload.clone(),
                r.technique.clone(),
                format!("{:.3}", r.wasted.mean()),
                format!("{:.3}", r.wasted.std_dev()),
                format!("{:.2}", r.speedup.mean()),
                format!("{:.0}", r.chunks_mean),
            ]
        })
        .collect();
    (headers, body)
}

/// For each (n, p, family) group, the technique with the lowest mean
/// wasted time — the "who wins where" digest.
pub fn winners(rows: &[SweepRow]) -> Vec<(u64, usize, String, String, f64)> {
    let mut out: Vec<(u64, usize, String, String, f64)> = Vec::new();
    for r in rows {
        match out.iter_mut().find(|(n, p, w, _, _)| *n == r.n && *p == r.p && *w == r.workload) {
            Some(entry) => {
                if r.wasted.mean() < entry.4 {
                    entry.3 = r.technique.clone();
                    entry.4 = r.wasted.mean();
                }
            }
            None => out.push((r.n, r.p, r.workload.clone(), r.technique.clone(), r.wasted.mean())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(cfg: &SweepConfig) -> Result<Vec<SweepRow>, ReproError> {
        run_sweep_resilient(cfg, &Telemetry::disabled(), &ExecContext::transient())
    }

    #[test]
    fn fingerprint_is_pinned_byte_for_byte() {
        // Existing `--resume` journals embed exactly this text.
        assert_eq!(
            SweepConfig::default().fingerprint(),
            "ns=[4096] pes=[4, 16, 64] families=[\"constant\", \"uniform\", \"exponential\", \
             \"gamma(k=2)\", \"lognormal\"] techniques=[Stat, SS, Fsc, Gss { min_chunk: 1 }, \
             Tss { first: None, last: None }, Fac, Fac2, Bold] runs=20 h=0.01 seed=0x53ee9"
        );
    }

    fn tiny() -> SweepConfig {
        SweepConfig {
            ns: vec![512],
            pes: vec![4],
            families: vec![
                WorkloadFamily {
                    name: "constant".into(),
                    model: TimeModel::Constant { time: 1.0 },
                },
                WorkloadFamily {
                    name: "exponential".into(),
                    model: TimeModel::Exponential { mean: 1.0 },
                },
            ],
            techniques: vec![Technique::Stat, Technique::SS, Technique::Fac2],
            runs: 5,
            h: 0.01,
            seed: 1,
            threads: 1,
        }
    }

    #[test]
    fn sweep_covers_the_grid() {
        let rows = sweep(&tiny()).unwrap();
        assert_eq!(rows.len(), 2 * 3);
        assert!(rows.iter().all(|r| r.wasted.count() == 5));
    }

    #[test]
    fn constant_workload_prefers_stat() {
        // With zero variance and non-zero h, STAT's p chunks beat SS's n.
        let rows = sweep(&tiny()).unwrap();
        let win = winners(&rows);
        let constant = win.iter().find(|(_, _, w, _, _)| w == "constant").unwrap();
        assert_eq!(constant.3, "STAT");
    }

    #[test]
    fn exponential_workload_prefers_dynamic() {
        let rows = sweep(&tiny()).unwrap();
        let win = winners(&rows);
        let expo = win.iter().find(|(_, _, w, _, _)| w == "exponential").unwrap();
        assert_ne!(expo.3, "SS", "SS pays n·h and cannot win");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(&tiny()).unwrap();
        let b = sweep(&tiny()).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wasted.mean(), y.wasted.mean());
        }
    }

    #[test]
    fn batched_claiming_preserves_per_run_observations() {
        // Recompute one cell by hand, run by run, straight through the
        // engine — the sweep's claiming must reproduce the exact same
        // statistics (pins seed assignment and evaluation order).
        let cfg = tiny();
        let rows = sweep(&cfg).unwrap();
        let row = rows
            .iter()
            .find(|r| r.workload == "exponential" && r.technique == "SS")
            .expect("cell exists");
        // Cell index in nesting order (n, p, family, technique):
        // families[1] = exponential, techniques[1] = SS → cell 1*3 + 1 = 4.
        let seed = cell_seed(cfg.seed, 4);
        let platform = Platform::homogeneous_star("pe", 4, 1.0, LinkSpec::negligible());
        let workload = Workload::new(512, TimeModel::Exponential { mean: 1.0 }).unwrap();
        let spec = SimSpec::new(Technique::SS, workload, platform)
            .with_overhead(OverheadModel::PostHocTotal { h: cfg.h });
        let mut wasted = SummaryStats::new();
        for run_seed in dls_rng::seed_stream(seed).take(cfg.runs as usize) {
            wasted.push(simulate(&spec, run_seed).unwrap().average_wasted());
        }
        assert_eq!(row.wasted.mean().to_bits(), wasted.mean().to_bits());
        assert_eq!(row.wasted.std_dev().to_bits(), wasted.std_dev().to_bits());
    }
}

//! The verification verdict: are the two simulator implementations of the
//! DLS techniques equivalent?
//!
//! This is the workspace's version of the paper's *"verification via
//! reproducibility"*: the SimGrid-MSG analog is verified against the
//! replica of Hagerup's simulator on **identical** workload realizations,
//! over a grid of loop sizes, PE counts and techniques. The paper could
//! only compare against published numbers with an unknown seed (§III-B);
//! with both simulators in one workspace the comparison is exact.

use crate::error::ReproError;
use dls_core::{SetupError, Technique};
use dls_hagerup::DirectSimulator;
use dls_metrics::{OverheadModel, SummaryStats};
use dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_trace::{ChunkRecorder, Tracer};
use dls_workload::{TaskTimes, Workload};
use std::cell::RefCell;

/// One verification cell: a technique over a (n, p) grid point.
#[derive(Debug, Clone)]
pub struct VerifyRow {
    /// Technique name.
    pub technique: String,
    /// Loop size.
    pub n: u64,
    /// PE count.
    pub p: usize,
    /// Max relative makespan deviation over the runs, percent.
    pub max_makespan_dev_pct: f64,
    /// Max relative wasted-time deviation over the runs, percent.
    pub max_wasted_dev_pct: f64,
    /// Whether the chunk streams — `(worker, start, count)` of every
    /// assignment, in assignment order — matched exactly in every run.
    pub chunks_identical: bool,
}

/// Configuration of the verification grid.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Loop sizes to test.
    pub ns: Vec<u64>,
    /// PE counts to test.
    pub pes: Vec<usize>,
    /// Runs (realizations) per cell.
    pub runs: u32,
    /// Scheduling overhead h.
    pub h: f64,
    /// Campaign seed.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            ns: vec![512, 4_096],
            pes: vec![2, 8, 32],
            runs: 10,
            h: 0.5,
            seed: 0x5EC0_11D5,
        }
    }
}

/// Runs the verification grid and returns per-cell verdicts.
pub fn run_verification(cfg: &VerifyConfig) -> Result<Vec<VerifyRow>, SetupError> {
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let workload = Workload::exponential(n, 1.0)
            .map_err(|_| SetupError::BadMoment("mean must be positive"))?;
        for &p in &cfg.pes {
            let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
            let direct = DirectSimulator::new(p, overhead);
            for technique in Technique::hagerup_set() {
                let spec = SimSpec::new(technique, workload.clone(), platform.clone())
                    .with_overhead(overhead);
                let mut mk_dev = SummaryStats::new();
                let mut wt_dev = SummaryStats::new();
                let mut chunks_identical = true;
                for run in 0..cfg.runs {
                    let tasks = workload.generate(cfg.seed ^ (run as u64) << 17 ^ n);
                    let (mdev, wdev, [msg_chunks, rep_chunks]) =
                        compare_run(&spec, &direct, &tasks)?;
                    mk_dev.push(mdev);
                    wt_dev.push(wdev);
                    chunks_identical &= msg_chunks == rep_chunks;
                }
                rows.push(VerifyRow {
                    technique: technique.name().to_string(),
                    n,
                    p,
                    max_makespan_dev_pct: mk_dev.max(),
                    max_wasted_dev_pct: wt_dev.max(),
                    chunks_identical,
                });
            }
        }
    }
    Ok(rows)
}

/// `(worker, start, count)` of every chunk assignment a simulator traced,
/// in assignment order.
type ChunkStream = Vec<(usize, u64, u64)>;

/// Both simulators on one shared realization: the makespan and
/// wasted-time deviations (percent) and the two chunk streams.
fn compare_run(
    spec: &SimSpec,
    direct: &DirectSimulator,
    tasks: &TaskTimes,
) -> Result<(f64, f64, [ChunkStream; 2]), SetupError> {
    let off = Telemetry::disabled();
    let (msg_tracer, msg_chunks) = Tracer::chunks();
    let (rep_tracer, rep_chunks) = Tracer::chunks();
    let msg = simulate_with_tasks(spec, tasks, &msg_tracer, &off)?;
    let mut scheduler = spec.technique.build(&spec.loop_setup())?;
    let rep = direct.run_with_ref(&mut *scheduler, tasks, &rep_tracer, &off);
    let mdev = 100.0 * (msg.makespan - rep.makespan).abs() / rep.makespan.max(1e-12);
    let rw = rep.average_wasted(spec.overhead);
    let wdev = 100.0 * (msg.average_wasted() - rw).abs() / rw.max(1e-12);
    let stream = |rec: &RefCell<ChunkRecorder>| -> ChunkStream {
        rec.borrow().chunks().iter().map(|c| (c.worker, c.start, c.count)).collect()
    };
    Ok((mdev, wdev, [stream(&msg_chunks), stream(&rep_chunks)]))
}

/// The precision of the verification table's deviation columns, percent
/// (four decimals). A deviation that reaches it shows up as a non-zero
/// printed digit, so the simulators no longer agree to DES noise.
pub const MAX_DEVIATION_PCT: f64 = 1e-4;

/// The overall verdict: the largest deviation anywhere in the grid.
pub fn verdict(rows: &[VerifyRow]) -> (f64, bool) {
    let worst =
        rows.iter().map(|r| r.max_makespan_dev_pct.max(r.max_wasted_dev_pct)).fold(0.0, f64::max);
    let all_chunks = rows.iter().all(|r| r.chunks_identical);
    (worst, all_chunks)
}

/// Passes only when every cell's chunk streams are identical and every
/// deviation stays below [`MAX_DEVIATION_PCT`]; otherwise a
/// [`ReproError::Regression`] (exit 5) naming the first failing cell. A NaN
/// deviation fails too.
pub fn require_agreement(rows: &[VerifyRow]) -> Result<(), ReproError> {
    let within = |dev: f64| dev < MAX_DEVIATION_PCT;
    match rows.iter().find(|r| {
        !r.chunks_identical || !within(r.max_makespan_dev_pct) || !within(r.max_wasted_dev_pct)
    }) {
        None => Ok(()),
        Some(r) => Err(ReproError::Regression(format!(
            "verify: the simulators disagree on {} at n = {}, p = {} (chunk streams identical: \
             {}, max makespan deviation {:e} %, max wasted-time deviation {:e} %; the \
             tolerance is {MAX_DEVIATION_PCT:e} %)",
            r.technique, r.n, r.p, r.chunks_identical, r.max_makespan_dev_pct, r.max_wasted_dev_pct,
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VerifyConfig {
        VerifyConfig { ns: vec![256], pes: vec![2, 4], runs: 4, h: 0.5, seed: 3 }
    }

    #[test]
    fn verification_passes_on_the_small_grid() {
        let rows = run_verification(&small()).unwrap();
        assert_eq!(rows.len(), 2 * 8);
        let (worst, chunks_ok) = verdict(&rows);
        assert!(worst < 0.1, "worst deviation {worst}%");
        assert!(chunks_ok, "chunk streams must match for non-adaptive techniques");
    }

    #[test]
    fn equal_chunk_counts_with_different_streams_fail_the_check() {
        let overhead = OverheadModel::PostHocTotal { h: 0.5 };
        let platform = Platform::homogeneous_star("pe", 4, 1.0, LinkSpec::negligible());
        let spec =
            SimSpec::new(Technique::Fac2, Workload::exponential(256, 1.0).unwrap(), platform)
                .with_overhead(overhead);
        let direct = DirectSimulator::new(4, overhead);
        let (mdev, wdev, [msg, mut rep]) =
            compare_run(&spec, &direct, &spec.workload.generate(3)).unwrap();
        assert_eq!(msg, rep, "the real streams agree");
        // Hand the first two chunks to each other's worker: the chunk
        // counts still match, the streams no longer do.
        let (a, b) = (rep[0].0, rep[1].0);
        assert_ne!(a, b);
        (rep[0].0, rep[1].0) = (b, a);
        assert_eq!(msg.len(), rep.len());
        let row = VerifyRow {
            technique: "FAC2".into(),
            n: 256,
            p: 4,
            max_makespan_dev_pct: mdev,
            max_wasted_dev_pct: wdev,
            chunks_identical: msg == rep,
        };
        let err = require_agreement(&[row]).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_REGRESSION);
    }

    #[test]
    fn agreement_check_fails_on_any_disagreement() {
        let rows = run_verification(&small()).unwrap();
        require_agreement(&rows).unwrap();
        let broken = |edit: fn(&mut VerifyRow)| {
            let mut rows = rows.clone();
            edit(&mut rows[3]);
            require_agreement(&rows)
        };
        for edit in [
            (|r| r.chunks_identical = false) as fn(&mut VerifyRow),
            |r| r.max_makespan_dev_pct = MAX_DEVIATION_PCT,
            |r| r.max_wasted_dev_pct = 0.5,
            |r| r.max_wasted_dev_pct = f64::NAN,
        ] {
            let err = broken(edit).unwrap_err();
            assert!(matches!(err, ReproError::Regression(_)), "{err:?}");
            assert_eq!(err.exit_code(), crate::error::EXIT_REGRESSION);
        }
        // Deviations below the printed precision still pass.
        broken(|r| r.max_makespan_dev_pct = 3.3e-7).unwrap();
    }

    #[test]
    fn rows_cover_the_grid() {
        let rows = run_verification(&small()).unwrap();
        assert!(rows.iter().any(|r| r.technique == "BOLD" && r.p == 4));
        assert!(rows.iter().all(|r| r.n == 256));
    }
}

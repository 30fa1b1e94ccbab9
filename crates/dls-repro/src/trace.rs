//! `repro trace`: record a chunk-lifecycle trace of one simulated run and
//! export it for visual inspection.
//!
//! The paper diagnoses its discrepancies (the Figure 9 FAC outlier, the
//! failed TSS reproduction) by looking *inside* individual runs; this
//! module is the workspace's equivalent instrument. A scenario is executed
//! once with an enabled [`Tracer`] and the recorded events are written as
//!
//! * `<label>.trace.json` — Chrome `trace_event` JSON, one track per PE
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>);
//! * `<label>.timeline.csv` — per-PE busy intervals;
//! * `<label>.utilization.csv` — per-PE busy/idle/overhead breakdown;
//! * `<label>.chunks.csv` — chunk size over virtual time (the decreasing
//!   staircase that distinguishes GSS/TSS/FAC from SS/STAT at a glance).
//!
//! Tracing is observational: the traced entry points feed the same engine
//! as the untraced ones, and `tests/trace_determinism.rs` pins that the
//! outcome stays bit-identical with the tracer enabled.

use crate::error::ReproError;
use crate::faults::{self, FaultSweepConfig};
use crate::hagerup_exp::{self, HagerupConfig};
use crate::journal::write_artifact;
use crate::runner::cell_seed;
use crate::sweep::{self, SweepConfig};
use dls_core::{SetupError, Technique};
use dls_faults::FaultPlan;
use dls_hagerup::DirectSimulator;
use dls_metrics::{breakdown_csv, chunk_size_series, pe_breakdowns, OverheadModel};
use dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::{Snapshot, Telemetry};
use dls_trace::{chrome::chrome_trace_json, timeline::timeline_csv, TraceEvent, Tracer};
use dls_workload::Workload;
use std::path::{Path, PathBuf};

/// Ring capacity used for every recorded scenario. Large enough that none
/// of the built-in scenarios evict (a fig-scale run emits a handful of
/// events per chunk), small enough to bound memory on user overrides.
pub const RING_CAPACITY: usize = 1 << 20;

/// One recorded run, ready for export.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Base name for the exported files.
    pub label: String,
    /// PE count of the traced run.
    pub p: usize,
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events evicted by the bounded ring (0 for the built-in scenarios).
    pub evicted: u64,
    /// Makespan of the traced run, seconds (the utilization horizon).
    pub makespan: f64,
    /// In-dynamics per-chunk overhead `h`, seconds (0 under post-hoc
    /// accounting, where overhead is invisible to the timeline).
    pub in_sim_h: f64,
    /// Host-side telemetry of the traced run — the engine statistics
    /// (`msgsim.events`, `msgsim.dead_letters`, `msgsim.dropped_sends`, …)
    /// surfaced in the CLI's trace summary.
    pub telemetry: Snapshot,
}

/// Traces one run of `spec` through the SimGrid-MSG analog, on the
/// realization of `seed`.
pub fn trace_msgsim(spec: &SimSpec, seed: u64, label: &str) -> Result<TraceArtifacts, SetupError> {
    let (tracer, recorder) = Tracer::ring(RING_CAPACITY);
    let telemetry = Telemetry::enabled();
    let out = simulate_with_tasks(spec, &spec.workload.generate(seed), &tracer, &telemetry)?;
    let rec = recorder.borrow();
    Ok(TraceArtifacts {
        label: label.into(),
        p: spec.platform.num_hosts(),
        events: rec.to_vec(),
        evicted: rec.evicted(),
        makespan: out.makespan,
        in_sim_h: spec.overhead.in_sim_h(),
        telemetry: telemetry.snapshot(),
    })
}

/// Traces one run of Hagerup's direct simulator.
pub fn trace_hagerup(
    technique: Technique,
    n: u64,
    p: usize,
    h: f64,
    seed: u64,
    label: &str,
) -> Result<TraceArtifacts, SetupError> {
    let overhead = OverheadModel::InDynamics { h };
    let workload = Workload::exponential(n, 1.0)
        .map_err(|_| SetupError::BadMoment("exponential mean must be > 0"))?;
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    let spec = SimSpec::new(technique, workload, platform).with_overhead(overhead);
    let mut scheduler = technique.build(&spec.loop_setup())?;
    let tasks = spec.workload.generate(seed);
    let sim = DirectSimulator::new(p, overhead);
    let (tracer, recorder) = Tracer::ring(RING_CAPACITY);
    let telemetry = Telemetry::enabled();
    let out = sim.run_with_ref(scheduler.as_mut(), &tasks, &tracer, &telemetry);
    let rec = recorder.borrow();
    Ok(TraceArtifacts {
        label: label.into(),
        p,
        events: rec.to_vec(),
        evicted: rec.evicted(),
        makespan: out.makespan,
        in_sim_h: h,
        telemetry: telemetry.snapshot(),
    })
}

/// Default scenario dimensions: big enough to show scheduling structure,
/// small enough that the exported JSON stays viewer-friendly.
const SCENARIO_N: u64 = 1_024;
const SCENARIO_P: usize = 4;
const SCENARIO_H: f64 = 0.05;

fn scenario_spec(technique: Technique) -> Result<SimSpec, SetupError> {
    let workload = Workload::exponential(SCENARIO_N, 1.0)
        .map_err(|_| SetupError::BadMoment("exponential mean must be > 0"))?;
    let platform = Platform::homogeneous_star("pe", SCENARIO_P, 1.0, LinkSpec::negligible());
    // In-dynamics overhead so the per-chunk cost h is visible on the
    // timeline and in the utilization breakdown (post-hoc accounting would
    // leave nothing to see).
    let spec = SimSpec::new(technique, workload, platform)
        .with_overhead(OverheadModel::InDynamics { h: SCENARIO_H });
    spec.check(None)?;
    Ok(spec)
}

/// Resolves a `repro trace <target>` name and records it.
///
/// * `hagerup` — a TSS run through the direct (Hagerup-replica) simulator;
/// * `faults` — FAC2 under a fail-stop + lossy-link plan (exercises the
///   watchdog/reassignment recovery path);
/// * any technique name `Technique::from_str` accepts (`TSS`, `FAC2`,
///   `GSS(1)`, …) — that technique through the SimGrid-MSG analog.
pub fn run_scenario(target: &str, seed: u64) -> Result<TraceArtifacts, String> {
    match target {
        "hagerup" => trace_hagerup(
            Technique::Tss { first: None, last: None },
            2 * SCENARIO_N,
            SCENARIO_P,
            SCENARIO_H,
            seed,
            "hagerup-tss",
        )
        .map_err(|e| e.to_string()),
        "faults" => {
            // One worker dies a quarter of the way through the expected
            // makespan and 2 % of messages are lost: both PR-1 recovery
            // mechanisms (watchdog reassignment, request retry) fire.
            let est = SCENARIO_N as f64 / SCENARIO_P as f64;
            let plan = FaultPlan::none().with_fail_stop(0, 0.25 * est).with_loss(0.02);
            let spec = scenario_spec(Technique::Fac2).map_err(|e| e.to_string())?.with_faults(plan);
            trace_msgsim(&spec, seed, "faults-fac2").map_err(|e| e.to_string())
        }
        name => {
            let technique: Technique = name.parse().map_err(|_| {
                format!(
                    "unknown trace target `{name}` (expected `hagerup`, `faults`, \
                     or a technique name such as TSS, FAC2, GSS(1))"
                )
            })?;
            let spec = scenario_spec(technique).map_err(|e| e.to_string())?;
            let label = format!("msgsim-{}", technique.name().to_lowercase().replace('/', "-"));
            trace_msgsim(&spec, seed, &label).map_err(|e| e.to_string())
        }
    }
}

/// Seed of run 0 of a campaign's cell 0: cell 0 is seeded with
/// `cell_seed(seed, 0)`, and a cell's run seeds are its seed's stream.
fn run0_seed(campaign_seed: u64) -> u64 {
    cell_seed(cell_seed(campaign_seed, 0), 0)
}

/// Traces run 0 of the first (technique, p) cell of a Figures 5–8
/// campaign — the representative run behind `fig5 --trace DIR` etc. The
/// spec is the campaign's own (`hagerup_exp::cell_spec`), so the trace
/// is that run by construction.
pub fn trace_figure_cell(cfg: &HagerupConfig, fig: &str) -> Result<TraceArtifacts, SetupError> {
    let technique =
        *cfg.techniques.first().ok_or(SetupError::BadParam("no techniques configured"))?;
    let p = *cfg.pes.first().ok_or(SetupError::BadParam("no PE counts configured"))?;
    let spec = hagerup_exp::cell_spec(cfg, technique, p)?;
    let label = format!("{fig}-{}-p{p}", technique.name().to_lowercase().replace('/', "-"));
    trace_msgsim(&spec, run0_seed(cfg.seed), &label)
}

/// Traces run 0 of the first sweep cell (first n, p, family, technique).
pub fn trace_sweep_cell(cfg: &SweepConfig) -> Result<TraceArtifacts, SetupError> {
    let n = *cfg.ns.first().ok_or(SetupError::BadParam("no loop sizes configured"))?;
    let p = *cfg.pes.first().ok_or(SetupError::BadParam("no PE counts configured"))?;
    let family = cfg.families.first().ok_or(SetupError::BadParam("no families configured"))?;
    let technique =
        *cfg.techniques.first().ok_or(SetupError::BadParam("no techniques configured"))?;
    let spec = sweep::cell_spec(cfg, n, p, family, technique)?;
    let label = format!(
        "sweep-{}-{}-p{p}",
        family.name.replace(['(', ')', '='], "-"),
        technique.name().to_lowercase().replace('/', "-")
    );
    trace_msgsim(&spec, run0_seed(cfg.seed), &label)
}

/// Traces run 0 of the first (technique, scenario) fault-sweep cell.
pub fn trace_fault_cell(cfg: &FaultSweepConfig) -> Result<TraceArtifacts, SetupError> {
    let technique =
        *cfg.techniques.first().ok_or(SetupError::BadParam("no techniques configured"))?;
    let scenario = cfg.scenarios.first().ok_or(SetupError::BadParam("no scenarios configured"))?;
    let spec = faults::cell_spec(cfg, technique)?.with_faults(scenario.plan.clone());
    let label = format!(
        "faults-{}-{}",
        technique.name().to_lowercase().replace('/', "-"),
        scenario.name.replace(['(', ')', '@', '%'], "-")
    );
    trace_msgsim(&spec, run0_seed(cfg.seed), &label)
}

/// Writes the four export files into `dir` (created if missing) and
/// returns their paths. Each goes through [`write_artifact`]: crash-
/// consistent, so an interrupt mid-export never leaves a torn half-written
/// trace file behind, and retried like every other artifact.
pub fn write_artifacts(a: &TraceArtifacts, dir: &Path) -> Result<Vec<PathBuf>, ReproError> {
    std::fs::create_dir_all(dir).map_err(|e| ReproError::io(format!("{}: {e}", dir.display())))?;
    let mut paths = Vec::new();
    let mut emit = |suffix: &str, contents: String| -> Result<(), ReproError> {
        let path = dir.join(format!("{}.{suffix}", a.label));
        write_artifact(&path, contents.as_bytes())?;
        paths.push(path);
        Ok(())
    };
    emit("trace.json", chrome_trace_json(&a.events, a.p, &a.label))?;
    emit("timeline.csv", timeline_csv(&a.events))?;
    emit("utilization.csv", breakdown_csv(&pe_breakdowns(&a.events, a.p, a.makespan, a.in_sim_h)))?;
    let mut chunks = String::from("t_s,tasks\n");
    for (t, count) in chunk_size_series(&a.events) {
        chunks.push_str(&format!("{t},{count}\n"));
    }
    emit("chunks.csv", chunks)?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_trace::TraceKind;

    #[test]
    fn msgsim_scenario_records_a_full_chunk_lifecycle() {
        let a = run_scenario("TSS", 7).unwrap();
        assert_eq!(a.p, SCENARIO_P);
        assert_eq!(a.evicted, 0);
        assert!(a.makespan > 0.0);
        let assigned =
            a.events.iter().filter(|e| matches!(e.kind, TraceKind::ChunkAssigned { .. })).count();
        let started =
            a.events.iter().filter(|e| matches!(e.kind, TraceKind::ChunkStarted { .. })).count();
        let completed =
            a.events.iter().filter(|e| matches!(e.kind, TraceKind::ChunkCompleted { .. })).count();
        assert!(assigned > 0);
        assert_eq!(assigned, started);
        assert_eq!(started, completed);
        // TSS chunk sizes decrease over time.
        let series = chunk_size_series(&a.events);
        assert!(series.first().unwrap().1 > series.last().unwrap().1);
    }

    #[test]
    fn hagerup_scenario_traces_the_direct_simulator() {
        let a = run_scenario("hagerup", 7).unwrap();
        assert!(a.events.iter().any(|e| matches!(e.kind, TraceKind::ChunkCompleted { .. })));
        // The direct simulator exchanges no messages.
        assert!(!a.events.iter().any(|e| matches!(e.kind, TraceKind::MsgSent { .. })));
    }

    #[test]
    fn fault_scenario_shows_the_recovery_path() {
        let a = run_scenario("faults", 7).unwrap();
        assert!(a.events.iter().any(|e| matches!(e.kind, TraceKind::WorkerFailStop { .. })));
        assert!(a.events.iter().any(|e| matches!(e.kind, TraceKind::ChunkReassigned { .. })));
    }

    #[test]
    fn trace_surfaces_engine_stats() {
        let a = run_scenario("FAC2", 7).unwrap();
        assert_eq!(a.telemetry.counter("msgsim.simulate_calls"), Some(1));
        assert!(a.telemetry.counter("msgsim.events").unwrap() > 0);
        assert_eq!(a.telemetry.counter("msgsim.dead_letters"), Some(0));
        let h = run_scenario("hagerup", 7).unwrap();
        assert_eq!(h.telemetry.counter("hagerup.run_calls"), Some(1));
        // The fault scenario loses messages: dead letters / drops surface.
        let f = run_scenario("faults", 7).unwrap();
        assert!(f.telemetry.counter("msgsim.dropped_sends").unwrap() > 0);
    }

    #[test]
    fn unknown_target_is_a_readable_error() {
        let err = run_scenario("bogus", 1).unwrap_err();
        assert!(err.contains("bogus") && err.contains("hagerup"));
    }

    #[test]
    fn representative_cells_trace() {
        let mut cfg = HagerupConfig::paper(256, 1);
        cfg.pes = vec![2];
        let a = trace_figure_cell(&cfg, "fig5").unwrap();
        assert_eq!(a.p, 2);
        assert!(a.label.starts_with("fig5-"));

        let sweep = SweepConfig { ns: vec![256], pes: vec![4], runs: 1, ..Default::default() };
        let s = trace_sweep_cell(&sweep).unwrap();
        assert_eq!(s.p, 4);

        let faults = FaultSweepConfig { n: 256, runs: 1, ..Default::default() };
        let f = trace_fault_cell(&faults).unwrap();
        assert!(f.events.iter().any(|e| matches!(e.kind, TraceKind::WorkerFailStop { .. })));
    }

    #[test]
    fn traced_cells_are_the_campaigns_run_zero() {
        // A 1-run campaign's row is its run 0, so each traced cell must
        // reproduce the row bit for bit through the campaign's own
        // `cell_spec` and run-0 seed.
        use crate::runner::ExecContext;
        let run0 = |spec: &SimSpec, seed: u64| {
            let tasks = spec.workload.generate(run0_seed(seed));
            simulate_with_tasks(spec, &tasks, &Tracer::disabled(), &Telemetry::disabled()).unwrap()
        };
        let (off, ctx) = (Telemetry::disabled(), ExecContext::transient());

        let mut fig = HagerupConfig::paper(256, 1);
        fig.pes = vec![4];
        fig.techniques = vec![Technique::Fac2];
        let out = run0(&hagerup_exp::cell_spec(&fig, Technique::Fac2, 4).unwrap(), fig.seed);
        let traced = trace_figure_cell(&fig, "fig5").unwrap();
        assert_eq!(traced.makespan.to_bits(), out.makespan.to_bits());
        let rows = hagerup_exp::run_figure_resilient(&fig, &off, &ctx).unwrap();
        assert_eq!(rows[0].msgsim.to_bits(), out.average_wasted().to_bits());

        let sweep_cfg = SweepConfig {
            ns: vec![256],
            pes: vec![4],
            techniques: vec![Technique::Gss { min_chunk: 1 }],
            runs: 1,
            ..Default::default()
        };
        let family = &sweep_cfg.families[0];
        let spec = sweep::cell_spec(&sweep_cfg, 256, 4, family, sweep_cfg.techniques[0]).unwrap();
        let out = run0(&spec, sweep_cfg.seed);
        let traced = trace_sweep_cell(&sweep_cfg).unwrap();
        assert_eq!(traced.makespan.to_bits(), out.makespan.to_bits());
        let rows = sweep::run_sweep_resilient(&sweep_cfg, &off, &ctx).unwrap();
        assert_eq!(rows[0].wasted.mean().to_bits(), out.average_wasted().to_bits());

        let fault_cfg = FaultSweepConfig {
            n: 256,
            techniques: vec![Technique::Fac2],
            scenarios: faults::default_scenarios(256, 8),
            runs: 1,
            ..Default::default()
        };
        let spec = faults::cell_spec(&fault_cfg, Technique::Fac2)
            .unwrap()
            .with_faults(fault_cfg.scenarios[0].plan.clone());
        let out = run0(&spec, fault_cfg.seed);
        assert!(out.faults.reassigned_chunks > 0, "the fail-stop must strike mid-run");
        let traced = trace_fault_cell(&fault_cfg).unwrap();
        assert_eq!(traced.makespan.to_bits(), out.makespan.to_bits());
        let rows = faults::run_fault_sweep_resilient(&fault_cfg, &off, &ctx).unwrap();
        assert_eq!(rows[0].faulty_makespan.mean().to_bits(), out.makespan.to_bits());
        let wasted = dls_metrics::wasted_work_fraction(out.wasted_work(), out.serial_time);
        assert_eq!(rows[0].wasted_work_frac.to_bits(), wasted.to_bits());
    }

    #[test]
    fn artifacts_round_trip_to_disk() {
        let a = run_scenario("FAC2", 3).unwrap();
        let dir = std::env::temp_dir().join(format!("dls-trace-test-{}", std::process::id()));
        let paths = write_artifacts(&a, &dir).unwrap();
        assert_eq!(paths.len(), 4);
        let json = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(json.contains("traceEvents"));
        let timeline = std::fs::read_to_string(&paths[1]).unwrap();
        assert!(timeline.starts_with("pe,start_s,end_s,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

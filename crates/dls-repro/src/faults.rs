//! Fault-injection sweep: techniques × fault scenarios.
//!
//! The paper's simulator assumes a fault-free platform; this module asks
//! the complementary robustness question — how much makespan does each DLS
//! technique lose when workers fail-stop, links lose messages, or the
//! network partitions mid-run? Each (technique, scenario) cell is compared
//! against the same technique's fault-free baseline over identical
//! task-time realizations, so the reported degradation isolates the fault
//! response from workload noise.

use crate::error::ReproError;
use crate::runner::{cell_seed, run_campaign_resilient_batched, ExecContext};
use dls_core::{SetupError, Technique};
use dls_faults::FaultPlan;
use dls_metrics::{flexibility, makespan_degradation, wasted_work_fraction, SummaryStats};
use dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::{TimeModel, Workload};
use serde::{Deserialize, Serialize};

/// A named fault plan for the sweep.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Display name (e.g. `"fail-stop@25%"`).
    pub name: String,
    /// The plan injected into every run of the scenario.
    pub plan: FaultPlan,
}

/// Fault-sweep configuration.
#[derive(Debug, Clone)]
pub struct FaultSweepConfig {
    /// Loop size.
    pub n: u64,
    /// Worker count.
    pub p: usize,
    /// Techniques under test.
    pub techniques: Vec<Technique>,
    /// Fault scenarios (the fault-free baseline is always run in addition).
    pub scenarios: Vec<FaultScenario>,
    /// Runs per cell.
    pub runs: u32,
    /// Scheduling overhead h.
    pub h: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        let n = 4_096;
        let p = 8;
        FaultSweepConfig {
            n,
            p,
            techniques: vec![
                Technique::Stat,
                Technique::SS,
                Technique::Fac2,
                Technique::Gss { min_chunk: 1 },
                Technique::Tss { first: None, last: None },
            ],
            scenarios: default_scenarios(n, p),
            runs: 25,
            h: 0.01,
            seed: 0xFA17,
            threads: crate::runner::default_threads(),
        }
    }
}

impl FaultSweepConfig {
    /// The sweep's identity for `--resume` journals: every field that can
    /// change a row (`threads` never does; scenarios enter by name).
    /// Existing journals embed this text, so its rendering must never
    /// change.
    pub fn fingerprint(&self) -> String {
        let scenarios: Vec<&str> = self.scenarios.iter().map(|s| s.name.as_str()).collect();
        format!(
            "n={} p={} techniques={:?} scenarios={:?} runs={} h={} seed={:#x}",
            self.n, self.p, self.techniques, scenarios, self.runs, self.h, self.seed
        )
    }
}

/// The standard scenario set, timed relative to the expected fault-free
/// makespan `n · µ / p` (µ = 1 s): one worker dies a quarter of the way in,
/// a lossy interconnect, a transient partition, and all three combined.
pub fn default_scenarios(n: u64, p: usize) -> Vec<FaultScenario> {
    let est = n as f64 / p.max(1) as f64;
    vec![
        FaultScenario {
            name: "fail-stop@25%".into(),
            plan: FaultPlan::none().with_fail_stop(0, 0.25 * est),
        },
        FaultScenario { name: "loss(2%)".into(), plan: FaultPlan::none().with_loss(0.02) },
        FaultScenario {
            name: "partition@50%".into(),
            plan: FaultPlan::none().with_partition(1 % p.max(1), 0.50 * est, 0.60 * est),
        },
        FaultScenario {
            name: "combined".into(),
            plan: FaultPlan::none().with_fail_stop(0, 0.25 * est).with_loss(0.01).with_partition(
                1 % p.max(1),
                0.50 * est,
                0.60 * est,
            ),
        },
    ]
}

/// Loads a [`FaultPlan`] from a JSON file (the `--fault-plan` CLI path).
/// An unreadable file classifies as I/O, an undecodable or inconsistent
/// plan — or one with an unknown field — as an invalid spec, each with
/// its own exit code (see [`crate::spec::load_json_plan`]).
///
/// Fields are checked inside each `fail_stops`, `partitions` and
/// `latency_spikes` entry too, so a typo there is refused rather than
/// silently ignored.
pub fn load_plan(path: &str) -> Result<FaultPlan, ReproError> {
    // One entry per list, so each entry type's fields are known.
    let template = FaultPlan::none()
        .with_fail_stop(0, 0.0)
        .with_partition(0, 0.0, 1.0)
        .with_latency_spike(0, 0.0, 1.0, 1.0);
    crate::spec::load_json_plan(path, "fault plan", &template, FaultPlan::validate)
}

/// One (technique, scenario) cell of the sweep.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Technique name.
    pub technique: String,
    /// Scenario name.
    pub scenario: String,
    /// Mean fault-free makespan over the runs, seconds.
    pub baseline_makespan: f64,
    /// Mean makespan under the scenario's faults, seconds.
    pub faulty_makespan: SummaryStats,
    /// Makespan degradation `faulty / baseline` (of the means).
    pub degradation: f64,
    /// Flexibility `baseline / faulty` (of the means).
    pub flexibility: f64,
    /// Mean wasted-work fraction (re-executed compute / serial work).
    pub wasted_work_frac: f64,
    /// Mean messages lost per run.
    pub lost_mean: f64,
    /// Mean master-side chunk re-requests per run.
    pub master_retries_mean: f64,
    /// Mean chunks reassigned from dead workers per run.
    pub reassigned_mean: f64,
    /// True when every run completed all `n` tasks exactly once.
    pub all_completed: bool,
}

/// The fault-free spec of a technique's cells — the baseline campaign
/// runs it as is, each scenario campaign with its plan attached — and the
/// one `trace::trace_fault_cell` traces.
pub(crate) fn cell_spec(
    cfg: &FaultSweepConfig,
    technique: Technique,
) -> Result<SimSpec, SetupError> {
    let platform = Platform::homogeneous_star("pe", cfg.p, 1.0, LinkSpec::negligible());
    let workload = Workload::new(cfg.n, TimeModel::Exponential { mean: 1.0 })
        .map_err(|_| SetupError::BadParam("invalid fault-sweep workload"))?;
    Ok(SimSpec::new(technique, workload, platform)
        .with_overhead(dls_metrics::OverheadModel::PostHocTotal { h: cfg.h }))
}

/// One run's observation in a fault cell — the unit the checkpoint journal
/// stores for fault-sweep campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRunObs {
    /// Makespan of the run, seconds.
    pub makespan: f64,
    /// Re-executed compute, seconds.
    pub wasted_work: f64,
    /// Serial work of the run, seconds.
    pub serial_time: f64,
    /// Messages lost to the injected faults.
    pub lost: u64,
    /// Master-side chunk re-requests.
    pub retries: u64,
    /// Chunks reassigned from dead workers.
    pub reassigned: u64,
    /// Whether every task completed exactly once.
    pub completed: bool,
}

/// Runs the sweep under `ctx`. Row order is (technique, scenario); every
/// technique's baseline uses the same per-run task realizations as its
/// fault rows. Baseline and scenario campaigns therefore share a campaign
/// seed, so their journal cells are disambiguated by label —
/// `"FAC2 baseline"` vs `"FAC2 loss(2%)"`. `telemetry` receives the
/// campaign counters, per-run wall times, and the simulator's `msgsim.*`
/// engine metrics (dead letters, dropped/delayed sends) for the summary.
pub fn run_fault_sweep_resilient(
    cfg: &FaultSweepConfig,
    telemetry: &Telemetry,
    ctx: &ExecContext,
) -> Result<Vec<FaultRow>, ReproError> {
    let _wall = telemetry.span("faults.wall_s");
    // Check every cell's spec before the first campaign runs: a bad
    // configuration or plan must surface as Err, not as a panic inside a
    // worker thread or after half the sweep is journaled.
    for &technique in &cfg.techniques {
        let spec = cell_spec(cfg, technique)?;
        spec.check(None)?;
        for s in &cfg.scenarios {
            spec.clone().with_faults(s.plan.clone()).check(None)?;
        }
    }
    let mut rows = Vec::new();
    for (ti, &technique) in cfg.techniques.iter().enumerate() {
        let spec = cell_spec(cfg, technique)?;
        // Stream-derived per-technique seeds (see `runner::cell_seed`); the
        // old `seed ^ n ^ (p << 24)` mixing was precedence-fragile and
        // could collide across configurations.
        let campaign_seed = cell_seed(cfg.seed, ti as u64);
        let baseline: Vec<Option<f64>> = run_campaign_resilient_batched(
            cfg.runs,
            campaign_seed,
            cfg.threads,
            1,
            telemetry,
            ctx,
            &format!("{} baseline", technique.name()),
            || (),
            |items, _: &mut ()| {
                items
                    .iter()
                    .map(|&(_, run_seed)| {
                        let tasks = spec.workload.generate(run_seed);
                        simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), telemetry)
                            .expect("checked spec cannot fail")
                            .makespan
                    })
                    .collect()
            },
        )?;
        let baseline: Vec<f64> = baseline.into_iter().flatten().collect();
        let baseline_mean = baseline.iter().sum::<f64>() / baseline.len().max(1) as f64;
        for scenario in &cfg.scenarios {
            let spec = spec.clone().with_faults(scenario.plan.clone());
            let per_run: Vec<Option<FaultRunObs>> = run_campaign_resilient_batched(
                cfg.runs,
                campaign_seed,
                cfg.threads,
                1,
                telemetry,
                ctx,
                &format!("{} {}", technique.name(), scenario.name),
                || (),
                |items, _: &mut ()| {
                    items
                        .iter()
                        .map(|&(_, run_seed)| fault_run(&spec, run_seed, cfg.n, telemetry))
                        .collect()
                },
            )?;
            let mut mk = SummaryStats::new();
            let (mut wf, mut lost, mut retries, mut reassigned) = (0.0, 0u64, 0u64, 0u64);
            let mut all_completed = true;
            let mut completed_runs = 0u64;
            for obs in per_run.iter().flatten() {
                mk.push(obs.makespan);
                wf += wasted_work_fraction(obs.wasted_work, obs.serial_time);
                lost += obs.lost;
                retries += obs.retries;
                reassigned += obs.reassigned;
                all_completed &= obs.completed;
                completed_runs += 1;
            }
            let runs = completed_runs.max(1) as f64;
            rows.push(FaultRow {
                technique: technique.name().to_string(),
                scenario: scenario.name.clone(),
                baseline_makespan: baseline_mean,
                degradation: makespan_degradation(baseline_mean, mk.mean()),
                flexibility: flexibility(baseline_mean, mk.mean()),
                faulty_makespan: mk,
                wasted_work_frac: wf / runs,
                lost_mean: lost as f64 / runs,
                master_retries_mean: retries as f64 / runs,
                reassigned_mean: reassigned as f64 / runs,
                all_completed,
            });
        }
    }
    Ok(rows)
}

/// One scenario run: simulate `spec` on the realization of `run_seed`.
fn fault_run(spec: &SimSpec, run_seed: u64, n: u64, telemetry: &Telemetry) -> FaultRunObs {
    let tasks = spec.workload.generate(run_seed);
    let out = simulate_with_tasks(spec, &tasks, &Tracer::disabled(), telemetry)
        .expect("checked spec cannot fail");
    FaultRunObs {
        makespan: out.makespan,
        wasted_work: out.wasted_work(),
        serial_time: out.serial_time,
        lost: out.faults.lost_messages,
        retries: out.faults.master_retries,
        reassigned: out.faults.reassigned_chunks,
        completed: out.faults.completed_tasks == n,
    }
}

/// Renders fault rows as the CLI's table/CSV cells. Shared by the `faults`
/// command and the chaos harness, which must reproduce the command's CSV
/// byte-for-byte to compare crashed-and-resumed campaigns against it.
pub fn table_rows(rows: &[FaultRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "technique",
        "scenario",
        "baseline[s]",
        "faulty[s]",
        "degradation",
        "flexibility",
        "wasted work",
        "lost msgs",
        "retries",
        "reassigned",
        "completed",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.technique.clone(),
                r.scenario.clone(),
                format!("{:.1}", r.baseline_makespan),
                format!("{:.1}", r.faulty_makespan.mean()),
                format!("{:.3}", r.degradation),
                format!("{:.3}", r.flexibility),
                format!("{:.1} %", 100.0 * r.wasted_work_frac),
                format!("{:.1}", r.lost_mean),
                format!("{:.1}", r.master_retries_mean),
                format!("{:.1}", r.reassigned_mean),
                if r.all_completed { "yes" } else { "NO" }.into(),
            ]
        })
        .collect();
    (headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(cfg: &FaultSweepConfig) -> Result<Vec<FaultRow>, ReproError> {
        run_fault_sweep_resilient(cfg, &Telemetry::disabled(), &ExecContext::transient())
    }

    #[test]
    fn fingerprint_is_pinned_byte_for_byte() {
        // Existing `--resume` journals embed exactly this text.
        assert_eq!(
            FaultSweepConfig::default().fingerprint(),
            "n=4096 p=8 techniques=[Stat, SS, Fac2, Gss { min_chunk: 1 }, \
             Tss { first: None, last: None }] scenarios=[\"fail-stop@25%\", \"loss(2%)\", \
             \"partition@50%\", \"combined\"] runs=25 h=0.01 seed=0xfa17"
        );
    }

    fn tiny() -> FaultSweepConfig {
        let n = 240;
        let p = 4;
        FaultSweepConfig {
            n,
            p,
            techniques: vec![Technique::Fac2, Technique::SS],
            scenarios: default_scenarios(n, p),
            runs: 3,
            h: 0.01,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn sweep_covers_techniques_times_scenarios() {
        let rows = sweep(&tiny()).unwrap();
        assert_eq!(rows.len(), 2 * 4);
        assert!(rows.iter().all(|r| r.all_completed), "a survivor must finish every task");
        assert!(rows.iter().all(|r| r.faulty_makespan.count() == 3));
    }

    #[test]
    fn fail_stop_costs_makespan_and_reassigns() {
        let rows = sweep(&tiny()).unwrap();
        let fs =
            rows.iter().find(|r| r.technique == "FAC2" && r.scenario == "fail-stop@25%").unwrap();
        assert!(fs.degradation > 1.0, "losing a quarter-way worker must cost time");
        assert!(fs.flexibility < 1.0 && fs.flexibility > 0.0);
        assert!(fs.reassigned_mean > 0.0 || fs.wasted_work_frac >= 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(&tiny()).unwrap();
        let b = sweep(&tiny()).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.faulty_makespan.mean(), y.faulty_makespan.mean());
            assert_eq!(x.lost_mean, y.lost_mean);
        }
    }

    #[test]
    fn out_of_range_worker_is_rejected() {
        let mut cfg = tiny();
        cfg.scenarios = vec![FaultScenario {
            name: "bad".into(),
            plan: FaultPlan::none().with_fail_stop(99, 1.0),
        }];
        assert!(sweep(&cfg).is_err());
    }

    #[test]
    fn load_plan_round_trips_and_validates() {
        let dir = std::env::temp_dir().join("dls-repro-fault-plan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let plan = FaultPlan::none().with_fail_stop(0, 5.0).with_loss(0.1);
        std::fs::write(&good, serde_json::to_string(&plan).unwrap()).unwrap();
        assert_eq!(load_plan(good.to_str().unwrap()).unwrap(), plan);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"loss_probability": 2.0}"#).unwrap();
        assert!(load_plan(bad.to_str().unwrap()).is_err());
        assert!(load_plan("/nonexistent/plan.json").is_err());
    }

    #[test]
    fn load_plan_rejects_unknown_fields() {
        let dir = std::env::temp_dir().join("dls-repro-fault-plan-strict");
        std::fs::create_dir_all(&dir).unwrap();
        let typo = dir.join("typo.json");
        std::fs::write(&typo, r#"{"loss": 0.1}"#).unwrap();
        let err = load_plan(typo.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INVALID_SPEC);
        let msg = err.to_string();
        assert!(msg.contains("unknown field `loss`"), "names the bad field: {msg}");
        assert!(msg.contains("loss_probability"), "lists the known set: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `json` as a plan file and loads it.
    fn load_plan_text(name: &str, json: &str) -> Result<FaultPlan, ReproError> {
        let dir = std::env::temp_dir().join(format!("dls-repro-nested-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        let result = load_plan(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        result
    }

    /// Asserts `json` is refused as an invalid spec naming `bad` in `entry`.
    fn assert_nested_typo(name: &str, json: &str, entry: &str, bad: &str, known: &str) {
        let err = load_plan_text(name, json).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INVALID_SPEC);
        let msg = err.to_string();
        assert!(msg.contains(&format!("{entry}: unknown field `{bad}`")), "{msg}");
        assert!(msg.contains(known), "lists the entry's known set: {msg}");
    }

    #[test]
    fn load_plan_rejects_unknown_fields_in_fail_stops() {
        let json = r#"{"fail_stops": [{"worker": 0, "at": 1.0}, {"wroker": 1, "at": 2.0}]}"#;
        assert_nested_typo("fail.json", json, "fail_stops[1]", "wroker", "worker, at");
    }

    #[test]
    fn load_plan_rejects_unknown_fields_in_partitions() {
        let json = r#"{"partitions": [{"worker": 0, "from": 1.0, "to": 2.0}]}"#;
        assert_nested_typo("part.json", json, "partitions[0]", "to", "worker, from, until");
    }

    #[test]
    fn load_plan_rejects_unknown_fields_in_latency_spikes() {
        let json =
            r#"{"latency_spikes": [{"worker": 0, "from": 1.0, "until": 2.0, "extra": 0.5}]}"#;
        assert_nested_typo("spike.json", json, "latency_spikes[0]", "extra", "extra_secs");
    }

    #[test]
    fn load_plan_accepts_well_formed_nested_entries() {
        let plan = FaultPlan::none()
            .with_fail_stop(1, 2.0)
            .with_partition(0, 1.0, 2.0)
            .with_latency_spike(1, 0.5, 1.5, 0.25);
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(load_plan_text("ok.json", &json).unwrap(), plan);
    }
}

//! Crash-point exhaustion: prove every I/O boundary is resumable.
//!
//! `repro chaos <fig5|sweep|faults> [--quick]` runs a reduced, journaled
//! campaign three ways and cross-checks the bytes on disk:
//!
//! 1. **Reference** — the stock path (real I/O, standard retries), exactly
//!    what a user's `repro fig5 --resume DIR` executes. Its result CSV and
//!    journal bytes are the ground truth.
//! 2. **Empty-plan chaos** — the same campaign through a [`ChaosIo`] with
//!    no faults armed. This pins the injection layer as a true
//!    passthrough (byte-identical artifacts) and counts the campaign's
//!    host-I/O operations: the crash points.
//! 3. **Crash exhaustion** — for every operation index `k`, a fresh run
//!    with a [`ChaosIo`] armed to simulate a hard crash *at* `k` (the op
//!    fails with its partial effect — an empty tmp after create, a half
//!    prefix after write, nothing after fsync/rename — and every later op
//!    is rejected). The campaign is then resumed over the surviving
//!    directory with real I/O; the final CSV and journal must be
//!    byte-identical to the reference, for every single `k`.
//!
//! A final **fault-storm** pass replays the campaign under a seeded
//! [`HostFaultPlan`] (the default: transient flakes the [`RetryPolicy`]
//! must absorb; `--host-fault-plan FILE` substitutes any plan). If the
//! storm defeats the retries, one resume with real I/O must still land the
//! reference bytes — the "any crash, one resume" invariant.
//!
//! `repro chaos serve [--quick]` ([`run_serve_chaos`]) applies the same
//! discipline to the **campaign service**: it boots `repro serve`
//! in-process over an injectable [`HostIo`], crash-exhausts every
//! cache-persistence operation index (kill, restart over the surviving
//! cache directory, replay the same request, assert the response is
//! byte-identical to the reference and the cache self-heals), storms the
//! persistence path with seeded flakes under real traffic, plants
//! torn/corrupt cache entries the quarantine path must absorb (zero wrong
//! answers, zero 5xx), and pins that a deadline-expired request answers
//! 504 while the worker/queue gauges return to zero.

use crate::error::ReproError;
use crate::faults::{self, FaultScenario, FaultSweepConfig};
use crate::hagerup_exp::{self, HagerupConfig};
use crate::journal::{write_artifact_with, Journal, JournalMeta, JOURNAL_FILE};
use crate::report;
use crate::runner::{CancelFlag, ExecContext};
use crate::server::{ServeConfig, Server};
use crate::sweep::{self, SweepConfig, WorkloadFamily};
use dls_chaos::{ChaosIo, ChaosStats, HostFaultPlan, HostIo, RealIo, RetryPolicy};
use dls_core::Technique;
use dls_telemetry::{Logger, Telemetry};
use dls_workload::TimeModel;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal flush cadence for the chaos runs: every other record, so even a
/// reduced campaign crosses many mid-campaign append boundaries. The
/// journal's final bytes are cadence-independent (a flush appends the
/// lines since the previous one; a rewrite emits all of them), so this
/// never changes what the comparisons see.
pub const CHAOS_FLUSH_EVERY: usize = 2;

/// Worst-case transient failures one atomic write can absorb under the
/// default storm plan: four gated sites (create/write/fsync/rename) times
/// the flake depth, plus the succeeding attempt — the storm pass's retry
/// budget is sized to guarantee completion.
const STORM_FLAKE_DEPTH: u32 = 2;
const STORM_RETRY_ATTEMPTS: u32 = 4 * STORM_FLAKE_DEPTH + 1 + 3;

/// Which journaled campaign the harness exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosTarget {
    /// Reduced Figure-5 campaign (`hagerup_exp`).
    Fig5,
    /// Reduced parameter sweep (`sweep`).
    Sweep,
    /// Reduced fault-injection sweep (`faults`) — simulator faults under
    /// host-I/O faults.
    Faults,
    /// The campaign service (`repro serve`), exercised end-to-end over
    /// HTTP by [`run_serve_chaos`].
    Serve,
}

impl ChaosTarget {
    /// The CLI name (also the result CSV's base name).
    pub fn name(self) -> &'static str {
        match self {
            ChaosTarget::Fig5 => "fig5",
            ChaosTarget::Sweep => "sweep",
            ChaosTarget::Faults => "faults",
            ChaosTarget::Serve => "serve",
        }
    }
}

impl std::str::FromStr for ChaosTarget {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fig5" => Ok(ChaosTarget::Fig5),
            "sweep" => Ok(ChaosTarget::Sweep),
            "faults" => Ok(ChaosTarget::Faults),
            "serve" => Ok(ChaosTarget::Serve),
            other => {
                Err(format!("unknown chaos target `{other}` (expected fig5, sweep, faults, serve)"))
            }
        }
    }
}

/// Harness configuration, assembled by the CLI.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Campaign to exercise.
    pub target: ChaosTarget,
    /// Use the smallest campaign that still crosses several flush
    /// boundaries (the CI smoke configuration).
    pub quick: bool,
    /// Override the per-cell run count of the reduced campaign.
    pub runs: Option<u32>,
    /// Override the campaign seed.
    pub seed: Option<u64>,
    /// Fault plan for the storm pass; `None` uses the default flake storm.
    pub plan: Option<HostFaultPlan>,
}

impl ChaosConfig {
    /// The harness defaults for `target` (quick mode off).
    pub fn new(target: ChaosTarget) -> Self {
        ChaosConfig { target, quick: false, runs: None, seed: None, plan: None }
    }

    fn campaign_seed(&self) -> u64 {
        self.seed.unwrap_or(0xC4A0_5EED)
    }

    fn campaign_runs(&self, default: u32) -> u32 {
        self.runs.unwrap_or(default)
    }
}

/// What the exhaustion proved; rendered by the CLI, gated by [`is_ok`].
///
/// [`is_ok`]: ChaosReport::is_ok
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Target that was exercised.
    pub target: ChaosTarget,
    /// Host-I/O operations in one uninterrupted campaign — the number of
    /// distinct crash points.
    pub io_ops: u64,
    /// Crash points whose resume reproduced the reference bytes.
    pub identical_resumes: u64,
    /// Human-readable descriptions of every divergence found.
    pub mismatches: Vec<String>,
    /// Whether the empty-plan [`ChaosIo`] run was byte-identical to the
    /// real-I/O reference (the passthrough pin).
    pub empty_plan_identical: bool,
    /// Whether the fault-storm run completed under the retry policy alone.
    pub storm_completed_directly: bool,
    /// Whether the storm pass ended with reference-identical bytes
    /// (directly, or after one real-I/O resume).
    pub storm_identical: bool,
    /// Fault counters from the storm run.
    pub storm_stats: ChaosStats,
}

impl ChaosReport {
    /// True when every invariant held: passthrough pinned, every crash
    /// point resumed to identical bytes, and the storm pass converged.
    pub fn is_ok(&self) -> bool {
        self.mismatches.is_empty()
            && self.empty_plan_identical
            && self.storm_identical
            && self.identical_resumes == self.io_ops
    }
}

/// Runs the full exhaustion for `cfg`. Honours `cancel` between crash
/// points (returning [`ReproError::Interrupted`]); a mismatch is *not* an
/// error — it is recorded in the report for the CLI to turn into a
/// regression verdict.
pub fn run_crash_exhaustion(
    cfg: &ChaosConfig,
    cancel: &CancelFlag,
) -> Result<ChaosReport, ReproError> {
    if cfg.target == ChaosTarget::Serve {
        return Err(ReproError::invalid_spec(
            "the serve target runs through run_serve_chaos, not the campaign exhaustion",
        ));
    }
    if let Some(plan) = &cfg.plan {
        plan.validate().map_err(|e| ReproError::invalid_spec(format!("--host-fault-plan: {e}")))?;
    }
    let base = scratch_base(cfg);
    let _ = std::fs::remove_dir_all(&base);
    let result = exhaustion_in(cfg, cancel, &base);
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn exhaustion_in(
    cfg: &ChaosConfig,
    cancel: &CancelFlag,
    base: &Path,
) -> Result<ChaosReport, ReproError> {
    // Pass 1: the reference — the stock real-I/O path users run.
    let ref_dir = base.join("reference");
    run_attempt(cfg, &ref_dir, Arc::new(RealIo), RetryPolicy::standard(), None)?;
    let reference = disk_state(cfg, &ref_dir)?;

    // Pass 2: empty-plan chaos — passthrough pin + crash-point census.
    let empty_dir = base.join("empty-plan");
    let passthrough = Arc::new(ChaosIo::new(HostFaultPlan::none()));
    run_attempt(
        cfg,
        &empty_dir,
        passthrough.clone(),
        RetryPolicy::no_delay(1),
        Some(CHAOS_FLUSH_EVERY),
    )?;
    let empty_plan_identical = disk_state(cfg, &empty_dir)? == reference;
    let io_ops = passthrough.ops_executed();

    // Pass 3: crash at every single operation index, then resume.
    let mut mismatches = Vec::new();
    let mut identical_resumes = 0u64;
    for k in 0..io_ops {
        if cancel.is_cancelled() {
            return Err(ReproError::Interrupted { resume_dir: None });
        }
        let dir = base.join(format!("crash-{k}"));
        let chaos = Arc::new(ChaosIo::new(HostFaultPlan::none()).with_crash_at(k));
        let crashed_run = run_attempt(
            cfg,
            &dir,
            chaos.clone(),
            RetryPolicy::no_delay(1),
            Some(CHAOS_FLUSH_EVERY),
        );
        if !chaos.is_crashed() {
            mismatches.push(format!("crash@{k}: the armed operation was never reached"));
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        // The interrupted attempt usually errors; a crash arming only the
        // trailing dir-sync can complete (dir-sync failures are
        // deliberately non-fatal). Either way the resume must converge.
        drop(crashed_run);
        match resume_and_compare(cfg, &dir, &reference) {
            Ok(None) => identical_resumes += 1,
            Ok(Some(diff)) => mismatches.push(format!("crash@{k}: {diff}")),
            Err(e) => mismatches.push(format!("crash@{k}: resume failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Pass 4: the fault storm. The default plan is pure transient flakes,
    // which the sized retry budget must absorb without any resume.
    let storm_dir = base.join("storm");
    let storm_plan = cfg.plan.clone().unwrap_or_else(|| {
        HostFaultPlan::none().with_seed(cfg.campaign_seed()).with_flakes(0.35, STORM_FLAKE_DEPTH)
    });
    let default_storm = cfg.plan.is_none();
    let storm = Arc::new(ChaosIo::new(storm_plan));
    let direct = run_attempt(
        cfg,
        &storm_dir,
        storm.clone(),
        RetryPolicy::no_delay(STORM_RETRY_ATTEMPTS),
        Some(CHAOS_FLUSH_EVERY),
    );
    let storm_completed_directly = direct.is_ok();
    let storm_identical = if storm_completed_directly {
        match disk_state(cfg, &storm_dir)? == reference {
            true => true,
            false => {
                mismatches.push("storm: completed run diverged from the reference".into());
                false
            }
        }
    } else if default_storm {
        // The sized budget makes the default storm unlosable; failing here
        // means the retry classification or budget arithmetic regressed.
        mismatches.push(format!(
            "storm: default flake storm defeated the retry policy: {}",
            direct.unwrap_err()
        ));
        false
    } else {
        match resume_and_compare(cfg, &storm_dir, &reference) {
            Ok(None) => true,
            Ok(Some(diff)) => {
                mismatches.push(format!("storm: {diff}"));
                false
            }
            Err(e) => {
                mismatches.push(format!("storm: resume failed: {e}"));
                false
            }
        }
    };

    Ok(ChaosReport {
        target: cfg.target,
        io_ops,
        identical_resumes,
        mismatches,
        empty_plan_identical,
        storm_completed_directly,
        storm_identical,
        storm_stats: storm.stats(),
    })
}

/// Resumes the campaign left in `dir` with real I/O and compares the final
/// bytes against the reference. `Ok(None)` means identical; `Ok(Some(d))`
/// names the divergence.
fn resume_and_compare(
    cfg: &ChaosConfig,
    dir: &Path,
    reference: &DiskState,
) -> Result<Option<String>, ReproError> {
    run_attempt(cfg, dir, Arc::new(RealIo), RetryPolicy::standard(), None)?;
    let resumed = disk_state(cfg, dir)?;
    if resumed == *reference {
        return Ok(None);
    }
    Ok(Some(if resumed.csv != reference.csv {
        "resumed CSV differs from the uninterrupted run".into()
    } else {
        "resumed journal differs from the uninterrupted run".into()
    }))
}

/// One full campaign attempt in `dir` through `io`: journaled (resuming
/// whatever a previous attempt left), result CSV written last — the same
/// artifact order as the real commands.
fn run_attempt(
    cfg: &ChaosConfig,
    dir: &Path,
    io: Arc<dyn HostIo>,
    retry: RetryPolicy,
    flush_every: Option<usize>,
) -> Result<(), ReproError> {
    let mut journal = Journal::open_with_io(dir, &journal_meta(cfg), io.clone(), retry)?;
    if let Some(every) = flush_every {
        journal = journal.with_flush_every(every);
    }
    let ctx = ExecContext::with_journal(journal);
    let (headers, body) = run_target(cfg, &ctx)?;
    let csv = report::format_csv(&headers, &body);
    write_artifact_with(&*io, retry, &dir.join(csv_name(cfg.target)), csv.as_bytes())
}

/// Runs the reduced campaign for the target and renders its table cells —
/// via the same row renderers the real commands use, so the CSVs under
/// comparison are the commands' CSVs.
fn run_target(
    cfg: &ChaosConfig,
    ctx: &ExecContext,
) -> Result<(Vec<&'static str>, Vec<Vec<String>>), ReproError> {
    let telemetry = Telemetry::disabled();
    match cfg.target {
        ChaosTarget::Fig5 => {
            let rows = hagerup_exp::run_figure_resilient(&fig5_config(cfg), &telemetry, ctx)?;
            Ok(report::wasted_rows(&rows))
        }
        ChaosTarget::Sweep => {
            let rows = sweep::run_sweep_resilient(&sweep_config(cfg), &telemetry, ctx)?;
            Ok(sweep::table_rows(&rows))
        }
        ChaosTarget::Faults => {
            let rows = faults::run_fault_sweep_resilient(&faults_config(cfg), &telemetry, ctx)?;
            Ok(faults::table_rows(&rows))
        }
        ChaosTarget::Serve => Err(ReproError::invalid_spec(
            "the serve target runs through run_serve_chaos, not the campaign exhaustion",
        )),
    }
}

/// Reduced Figure-5 campaign. Single-threaded: the journal's record order
/// (and hence its bytes) must be deterministic for the byte comparisons.
fn fig5_config(cfg: &ChaosConfig) -> HagerupConfig {
    let mut c = HagerupConfig::paper(1024, cfg.campaign_runs(if cfg.quick { 4 } else { 8 }));
    c.pes = if cfg.quick { vec![2, 8] } else { vec![2, 8, 64] };
    c.techniques = if cfg.quick {
        vec![Technique::SS, Technique::Fac2]
    } else {
        vec![Technique::Stat, Technique::SS, Technique::Fac2]
    };
    c.seed = cfg.campaign_seed();
    c.threads = 1;
    c
}

fn sweep_config(cfg: &ChaosConfig) -> SweepConfig {
    let mut families = vec![
        WorkloadFamily { name: "constant".into(), model: TimeModel::Constant { time: 1.0 } },
        WorkloadFamily { name: "exponential".into(), model: TimeModel::Exponential { mean: 1.0 } },
    ];
    if !cfg.quick {
        families.push(WorkloadFamily {
            name: "uniform".into(),
            model: TimeModel::Uniform { lo: 0.0, hi: 2.0 },
        });
    }
    SweepConfig {
        ns: vec![512],
        pes: if cfg.quick { vec![4] } else { vec![4, 16] },
        families,
        techniques: vec![Technique::SS, Technique::Fac2],
        runs: cfg.campaign_runs(3),
        h: 0.01,
        seed: cfg.campaign_seed(),
        threads: 1,
    }
}

fn faults_config(cfg: &ChaosConfig) -> FaultSweepConfig {
    let (n, p) = (240, 4);
    let scenarios: Vec<FaultScenario> =
        faults::default_scenarios(n, p).into_iter().take(if cfg.quick { 2 } else { 4 }).collect();
    FaultSweepConfig {
        n,
        p,
        techniques: if cfg.quick {
            vec![Technique::Fac2]
        } else {
            vec![Technique::Fac2, Technique::SS]
        },
        scenarios,
        runs: cfg.campaign_runs(3),
        h: 0.01,
        seed: cfg.campaign_seed(),
        threads: 1,
    }
}

// ---------------------------------------------------------------------------
// Service-tier chaos: `repro chaos serve`.
// ---------------------------------------------------------------------------

/// What the service exhaustion proved; rendered by the CLI, gated by
/// [`ServeChaosReport::is_ok`].
#[derive(Debug, Clone)]
pub struct ServeChaosReport {
    /// Host-I/O operations one cold request's cache persistence performs —
    /// the number of distinct service crash points.
    pub io_ops: u64,
    /// Crash points whose restart + replay reproduced the reference bytes
    /// with a self-healed cache entry.
    pub identical_replays: u64,
    /// Human-readable descriptions of every divergence found.
    pub mismatches: Vec<String>,
    /// Whether the empty-plan [`ChaosIo`] server answered byte-identically
    /// to the direct computation (the passthrough pin).
    pub passthrough_identical: bool,
    /// Requests served during the fault storm.
    pub storm_requests: u64,
    /// Whether every storm request answered 200 with correct bytes.
    pub storm_ok: bool,
    /// Corrupt/torn cache entries the quarantine census planted and the
    /// server absorbed.
    pub quarantined: u64,
    /// Whether the quarantine census ended in full recovery: corrupt
    /// entries moved aside (never deleted), the key recomputed to
    /// reference bytes, and the rewrite served a subsequent hit.
    pub quarantine_recovered: bool,
    /// Whether a deadline-expired request answered 504 with the
    /// worker/queue gauges back at zero.
    pub deadline_ok: bool,
    /// Fault counters from the storm server's [`ChaosIo`].
    pub storm_stats: ChaosStats,
}

impl ServeChaosReport {
    /// True when every service invariant held.
    pub fn is_ok(&self) -> bool {
        self.mismatches.is_empty()
            && self.passthrough_identical
            && self.identical_replays == self.io_ops
            && self.io_ops > 0
            && self.storm_ok
            && self.quarantined > 0
            && self.quarantine_recovered
            && self.deadline_ok
    }
}

/// Runs the service-tier chaos campaign (see the module docs). Honours
/// `cancel` between crash points; like [`run_crash_exhaustion`], a found
/// divergence is recorded in the report, not returned as an error.
pub fn run_serve_chaos(
    cfg: &ChaosConfig,
    cancel: &CancelFlag,
) -> Result<ServeChaosReport, ReproError> {
    // Seed-qualified scratch: concurrent harness invocations in one
    // process (the unit tests) must not share a directory.
    let base = std::env::temp_dir().join(format!(
        "dls-chaos-serve-{:x}-{}",
        cfg.campaign_seed(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let result = serve_chaos_in(cfg, cancel, &base);
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn serve_chaos_in(
    cfg: &ChaosConfig,
    cancel: &CancelFlag,
    base: &Path,
) -> Result<ServeChaosReport, ReproError> {
    let mut mismatches: Vec<String> = Vec::new();

    // Pass 1: the reference bytes — the same campaign the server runs for
    // this spec, computed directly (no server, no cache).
    let reference = serve_reference_body(cfg, cfg.campaign_seed())?;

    // Pass 2: passthrough pin + census of the cache-persistence crash
    // points (one cold request through an empty-plan ChaosIo).
    let census = Arc::new(ChaosIo::new(HostFaultPlan::none()));
    let server = ServeInstance::boot(
        &base.join("census"),
        census.clone(),
        RetryPolicy::no_delay(1),
        0,
        None,
    )?;
    let (status, _, body) =
        http_post(server.addr, "/run", &[], &serve_spec_body(cfg, cfg.campaign_seed()))?;
    server.stop()?;
    let passthrough_identical = status == 200 && body == reference.as_bytes();
    if !passthrough_identical {
        mismatches.push(format!("census: status {status} or body diverged from the reference"));
    }
    let io_ops = census.ops_executed();

    // Pass 3: crash-exhaust every persistence op index k — kill the write
    // at k, restart the server over the surviving cache directory, replay
    // the identical request; the response must be byte-identical and the
    // cache must self-heal to a valid entry.
    let mut identical_replays = 0u64;
    for k in 0..io_ops {
        if cancel.is_cancelled() {
            return Err(ReproError::Interrupted { resume_dir: None });
        }
        let dir = base.join(format!("crash-{k}"));
        let chaos = Arc::new(ChaosIo::new(HostFaultPlan::none()).with_crash_at(k));
        let server = ServeInstance::boot(&dir, chaos.clone(), RetryPolicy::no_delay(1), 0, None)?;
        let (status, _, body) =
            http_post(server.addr, "/run", &[], &serve_spec_body(cfg, cfg.campaign_seed()))?;
        server.stop()?;
        if !chaos.is_crashed() {
            mismatches.push(format!("crash@{k}: the armed operation was never reached"));
            continue;
        }
        // Persistence is fail-soft: even a crashed cache write must not
        // cost the in-flight response its bytes.
        if status != 200 || body != reference.as_bytes() {
            mismatches.push(format!("crash@{k}: pre-restart response diverged (status {status})"));
            continue;
        }
        // Restart warm over whatever the crash left behind, replay.
        let server = ServeInstance::boot(&dir, Arc::new(RealIo), RetryPolicy::standard(), 0, None)?;
        let (status, _, body) =
            http_post(server.addr, "/run", &[], &serve_spec_body(cfg, cfg.campaign_seed()))?;
        server.stop()?;
        if status != 200 || body != reference.as_bytes() {
            mismatches.push(format!("crash@{k}: post-restart replay diverged (status {status})"));
            continue;
        }
        match count_valid_entries(&dir) {
            n if n > 0 => identical_replays += 1,
            _ => mismatches.push(format!("crash@{k}: cache did not self-heal a valid entry")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Pass 4a: fault storm — real traffic (distinct seeds, so every request
    // is a cold computation with its own persistence) while every cache
    // write runs under seeded transient flakes the retry budget must
    // absorb. Zero 5xx, zero wrong answers.
    let storm_plan = cfg.plan.clone().unwrap_or_else(|| {
        HostFaultPlan::none().with_seed(cfg.campaign_seed()).with_flakes(0.35, STORM_FLAKE_DEPTH)
    });
    storm_plan
        .validate()
        .map_err(|e| ReproError::invalid_spec(format!("--host-fault-plan: {e}")))?;
    let storm = Arc::new(ChaosIo::new(storm_plan));
    let server = ServeInstance::boot(
        &base.join("storm"),
        storm.clone(),
        RetryPolicy::no_delay(STORM_RETRY_ATTEMPTS),
        0,
        None,
    )?;
    let storm_requests = if cfg.quick { 3 } else { 6 };
    let mut storm_ok = true;
    for i in 0..storm_requests {
        let seed = cfg.campaign_seed() + 1 + i;
        let expected = serve_reference_body(cfg, seed)?;
        let (status, _, body) = http_post(server.addr, "/run", &[], &serve_spec_body(cfg, seed))?;
        if status != 200 || body != expected.as_bytes() {
            storm_ok = false;
            mismatches.push(format!("storm request {i}: status {status} or wrong bytes"));
        }
    }
    server.stop()?;

    // Pass 4b: torn/corrupt-entry census — plant a torn (truncated) copy of
    // a real entry and a garbage file, then prove the restarted server
    // quarantines both (never deletes), recomputes the reference bytes,
    // and serves the healed entry as a hit.
    let (quarantined, quarantine_recovered) =
        quarantine_census(cfg, &base.join("census-torn"), &reference, &mut mismatches)?;

    // Pass 5: deadline expiry — a request whose deadline is far shorter
    // than the (held) computation must answer 504 and leave the
    // worker/queue gauges at zero.
    let server = ServeInstance::boot(
        &base.join("deadline"),
        Arc::new(RealIo),
        RetryPolicy::standard(),
        400,
        None,
    )?;
    let (status, _, _) = http_post(
        server.addr,
        "/run",
        &[("X-Deadline-Ms", "50")],
        &serve_spec_body(cfg, cfg.campaign_seed() + 1000),
    )?;
    let snap = server.telemetry.snapshot();
    let gauges_zero = snap.gauge("serve.workers_busy") == Some(0.0)
        && snap.gauge("serve.queue_depth") == Some(0.0);
    let expired = snap.counter("serve.deadline_expired") == Some(1);
    server.stop()?;
    let deadline_ok = status == 504 && gauges_zero && expired;
    if !deadline_ok {
        mismatches.push(format!(
            "deadline: status {status}, gauges_zero {gauges_zero}, expired counter {expired}"
        ));
    }

    Ok(ServeChaosReport {
        io_ops,
        identical_replays,
        mismatches,
        passthrough_identical,
        storm_requests,
        storm_ok,
        quarantined,
        quarantine_recovered,
        deadline_ok,
        storm_stats: storm.stats(),
    })
}

/// The torn/corrupt-entry census of pass 4b. Returns
/// `(entries planted, fully recovered)`.
fn quarantine_census(
    cfg: &ChaosConfig,
    dir: &Path,
    reference: &str,
    mismatches: &mut Vec<String>,
) -> Result<(u64, bool), ReproError> {
    // Seed the cache with one good entry.
    let server = ServeInstance::boot(dir, Arc::new(RealIo), RetryPolicy::standard(), 0, None)?;
    let (status, _, _) =
        http_post(server.addr, "/run", &[], &serve_spec_body(cfg, cfg.campaign_seed()))?;
    server.stop()?;
    if status != 200 {
        mismatches.push(format!("quarantine census: seeding request answered {status}"));
        return Ok((0, false));
    }
    // Tear the persisted entry (truncate to half — a torn write that
    // survived a crash) and drop a garbage file beside it.
    let mut planted = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| ReproError::io(format!("{e}")))? {
        let path = entry.map_err(|e| ReproError::io(format!("{e}")))?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            let bytes = std::fs::read(&path).map_err(|e| ReproError::io(format!("{e}")))?;
            std::fs::write(&path, &bytes[..bytes.len() / 2])
                .map_err(|e| ReproError::io(format!("{e}")))?;
            planted += 1;
        }
    }
    std::fs::write(dir.join("deadbeef.json"), b"not a cache entry")
        .map_err(|e| ReproError::io(format!("{e}")))?;
    planted += 1;
    if planted != 2 {
        mismatches.push(format!("quarantine census: planted {planted} entries, expected 2"));
        return Ok((planted, false));
    }

    // Restart: the warm load must quarantine both, then a replayed request
    // recomputes the reference bytes (miss) and heals the entry (hit).
    let server = ServeInstance::boot(dir, Arc::new(RealIo), RetryPolicy::standard(), 0, None)?;
    let counted = server.telemetry.snapshot().counter("serve.cache_quarantined").unwrap_or(0);
    let (miss_status, miss_headers, miss_body) =
        http_post(server.addr, "/run", &[], &serve_spec_body(cfg, cfg.campaign_seed()))?;
    let (hit_status, hit_headers, hit_body) =
        http_post(server.addr, "/run", &[], &serve_spec_body(cfg, cfg.campaign_seed()))?;
    server.stop()?;

    let quarantine_dir = dir.join(crate::server::cache::QUARANTINE_DIR);
    let preserved = std::fs::read_dir(&quarantine_dir)
        .map(|entries| entries.filter_map(Result::ok).count() as u64)
        .unwrap_or(0);
    let header = |hs: &[(String, String)], name: &str| -> String {
        hs.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()).unwrap_or_default()
    };
    let mut ok = true;
    if counted != planted {
        mismatches.push(format!("quarantine census: counted {counted}, planted {planted}"));
        ok = false;
    }
    if preserved != planted {
        mismatches.push(format!(
            "quarantine census: {preserved} preserved in quarantine, planted {planted}"
        ));
        ok = false;
    }
    if miss_status != 200
        || miss_body != reference.as_bytes()
        || header(&miss_headers, "x-cache") != "miss"
    {
        mismatches.push(format!(
            "quarantine census: recompute diverged (status {miss_status}, x-cache `{}`)",
            header(&miss_headers, "x-cache")
        ));
        ok = false;
    }
    if hit_status != 200
        || hit_body != reference.as_bytes()
        || header(&hit_headers, "x-cache") != "hit"
    {
        mismatches.push(format!(
            "quarantine census: healed entry did not serve a hit (status {hit_status}, x-cache `{}`)",
            header(&hit_headers, "x-cache")
        ));
        ok = false;
    }
    Ok((planted, ok))
}

/// One in-process `repro serve` instance on an ephemeral port.
struct ServeInstance {
    addr: std::net::SocketAddr,
    cancel: CancelFlag,
    telemetry: Telemetry,
    handle: std::thread::JoinHandle<Result<(), ReproError>>,
}

impl ServeInstance {
    fn boot(
        cache_dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
        hold_ms: u64,
        deadline_ms: Option<u64>,
    ) -> Result<ServeInstance, ReproError> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: cache_dir.to_path_buf(),
            workers: 1,
            queue_depth: 4,
            hold_ms,
            deadline_ms,
            ..ServeConfig::default()
        };
        let telemetry = Telemetry::enabled();
        let cancel = CancelFlag::new();
        let server = Server::bind_with_io(
            &cfg,
            telemetry.clone(),
            Logger::disabled(),
            cancel.clone(),
            io,
            retry,
        )?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Ok(ServeInstance { addr, cancel, telemetry, handle })
    }

    /// Stops the accept loop and joins; SIGINT-style interruption is the
    /// clean outcome here.
    fn stop(self) -> Result<(), ReproError> {
        self.cancel.cancel();
        match self.handle.join() {
            Ok(Ok(())) | Ok(Err(ReproError::Interrupted { .. })) => Ok(()),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(ReproError::io("server thread panicked")),
        }
    }
}

/// One parsed HTTP response: `(status, lowercased headers, body)`.
type HttpExchange = (u16, Vec<(String, String)>, Vec<u8>);

/// Minimal raw-TCP HTTP client for the harness: one request, `Connection:
/// close` semantics.
fn http_post(
    addr: std::net::SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpExchange, ReproError> {
    use std::io::{Read, Write};
    let err = |e: std::io::Error| ReproError::io(format!("chaos http client: {e}"));
    let mut stream = std::net::TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).map_err(err)?;
    let mut head =
        format!("POST {path} HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).map_err(err)?;
    stream.write_all(body).map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ReproError::io("chaos http client: response without header end"))?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let response_body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            ReproError::io(format!("chaos http client: bad status line `{status_line}`"))
        })?;
    let parsed_headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, parsed_headers, response_body))
}

/// Runs per service request: small enough that the crash exhaustion (which
/// reruns the campaign per op index) stays quick, large enough to be a
/// real campaign.
fn serve_runs(cfg: &ChaosConfig) -> u32 {
    cfg.campaign_runs(if cfg.quick { 2 } else { 4 })
}

/// The `POST /run` spec the harness replays; `seed` varies per request so
/// storm traffic is all-cold.
fn serve_spec_body(cfg: &ChaosConfig, seed: u64) -> Vec<u8> {
    format!(
        r#"{{"fig":"fig5","runs":{},"seed":{seed},"pes":[2,8],"techniques":["SS","FAC2"]}}"#,
        serve_runs(cfg)
    )
    .into_bytes()
}

/// The bytes the server must answer for [`serve_spec_body`]: the same
/// campaign computed directly through the runner and row renderers.
fn serve_reference_body(cfg: &ChaosConfig, seed: u64) -> Result<String, ReproError> {
    let mut c = HagerupConfig::paper(1024, serve_runs(cfg));
    c.pes = vec![2, 8];
    c.techniques = vec![Technique::SS, Technique::Fac2];
    c.seed = seed;
    c.threads = 1;
    let rows =
        hagerup_exp::run_figure_resilient(&c, &Telemetry::disabled(), &ExecContext::transient())?;
    let (headers, body) = report::wasted_rows(&rows);
    Ok(report::format_csv(&headers, &body))
}

/// Entries in `dir` that [`load_entry`](crate::server::cache::load_entry) accepts (the
/// self-heal check).
fn count_valid_entries(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .filter(|p| crate::server::cache::load_entry(p).is_some())
        .count() as u64
}

/// Loads a [`HostFaultPlan`] from a JSON file (the `--host-fault-plan`
/// CLI path). An unreadable file classifies as I/O, an undecodable or
/// inconsistent plan — or one with an unknown field — as an invalid spec,
/// mirroring [`faults::load_plan`].
pub fn load_host_plan(path: &str) -> Result<HostFaultPlan, ReproError> {
    crate::spec::load_json_plan(
        path,
        "host fault plan",
        &HostFaultPlan::default(),
        HostFaultPlan::validate,
    )
}

/// The campaign identity every attempt (reference, crash, resume) shares —
/// a resume with a different fingerprint would refuse to load the journal.
fn journal_meta(cfg: &ChaosConfig) -> JournalMeta {
    JournalMeta::new(
        format!("chaos-{}", cfg.target.name()),
        format!("quick={} runs={:?}", cfg.quick, cfg.runs),
        cfg.campaign_seed(),
    )
}

fn csv_name(target: ChaosTarget) -> String {
    format!("{}.csv", target.name())
}

fn scratch_base(cfg: &ChaosConfig) -> PathBuf {
    std::env::temp_dir().join(format!("dls-chaos-{}-{}", cfg.target.name(), std::process::id()))
}

/// The bytes under comparison: the result CSV and the journal.
#[derive(PartialEq, Eq)]
struct DiskState {
    csv: Vec<u8>,
    journal: Vec<u8>,
}

fn disk_state(cfg: &ChaosConfig, dir: &Path) -> Result<DiskState, ReproError> {
    let read =
        |p: PathBuf| std::fs::read(&p).map_err(|e| ReproError::io(format!("{}: {e}", p.display())));
    Ok(DiskState {
        csv: read(dir.join(csv_name(cfg.target)))?,
        journal: read(dir.join(JOURNAL_FILE))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_chaos::IoOp;

    fn micro(target: ChaosTarget) -> ChaosConfig {
        ChaosConfig { target, quick: true, runs: Some(2), seed: Some(11), plan: None }
    }

    #[test]
    fn host_plans_with_unknown_fields_are_invalid_specs() {
        let dir = std::env::temp_dir().join(format!("dls-host-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, r#"{"seed": 3, "error_prob": 0.5}"#).unwrap();
        let err = load_host_plan(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INVALID_SPEC);
        assert!(err.to_string().contains("unknown field `error_prob`"), "{err}");
        assert!(err.to_string().contains("error_probability"), "{err}");
        std::fs::write(&path, r#"{"seed": 3, "ops": ["Append"]}"#).unwrap();
        assert_eq!(load_host_plan(path.to_str().unwrap()).unwrap().ops, vec![IoOp::Append]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn targets_parse_and_unknowns_are_rejected() {
        assert_eq!("fig5".parse::<ChaosTarget>().unwrap(), ChaosTarget::Fig5);
        assert_eq!("sweep".parse::<ChaosTarget>().unwrap(), ChaosTarget::Sweep);
        assert_eq!("faults".parse::<ChaosTarget>().unwrap(), ChaosTarget::Faults);
        assert_eq!("serve".parse::<ChaosTarget>().unwrap(), ChaosTarget::Serve);
        assert!("fig6".parse::<ChaosTarget>().is_err());
    }

    #[test]
    fn serve_target_is_rejected_by_the_campaign_exhaustion() {
        let err = run_crash_exhaustion(&micro(ChaosTarget::Serve), &CancelFlag::new()).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INVALID_SPEC);
    }

    #[test]
    fn serve_micro_chaos_is_clean() {
        let cfg = ChaosConfig {
            target: ChaosTarget::Serve,
            quick: true,
            runs: Some(1),
            seed: Some(23),
            plan: None,
        };
        let report = run_serve_chaos(&cfg, &CancelFlag::new()).unwrap();
        assert!(report.io_ops > 0, "one cold request must cross the persistence seam");
        assert!(report.is_ok(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.identical_replays, report.io_ops);
        assert!(report.quarantined >= 2);
    }

    #[test]
    fn serve_chaos_honours_cancellation() {
        let cfg = ChaosConfig {
            target: ChaosTarget::Serve,
            quick: true,
            runs: Some(1),
            seed: Some(29),
            plan: None,
        };
        let cancel = CancelFlag::new();
        cancel.cancel();
        let err = run_serve_chaos(&cfg, &cancel).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INTERRUPTED);
    }

    #[test]
    fn invalid_user_plan_is_an_invalid_spec() {
        let mut cfg = micro(ChaosTarget::Fig5);
        cfg.plan = Some(HostFaultPlan::none().with_errors(2.0));
        let err = run_crash_exhaustion(&cfg, &CancelFlag::new()).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INVALID_SPEC);
    }

    #[test]
    fn fig5_micro_exhaustion_resumes_identically_from_every_crash_point() {
        let report = run_crash_exhaustion(&micro(ChaosTarget::Fig5), &CancelFlag::new()).unwrap();
        assert!(report.empty_plan_identical, "chaos passthrough must be bit-transparent");
        assert!(report.io_ops > 5, "a journaled campaign must cross several I/O boundaries");
        assert!(report.is_ok(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.identical_resumes, report.io_ops);
    }

    #[test]
    fn sweep_micro_exhaustion_is_clean() {
        let report = run_crash_exhaustion(&micro(ChaosTarget::Sweep), &CancelFlag::new()).unwrap();
        assert!(report.is_ok(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn faults_micro_exhaustion_is_clean() {
        let report = run_crash_exhaustion(&micro(ChaosTarget::Faults), &CancelFlag::new()).unwrap();
        assert!(report.is_ok(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn cancellation_between_crash_points_interrupts() {
        let cancel = CancelFlag::new();
        cancel.cancel();
        let err = run_crash_exhaustion(&micro(ChaosTarget::Fig5), &cancel).unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_INTERRUPTED);
    }
}

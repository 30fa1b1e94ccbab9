//! Crash-point exhaustion: prove every I/O boundary is recoverable.
//!
//! `repro chaos <fig5|sweep|faults|serve> [--quick]` runs one *subject*
//! through one set of passes ([`run_crash_exhaustion`]) and compares bytes. A
//! subject is a reduced journaled campaign (`fig5`, `sweep`, `faults`;
//! the bytes are its result CSV and journal) or the campaign service
//! (`serve`, booted in-process over an injectable [`HostIo`]; the bytes
//! are the status and body of a `POST /run`). The passes:
//!
//! 1. **Reference** — the stock path (real I/O, standard retries): what
//!    `repro fig5 --resume DIR` executes, or for the service the same
//!    campaign computed directly.
//! 2. **Census** — one attempt through a [`ChaosIo`] with no faults armed:
//!    its bytes must equal the reference (the seam is a true passthrough),
//!    and its operation count is the number of crash points.
//! 3. **Crash exhaustion** — for every operation index `k`, a fresh attempt
//!    crashed *at* `k` (the op fails with its partial effect — an empty tmp
//!    after create, a half prefix after write — and every later op is
//!    rejected), then one real-I/O recovery over the surviving directory: a
//!    campaign resumes its journal; the service restarts warm, replays, and
//!    must hold a healed cache entry. The recovered bytes must equal the
//!    reference for every `k`. The service's persistence is fail-soft, so
//!    its crashed attempt must still answer with the reference bytes.
//! 4. **Storm** — a cold attempt under a seeded [`HostFaultPlan`] (default:
//!    transient flakes the [`RetryPolicy`] must absorb; `--host-fault-plan
//!    FILE` substitutes any plan, and if it defeats the retries one real-I/O
//!    recovery must still land the reference bytes). The service's storm
//!    sends 3 (quick) or 6 requests on distinct seeds, all cold; as its
//!    persistence is fail-soft, it counts as absorbed only when every
//!    request's cache entry landed, and its recovery must heal them all.
//!    Flake sites are keyed on paths relative to the attempt directory, so
//!    a storm replays from its seed.
//!
//! The service adds two named checks to the same [`ChaosReport`]: a
//! quarantine census (planted torn and garbage cache entries are moved
//! aside, never served, and the key heals to a hit) and a deadline pin (an
//! expired request answers 504 with the occupancy gauges back at zero).

use crate::error::ReproError;
use crate::faults::{self, FaultScenario, FaultSweepConfig};
use crate::hagerup_exp::{self, HagerupConfig};
use crate::journal::{write_artifact_with, Journal, JournalMeta, FLUSH_EVERY, JOURNAL_FILE};
use crate::report;
use crate::runner::{CancelFlag, ExecContext};
use crate::server::{ServeConfig, Server};
use crate::sweep::{self, SweepConfig, WorkloadFamily};
use dls_chaos::{ChaosIo, ChaosStats, HostFaultPlan, HostIo, RealIo, RetryPolicy};
use dls_core::Technique;
use dls_telemetry::{Logger, Telemetry};
use dls_workload::TimeModel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Which subject the harness exercises.
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
    /// HTTP.
    Serve,
}

impl ChaosTarget {
    /// The CLI name (also a campaign's result CSV base name).
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
    /// Subject to exercise.
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
    fn campaign_seed(&self) -> u64 {
        self.seed.unwrap_or(0xC4A0_5EED)
    }

    fn campaign_runs(&self, default: u32) -> u32 {
        self.runs.unwrap_or(default)
    }
}

/// One subject-specific check reported next to the passes (the service's
/// quarantine census and deadline pin).
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// What was observed: the proof on success, every divergence on failure.
    pub detail: String,
}

/// What the exhaustion proved; rendered by the CLI, gated by [`is_ok`].
///
/// [`is_ok`]: ChaosReport::is_ok
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Host-I/O operations in one uninterrupted attempt — the number of
    /// distinct crash points.
    pub io_ops: u64,
    /// Crash points whose recovery reproduced the reference bytes.
    pub identical_recoveries: u64,
    /// Human-readable descriptions of every divergence found.
    pub mismatches: Vec<String>,
    /// Whether the empty-plan [`ChaosIo`] attempt was byte-identical to
    /// the reference (the passthrough pin).
    pub passthrough_identical: bool,
    /// Cold runs the storm attempt made: 1 for a campaign, one request per
    /// seed for the service.
    pub storm_runs: u64,
    /// Whether the storm attempt completed under the retry policy alone.
    pub storm_completed_directly: bool,
    /// Whether the storm pass ended with reference-identical bytes
    /// (directly, or after one real-I/O recovery).
    pub storm_identical: bool,
    /// Fault counters from the storm's [`ChaosIo`].
    pub storm_stats: ChaosStats,
    /// Subject-specific checks (empty for the campaigns).
    pub checks: Vec<Check>,
}

impl ChaosReport {
    /// True when every invariant held: passthrough pinned, every crash
    /// point recovered to identical bytes, the storm pass converged and
    /// every subject-specific check passed.
    pub fn is_ok(&self) -> bool {
        self.mismatches.is_empty()
            && self.passthrough_identical
            && self.io_ops > 0
            && self.identical_recoveries == self.io_ops
            && self.storm_identical
            && self.checks.iter().all(|c| c.passed)
    }
}

/// Runs the full exhaustion for `cfg`. Honours `cancel` between crash
/// points (returning [`ReproError::Interrupted`]); a divergence is *not*
/// an error — it is recorded in the report for the CLI to turn into a
/// regression verdict.
pub fn run_crash_exhaustion(
    cfg: &ChaosConfig,
    cancel: &CancelFlag,
) -> Result<ChaosReport, ReproError> {
    if let Some(plan) = &cfg.plan {
        plan.validate().map_err(|e| ReproError::invalid_spec(format!("--host-fault-plan: {e}")))?;
    }
    let base = scratch_base(cfg.target.name());
    let _ = std::fs::remove_dir_all(&base);
    let campaign = |run: CampaignFn| exhaust(&Campaign { cfg, run }, cfg, cancel, &base);
    let result = match cfg.target {
        ChaosTarget::Fig5 => campaign(|cfg, telemetry, ctx| {
            let rows = hagerup_exp::run_figure_resilient(&fig5_config(cfg), telemetry, ctx)?;
            Ok(report::wasted_rows(&rows))
        }),
        ChaosTarget::Sweep => campaign(|cfg, telemetry, ctx| {
            let rows = sweep::run_sweep_resilient(&sweep_config(cfg), telemetry, ctx)?;
            Ok(sweep::table_rows(&rows))
        }),
        ChaosTarget::Faults => campaign(|cfg, telemetry, ctx| {
            let rows = faults::run_fault_sweep_resilient(&faults_config(cfg), telemetry, ctx)?;
            Ok(faults::table_rows(&rows))
        }),
        ChaosTarget::Serve => {
            exhaust(&Service { cfg, seeds: vec![cfg.campaign_seed()] }, cfg, cancel, &base)
        }
    };
    let _ = std::fs::remove_dir_all(&base);
    result
}

/// The bytes under comparison, as named parts: a campaign's CSV and
/// journal, or each service request's status and body.
type Parts = Vec<(String, Vec<u8>)>;

/// A system [`exhaust`] can run on the stock path, crash at any host-I/O
/// operation and recover.
trait Subject: Sized {
    /// The bytes of an uninterrupted run on the stock path, using `dir`.
    fn reference(&self, dir: &Path) -> Result<Parts, ReproError>;
    /// One attempt in `dir` through `io`, continuing whatever an earlier
    /// attempt left there.
    fn attempt(
        &self,
        dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
    ) -> Result<Parts, ReproError>;
    /// The real-I/O recovery over what an interrupted attempt left in `dir`.
    fn recover(&self, dir: &Path) -> Result<Parts, ReproError>;
    /// Whether a crashed attempt must still answer with the reference
    /// bytes (otherwise it may fail, and only its recovery is compared).
    fn answers_through_crashes(&self) -> bool {
        false
    }
    /// The cold subject the storm pass attempts, when it is not this one.
    fn storm(&self) -> Option<Self> {
        None
    }
    /// Cold runs one attempt makes.
    fn runs(&self) -> u64 {
        1
    }
    /// Whether everything a successful attempt in `dir` wrote landed (a
    /// campaign's attempt fails when a write is lost, so it has).
    fn landed(&self, _dir: &Path) -> bool {
        true
    }
    /// Subject-specific checks, run in `base` after the passes.
    fn checks(&self, _base: &Path, _reference: &Parts) -> Result<Vec<Check>, ReproError> {
        Ok(Vec::new())
    }
}

/// The one crash-exhaustion routine: the reference, census, crash-at-`k`
/// plus recovery, and storm passes of the module docs, then the subject's
/// own checks. Every attempt works in its own directory under `base`.
fn exhaust<S: Subject>(
    subject: &S,
    cfg: &ChaosConfig,
    cancel: &CancelFlag,
    base: &Path,
) -> Result<ChaosReport, ReproError> {
    let mut mismatches = Vec::new();
    let reference = subject.reference(&base.join("reference"))?;

    // The census: passthrough pin and crash-point count.
    let census_dir = base.join("census");
    let census = Arc::new(ChaosIo::new(HostFaultPlan::none(), &census_dir));
    let passed = subject.attempt(&census_dir, census.clone(), RetryPolicy::no_delay(1))?;
    let passthrough_identical = matches(&mut mismatches, "census", &passed, &reference);
    let io_ops = census.ops_executed();

    // Crash at every single operation index, then recover.
    let mut identical_recoveries = 0u64;
    for k in 0..io_ops {
        if cancel.is_cancelled() {
            return Err(ReproError::Interrupted { resume_dir: None });
        }
        let (dir, label) = (base.join(format!("crash-{k}")), format!("crash@{k}"));
        let chaos = Arc::new(ChaosIo::new(HostFaultPlan::none(), &dir).with_crash_at(k));
        let crashed = subject.attempt(&dir, chaos.clone(), RetryPolicy::no_delay(1));
        // A campaign's crashed attempt usually fails; one crashed only at
        // the trailing dir-sync (deliberately non-fatal) completes, and
        // then its bytes must already be the reference's.
        let answered = match crashed {
            _ if !chaos.is_crashed() => {
                mismatches.push(format!("{label}: the armed operation was never reached"));
                false
            }
            Ok(parts) => {
                matches(&mut mismatches, &format!("{label} crashed attempt"), &parts, &reference)
            }
            Err(e) if subject.answers_through_crashes() => {
                mismatches.push(format!("{label} crashed attempt failed: {e}"));
                false
            }
            Err(_) => true,
        };
        if answered && recovered(subject, &dir, &label, &reference, &mut mismatches) {
            identical_recoveries += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The storm. The default plan is pure transient flakes, which the
    // sized retry budget must absorb without any recovery: the attempt
    // succeeds and everything it writes lands.
    let cold = subject.storm();
    let storm_subject = cold.as_ref().unwrap_or(subject);
    let storm_reference = match &cold {
        Some(s) => s.reference(&base.join("storm-reference"))?,
        None => reference.clone(),
    };
    let plan = cfg.plan.clone().unwrap_or_else(|| {
        HostFaultPlan::none().with_seed(cfg.campaign_seed()).with_flakes(0.35, STORM_FLAKE_DEPTH)
    });
    let storm_dir = base.join("storm");
    let storm = Arc::new(ChaosIo::new(plan, &storm_dir));
    let direct = storm_subject
        .attempt(&storm_dir, storm.clone(), RetryPolicy::no_delay(STORM_RETRY_ATTEMPTS))
        .and_then(|parts| match storm_subject.landed(&storm_dir) {
            true => Ok(parts),
            false => Err(ReproError::io("some of its writes did not land")),
        });
    let storm_completed_directly = direct.is_ok();
    let storm_identical = match direct {
        Ok(parts) => matches(&mut mismatches, "storm", &parts, &storm_reference),
        // The sized budget makes the default storm unlosable; failing here
        // means the retry classification or budget arithmetic regressed.
        Err(e) if cfg.plan.is_none() => {
            mismatches
                .push(format!("storm: the default flake storm defeated the retry policy: {e}"));
            false
        }
        Err(_) => recovered(storm_subject, &storm_dir, "storm", &storm_reference, &mut mismatches),
    };

    Ok(ChaosReport {
        io_ops,
        identical_recoveries,
        mismatches,
        passthrough_identical,
        storm_runs: storm_subject.runs(),
        storm_completed_directly,
        storm_identical,
        storm_stats: storm.stats(),
        checks: subject.checks(base, &reference)?,
    })
}

/// Compares `got` with the reference; a divergence is recorded under
/// `label`, naming the first part that differs. True when identical.
fn matches(mismatches: &mut Vec<String>, label: &str, got: &Parts, reference: &Parts) -> bool {
    if got == reference {
        return true;
    }
    let part = got.iter().zip(reference).find(|(g, r)| g != r).map_or("part list", |(_, r)| &r.0);
    mismatches.push(format!("{label}: {part} differs from the reference"));
    false
}

/// Recovers `dir` with real I/O and compares the result with the
/// reference. True when identical.
fn recovered<S: Subject>(
    subject: &S,
    dir: &Path,
    label: &str,
    reference: &Parts,
    mismatches: &mut Vec<String>,
) -> bool {
    match subject.recover(dir) {
        Ok(parts) => matches(mismatches, &format!("{label} recovery"), &parts, reference),
        Err(e) => {
            mismatches.push(format!("{label} recovery failed: {e}"));
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Subject: a reduced journaled campaign (`repro chaos fig5|sweep|faults`).
// ---------------------------------------------------------------------------

/// The table a campaign renders (headers and body cells) — the same rows
/// the real command writes as its CSV.
type Table = (Vec<&'static str>, Vec<Vec<String>>);
type CampaignFn = fn(&ChaosConfig, &Telemetry, &ExecContext) -> Result<Table, ReproError>;

/// A reduced journaled campaign; its bytes are the result CSV and the
/// journal.
struct Campaign<'a> {
    cfg: &'a ChaosConfig,
    run: CampaignFn,
}

impl Campaign<'_> {
    /// One full campaign attempt in `dir` through `io`: journaled
    /// (resuming whatever a previous attempt left), result CSV written
    /// last — the same artifact order as the real commands.
    fn run(
        &self,
        dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
        flush_every: usize,
    ) -> Result<Parts, ReproError> {
        // The campaign identity every attempt shares: a resume with another
        // fingerprint would refuse to load the journal.
        let cfg = self.cfg;
        let meta = JournalMeta::new(
            format!("chaos-{}", cfg.target.name()),
            format!("quick={} runs={:?}", cfg.quick, cfg.runs),
            cfg.campaign_seed(),
        );
        let journal = Journal::open_with_io(dir, &meta, io.clone(), retry)?;
        let ctx = ExecContext::with_journal(journal.with_flush_every(flush_every));
        let (headers, body) = (self.run)(cfg, &Telemetry::disabled(), &ctx)?;
        let csv = dir.join(format!("{}.csv", cfg.target.name()));
        write_artifact_with(&*io, retry, &csv, report::format_csv(&headers, &body).as_bytes())?;
        let read = |p: PathBuf| {
            std::fs::read(&p).map_err(|e| ReproError::io(format!("{}: {e}", p.display())))
        };
        Ok(vec![("CSV".into(), read(csv)?), ("journal".into(), read(dir.join(JOURNAL_FILE))?)])
    }
}

impl Subject for Campaign<'_> {
    fn reference(&self, dir: &Path) -> Result<Parts, ReproError> {
        self.run(dir, Arc::new(RealIo), RetryPolicy::standard(), FLUSH_EVERY)
    }

    fn attempt(
        &self,
        dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
    ) -> Result<Parts, ReproError> {
        self.run(dir, io, retry, CHAOS_FLUSH_EVERY)
    }

    fn recover(&self, dir: &Path) -> Result<Parts, ReproError> {
        self.reference(dir)
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
// Subject: the campaign service (`repro chaos serve`).
// ---------------------------------------------------------------------------

/// The campaign service; its bytes are the status and body of one
/// `POST /run` per seed, all sent to one server booted over the attempt's
/// I/O and cache directory.
struct Service<'a> {
    cfg: &'a ChaosConfig,
    seeds: Vec<u64>,
}

impl Subject for Service<'_> {
    /// The same campaigns computed directly through the runner and row
    /// renderers (no server, no cache).
    fn reference(&self, _dir: &Path) -> Result<Parts, ReproError> {
        let mut parts = Vec::new();
        for (i, &seed) in self.seeds.iter().enumerate() {
            parts.extend(response(i, 200, serve_reference_body(self.cfg, seed)?.into_bytes()));
        }
        Ok(parts)
    }

    fn attempt(
        &self,
        dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
    ) -> Result<Parts, ReproError> {
        let server = ServeInstance::boot(dir, io, retry, 0)?;
        let mut parts = Vec::new();
        for (i, &seed) in self.seeds.iter().enumerate() {
            let (status, _, body) = http_post(server.addr, &[], &serve_spec_body(self.cfg, seed))?;
            parts.extend(response(i, status, body));
        }
        server.stop()?;
        Ok(parts)
    }

    /// Restarts warm over whatever the interrupted attempt left, replays,
    /// and requires the cache to have healed to a valid entry per request.
    fn recover(&self, dir: &Path) -> Result<Parts, ReproError> {
        let parts = self.attempt(dir, Arc::new(RealIo), RetryPolicy::standard())?;
        if !self.landed(dir) {
            return Err(ReproError::Regression("the cache did not self-heal every entry".into()));
        }
        Ok(parts)
    }

    /// Cache persistence is fail-soft, so an attempt answers 200 even when
    /// its writes were lost: count the entries that landed.
    fn landed(&self, dir: &Path) -> bool {
        count_valid_entries(dir) == self.runs()
    }

    fn answers_through_crashes(&self) -> bool {
        true
    }

    /// Distinct seeds, so every storm request is a cold computation with
    /// its own persistence.
    fn storm(&self) -> Option<Self> {
        let n = if self.cfg.quick { 3 } else { 6 };
        Some(Service {
            cfg: self.cfg,
            seeds: (1..=n).map(|i| self.cfg.campaign_seed().wrapping_add(i)).collect(),
        })
    }

    fn runs(&self) -> u64 {
        self.seeds.len() as u64
    }

    fn checks(&self, base: &Path, reference: &Parts) -> Result<Vec<Check>, ReproError> {
        Ok(vec![
            self.quarantine_census(&base.join("census-torn"), reference)?,
            self.deadline_pin(&base.join("deadline"))?,
        ])
    }
}

impl Service<'_> {
    /// Plants a torn (truncated) copy of a real entry and a garbage file,
    /// then proves the restarted server quarantines both (never deletes),
    /// recomputes the reference bytes, and serves the healed entry as a hit.
    fn quarantine_census(&self, dir: &Path, reference: &Parts) -> Result<Check, ReproError> {
        let mut problems = Vec::new();
        // Seed the cache with one good entry.
        if self.attempt(dir, Arc::new(RealIo), RetryPolicy::standard())? != *reference {
            problems.push("the seeding request diverged".to_string());
        }
        // Tear the persisted entry (truncate to half — a torn write that
        // survived a crash) and drop a garbage file beside it.
        let io_err = |e: std::io::Error| ReproError::io(format!("{}: {e}", dir.display()));
        let mut planted = 0u64;
        for entry in std::fs::read_dir(dir).map_err(io_err)? {
            let path = entry.map_err(io_err)?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                let bytes = std::fs::read(&path).map_err(io_err)?;
                std::fs::write(&path, &bytes[..bytes.len() / 2]).map_err(io_err)?;
                planted += 1;
            }
        }
        std::fs::write(dir.join("deadbeef.json"), b"not a cache entry").map_err(io_err)?;
        planted += 1;
        if planted != 2 {
            problems.push(format!("planted {planted} entries, expected 2"));
        }

        // Restart: the warm load must quarantine both, then a replayed
        // request recomputes the reference bytes (miss) and heals the
        // entry (hit).
        let server = ServeInstance::boot(dir, Arc::new(RealIo), RetryPolicy::standard(), 0)?;
        let counted = server.telemetry.snapshot().counter("serve.cache_quarantined").unwrap_or(0);
        let spec = serve_spec_body(self.cfg, self.seeds[0]);
        let miss = http_post(server.addr, &[], &spec)?;
        let hit = http_post(server.addr, &[], &spec)?;
        server.stop()?;

        let preserved = std::fs::read_dir(dir.join(crate::server::cache::QUARANTINE_DIR))
            .map(|entries| entries.filter_map(Result::ok).count() as u64)
            .unwrap_or(0);
        if counted != planted {
            problems.push(format!("counted {counted}, planted {planted}"));
        }
        if preserved != planted {
            problems.push(format!("{preserved} preserved in quarantine, planted {planted}"));
        }
        for ((status, headers, body), want) in [(miss, "miss"), (hit, "hit")] {
            let x_cache =
                headers.iter().find(|(n, _)| n == "x-cache").map_or("", |(_, v)| v.as_str());
            if response(0, status, body)[..] != reference[..] || x_cache != want {
                problems.push(format!(
                    "the expected {want} diverged (status {status}, x-cache `{x_cache}`)"
                ));
            }
        }
        let proof = "corrupt entries quarantined, recomputed byte-identically, healed to a hit";
        Ok(check("quarantine census", problems, format!("{planted} {proof}")))
    }

    /// A request whose deadline is far shorter than the (held) computation
    /// must answer 504 and leave the worker/queue gauges at zero.
    fn deadline_pin(&self, dir: &Path) -> Result<Check, ReproError> {
        let server = ServeInstance::boot(dir, Arc::new(RealIo), RetryPolicy::standard(), 400)?;
        let spec = serve_spec_body(self.cfg, self.cfg.campaign_seed().wrapping_add(1000));
        let (status, _, _) = http_post(server.addr, &[("X-Deadline-Ms", "50")], &spec)?;
        let snap = server.telemetry.snapshot();
        let gauges_zero = snap.gauge("serve.workers_busy") == Some(0.0)
            && snap.gauge("serve.queue_depth") == Some(0.0);
        let expired = snap.counter("serve.deadline_expired") == Some(1);
        server.stop()?;
        let mut problems = Vec::new();
        if status != 504 || !gauges_zero || !expired {
            problems.push(format!("status {status}, gauges_zero {gauges_zero}, expired {expired}"));
        }
        let proof = "expired request answered 504 with worker/queue gauges at zero";
        Ok(check("deadline pin", problems, proof.into()))
    }
}

/// A [`Check`] that passed when `problems` is empty; its detail is `proof`
/// then, and every problem otherwise.
fn check(name: &'static str, problems: Vec<String>, proof: String) -> Check {
    let passed = problems.is_empty();
    Check { name, passed, detail: if passed { proof } else { problems.join("; ") } }
}

/// The parts of request `i`'s response.
fn response(i: usize, status: u16, body: Vec<u8>) -> [(String, Vec<u8>); 2] {
    [
        (format!("request {i} status"), status.to_string().into_bytes()),
        (format!("request {i} body"), body),
    ]
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
    ) -> Result<ServeInstance, ReproError> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: cache_dir.to_path_buf(),
            workers: 1,
            queue_depth: 4,
            hold_ms,
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

/// Minimal raw-TCP HTTP client for the harness: one `POST /run`,
/// `Connection: close` semantics.
fn http_post(
    addr: std::net::SocketAddr,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpExchange, ReproError> {
    use std::io::{Read, Write};
    let err = |e: std::io::Error| ReproError::io(format!("chaos http client: {e}"));
    let mut stream = std::net::TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).map_err(err)?;
    let mut head =
        format!("POST /run HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n", body.len());
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

/// The `POST /run` spec the harness sends for `seed`.
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

/// A scratch directory of its own for each invocation: the pid and a
/// process-wide counter keep concurrent invocations (the unit tests) apart.
fn scratch_base(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dls-chaos-{name}-{}-{n}", std::process::id()))
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

    /// A one-file subject: each attempt writes `out` atomically through the
    /// `HostIo` it is given (create, write, fsync, rename, dir-sync).
    /// Attempt number `short_attempt` returns before any operation, and
    /// recovery number `wrong_recovery` writes other bytes.
    struct OneFile {
        attempts: AtomicU64,
        recoveries: AtomicU64,
        short_attempt: u64,
        wrong_recovery: u64,
    }

    impl OneFile {
        fn write(
            dir: &Path,
            io: &dyn HostIo,
            retry: RetryPolicy,
            bytes: &[u8],
        ) -> Result<Parts, ReproError> {
            std::fs::create_dir_all(dir).unwrap();
            write_artifact_with(io, retry, &dir.join("out"), bytes)?;
            Ok(vec![("out".into(), std::fs::read(dir.join("out")).unwrap())])
        }
    }

    impl Subject for OneFile {
        fn reference(&self, dir: &Path) -> Result<Parts, ReproError> {
            Self::write(dir, &RealIo, RetryPolicy::standard(), b"payload")
        }

        fn attempt(
            &self,
            dir: &Path,
            io: Arc<dyn HostIo>,
            retry: RetryPolicy,
        ) -> Result<Parts, ReproError> {
            if self.attempts.fetch_add(1, Ordering::SeqCst) == self.short_attempt {
                return Err(ReproError::io("stopped before any operation"));
            }
            Self::write(dir, &*io, retry, b"payload")
        }

        fn recover(&self, dir: &Path) -> Result<Parts, ReproError> {
            let wrong = self.recoveries.fetch_add(1, Ordering::SeqCst) == self.wrong_recovery;
            Self::write(
                dir,
                &RealIo,
                RetryPolicy::standard(),
                if wrong { b"garbage" } else { b"payload" },
            )
        }
    }

    #[test]
    fn exhaustion_reports_divergent_recoveries_and_unreached_crash_points() {
        let base = scratch_base("one-file");
        let cfg = micro(ChaosTarget::Fig5);
        let run = |short_attempt, wrong_recovery| {
            let _ = std::fs::remove_dir_all(&base);
            let subject = OneFile {
                attempts: AtomicU64::new(0),
                recoveries: AtomicU64::new(0),
                short_attempt,
                wrong_recovery,
            };
            exhaust(&subject, &cfg, &CancelFlag::new(), &base).unwrap()
        };

        let clean = run(u64::MAX, u64::MAX);
        assert!(clean.is_ok(), "mismatches: {:?}", clean.mismatches);
        assert_eq!(clean.io_ops, 5, "create, write, fsync, rename, dir-sync");
        assert_eq!(clean.identical_recoveries, 5);

        // Attempt 0 is the census, attempt k + 1 the one crashed at k; the
        // recoveries follow the reached crash points in order.
        let faulty = run(4, 1);
        assert!(!faulty.is_ok());
        assert_eq!(
            faulty.mismatches,
            vec![
                "crash@1 recovery: out differs from the reference".to_string(),
                "crash@3: the armed operation was never reached".to_string(),
            ]
        );
        assert_eq!(faulty.identical_recoveries, 3);
        let _ = std::fs::remove_dir_all(&base);
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
        let report = run_crash_exhaustion(&cfg, &CancelFlag::new()).unwrap();
        assert!(report.io_ops > 0, "one cold request must cross the persistence seam");
        assert!(report.is_ok(), "mismatches: {:?} checks: {:?}", report.mismatches, report.checks);
        assert_eq!(report.identical_recoveries, report.io_ops);
        assert_eq!(report.storm_runs, 3);
        assert!(report.storm_completed_directly, "the default flake storm is absorbed");
        let names: Vec<_> = report.checks.iter().map(|c| c.name).collect();
        assert_eq!(names, ["quarantine census", "deadline pin"]);
        assert!(report.checks[0].detail.starts_with("2 corrupt entries"), "{:?}", report.checks);
    }

    /// Flake sites are keyed relative to the attempt directory, so the
    /// same storm in another scratch directory injects the same faults.
    #[test]
    fn storms_replay_from_their_seed_in_any_scratch_dir() {
        let first = run_crash_exhaustion(&micro(ChaosTarget::Fig5), &CancelFlag::new()).unwrap();
        let second = run_crash_exhaustion(&micro(ChaosTarget::Fig5), &CancelFlag::new()).unwrap();
        assert!(first.storm_stats.flakes > 0, "{:?}", first.storm_stats);
        assert_eq!(first.storm_stats, second.storm_stats);
    }

    /// Every cache write of the storm fails at its rename, yet every
    /// request answers 200 (persistence is fail-soft): the storm must go
    /// through the recovery, which must heal every entry.
    #[test]
    fn a_service_storm_that_loses_cache_writes_is_not_absorbed() {
        let mut cfg = micro(ChaosTarget::Serve);
        cfg.runs = Some(1);
        cfg.plan = Some(HostFaultPlan::none().with_errors(1.0).only_ops(vec![IoOp::Rename]));
        let report = run_crash_exhaustion(&cfg, &CancelFlag::new()).unwrap();
        assert!(report.storm_stats.errors_injected > 0);
        assert!(!report.storm_completed_directly, "no entry landed, nothing was absorbed");
        assert!(report.storm_identical && report.is_ok(), "mismatches: {:?}", report.mismatches);
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
        let err = run_crash_exhaustion(&cfg, &cancel).unwrap_err();
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
        assert!(report.passthrough_identical, "chaos passthrough must be bit-transparent");
        assert!(report.io_ops > 5, "a journaled campaign must cross several I/O boundaries");
        assert!(report.is_ok(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.identical_recoveries, report.io_ops);
        assert!(report.checks.is_empty());
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

//! `repro bench`: the standardized host-side performance harness.
//!
//! The campaigns behind Figures 5–8 are the workspace's hot path — a PR
//! that accidentally slows the DES engine or the campaign runner shows up
//! as hours on the full 1,000-run grids. This module pins a **reduced-size
//! suite** of representative cells (one per figure, a fault sweep, a TSS
//! panel), times `reps` repetitions of each with the [`Telemetry`]
//! registry, and emits a machine-readable `BENCH_<tag>.json` so regressions
//! are caught by diffing two files rather than by anecdote:
//!
//! ```text
//! repro bench --quick --out BENCH_pr3.json
//! repro bench --compare BENCH_pr2.json BENCH_pr3.json --tolerance 25
//! ```
//!
//! The suite *dogfoods* the telemetry layer: per-rep wall times are the
//! `bench.rep_wall_s` histogram (exact percentiles at export) and the
//! simulated-event throughput comes from the `msgsim.events` counter the
//! instrumented simulator entry points maintain.
//!
//! Wall-clock numbers are host-dependent, so [`BenchFile`] records host
//! metadata and the git revision; [`compare`] is meant for files produced
//! on the same machine and flags only deltas beyond a tolerance band
//! (default 25 %) to stay out of scheduler-noise territory.

use crate::error::ReproError;
use crate::faults::{default_scenarios, run_fault_sweep_resilient, FaultSweepConfig};
use crate::hagerup_exp::{
    run_direct_campaign_resilient, run_figure_resilient, DirectCampaignConfig, HagerupConfig,
    OracleMode,
};
use crate::journal::git_rev;
use crate::runner::ExecContext;
use crate::tss_exp;
use dls_core::Technique;
use dls_des::{Actor, Ctx, Engine, SimTime, TimerId};
use dls_telemetry::Telemetry;
use serde::{Deserialize, Serialize, Value};

/// Schema tag every emitted file carries; bump on breaking layout changes.
pub const SCHEMA: &str = "dls-bench/1";

/// Default regression tolerance band, percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

/// Host metadata recorded with every bench file (wall-clock numbers are
/// only comparable between files from the same host).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchHost {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPU count at run time.
    pub logical_cpus: u64,
    /// Campaign worker threads the suite actually used.
    pub threads_used: u64,
}

/// Timing summary for one suite entry across all repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Suite cell id (`fig5_cell`, `faults_cell`, …).
    pub id: String,
    /// Simulation runs executed per repetition.
    pub runs_per_rep: u64,
    /// Median repetition wall time, seconds (exact percentile).
    pub wall_s_median: f64,
    /// 10th-percentile repetition wall time, seconds.
    pub wall_s_p10: f64,
    /// 90th-percentile repetition wall time, seconds.
    pub wall_s_p90: f64,
    /// Fastest repetition, seconds.
    pub wall_s_min: f64,
    /// Slowest repetition, seconds.
    pub wall_s_max: f64,
    /// Simulation runs per wall-clock second over all repetitions.
    pub runs_per_sec: f64,
    /// DES engine events processed per repetition: the `msgsim.events`
    /// counter for simulator-backed cells, the `des.events` counter for
    /// the engine-only cells, 0 for entries that bypass the event engine.
    pub sim_events: u64,
}

/// One emitted `BENCH_<tag>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Label distinguishing this measurement (e.g. `pr3`).
    pub tag: String,
    /// Unix timestamp of the run, seconds.
    pub created_unix_s: u64,
    /// `git rev-parse --short HEAD` at run time (`unknown` outside a repo).
    pub git_rev: String,
    /// True when the reduced `--quick` sizes were used.
    pub quick: bool,
    /// Repetitions per suite entry.
    pub reps: u32,
    /// Host metadata.
    pub host: BenchHost,
    /// One entry per suite cell, in suite order.
    pub entries: Vec<BenchEntry>,
}

/// Bench run parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Use the reduced run counts (CI-friendly; see [`suite`]).
    pub quick: bool,
    /// Timed repetitions per suite entry.
    pub reps: u32,
    /// Campaign worker threads.
    pub threads: usize,
    /// Label written into the file.
    pub tag: String,
    /// Campaign seed (fixed by default so reps repeat identical work).
    pub seed: u64,
}

impl BenchConfig {
    /// The standard configuration: 3 reps quick, 5 reps full.
    pub fn new(quick: bool) -> Self {
        BenchConfig {
            quick,
            reps: if quick { 3 } else { 5 },
            threads: crate::runner::default_threads(),
            tag: "local".into(),
            seed: 0xBE7C,
        }
    }
}

/// One suite cell: a closure over (runs, threads, seed, telemetry).
pub struct BenchCase {
    /// Cell id (becomes [`BenchEntry::id`]).
    pub id: &'static str,
    /// Runs per repetition under `--quick`.
    pub quick_runs: u32,
    /// Runs per repetition in the full suite.
    pub full_runs: u32,
    /// Executes one repetition.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(u32, usize, u64, &Telemetry) -> Result<(), String>>,
}

fn fig_cell(
    n: u64,
    p: usize,
    technique: Technique,
    runs: u32,
    threads: usize,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<(), String> {
    let mut cfg = HagerupConfig::paper(n, runs);
    cfg.pes = vec![p];
    cfg.techniques = vec![technique];
    cfg.threads = threads;
    cfg.seed = seed;
    cfg.oracle = OracleMode::SharedRealizations;
    run_figure_resilient(&cfg, telemetry, &ExecContext::transient())
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Driver for the `fig5_batch`/`fig6_batch` cells: a direct-only campaign
/// (no msgsim), the workload shape the lockstep batch simulator speeds up
/// end to end.
fn direct_cell(
    n: u64,
    p: usize,
    runs: u32,
    threads: usize,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<(), String> {
    let mut cfg = DirectCampaignConfig::new(n, p, runs);
    cfg.threads = threads;
    cfg.seed = seed;
    run_direct_campaign_resilient(&cfg, telemetry, &ExecContext::transient())
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Timers armed per churn cycle; all but the earliest are cancelled.
const CHURN_BATCH: u64 = 8;

/// Driver for the `engine_churn` cell: each cycle arms [`CHURN_BATCH`]
/// cancellable timers and immediately cancels all but the earliest, whose
/// firing starts the next cycle. This isolates the event queue's
/// set/cancel path (slab reuse plus tombstone bookkeeping) from any
/// simulation logic.
struct ChurnActor {
    cycles_left: u32,
    /// Reused across cycles so the storm measures the engine, not `Vec`
    /// growth in the driver.
    doomed: Vec<TimerId>,
}

impl ChurnActor {
    fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
        if self.cycles_left == 0 {
            ctx.stop();
            return;
        }
        self.cycles_left -= 1;
        self.doomed.clear();
        for k in 0..CHURN_BATCH {
            let id = ctx.set_cancellable_timer(SimTime::from_nanos(10 + k), k);
            if k > 0 {
                self.doomed.push(id);
            }
        }
        for i in 0..self.doomed.len() {
            ctx.cancel_timer(self.doomed[i]);
        }
    }
}

impl Actor<()> for ChurnActor {
    fn on_message(&mut self, _from: usize, _m: (), _ctx: &mut Ctx<'_, ()>) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        self.step(ctx);
    }

    fn on_timer(&mut self, _key: u64, ctx: &mut Ctx<'_, ()>) {
        self.step(ctx);
    }
}

/// One `engine_churn` run; returns the engine's processed-event count.
fn engine_churn_run(cycles: u32) -> u64 {
    let mut engine = Engine::new();
    engine.add_actor(Box::new(ChurnActor { cycles_left: cycles, doomed: Vec::new() }));
    let (_, stats) = engine.run();
    stats.events
}

/// Root of the `engine_fanout` cell: broadcasts to every worker each round
/// and starts the next round once all replies are in, so the pending-event
/// population stays at the worker count — the heap-depth regime of a
/// `p`-PE campaign, with none of the scheduler logic.
struct FanoutRoot {
    workers: usize,
    rounds_left: u32,
    pending: usize,
}

impl FanoutRoot {
    fn broadcast(&mut self, ctx: &mut Ctx<'_, u32>) {
        if self.rounds_left == 0 {
            ctx.stop();
            return;
        }
        self.rounds_left -= 1;
        self.pending = self.workers;
        for w in 1..=self.workers {
            ctx.send(w, SimTime::from_nanos(1), self.rounds_left);
        }
    }
}

impl Actor<u32> for FanoutRoot {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.broadcast(ctx);
    }

    fn on_message(&mut self, _from: usize, _m: u32, ctx: &mut Ctx<'_, u32>) {
        self.pending -= 1;
        if self.pending == 0 {
            self.broadcast(ctx);
        }
    }
}

/// Worker of the `engine_fanout` cell: echoes every message back to the
/// root (actor 0).
struct FanoutWorker;

impl Actor<u32> for FanoutWorker {
    fn on_message(&mut self, _from: usize, m: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.send(0, SimTime::from_nanos(1), m);
    }
}

/// One `engine_fanout` run; returns the engine's processed-event count.
fn engine_fanout_run(workers: usize, rounds: u32) -> u64 {
    let mut engine = Engine::new();
    engine.add_actor(Box::new(FanoutRoot { workers, rounds_left: rounds, pending: 0 }));
    for _ in 0..workers {
        engine.add_actor(Box::new(FanoutWorker));
    }
    let (_, stats) = engine.run();
    stats.events
}

/// The standard suite: one representative cell per figure scale, two
/// direct-only batch cells (`fig5_batch`, `fig6_batch`) that isolate the
/// lockstep batch simulator's throughput, the combined fault scenario, a
/// TSS speedup panel, and two engine-only microcells (`engine_churn`,
/// `engine_fanout`) that time the raw event queue without workload
/// generation or scheduler logic — the entries CI's bench smoke compares
/// strictly, because they are far less noisy than the campaign cells.
/// Reduced run counts keep a full `--quick` pass in CI territory while
/// still exercising the DES engine, both simulators, the campaign runner
/// and the fault path.
pub fn suite() -> Vec<BenchCase> {
    vec![
        BenchCase {
            id: "fig5_cell",
            quick_runs: 64,
            full_runs: 256,
            run: Box::new(|r, t, s, tel| fig_cell(1_024, 8, Technique::Fac2, r, t, s, tel)),
        },
        BenchCase {
            id: "fig6_cell",
            quick_runs: 16,
            full_runs: 64,
            run: Box::new(|r, t, s, tel| {
                fig_cell(8_192, 64, Technique::Gss { min_chunk: 1 }, r, t, s, tel)
            }),
        },
        BenchCase {
            id: "fig7_cell",
            quick_runs: 2,
            full_runs: 8,
            run: Box::new(|r, t, s, tel| {
                fig_cell(65_536, 256, Technique::Tss { first: None, last: None }, r, t, s, tel)
            }),
        },
        BenchCase {
            id: "fig8_cell",
            quick_runs: 1,
            full_runs: 2,
            run: Box::new(|r, t, s, tel| fig_cell(524_288, 256, Technique::Fac2, r, t, s, tel)),
        },
        BenchCase {
            id: "fig5_batch",
            quick_runs: 256,
            full_runs: 1_024,
            run: Box::new(|r, t, s, tel| direct_cell(1_024, 8, r, t, s, tel)),
        },
        BenchCase {
            id: "fig6_batch",
            quick_runs: 64,
            full_runs: 256,
            run: Box::new(|r, t, s, tel| direct_cell(8_192, 64, r, t, s, tel)),
        },
        BenchCase {
            id: "faults_cell",
            quick_runs: 8,
            full_runs: 32,
            run: Box::new(|runs, threads, seed, tel| {
                let n = 4_096;
                let p = 8;
                let cfg = FaultSweepConfig {
                    n,
                    p,
                    techniques: vec![Technique::Fac2],
                    scenarios: default_scenarios(n, p)
                        .into_iter()
                        .filter(|s| s.name == "combined")
                        .collect(),
                    runs,
                    h: 0.01,
                    seed,
                    threads,
                };
                run_fault_sweep_resilient(&cfg, tel, &ExecContext::transient())
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }),
        },
        BenchCase {
            id: "tss_panel",
            quick_runs: 1,
            full_runs: 2,
            run: Box::new(|passes, _, _, tel| {
                for _ in 0..passes {
                    let span = tel.span("bench.tss_pass_wall_s");
                    tss_exp::run_fig3().map_err(|e| e.to_string())?;
                    span.finish();
                }
                Ok(())
            }),
        },
        BenchCase {
            id: "engine_churn",
            quick_runs: 32,
            full_runs: 128,
            run: Box::new(|runs, _, _, tel| {
                for _ in 0..runs {
                    let events = engine_churn_run(512);
                    tel.counter_add("des.events", events);
                }
                Ok(())
            }),
        },
        BenchCase {
            id: "engine_fanout",
            quick_runs: 32,
            full_runs: 128,
            run: Box::new(|runs, _, _, tel| {
                for _ in 0..runs {
                    let events = engine_fanout_run(64, 32);
                    tel.counter_add("des.events", events);
                }
                Ok(())
            }),
        },
    ]
}

fn now_unix_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Times `cases` (normally [`suite`]; unit tests inject a trivial suite so
/// the aggregation logic is testable in milliseconds) under `ctx` and
/// aggregates the timings. Each case is one journal cell (key
/// `case:<id>`): a resumed invocation replays its completed [`BenchEntry`]
/// verbatim instead of re-timing it, and cancellation is honoured between
/// cases.
pub fn run_bench_resilient(
    cfg: &BenchConfig,
    cases: Vec<BenchCase>,
    ctx: &ExecContext,
) -> Result<BenchFile, ReproError> {
    if cfg.reps == 0 {
        return Err(ReproError::usage("--reps must be at least 1"));
    }
    let mut entries = Vec::new();
    for case in &cases {
        if ctx.is_cancelled() {
            ctx.flush()?;
            return Err(ctx.interrupted_error());
        }
        let key = format!("case:{}", case.id);
        if let Some(entry) =
            ctx.journal().and_then(|j| j.lookup(&key)).and_then(|v| BenchEntry::from_value(&v).ok())
        {
            eprintln!("bench: {} (journaled; skipping)", case.id);
            entries.push(entry);
            continue;
        }
        let runs = if cfg.quick { case.quick_runs } else { case.full_runs };
        // A fresh registry per cell: its histograms and counters describe
        // exactly this cell's repetitions.
        let telemetry = Telemetry::enabled();
        eprintln!("bench: {} ({} runs x {} reps)...", case.id, runs, cfg.reps);
        for _ in 0..cfg.reps {
            let span = telemetry.span("bench.rep_wall_s");
            (case.run)(runs, cfg.threads, cfg.seed, &telemetry)
                .map_err(ReproError::invalid_spec)?;
            span.finish();
        }
        let snap = telemetry.snapshot();
        let h = snap.histogram("bench.rep_wall_s").expect("every rep records a wall time");
        let total = h.sum;
        let entry = BenchEntry {
            id: case.id.into(),
            runs_per_rep: runs as u64,
            wall_s_median: h.p50,
            wall_s_p10: h.p10,
            wall_s_p90: h.p90,
            wall_s_min: h.min,
            wall_s_max: h.max,
            runs_per_sec: if total > 0.0 { (runs as f64 * cfg.reps as f64) / total } else { 0.0 },
            sim_events: snap
                .counter("msgsim.events")
                .or_else(|| snap.counter("des.events"))
                .unwrap_or(0)
                / cfg.reps as u64,
        };
        if let Some(j) = ctx.journal() {
            j.record(key, entry.to_value());
        }
        entries.push(entry);
    }
    ctx.flush()?;
    Ok(BenchFile {
        schema: SCHEMA.into(),
        tag: cfg.tag.clone(),
        created_unix_s: now_unix_s(),
        git_rev: git_rev(),
        quick: cfg.quick,
        reps: cfg.reps,
        host: BenchHost {
            os: std::env::consts::OS.into(),
            arch: std::env::consts::ARCH.into(),
            logical_cpus: crate::runner::default_threads() as u64,
            threads_used: cfg.threads as u64,
        },
        entries,
    })
}

/// Structural validation of a parsed bench file ([`load`] calls this; the
/// CLI's `--validate` exposes it for CI artifacts).
pub fn validate(file: &BenchFile) -> Result<(), String> {
    if file.schema != SCHEMA {
        return Err(format!("unsupported schema `{}` (expected `{SCHEMA}`)", file.schema));
    }
    if file.reps == 0 {
        return Err("reps must be at least 1".into());
    }
    if file.entries.is_empty() {
        return Err("no bench entries".into());
    }
    for e in &file.entries {
        let stats = [
            e.wall_s_median,
            e.wall_s_p10,
            e.wall_s_p90,
            e.wall_s_min,
            e.wall_s_max,
            e.runs_per_sec,
        ];
        if stats.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(format!("{}: non-finite or negative timing", e.id));
        }
        if e.runs_per_rep == 0 {
            return Err(format!("{}: runs_per_rep must be at least 1", e.id));
        }
        if e.wall_s_min > e.wall_s_median || e.wall_s_median > e.wall_s_max {
            return Err(format!("{}: median outside [min, max]", e.id));
        }
    }
    Ok(())
}

/// Writes the file as pretty JSON, crash-consistently (tmp + fsync +
/// rename): an interrupt mid-save leaves the previous file intact, never a
/// torn half-document.
pub fn save(file: &BenchFile, path: &str) -> Result<(), ReproError> {
    let json = serde_json::to_string_pretty(file)
        .map_err(|e| ReproError::io(format!("serialize bench file: {e}")))?;
    crate::journal::write_artifact(std::path::Path::new(path), (json + "\n").as_bytes())
}

/// Reads and validates a bench file.
pub fn load(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: BenchFile =
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid bench file: {e}"))?;
    validate(&file).map_err(|e| format!("{path}: {e}"))?;
    Ok(file)
}

/// [`load`] for the `--compare` path, turning its two classic foot-guns —
/// a missing baseline and a file written by a different repro version —
/// into actionable usage errors instead of opaque parse failures. `role`
/// names the operand in messages (`baseline` or `current`).
pub fn load_for_compare(path: &str, role: &str) -> Result<BenchFile, ReproError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(ReproError::usage(format!(
                "{role} `{path}` not found — generate it first with \
                 `repro bench --quick --out {path}` (on the same host as the other file), \
                 then re-run the comparison"
            )));
        }
        Err(e) => return Err(ReproError::io(format!("{path}: {e}"))),
    };
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| ReproError::invalid_spec(format!("{path}: invalid bench file: {e}")))?;
    let schema = value.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != SCHEMA && schema.starts_with("dls-bench/") {
        return Err(ReproError::usage(format!(
            "{path}: schema `{schema}` was written by a different repro version (this binary \
             reads `{SCHEMA}`) — upgrade the binary or regenerate the file with \
             `repro bench --out {path}`"
        )));
    }
    let file = BenchFile::from_value(&value)
        .map_err(|e| ReproError::invalid_spec(format!("{path}: invalid bench file: {e}")))?;
    validate(&file).map_err(|e| ReproError::invalid_spec(format!("{path}: {e}")))?;
    Ok(file)
}

/// One entry's baseline-vs-current delta.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryDelta {
    /// Suite cell id.
    pub id: String,
    /// Baseline median wall time, seconds.
    pub baseline_median: f64,
    /// Current median wall time, seconds.
    pub current_median: f64,
    /// `100·(current − baseline)/baseline` (positive = slower).
    pub delta_pct: f64,
    /// `baseline/current` median ratio (>1 = current is faster); 0 when
    /// the current median is zero. An A/B reads its speedup straight off
    /// this column, e.g. `3.4x`.
    pub speedup: f64,
    /// True when `delta_pct` exceeds the tolerance band.
    pub regressed: bool,
}

/// Result of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The tolerance band used, percent.
    pub tolerance_pct: f64,
    /// Per-entry deltas for ids present in both files, in baseline order.
    pub deltas: Vec<EntryDelta>,
    /// Ids in the baseline but missing from the current file.
    pub missing: Vec<String>,
    /// Ids in the current file but not the baseline.
    pub added: Vec<String>,
}

impl Comparison {
    /// The entries whose median slowed beyond the tolerance band.
    pub fn regressions(&self) -> Vec<&EntryDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// True when nothing regressed and no baseline entry disappeared.
    pub fn is_ok(&self) -> bool {
        self.missing.is_empty() && self.regressions().is_empty()
    }
}

/// Compares `current` against `baseline`, flagging entries whose median
/// wall time slowed by more than `tolerance_pct` percent. A missing
/// baseline entry also fails the comparison (a silently dropped suite cell
/// would otherwise hide the very regression it measured).
pub fn compare(baseline: &BenchFile, current: &BenchFile, tolerance_pct: f64) -> Comparison {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.entries {
        match current.entries.iter().find(|c| c.id == b.id) {
            Some(c) => {
                let delta_pct = if b.wall_s_median > 0.0 {
                    100.0 * (c.wall_s_median - b.wall_s_median) / b.wall_s_median
                } else {
                    0.0
                };
                let speedup =
                    if c.wall_s_median > 0.0 { b.wall_s_median / c.wall_s_median } else { 0.0 };
                deltas.push(EntryDelta {
                    id: b.id.clone(),
                    baseline_median: b.wall_s_median,
                    current_median: c.wall_s_median,
                    delta_pct,
                    speedup,
                    regressed: delta_pct > tolerance_pct,
                });
            }
            None => missing.push(b.id.clone()),
        }
    }
    let added = current
        .entries
        .iter()
        .filter(|c| !baseline.entries.iter().any(|b| b.id == c.id))
        .map(|c| c.id.clone())
        .collect();
    Comparison { tolerance_pct, deltas, missing, added }
}

/// Renders a comparison for humans.
pub fn comparison_report(cmp: &Comparison) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let rows: Vec<Vec<String>> = cmp
        .deltas
        .iter()
        .map(|d| {
            vec![
                d.id.clone(),
                format!("{:.3}", d.baseline_median),
                format!("{:.3}", d.current_median),
                format!("{:+.1} %", d.delta_pct),
                format!("{:.2}x", d.speedup),
                if d.regressed { "REGRESSED" } else { "ok" }.into(),
            ]
        })
        .collect();
    out.push_str(&crate::report::format_table(
        &["entry", "baseline[s]", "current[s]", "delta", "speedup", "verdict"],
        &rows,
    ));
    for id in &cmp.missing {
        let _ = writeln!(out, "MISSING: `{id}` is in the baseline but not the current file");
    }
    for id in &cmp.added {
        let _ = writeln!(out, "note: `{id}` is new (no baseline)");
    }
    let n = cmp.regressions().len();
    let _ = if n == 0 && cmp.missing.is_empty() {
        writeln!(out, "no regressions beyond {:.0} % tolerance", cmp.tolerance_pct)
    } else {
        writeln!(
            out,
            "{n} regression(s) beyond {:.0} % tolerance, {} missing entr{}",
            cmp.tolerance_pct,
            cmp.missing.len(),
            if cmp.missing.len() == 1 { "y" } else { "ies" }
        )
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, median: f64) -> BenchEntry {
        BenchEntry {
            id: id.into(),
            runs_per_rep: 4,
            wall_s_median: median,
            wall_s_p10: median * 0.9,
            wall_s_p90: median * 1.1,
            wall_s_min: median * 0.8,
            wall_s_max: median * 1.2,
            runs_per_sec: 4.0 / median,
            sim_events: 1000,
        }
    }

    fn file(entries: Vec<BenchEntry>) -> BenchFile {
        BenchFile {
            schema: SCHEMA.into(),
            tag: "test".into(),
            created_unix_s: 1,
            git_rev: "abc1234".into(),
            quick: true,
            reps: 3,
            host: BenchHost {
                os: "linux".into(),
                arch: "x86_64".into(),
                logical_cpus: 8,
                threads_used: 8,
            },
            entries,
        }
    }

    #[test]
    fn synthetic_regression_is_flagged_and_fails_the_comparison() {
        let baseline = file(vec![entry("fig5_cell", 1.0), entry("faults_cell", 2.0)]);
        // fig5_cell slows by 50 %: beyond the 25 % band.
        let current = file(vec![entry("fig5_cell", 1.5), entry("faults_cell", 2.1)]);
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert!(!cmp.is_ok(), "a 50 % slowdown must fail the comparison");
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "fig5_cell");
        assert!((regs[0].delta_pct - 50.0).abs() < 1e-9);
        // faults_cell's 5 % drift stays inside the band.
        assert!(!cmp.deltas[1].regressed);
        assert!(comparison_report(&cmp).contains("REGRESSED"));
    }

    #[test]
    fn improvements_and_in_band_drift_pass() {
        let baseline = file(vec![entry("a", 1.0)]);
        let faster = file(vec![entry("a", 0.5)]);
        assert!(compare(&baseline, &faster, 25.0).is_ok());
        let slightly_slower = file(vec![entry("a", 1.2)]);
        assert!(compare(&baseline, &slightly_slower, 25.0).is_ok());
    }

    #[test]
    fn missing_baseline_entry_fails_added_entry_is_noted() {
        let baseline = file(vec![entry("a", 1.0), entry("b", 1.0)]);
        let current = file(vec![entry("a", 1.0), entry("c", 1.0)]);
        let cmp = compare(&baseline, &current, 25.0);
        assert_eq!(cmp.missing, vec!["b".to_string()]);
        assert_eq!(cmp.added, vec!["c".to_string()]);
        assert!(!cmp.is_ok());
        let report = comparison_report(&cmp);
        assert!(report.contains("MISSING"));
        assert!(report.contains("new"));
    }

    #[test]
    fn validate_rejects_malformed_files() {
        let mut bad_schema = file(vec![entry("a", 1.0)]);
        bad_schema.schema = "dls-bench/999".into();
        assert!(validate(&bad_schema).unwrap_err().contains("schema"));

        assert!(validate(&file(vec![])).unwrap_err().contains("no bench entries"));

        let mut nan = file(vec![entry("a", 1.0)]);
        nan.entries[0].wall_s_median = f64::NAN;
        assert!(validate(&nan).is_err());

        let mut inverted = file(vec![entry("a", 1.0)]);
        inverted.entries[0].wall_s_min = 5.0;
        assert!(validate(&inverted).unwrap_err().contains("median outside"));

        assert!(validate(&file(vec![entry("a", 1.0)])).is_ok());
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("dls-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let f = file(vec![entry("fig5_cell", 1.25)]);
        save(&f, path.to_str().unwrap()).unwrap();
        let back = load(path.to_str().unwrap()).unwrap();
        assert_eq!(back, f);
        std::fs::remove_dir_all(&dir).unwrap();

        assert!(load("/nonexistent/BENCH.json").is_err());
    }

    #[test]
    fn bench_aggregates_reps_into_exact_percentiles() {
        let cfg = BenchConfig { quick: true, reps: 4, threads: 1, ..BenchConfig::new(true) };
        let cases = vec![BenchCase {
            id: "trivial",
            quick_runs: 2,
            full_runs: 8,
            run: Box::new(|runs, _, _, tel| {
                for _ in 0..runs {
                    tel.counter_inc("msgsim.events");
                }
                Ok(())
            }),
        }];
        let f = run_bench_resilient(&cfg, cases, &ExecContext::transient()).unwrap();
        assert_eq!(f.schema, SCHEMA);
        assert_eq!(f.reps, 4);
        assert_eq!(f.entries.len(), 1);
        let e = &f.entries[0];
        assert_eq!(e.id, "trivial");
        assert_eq!(e.runs_per_rep, 2);
        // 2 fake events per rep over 4 reps, divided back per rep.
        assert_eq!(e.sim_events, 2);
        assert!(e.wall_s_min <= e.wall_s_median && e.wall_s_median <= e.wall_s_max);
        assert!(e.runs_per_sec > 0.0);
        validate(&f).unwrap();
    }

    #[test]
    fn zero_reps_is_rejected() {
        let cfg = BenchConfig { reps: 0, ..BenchConfig::new(true) };
        assert!(run_bench_resilient(&cfg, vec![], &ExecContext::transient()).is_err());
    }

    #[test]
    fn load_for_compare_gives_actionable_errors() {
        let err = load_for_compare("/nonexistent/BENCH_base.json", "baseline").unwrap_err();
        assert!(err.is_usage(), "missing baseline is a usage error: {err:?}");
        assert!(err.to_string().contains("repro bench --quick --out"), "{err}");

        let dir = std::env::temp_dir().join(format!("dls-bench-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let future = dir.join("BENCH_future.json");
        std::fs::write(&future, r#"{"schema":"dls-bench/7","entries":[]}"#).unwrap();
        let err = load_for_compare(future.to_str().unwrap(), "baseline").unwrap_err();
        assert!(err.is_usage());
        assert!(err.to_string().contains("dls-bench/7"), "{err}");
        assert!(err.to_string().contains("different repro version"), "{err}");

        let good = dir.join("BENCH_good.json");
        save(&file(vec![entry("a", 1.0)]), good.to_str().unwrap()).unwrap();
        assert!(load_for_compare(good.to_str().unwrap(), "current").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumed_bench_replays_journaled_cases_without_re_timing() {
        use crate::journal::{Journal, JournalMeta};
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("dls-bench-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = JournalMeta::new("bench", "quick reps=2", 1);
        let cfg = BenchConfig { quick: true, reps: 2, threads: 1, ..BenchConfig::new(true) };
        let executions = Arc::new(AtomicU32::new(0));
        let make_cases = |counter: Arc<AtomicU32>| {
            vec![BenchCase {
                id: "trivial",
                quick_runs: 2,
                full_runs: 8,
                run: Box::new(move |_, _, _, tel| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tel.counter_inc("msgsim.events");
                    Ok(())
                }),
            }]
        };

        let ctx = ExecContext::with_journal(Journal::open(&dir, &meta).unwrap());
        let first = run_bench_resilient(&cfg, make_cases(executions.clone()), &ctx).unwrap();
        assert_eq!(executions.load(Ordering::Relaxed), 2, "2 reps timed");

        let ctx = ExecContext::with_journal(Journal::open(&dir, &meta).unwrap());
        let second = run_bench_resilient(&cfg, make_cases(executions.clone()), &ctx).unwrap();
        assert_eq!(executions.load(Ordering::Relaxed), 2, "resume must not re-time");
        assert_eq!(second.entries, first.entries, "replayed entries are bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suite_covers_the_documented_cells() {
        let ids: Vec<&str> = suite().iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            vec![
                "fig5_cell",
                "fig6_cell",
                "fig7_cell",
                "fig8_cell",
                "fig5_batch",
                "fig6_batch",
                "faults_cell",
                "tss_panel",
                "engine_churn",
                "engine_fanout"
            ]
        );
        // Quick sizes must stay strictly below full sizes (CI budget).
        for c in suite() {
            assert!(c.quick_runs <= c.full_runs, "{}", c.id);
            assert!(c.quick_runs >= 1, "{}", c.id);
        }
    }

    #[test]
    fn comparison_reports_per_entry_speedup() {
        let baseline = file(vec![entry("fig5_batch", 3.6), entry("fig6_batch", 1.0)]);
        let current = file(vec![entry("fig5_batch", 1.0), entry("fig6_batch", 2.0)]);
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert!((cmp.deltas[0].speedup - 3.6).abs() < 1e-9);
        assert!((cmp.deltas[1].speedup - 0.5).abs() < 1e-9);
        let report = comparison_report(&cmp);
        assert!(report.contains("speedup"), "{report}");
        assert!(report.contains("3.60x"), "{report}");
        assert!(report.contains("0.50x"), "{report}");

        // Degenerate zero-median current must not divide by zero.
        let mut zero = file(vec![entry("a", 1.0)]);
        zero.entries[0].wall_s_median = 0.0;
        zero.entries[0].wall_s_min = 0.0;
        let cmp = compare(&file(vec![entry("a", 1.0)]), &zero, 25.0);
        assert_eq!(cmp.deltas[0].speedup, 0.0);
    }

    #[test]
    fn batch_cells_coalesce_each_block() {
        // Smoke the `fig5_batch` driver at a tiny size: the cell must
        // complete and count simulator work through the telemetry registry.
        let tel = Telemetry::enabled();
        direct_cell(64, 4, 6, 1, 0xBE7C, &tel).unwrap();
        let snap = tel.snapshot();
        // 6 runs × 7 time-oblivious techniques.
        assert_eq!(snap.counter("hagerup.run_calls"), Some(42));
        // The default width covers all 6 runs in one block: one lockstep
        // call per technique.
        assert_eq!(snap.counter("hagerup.batch_calls"), Some(7));
    }

    #[test]
    fn engine_cells_are_deterministic_and_record_events() {
        // The engine-only drivers must process the same event count every
        // run (they are pure functions of their parameters), and that
        // count must land in the entry's `sim_events`.
        assert_eq!(engine_churn_run(16), engine_churn_run(16));
        assert_eq!(engine_fanout_run(8, 4), engine_fanout_run(8, 4));
        assert!(engine_churn_run(16) >= 16, "cycles fire at least one timer each");
        assert!(engine_fanout_run(8, 4) >= 8 * 4 * 2, "each round is a full round trip");

        let cfg = BenchConfig { quick: true, reps: 2, threads: 1, ..BenchConfig::new(true) };
        let cases: Vec<BenchCase> = suite()
            .into_iter()
            .filter(|c| c.id == "engine_churn" || c.id == "engine_fanout")
            .map(|mut c| {
                c.quick_runs = 2;
                c
            })
            .collect();
        let f = run_bench_resilient(&cfg, cases, &ExecContext::transient()).unwrap();
        assert_eq!(f.entries.len(), 2);
        for e in &f.entries {
            assert!(e.sim_events > 0, "{}: engine cells must report event throughput", e.id);
        }
    }
}

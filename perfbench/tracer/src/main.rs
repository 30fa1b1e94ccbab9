//! `perfbench-trace`: the traced half of the perfbench benchmark.
//!
//! Recomposes a `repro` campaign in-process from the layers' public
//! functions, opens a span around every call into a layer (see [`spans`]),
//! and prints one JSON object: per-layer self time and work counts per
//! campaign, the tracing overhead against the untraced library entry point,
//! and whether the recomposition reproduced that entry point bit for bit.
//!
//! ```text
//! perfbench-trace fig   --n N --runs R --threads T --seeds S1,S2,.. --seconds X --out DIR [--cache DIR]
//! perfbench-trace sweep --runs R --threads T --seeds S --seconds X --out DIR
//! ```
//!
//! `fig` mirrors `dls_repro::hagerup_exp::run_figure_resilient` (one campaign
//! per seed; `repro fig5`–`fig8` and every `repro serve` miss run it), and
//! `sweep` mirrors `dls_repro::sweep::run_sweep_resilient` under a journal
//! in `DIR/journal`, which `repro sweep --resume DIR/journal` can replay.
//! Both modes write their CSVs through `write_artifact` into `--out`, end
//! with the `dls-des` fan-out driver, and spend about `--seconds` seconds.

mod fanout;
mod spans;

use dls_core::{ChunkScheduler, LoopSetup, Technique};
use dls_hagerup::{BatchDirectSimulator, LOCKSTEP_MAX_P};
use dls_metrics::{discrepancy, relative_discrepancy_pct, OverheadModel, SummaryStats};
use dls_msgsim::{simulate_with_scheduler_metered, SimOutcome, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_repro::hagerup_exp::{run_figure_resilient, FigPair, HagerupConfig, WastedRow};
use dls_repro::journal::{run_key, write_artifact, Journal, JournalMeta};
use dls_repro::report::{format_csv, wasted_rows};
use dls_repro::runner::{batch_width_for, cell_seed, run_campaign_resilient_batched, ExecContext};
use dls_repro::server::cache::ResultCache;
use dls_repro::sweep::{run_sweep_resilient, table_rows, SweepConfig, SweepRow, SweepRunObs};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::{TaskTimes, Workload};
use serde::Serialize;
use spans::{count, sampled_span, span, Count, FlushOnDrop, Layer, Totals};
use std::cell::RefCell;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

/// Seed salt of the replica's independent realization stream; the value
/// `dls_repro::hagerup_exp` uses (private there). The bit-identity check
/// against `run_figure_resilient` fails if the two ever drift apart.
const ORACLE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One chunk-layer call in this many is timed. Prime, so the sample does
/// not alias with the power-of-two PE rotations of the figure grid.
const CHUNK_SAMPLE_EVERY: u64 = 17;

/// Times a layer's open of persisted state this many times per run.
const OPEN_REPS: usize = 5;

fn fail<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// `--key value` options.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Res<Args> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key =
                k.strip_prefix("--").ok_or_else(|| format!("expected --option, got `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), v.clone()));
        }
        Ok(Args(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn req<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        let raw = self.get(key).ok_or_else(|| format!("--{key} is required"))?;
        raw.parse().map_err(|_| format!("--{key}: cannot parse `{raw}`"))
    }

    fn seeds(&self) -> Res<Vec<u64>> {
        let raw = self.get("seeds").ok_or("--seeds is required")?;
        raw.split(',').map(|s| s.parse().map_err(|_| format!("--seeds: bad seed `{s}`"))).collect()
    }
}

/// Forwards every call to the technique's scheduler, timing `next_chunk`
/// and `record_completion` as the chunk-calculation layer. These calls
/// take tens of nanoseconds and run millions of times per campaign, so
/// they are sampled: timing each one would double the layer it measures.
struct TimedScheduler(Box<dyn ChunkScheduler>);

impl ChunkScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn remaining(&self) -> u64 {
        self.0.remaining()
    }

    fn next_chunk(&mut self, pe: usize) -> u64 {
        sampled_span(Layer::Chunk, CHUNK_SAMPLE_EVERY, || self.0.next_chunk(pe))
    }

    fn record_completion(&mut self, pe: usize, chunk: u64, elapsed: f64) {
        sampled_span(Layer::Chunk, CHUNK_SAMPLE_EVERY, || {
            self.0.record_completion(pe, chunk, elapsed)
        });
    }

    fn start_time_step(&mut self) {
        self.0.start_time_step();
    }
}

/// One msgsim run with a benchmark-built, timed scheduler. The entry point
/// derives the same `LoopSetup` the CLI's `simulate_with_setup_metered` and
/// `simulate_with_tasks` receive, so the outcome is bit-identical.
fn simulate(spec: &SimSpec, setup: &LoopSetup, tasks: &TaskTimes) -> SimOutcome {
    let built = span(Layer::Build, || spec.technique.build(setup)).expect("validated setup");
    let scheduler: Box<dyn ChunkScheduler> = Box::new(TimedScheduler(built));
    let out = span(Layer::Msgsim, || {
        simulate_with_scheduler_metered(
            spec,
            tasks,
            Rc::new(RefCell::new(scheduler)),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        )
    })
    .expect("validated spec cannot fail");
    count(Count::MsgsimCalls, 1);
    count(Count::MsgsimChunks, out.chunks);
    count(Count::DesEvents, out.events);
    out
}

fn generate_into(workload: &Workload, seed: u64, slot: &mut Option<TaskTimes>) {
    span(Layer::Generate, || workload.generate_into(seed, slot));
    count(Count::Tasks, workload.n());
    count(Count::Realizations, 1);
}

/// Whether `run_batch` takes the lockstep kernel for this call (the rest
/// runs the scalar simulator per seed).
fn lockstep(technique: Technique, p: usize, lanes: usize) -> bool {
    technique.is_time_oblivious() && p <= LOCKSTEP_MAX_P && lanes > 1
}

/// Thread-seconds the runner held: wall time times the workers it spawns.
fn runner_thread_s(wall: Duration, threads: usize, runs: u32) -> f64 {
    wall.as_secs_f64() * threads.max(1).min(runs.max(1) as usize) as f64
}

#[derive(Default)]
struct FigScratch {
    tasks: Vec<Option<TaskTimes>>,
    oracle: Vec<Option<TaskTimes>>,
    _flush: FlushOnDrop,
}

/// `run_figure_resilient` recomposed from layer calls, with spans.
/// Returns the rows and the runner's thread-seconds.
fn traced_figure(cfg: &HagerupConfig) -> Res<(Vec<WastedRow>, f64)> {
    let techniques = &cfg.techniques;
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let workload = Workload::exponential(cfg.n, cfg.mean).map_err(fail("workload"))?;
    let mut rows = Vec::new();
    let mut runner_s = 0.0;
    for (pi, &p) in cfg.pes.iter().enumerate() {
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        let sim = BatchDirectSimulator::new(p, overhead);
        let mut prepared = Vec::with_capacity(techniques.len());
        for &technique in techniques {
            let spec =
                SimSpec::new(technique, workload.clone(), platform.clone()).with_overhead(overhead);
            let setup = spec.loop_setup();
            setup.validate().map_err(fail("setup"))?;
            span(Layer::Build, || technique.build(&setup)).map_err(fail("build"))?;
            prepared.push((spec, setup));
        }
        let start = Instant::now();
        let per_run: Vec<Option<Vec<FigPair>>> = run_campaign_resilient_batched(
            cfg.runs,
            cell_seed(cfg.seed, pi as u64),
            cfg.threads,
            cfg.batch_width.max(1),
            &Telemetry::disabled(),
            &ExecContext::transient(),
            &format!("n={} p={}", cfg.n, p),
            FigScratch::default,
            |items, scratch: &mut FigScratch| {
                span(Layer::Closure, || {
                    let b = items.len();
                    if scratch.tasks.len() < b {
                        scratch.tasks.resize_with(b, || None);
                        scratch.oracle.resize_with(b, || None);
                    }
                    for (lane, &(_, run_seed)) in items.iter().enumerate() {
                        generate_into(&workload, run_seed, &mut scratch.tasks[lane]);
                        generate_into(&workload, run_seed ^ ORACLE_SALT, &mut scratch.oracle[lane]);
                    }
                    let mut pairs =
                        vec![vec![FigPair { msgsim: 0.0, replica: 0.0 }; techniques.len()]; b];
                    for (lane, lane_pairs) in pairs.iter_mut().enumerate() {
                        let tasks = scratch.tasks[lane].as_ref().expect("generated above");
                        for (ti, (spec, setup)) in prepared.iter().enumerate() {
                            lane_pairs[ti].msgsim = simulate(spec, setup, tasks).average_wasted();
                        }
                    }
                    let oracle: Vec<TaskTimes> = scratch.oracle[..b]
                        .iter()
                        .map(|slot| slot.clone().expect("generated above"))
                        .collect();
                    for ((ti, &technique), (_, setup)) in
                        techniques.iter().enumerate().zip(&prepared)
                    {
                        let layer = if lockstep(technique, p, b) {
                            Layer::HagerupBatch
                        } else {
                            Layer::HagerupFallback
                        };
                        let outcomes = span(layer, || sim.run_batch(technique, setup, &oracle))
                            .expect("validated setup cannot fail");
                        count(Count::HagerupTasks, setup.n * b as u64);
                        count(Count::HagerupChunks, outcomes.iter().map(|o| o.chunks).sum());
                        for (lane, outcome) in outcomes.iter().enumerate() {
                            pairs[lane][ti].replica = outcome.average_wasted(overhead);
                        }
                    }
                    count(Count::Runs, b as u64);
                    pairs
                })
            },
        )
        .map_err(fail("campaign"))?;
        runner_s += runner_thread_s(start.elapsed(), cfg.threads, cfg.runs);

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
    Ok((rows, runner_s))
}

fn figure_rows_identical(a: &[WastedRow], b: &[WastedRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.technique == y.technique
                && x.p == y.p
                && x.msgsim.to_bits() == y.msgsim.to_bits()
                && x.replica.to_bits() == y.replica.to_bits()
                && x.discrepancy.to_bits() == y.discrepancy.to_bits()
                && x.relative_pct.to_bits() == y.relative_pct.to_bits()
        })
}

/// The journal identity `repro sweep` opens its `--resume` journal with.
fn sweep_meta(cfg: &SweepConfig) -> JournalMeta {
    let family_names: Vec<String> = cfg.families.iter().map(|f| f.name.to_string()).collect();
    JournalMeta::new(
        "sweep",
        format!(
            "ns={:?} pes={:?} families={:?} techniques={:?} runs={} h={} seed={:#x}",
            cfg.ns, cfg.pes, family_names, cfg.techniques, cfg.runs, cfg.h, cfg.seed
        ),
        cfg.seed,
    )
}

/// `run_sweep_resilient` under a journal, recomposed with spans: the
/// closure records each run into `journal` the way the runner does, and
/// every cell ends with the runner's journal flush. Returns the rows, the
/// runner's thread-seconds and the journal bytes written (the file size at
/// each cell boundary, once per flush in that cell).
fn traced_sweep(cfg: &SweepConfig, journal: &Journal) -> Res<(Vec<SweepRow>, f64, u64)> {
    let overhead = OverheadModel::PostHocTotal { h: cfg.h };
    let mut rows = Vec::new();
    let mut runner_s = 0.0;
    let mut bytes_written = 0u64;
    let mut cell = 0u64;
    for &n in &cfg.ns {
        for &p in &cfg.pes {
            let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
            for family in &cfg.families {
                let workload =
                    Workload::new(n, family.model.clone()).map_err(fail("sweep workload"))?;
                for &technique in &cfg.techniques {
                    let spec = SimSpec::new(technique, workload.clone(), platform.clone())
                        .with_overhead(overhead);
                    let setup = spec.loop_setup();
                    setup.validate().map_err(fail("setup"))?;
                    span(Layer::Build, || technique.build(&setup)).map_err(fail("build"))?;
                    let seed = cell_seed(cfg.seed, cell);
                    cell += 1;
                    let label = format!("n={n} p={p} {} {}", family.name, technique.name());
                    let flushes_before = journal.stats().flushes;
                    let start = Instant::now();
                    let per_run: Vec<Option<SweepRunObs>> = run_campaign_resilient_batched(
                        cfg.runs,
                        seed,
                        cfg.threads,
                        batch_width_for(n),
                        &Telemetry::disabled(),
                        &ExecContext::transient(),
                        &label,
                        FlushOnDrop::default,
                        |items, _: &mut FlushOnDrop| {
                            span(Layer::Closure, || {
                                let obs: Vec<SweepRunObs> = items
                                    .iter()
                                    .map(|&(_, run_seed)| {
                                        let tasks = span(Layer::Generate, || {
                                            spec.workload.generate(run_seed)
                                        });
                                        count(Count::Tasks, n);
                                        count(Count::Realizations, 1);
                                        let out = simulate(&spec, &setup, &tasks);
                                        SweepRunObs {
                                            wasted: out.average_wasted(),
                                            speedup: out.speedup(),
                                            chunks: out.chunks,
                                        }
                                    })
                                    .collect();
                                for (&(i, _), o) in items.iter().zip(&obs) {
                                    span(Layer::JournalRecord, || {
                                        journal.record(run_key(&label, seed, i), o.to_value())
                                    });
                                }
                                count(Count::Runs, items.len() as u64);
                                obs
                            })
                        },
                    )
                    .map_err(fail("campaign"))?;
                    runner_s += runner_thread_s(start.elapsed(), cfg.threads, cfg.runs);
                    span(Layer::JournalRecord, || journal.flush())
                        .map_err(fail("journal flush"))?;
                    let flushes = journal.stats().flushes - flushes_before;
                    if flushes > 0 {
                        let size =
                            std::fs::metadata(journal.path()).map_err(fail("journal"))?.len();
                        bytes_written += flushes * size;
                    }

                    let mut wasted = SummaryStats::new();
                    let mut speedup = SummaryStats::new();
                    let (mut chunks, mut completed) = (0u64, 0u64);
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
    Ok((rows, runner_s, bytes_written))
}

fn sweep_rows_identical(a: &[SweepRow], b: &[SweepRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.n, x.p, &x.workload, &x.technique) == (y.n, y.p, &y.workload, &y.technique)
                && x.wasted.mean().to_bits() == y.wasted.mean().to_bits()
                && x.wasted.std_dev().to_bits() == y.wasted.std_dev().to_bits()
                && x.speedup.mean().to_bits() == y.speedup.mean().to_bits()
                && x.chunks_mean.to_bits() == y.chunks_mean.to_bits()
        })
}

fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(fail("clear work dir"))?;
    }
    std::fs::create_dir_all(dir).map_err(fail("create work dir"))
}

/// What one traced run measured, before it is rendered as JSON.
#[derive(Default)]
struct Report {
    /// Spans and counts summed over every traced repetition.
    traced: Totals,
    /// Campaigns the traced totals cover (repetitions × campaigns each).
    campaigns: u64,
    /// Runner thread-seconds summed over the same campaigns.
    runner_s: f64,
    /// Spans of the artifact writes and persisted-state opens.
    io: Totals,
    artifact_bytes: u64,
    journal_bytes: u64,
    journal_flushes: u64,
    journal_records: u64,
    cache_entries: u64,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    identical: bool,
    /// Counters of the first traced repetition (one campaign set).
    first_counts: Totals,
    csv: Vec<PathBuf>,
}

impl Report {
    /// Adds one traced repetition covering `campaigns` campaigns.
    fn add_rep(&mut self, rep: Totals, campaigns: u64) {
        if self.campaigns == 0 {
            self.first_counts = rep.clone();
        }
        self.traced.merge(&rep);
        self.campaigns += campaigns;
    }
}

fn cmd_fig(a: &Args, budget: Duration, out: &Path) -> Res<Report> {
    let n: u64 = a.req("n")?;
    let runs: u32 = a.req("runs")?;
    let threads: usize = a.req("threads")?;
    let cfgs: Vec<HagerupConfig> = a
        .seeds()?
        .into_iter()
        .map(|seed| {
            let mut cfg = HagerupConfig::paper(n, runs);
            cfg.threads = threads;
            cfg.seed = seed;
            cfg
        })
        .collect();
    let mut r = Report { identical: true, ..Report::default() };
    let mut last: Vec<Vec<WastedRow>> = Vec::new();
    spans::take();
    // Untraced reference and traced recomposition alternate while another
    // pair fits in the budget; each runs at least once.
    let deadline = Instant::now() + budget;
    loop {
        let start = Instant::now();
        let reference = cfgs
            .iter()
            .map(|c| {
                run_figure_resilient(c, &Telemetry::disabled(), &ExecContext::transient())
                    .map_err(fail("run_figure_resilient"))
            })
            .collect::<Res<Vec<_>>>()?;
        r.untraced_wall.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        last.clear();
        for cfg in &cfgs {
            let (rows, runner_s) = traced_figure(cfg)?;
            r.runner_s += runner_s;
            last.push(rows);
        }
        r.traced_wall.push(start.elapsed().as_secs_f64());
        r.add_rep(spans::take(), cfgs.len() as u64);
        r.identical &= reference.iter().zip(&last).all(|(x, y)| figure_rows_identical(x, y));
        if past(deadline, &r) {
            break;
        }
    }

    for (cfg, rows) in cfgs.iter().zip(&last) {
        let (headers, body) = wasted_rows(rows);
        let csv = format_csv(&headers, &body);
        let path = out.join(format!("{}.csv", cfg.seed));
        span(Layer::Artifact, || write_artifact(&path, csv.as_bytes())).map_err(fail("csv"))?;
        r.artifact_bytes += csv.len() as u64;
        r.csv.push(path);
    }
    if let Some(dir) = a.get("cache") {
        for _ in 0..OPEN_REPS {
            let cache = span(Layer::CacheOpen, || ResultCache::open(Path::new(dir)))
                .map_err(fail("cache"))?;
            r.cache_entries = cache.len() as u64;
        }
    }
    r.io = spans::take();
    Ok(r)
}

fn cmd_sweep(a: &Args, budget: Duration, out: &Path) -> Res<Report> {
    let cfg = SweepConfig {
        runs: a.req("runs")?,
        threads: a.req("threads")?,
        seed: *a.seeds()?.first().ok_or("--seeds is empty")?,
        ..SweepConfig::default()
    };
    let meta = sweep_meta(&cfg);
    let (ref_dir, journal_dir) = (out.join("reference"), out.join("journal"));
    let mut r = Report { identical: true, ..Report::default() };
    let mut last;
    spans::take();
    let deadline = Instant::now() + budget;
    loop {
        let start = Instant::now();
        fresh_dir(&ref_dir)?;
        let journal = Journal::open(&ref_dir, &meta).map_err(fail("journal"))?;
        let reference =
            run_sweep_resilient(&cfg, &Telemetry::disabled(), &ExecContext::with_journal(journal))
                .map_err(fail("run_sweep_resilient"))?;
        r.untraced_wall.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        fresh_dir(&journal_dir)?;
        let journal = span(Layer::JournalRecord, || Journal::open(&journal_dir, &meta))
            .map_err(fail("journal"))?;
        let (rows, runner_s, bytes) = traced_sweep(&cfg, &journal)?;
        r.traced_wall.push(start.elapsed().as_secs_f64());
        r.runner_s += runner_s;
        r.journal_bytes += bytes;
        r.journal_flushes += journal.stats().flushes;
        r.add_rep(spans::take(), 1);
        r.identical &= sweep_rows_identical(&reference, &rows);
        last = rows;
        if past(deadline, &r) {
            break;
        }
    }

    let (headers, body) = table_rows(&last);
    let csv = format_csv(&headers, &body);
    let path = out.join("sweep.csv");
    span(Layer::Artifact, || write_artifact(&path, csv.as_bytes())).map_err(fail("csv"))?;
    r.artifact_bytes = csv.len() as u64;
    r.csv.push(path);
    for _ in 0..OPEN_REPS {
        let journal = span(Layer::JournalOpen, || Journal::open(&journal_dir, &meta))
            .map_err(fail("journal"))?;
        r.journal_records = journal.resumed();
    }
    std::fs::remove_dir_all(&ref_dir).map_err(fail("clear reference journal"))?;
    r.io = spans::take();
    Ok(r)
}

/// Whether another untraced + traced pair, as long as the last one, would
/// end after `deadline`.
fn past(deadline: Instant, r: &Report) -> bool {
    let last = r.untraced_wall.last().unwrap_or(&0.0) + r.traced_wall.last().unwrap_or(&0.0);
    Instant::now() + Duration::from_secs_f64(last) > deadline
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Renders the report as the JSON object `perfbench/run.py` reads.
fn render(r: &Report, fan: &fanout::Rates) -> String {
    let t = &r.traced;
    let per = |x: f64| x / r.campaigns.max(1) as f64;
    let per_n = |c: Count| t.count(c) as f64 / r.campaigns.max(1) as f64;
    let per_call = |l: Layer| r.io.self_s(l) / r.io.calls(l).max(1) as f64;
    let hagerup_s = t.self_s(Layer::HagerupBatch) + t.self_s(Layer::HagerupFallback);
    let metrics: Vec<(&str, f64)> = vec![
        ("workload.generate_s", per(t.self_s(Layer::Generate))),
        ("workload.tasks", per_n(Count::Tasks)),
        ("workload.bytes_computed", per_n(Count::Tasks) * 16.0 + per_n(Count::Realizations) * 8.0),
        ("core.build_s", per(t.self_s(Layer::Build))),
        ("core.chunk_s", per(t.self_s(Layer::Chunk))),
        ("core.chunks", per_n(Count::MsgsimChunks)),
        ("des.events", per_n(Count::DesEvents)),
        ("des.fanout_events_per_s", fan.overall),
        ("msgsim.simulate_s", per(t.self_s(Layer::Msgsim))),
        ("msgsim.calls", per_n(Count::MsgsimCalls)),
        (
            "msgsim.ns_per_event",
            t.self_s(Layer::Msgsim) * 1e9 / t.count(Count::DesEvents).max(1) as f64,
        ),
        ("hagerup.batch_s", per(t.self_s(Layer::HagerupBatch))),
        ("hagerup.fallback_s", per(t.self_s(Layer::HagerupFallback))),
        ("hagerup.tasks", per_n(Count::HagerupTasks)),
        ("hagerup.ns_per_task", hagerup_s * 1e9 / t.count(Count::HagerupTasks).max(1) as f64),
        ("runner.self_s", per(r.runner_s - t.total_s(Layer::Closure))),
        ("runner.runs", per_n(Count::Runs)),
        ("journal.record_s", per(t.self_s(Layer::JournalRecord))),
        ("journal.flushes", per(r.journal_flushes as f64)),
        ("journal.bytes_written", per(r.journal_bytes as f64)),
        ("journal.open_s", per_call(Layer::JournalOpen)),
        ("journal.records", r.journal_records as f64),
        ("artifact.write_s", per_call(Layer::Artifact)),
        ("artifact.bytes", r.artifact_bytes as f64 / r.io.calls(Layer::Artifact).max(1) as f64),
        ("serve.cache_open_s", per_call(Layer::CacheOpen)),
        ("trace.overhead_frac", median(&r.traced_wall) / median(&r.untraced_wall) - 1.0),
    ];
    let f = &r.first_counts;
    let fields = [
        format!(
            "\"metrics\":{{{}}}",
            metrics.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",")
        ),
        format!(
            "\"counts\":{{\"msgsim.chunks\":{},\"msgsim.events\":{},\"hagerup.chunks\":{},\
             \"hagerup.tasks\":{},\"campaign.runs_completed\":{}}}",
            f.count(Count::MsgsimChunks),
            f.count(Count::DesEvents),
            f.count(Count::HagerupChunks),
            f.count(Count::HagerupTasks),
            f.count(Count::Runs)
        ),
        format!(
            "\"fanout\":{{{}}}",
            fan.per_p.iter().map(|(p, v)| format!("\"{p}\":{v}")).collect::<Vec<_>>().join(",")
        ),
        format!("\"identical\":{}", r.identical),
        format!("\"timer_ns\":{}", spans::timer_ns()),
        format!("\"traced_wall\":{:?}", r.traced_wall),
        format!("\"untraced_wall\":{:?}", r.untraced_wall),
        format!("\"cache_entries\":{}", r.cache_entries),
        format!(
            "\"csv\":[{}]",
            r.csv
                .iter()
                .map(|p| format!("{:?}", p.display().to_string()))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ];
    format!("{{{}}}", fields.join(","))
}

fn run(raw: &[String]) -> Res<String> {
    let (mode, rest) =
        raw.split_first().ok_or("usage: perfbench-trace <fig|sweep> --option value ...")?;
    let a = Args::parse(rest)?;
    let seconds: f64 = a.req("seconds")?;
    let out = PathBuf::from(a.get("out").ok_or("--out is required")?);
    std::fs::create_dir_all(&out).map_err(fail("create --out"))?;
    spans::calibrate();
    // Most of the budget goes to the campaign; the fan-out driver takes
    // a fixed tenth of it.
    let budget = Duration::from_secs_f64(seconds.max(0.1));
    let report = match mode.as_str() {
        "fig" => cmd_fig(&a, budget.mul_f64(0.9), &out)?,
        "sweep" => cmd_sweep(&a, budget.mul_f64(0.9), &out)?,
        other => return Err(format!("unknown mode `{other}` (fig|sweep)")),
    };
    let fan = fanout::measure(budget.mul_f64(0.1));
    Ok(render(&report, &fan))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::from(2)
        }
    }
}

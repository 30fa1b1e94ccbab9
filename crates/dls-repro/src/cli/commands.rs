//! The handlers behind [`super::COMMANDS`]: each regenerates one paper
//! artifact or runs one harness tool, printing through [`crate::console`].

use super::{Invocation, Options};
use crate::artifacts::{ArtifactSink, ArtifactTier};
use crate::error::ReproError;
use crate::hagerup_exp::{self, HagerupConfig};
use crate::journal::{self, Journal, JournalMeta};
use crate::outlier::{self, OutlierConfig};
use crate::runner::{default_threads, ExecContext, Progress};
use crate::server::Server;
use crate::spec::{ExperimentSpec, MeasuredValue, OverheadSpec};
use crate::tss_exp::TssExperiment;
use crate::{analyze, errln, outln, plot, reference, registry, report};
use dls_telemetry::{to_prometheus_text, HistogramSnapshot, Logger, Snapshot, Telemetry};
use std::path::Path;

/// Builds the [`ExecContext`] for a resumable command: the journal when
/// `--resume DIR` was given (validated against this command's identity and
/// result-affecting configuration), the process-wide cancel flag, the
/// `--cancel-after` test hook, and with `--log` the structured logger and
/// a stderr-announcing progress tracker (host-side observers:
/// `tests/log_determinism.rs` pins that they leave results bit-identical).
/// `fingerprint` must cover every option that changes the campaign's
/// results — and nothing else, so a resume may e.g. change `--threads` or
/// add `--csv` without invalidating the journal.
fn exec_context(
    inv: &Invocation,
    fingerprint: String,
    seed: u64,
) -> Result<(ExecContext, Logger), ReproError> {
    let o = &inv.options;
    let mut ctx = match &o.resume {
        Some(dir) => {
            let meta = JournalMeta::new(inv.command, fingerprint, seed);
            let j = Journal::open(Path::new(dir), &meta)?;
            if j.resumed() > 0 {
                errln!("resume: replaying {} journaled run(s) from {dir}", j.resumed());
            }
            ExecContext::with_journal(j)
        }
        None => ExecContext::transient(),
    };
    ctx = ctx.with_cancel_flag(inv.cancel.clone());
    if let Some(n) = o.cancel_after {
        ctx = ctx.with_cancel_after(n);
    }
    if o.log_file.is_none() {
        return Ok((ctx, Logger::disabled()));
    }
    let logger = Logger::enabled();
    Ok((ctx.with_logger(logger.clone()).with_progress(Progress::new().announcing()), logger))
}

/// Prints the post-campaign resilience summary: quarantined (panicked)
/// runs, and the journal's replayed/recorded/quarantined counts when one
/// is active.
fn report_resilience(ctx: &ExecContext) -> Result<(), ReproError> {
    let quarantined = ctx.quarantined();
    if !quarantined.is_empty() {
        errln!(
            "warning: {} run(s) panicked and were quarantined (excluded from the statistics):",
            quarantined.len()
        );
        for q in &quarantined {
            errln!("  {q}");
        }
        errln!("  rerun with RUST_BACKTRACE=1 and the listed seed to debug a quarantined run");
    }
    if let Some(j) = ctx.journal() {
        let s = j.stats();
        let quarantined = match s.quarantined {
            0 => String::new(),
            q => format!(", {q} record(s) quarantined"),
        };
        outln!(
            "journal: {} run(s) replayed, {} newly recorded, {} byte(s) written -> {}{quarantined}",
            s.resumed,
            s.recorded,
            s.bytes_written,
            j.path().display(),
        )?;
    }
    Ok(())
}

/// A registry when `--telemetry`/`--telemetry-json`/`--telemetry-prom`
/// asked for one, else the zero-cost disabled handle.
fn telemetry_for(o: &Options) -> Telemetry {
    if o.telemetry || o.telemetry_json.is_some() || o.telemetry_prom.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Writes the `--log FILE` JSONL dump. Secondary tier, like the telemetry
/// dump: a log that fails to land degrades the run (exit 6), it never
/// discards the primary results.
fn emit_log(o: &Options, logger: &Logger, sink: &ArtifactSink) -> Result<(), ReproError> {
    let (Some(path), true) = (&o.log_file, logger.is_enabled()) else {
        return Ok(());
    };
    if sink.write(ArtifactTier::Secondary, Path::new(path), logger.to_jsonl().as_bytes())? {
        let dropped = logger.dropped();
        if dropped > 0 {
            errln!("warning: log ring dropped {dropped} event(s); {path} holds the tail");
        }
        outln!("wrote {path}")?;
    }
    Ok(())
}

/// Renders a snapshot as the `--telemetry` summary tables.
fn telemetry_tables(snap: &Snapshot) -> String {
    let pair = |name: &str, value: String| vec![name.to_string(), value];
    let counters = snap.counters.iter().map(|c| pair(&c.name, c.value.to_string())).collect();
    let gauges = snap.gauges.iter().map(|g| pair(&g.name, g.value.to_string())).collect();
    let histogram = |h: &HistogramSnapshot| {
        let stats = [h.mean, h.p50, h.p90, h.max].map(|v| format!("{v:.6}"));
        pair(&h.name, h.count.to_string()).into_iter().chain(stats).collect()
    };
    let histograms: Vec<Vec<String>> = snap.histograms.iter().map(histogram).collect();
    let tables = [
        (&["counter", "value"][..], counters, "\n"),
        (&["gauge", "value"], gauges, "\n"),
        (&["histogram", "count", "mean", "p50", "p90", "max"], histograms, ""),
    ];
    let mut out = String::new();
    for (headers, rows, separator) in tables.into_iter().filter(|(_, rows, _)| !rows.is_empty()) {
        out.push_str(&report::format_table(headers, &rows));
        out.push_str(separator);
    }
    if snap.is_empty() {
        out.push_str("telemetry: no metrics recorded\n");
    }
    out
}

/// Prints/writes `snap` per the `--telemetry`/`--telemetry-json`/
/// `--telemetry-prom` options. The dumps are *secondary* artifacts: a
/// write failure degrades the run (exit 6 via the sink) after the primary
/// results are already on disk, it never discards them.
fn emit_telemetry(o: &Options, snap: &Snapshot, sink: &ArtifactSink) -> Result<(), ReproError> {
    if o.telemetry {
        outln!("telemetry:")?;
        outln!("{}", telemetry_tables(snap))?;
    }
    let json = o.telemetry_json.as_ref().map(|path| (path, snap.to_json() + "\n"));
    let prom = o.telemetry_prom.as_ref().map(|path| (path, to_prometheus_text(snap)));
    for (path, body) in [json, prom].into_iter().flatten() {
        if sink.write(ArtifactTier::Secondary, Path::new(path), body.as_bytes())? {
            outln!("wrote {path}")?;
        }
    }
    Ok(())
}

/// One-line engine summary from a snapshot's `msgsim.*` counters.
fn engine_summary(snap: &Snapshot) -> String {
    format!(
        "engine: {} simulate call(s), {} events, {} dead letters, {} dropped sends, \
         {} delayed sends",
        snap.counter("msgsim.simulate_calls").unwrap_or(0),
        snap.counter("msgsim.events").unwrap_or(0),
        snap.counter("msgsim.dead_letters").unwrap_or(0),
        snap.counter("msgsim.dropped_sends").unwrap_or(0),
        snap.counter("msgsim.delayed_sends").unwrap_or(0),
    )
}

/// Writes one recorded run's artifacts and prints where they went.
fn emit_trace(a: &crate::trace::TraceArtifacts, dir: &str) -> Result<(), ReproError> {
    let paths = crate::trace::write_artifacts(a, Path::new(dir))?;
    for p in &paths {
        outln!("wrote {}", p.display())?;
    }
    if a.evicted > 0 {
        errln!(
            "warning: trace ring evicted {} events; the exports cover only the tail of the run",
            a.evicted
        );
    }
    outln!(
        "trace `{}`: {} events, {} PEs, makespan {:.2} s \
         (open the .trace.json in chrome://tracing or ui.perfetto.dev)",
        a.label,
        a.events.len(),
        a.p,
        a.makespan
    )?;
    if a.telemetry.counter("msgsim.simulate_calls").unwrap_or(0) > 0 {
        outln!("{}", engine_summary(&a.telemetry))?;
    } else if let Some(calls) = a.telemetry.counter("hagerup.run_calls") {
        outln!(
            "engine: {} direct-simulator run(s), {} chunks (no messages)",
            calls,
            a.telemetry.counter("hagerup.chunks").unwrap_or(0)
        )?;
    }
    Ok(())
}

/// What every journaled campaign writes after its table, in order: the
/// result CSV, the `--trace DIR` run (a failed trace write degrades the
/// command instead of failing it), the telemetry dumps and the log.
fn finish_campaign(
    inv: &Invocation,
    (name, headers, body): (&str, &[&str], &[Vec<String>]),
    trace: impl FnOnce() -> Result<crate::trace::TraceArtifacts, dls_core::SetupError>,
    telemetry: &Telemetry,
    logger: &Logger,
) -> Result<(), ReproError> {
    write_csv(inv, name, headers, body)?;
    if let Some(dir) = &inv.options.trace_dir {
        inv.sink.soften(&format!("{dir} (trace artifacts)"), emit_trace(&trace()?, dir))?;
    }
    emit_telemetry(&inv.options, &telemetry.snapshot(), &inv.sink)?;
    emit_log(&inv.options, logger, &inv.sink)
}

/// Writes a result CSV. Primary tier: the CSV *is* the campaign's result,
/// so a write failure (after retries) is fatal with exit 3 — silently
/// losing it while printing a table to a scrollback buffer is data loss.
fn write_csv(
    inv: &Invocation,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), ReproError> {
    let Some(dir) = &inv.options.csv_dir else { return Ok(()) };
    let path = Path::new(dir).join(format!("{name}.csv"));
    std::fs::create_dir_all(dir).map_err(|e| ReproError::io(format!("{dir}: {e}")))?;
    inv.sink.write(ArtifactTier::Primary, &path, report::format_csv(headers, rows).as_bytes())?;
    outln!("wrote {}", path.display())
}

/// The (b) panel of a figure: one series per label, in first-seen order.
fn series<'a>(points: impl Iterator<Item = (&'a str, f64, f64)>) -> Vec<plot::Series> {
    let mut series: Vec<plot::Series> = Vec::new();
    for (label, x, y) in points {
        match series.iter_mut().find(|s| s.label == label) {
            Some(s) => s.points.push((x, y)),
            None => series.push(plot::Series { label: label.into(), points: vec![(x, y)] }),
        }
    }
    series
}

pub(super) fn list(_: &Invocation) -> Result<(), ReproError> {
    let rows: Vec<Vec<String>> = registry::experiments()
        .iter()
        .map(|e| vec![e.id.into(), e.artifact.into(), e.section.into(), e.summary.into()])
        .collect();
    outln!("{}", report::format_table(&["id", "artifact", "section", "summary"], &rows))
}

pub(super) fn table2(_: &Invocation) -> Result<(), ReproError> {
    use dls_core::{Param::*, Technique};
    let cols = [P, N, R, H, Mu, Sigma, F, L, M];
    let headers = ["DLS", "p", "n", "r", "h", "mu", "sigma", "f", "l", "m"];
    let rows: Vec<Vec<String>> = Technique::hagerup_set()
        .iter()
        .map(|t| {
            let req = t.required_params();
            let marks = cols.iter().map(|c| if req.contains(c) { "X" } else { "" }.to_string());
            [t.name().to_string()].into_iter().chain(marks).collect()
        })
        .collect();
    outln!("{}", report::format_table(&headers, &rows))
}

pub(super) fn tss(inv: &Invocation) -> Result<(), ReproError> {
    use crate::reference::TSS_PES;
    use crate::tss_exp::{run_experiment_resilient, ContentionModel};
    let fig = inv.command;
    // No journal (one deterministic run per cell), but the shared cancel
    // flag still stops a long `repro all` promptly.
    let ctx = ExecContext::transient().with_cancel_flag(inv.cancel.clone());
    let (exp, contention) = match fig {
        "fig3" => (TssExperiment::Exp1, ContentionModel::none()),
        "fig4" => (TssExperiment::Exp2, ContentionModel::none()),
        // Contended variants: restore the original machine's degraded
        // curves (the figures' (a) panels) via the BBN GP-1000 model.
        "fig3a" => (TssExperiment::Exp1, ContentionModel::bbn_gp1000()),
        _ => (TssExperiment::Exp2, ContentionModel::bbn_gp1000()),
    };
    let rows =
        run_experiment_resilient(exp, dls_platform::LinkSpec::fast(), &TSS_PES, contention, &ctx)?;
    let (headers, body) = report::speedup_rows(&rows);
    outln!("{fig}: speedup vs number of PEs (original values digitized from the publication)")?;
    outln!("{}", report::format_table(&headers, &body))?;

    // ASCII rendition of the figure's (b) panel.
    let panel = series(rows.iter().map(|r| (r.label.as_str(), r.p as f64, r.simulated)));
    outln!("{}", plot::render(&panel, plot::Scale::Linear, 60, 16))?;
    write_csv(inv, fig, &headers, &body)
}

pub(super) fn hagerup(inv: &Invocation) -> Result<(), ReproError> {
    let (fig, o) = (inv.command, &inv.options);
    let n = hagerup_exp::figure_n(fig).expect("the command table routes only fig5-fig8 here");
    let mut cfg = HagerupConfig::paper(n, o.runs.unwrap_or(1000));
    cfg.threads = o.threads.unwrap_or_else(default_threads);
    cfg.seed = o.seed.unwrap_or(cfg.seed);
    cfg.pes = o.pes.clone().unwrap_or(cfg.pes);
    cfg.techniques = o.techniques.clone().unwrap_or(cfg.techniques);
    let (ctx, logger) = exec_context(inv, cfg.fingerprint(), cfg.seed)?;
    errln!(
        "{fig}: n={n}, pes={:?}, runs={}, h={}, exp(mu=1s) — running...",
        cfg.pes,
        cfg.runs,
        cfg.h
    );
    let telemetry = telemetry_for(o);
    let rows = hagerup_exp::run_figure_resilient(&cfg, &telemetry, &ctx)?;
    report_resilience(&ctx)?;
    let (headers, body) = report::wasted_rows(&rows);
    outln!("{fig}: sample mean of the average wasted time over {} runs", cfg.runs)?;
    outln!("{}", report::format_table(&headers, &body))?;

    // ASCII rendition of the figure's (b) panel: log-y wasted time vs p.
    let panel = series(rows.iter().map(|r| (r.technique.as_str(), r.p as f64, r.msgsim)));
    outln!("{}", plot::render(&panel, plot::Scale::Log10, 60, 16))?;
    let max_rel = hagerup_exp::max_relative_discrepancy_excluding_outlier(&rows);
    let bound = reference::PAPER_DISCREPANCY_BOUNDS
        .iter()
        .find(|(bn, _)| *bn == n)
        .map_or(f64::NAN, |(_, b)| *b);
    outln!(
        "max |relative discrepancy| excluding FAC@2PEs: {max_rel:.2} % \
         (paper reported <= {bound} % vs the original publication)"
    )?;
    let trace = || crate::trace::trace_figure_cell(&cfg, fig);
    finish_campaign(inv, (fig, &headers, &body), trace, &telemetry, &logger)
}

pub(super) fn fig9(inv: &Invocation) -> Result<(), ReproError> {
    let o = &inv.options;
    let mut cfg = OutlierConfig::paper(o.runs.unwrap_or(1000));
    cfg.threads = o.threads.unwrap_or_else(default_threads);
    cfg.seed = o.seed.unwrap_or(cfg.seed);
    errln!("fig9: FAC, p=2, n={}, runs={} — running...", cfg.n, cfg.runs);
    let a = outlier::run_outlier(&cfg, reference::fig9::OUTLIER_THRESHOLD)?;
    outln!("fig9: average wasted time per run (FAC, 2 PEs, {} tasks)", cfg.n)?;
    outln!("{}", report::outlier_summary(&a))?;
    outln!(
        "paper: {} of 1000 runs above {:.0} s; trimmed mean {:.2} s",
        reference::fig9::PAPER_OUTLIER_COUNT,
        reference::fig9::OUTLIER_THRESHOLD,
        reference::fig9::PAPER_TRIMMED_MEAN
    )?;
    let rows: Vec<Vec<String>> =
        a.per_run.iter().enumerate().map(|(i, w)| vec![i.to_string(), format!("{w:.3}")]).collect();
    write_csv(inv, "fig9", &["run", "avg_wasted_s"], &rows)
}

pub(super) fn spec(inv: &Invocation) -> Result<(), ReproError> {
    use dls_core::Technique;
    use dls_platform::{LinkSpec, Platform};
    use dls_workload::Workload;
    let o = &inv.options;
    let dir = o.csv_dir.clone().unwrap_or_else(|| "specs".into());
    std::fs::create_dir_all(&dir).map_err(|e| ReproError::io(format!("{dir}: {e}")))?;
    let mut specs: Vec<ExperimentSpec> = Vec::new();
    for (exp, id) in [(TssExperiment::Exp1, "fig3"), (TssExperiment::Exp2, "fig4")] {
        specs.push(ExperimentSpec {
            id: id.into(),
            artifact: format!("Figure {}", &id[3..]),
            workload: Workload::constant(exp.n(), exp.task_time()),
            techniques: exp.techniques(80).into_iter().map(|(_, t)| t).collect(),
            platform: Platform::homogeneous_star("pe", 80, 1.0, LinkSpec::fast()),
            runs: 1,
            measured: MeasuredValue::Speedup,
            overhead: OverheadSpec::None,
            seed: 0,
        });
    }
    // Figures 5–9: exponential task times on p PEs, wasted time measured.
    let all = || Technique::hagerup_set().to_vec();
    let average = MeasuredValue::AverageWastedTime;
    for (id, n, techniques, p, measured, seed) in [
        ("fig5", 1_024u64, all(), 1024, average, 0x20170529 ^ 1_024),
        ("fig6", 8_192, all(), 1024, average, 0x20170529 ^ 8_192),
        ("fig7", 65_536, all(), 1024, average, 0x20170529 ^ 65_536),
        ("fig8", 524_288, all(), 1024, average, 0x20170529 ^ 524_288),
        ("fig9", 524_288, vec![Technique::Fac], 2, MeasuredValue::PerRunWastedTime, 0xF169),
    ] {
        specs.push(ExperimentSpec {
            id: id.into(),
            artifact: format!("Figure {}", &id[3..]),
            workload: Workload::exponential(n, 1.0)?,
            techniques,
            platform: Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible()),
            runs: o.runs.unwrap_or(1000),
            measured,
            overhead: OverheadSpec::PostHocTotal { h: 0.5 },
            seed: o.seed.unwrap_or(seed),
        });
    }
    for s in &specs {
        let path = Path::new(&dir).join(format!("{}.json", s.id));
        journal::write_artifact(&path, s.to_json().as_bytes())?;
        outln!("wrote {}", path.display())?;
    }
    Ok(())
}

pub(super) fn sweep(inv: &Invocation) -> Result<(), ReproError> {
    use crate::sweep::{run_sweep_resilient, table_rows, winners, SweepConfig};
    let o = &inv.options;
    let mut cfg = SweepConfig::default();
    cfg.runs = o.runs.unwrap_or(cfg.runs);
    cfg.pes = o.pes.clone().unwrap_or(cfg.pes);
    cfg.techniques = o.techniques.clone().unwrap_or(cfg.techniques);
    cfg.seed = o.seed.unwrap_or(cfg.seed);
    cfg.threads = o.threads.unwrap_or_else(default_threads);
    let (ctx, logger) = exec_context(inv, cfg.fingerprint(), cfg.seed)?;
    errln!(
        "sweep: ns={:?}, pes={:?}, {} families x {} techniques, runs={}...",
        cfg.ns,
        cfg.pes,
        cfg.families.len(),
        cfg.techniques.len(),
        cfg.runs
    );
    let telemetry = telemetry_for(o);
    let rows = run_sweep_resilient(&cfg, &telemetry, &ctx)?;
    report_resilience(&ctx)?;
    let (headers, body) = table_rows(&rows);
    outln!("{}", report::format_table(&headers, &body))?;
    outln!("winners (lowest mean wasted time per workload family):")?;
    for (n, p, w, t, v) in winners(&rows) {
        outln!("  n={n} p={p} {w:<12} -> {t} ({v:.3} s)")?;
    }
    let trace = || crate::trace::trace_sweep_cell(&cfg);
    finish_campaign(inv, ("sweep", &headers, &body), trace, &telemetry, &logger)
}

pub(super) fn faults(inv: &Invocation) -> Result<(), ReproError> {
    use crate::faults::{self, FaultScenario, FaultSweepConfig};
    let o = &inv.options;
    let mut cfg = FaultSweepConfig::default();
    cfg.runs = o.runs.unwrap_or(cfg.runs);
    if let Some(p) = &o.pes {
        let &[p] = p.as_slice() else {
            return Err(ReproError::usage("faults takes a single --pes value"));
        };
        cfg.p = p;
        cfg.scenarios = faults::default_scenarios(cfg.n, cfg.p);
    }
    cfg.techniques = o.techniques.clone().unwrap_or(cfg.techniques);
    cfg.seed = o.seed.unwrap_or(cfg.seed);
    cfg.threads = o.threads.unwrap_or_else(default_threads);
    if let Some(path) = &o.fault_plan {
        let plan = faults::load_plan(path)?;
        let name = Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        cfg.scenarios = vec![FaultScenario { name, plan }];
    }
    let (ctx, logger) = exec_context(inv, cfg.fingerprint(), cfg.seed)?;
    errln!(
        "faults: n={}, p={}, {} techniques x {} scenarios, runs={} — running...",
        cfg.n,
        cfg.p,
        cfg.techniques.len(),
        cfg.scenarios.len(),
        cfg.runs
    );
    // Always metered: the sweep's engine statistics (events, dead letters,
    // dropped/delayed sends) are part of its human-readable summary.
    let telemetry = Telemetry::enabled();
    let rows = faults::run_fault_sweep_resilient(&cfg, &telemetry, &ctx)?;
    report_resilience(&ctx)?;
    let (headers, body) = faults::table_rows(&rows);
    outln!("{}", report::format_table(&headers, &body))?;
    outln!("{}", engine_summary(&telemetry.snapshot()))?;
    if rows.iter().any(|r| !r.all_completed) {
        return Err(ReproError::Regression("some runs did not complete all tasks".into()));
    }
    let trace = || crate::trace::trace_fault_cell(&cfg);
    finish_campaign(inv, ("faults", &headers, &body), trace, &telemetry, &logger)
}

pub(super) fn trace(inv: &Invocation) -> Result<(), ReproError> {
    let o = &inv.options;
    let a =
        crate::trace::run_scenario(&inv.target, o.seed.unwrap_or(1)).map_err(ReproError::usage)?;
    emit_trace(&a, o.out_dir.as_deref().unwrap_or("traces"))?;
    emit_telemetry(o, &a.telemetry, &inv.sink)
}

/// `repro chaos <fig5|sweep|faults|serve>` — crash-point exhaustion of a
/// reduced journaled campaign or of the campaign service, through the one
/// crash-exhaustion routine in [`crate::chaos`].
pub(super) fn chaos(inv: &Invocation) -> Result<(), ReproError> {
    use crate::chaos::{self, ChaosConfig, ChaosTarget};
    let o = &inv.options;
    let target: ChaosTarget = inv.target.parse().map_err(ReproError::usage)?;
    let plan = o.host_fault_plan.as_deref().map(chaos::load_host_plan).transpose()?;
    let cfg = ChaosConfig { target, quick: o.quick, runs: o.runs, seed: o.seed, plan };
    let name = target.name();
    let mode = if cfg.quick { "quick" } else { "full" };
    errln!("chaos {name}: exhausting host-I/O crash points ({mode} mode)...");
    let report = chaos::run_crash_exhaustion(&cfg, &inv.cancel)?;
    outln!("chaos {name}: {} host-I/O crash points enumerated", report.io_ops)?;
    outln!(
        "  passthrough pin (empty fault plan): {}",
        if report.passthrough_identical { "bit-identical to the reference" } else { "DIVERGED" }
    )?;
    outln!(
        "  crash exhaustion: {}/{} crash points recovered byte-identically",
        report.identical_recoveries,
        report.io_ops
    )?;
    let s = &report.storm_stats;
    outln!(
        "  fault storm: {} cold run(s) over {} ops, {} flake(s), {} error(s), {} torn write(s) — {}",
        report.storm_runs,
        s.ops,
        s.flakes,
        s.errors_injected,
        s.torn_writes,
        match (report.storm_identical, report.storm_completed_directly) {
            (true, true) => "absorbed by the retry policy",
            (true, false) => "converged after one real-I/O recovery",
            (false, _) => "NOT RECOVERED",
        }
    )?;
    for c in &report.checks {
        let detail = if c.passed { c.detail.clone() } else { format!("FAILED ({})", c.detail) };
        outln!("  {}: {detail}", c.name)?;
    }
    for m in &report.mismatches {
        errln!("  mismatch: {m}");
    }
    if !report.is_ok() {
        let failed = report.mismatches.len() + report.checks.iter().filter(|c| !c.passed).count();
        return Err(ReproError::Regression(format!(
            "chaos {name}: {} invariant violation(s)",
            failed.max(1)
        )));
    }
    outln!("  verdict: every crash point recovered to the reference bytes")
}

pub(super) fn verify(inv: &Invocation) -> Result<(), ReproError> {
    use crate::verify::{require_agreement, run_verification, verdict, VerifyConfig};
    let o = &inv.options;
    let mut cfg = VerifyConfig::default();
    cfg.runs = o.runs.unwrap_or(cfg.runs);
    cfg.seed = o.seed.unwrap_or(cfg.seed);
    cfg.pes = o.pes.clone().unwrap_or(cfg.pes);
    errln!(
        "verify: ns={:?}, pes={:?}, runs={} — shared-realization comparison...",
        cfg.ns,
        cfg.pes,
        cfg.runs
    );
    let rows = run_verification(&cfg)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.technique.clone(),
                r.n.to_string(),
                r.p.to_string(),
                format!("{:.4}", r.max_makespan_dev_pct),
                format!("{:.4}", r.max_wasted_dev_pct),
                if r.chunks_identical { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    let headers = ["technique", "n", "p", "max mk dev[%]", "max wt dev[%]", "chunks identical"];
    outln!("{}", report::format_table(&headers, &body))?;
    let (worst, chunks_ok) = verdict(&rows);
    outln!(
        "VERDICT: max deviation {worst:.4} % across the grid; chunk streams identical: {chunks_ok}"
    )?;
    outln!(
        "(The paper's verification had to tolerate <= 15 % against unknown-seed\n\
         published values; with identical realizations the two simulators in\n\
         this workspace must agree to DES noise, below the table's precision.)"
    )?;
    require_agreement(&rows)
}

/// `repro serve`: run the campaign service until interrupted (exit 130)
/// or until `--max-requests` connections were handled (exit 0).
///
/// The structured log is always on for the service (the ring bounds its
/// cost); `--log FILE` additionally dumps it as JSONL on shutdown.
pub(super) fn serve(inv: &Invocation) -> Result<(), ReproError> {
    let o = &inv.options;
    let mut cfg = o.serve.clone();
    // Deterministic fault injection into the server's cache writes — the
    // operational knob behind `repro chaos serve`.
    cfg.fault_plan = o.host_fault_plan.as_deref().map(crate::chaos::load_host_plan).transpose()?;
    let logger = Logger::enabled();
    let server = Server::bind(&cfg, Telemetry::enabled(), logger.clone(), inv.cancel.clone())?;
    errln!(
        "serve: listening on http://{} (cache: {}, workers: {}, queue: {}, deadline: {}, \
         max-connections: {}{})",
        server.local_addr(),
        cfg.cache_dir.display(),
        cfg.workers,
        cfg.queue_depth,
        cfg.deadline_ms.map_or("none".into(), |ms| format!("{ms}ms")),
        cfg.max_connections,
        if cfg.fault_plan.is_some() { ", fault plan armed" } else { "" },
    );
    let outcome = server.run();
    // Land the log even on Ctrl-C (exit 130); the interrupt still wins
    // the exit code over a degraded log write.
    let logged = emit_log(o, &logger, &inv.sink);
    outcome.and(logged)
}

/// `repro report <DIR>`: offline campaign analyzer — joins the journal,
/// telemetry snapshots, trace CSVs and structured logs found in `DIR`
/// into `report.md` + `report.csv`.
pub(super) fn report(inv: &Invocation) -> Result<(), ReproError> {
    let dir = Path::new(&inv.target);
    let report = analyze::analyze_dir(dir)?;
    outln!("{}", report.summary())?;
    let md = dir.join("report.md");
    let csv = dir.join("report.csv");
    if inv.sink.write(ArtifactTier::Primary, &md, report.markdown.as_bytes())? {
        outln!("wrote {}", md.display())?;
    }
    if inv.sink.write(ArtifactTier::Secondary, &csv, report.csv.as_bytes())? {
        outln!("wrote {}", csv.display())?;
    }
    Ok(())
}

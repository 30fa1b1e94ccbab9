//! `repro` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! repro list                         # Table III: what can be reproduced
//! repro table2                       # Table II: required parameters
//! repro fig3 [--csv DIR]             # TSS exp. 1 speedups
//! repro fig4 [--csv DIR]             # TSS exp. 2 speedups
//! repro fig5 [--runs N] [--csv DIR]  # wasted time, n=1,024
//! repro fig6|fig7|fig8 ...           # wasted time, larger n
//! repro fig9 [--runs N] [--csv DIR]  # FAC outlier analysis
//! repro faults [--fault-plan F.json] # robustness under injected faults
//! repro trace TSS [--out DIR]        # chunk-lifecycle trace of one run
//! repro chaos fig5 --quick           # crash-point exhaustion harness
//! repro all  [--runs N]              # everything, in paper order
//! ```
//!
//! Options: `--runs N` (default 1000 for the figures), `--threads N`
//! (default: all cores), `--seed S`, `--csv DIR` (write CSV files next to
//! the printed tables), `--pes a,b,c` (override the PE sweep for
//! fig5–fig8), `--resume DIR` (checkpoint completed runs into a journal and
//! skip them on rerun).
//!
//! Failures exit with a classified code (see [`dls_repro::error`]): 2 for
//! usage errors, 3 for host I/O, 4 for invalid specs, 5 for a failed
//! agreement or completion check, 6 for a campaign that completed with
//! degraded secondary artifacts, 130 after a graceful Ctrl-C.

use dls_repro::artifacts::{ArtifactSink, ArtifactTier};
use dls_repro::cli::{check_options, parse_options, Options};
use dls_repro::error::ReproError;
use dls_repro::hagerup_exp::{self, HagerupConfig};
use dls_repro::journal::{self, Journal, JournalMeta};
use dls_repro::outlier::{self, OutlierConfig};
use dls_repro::plot;
use dls_repro::reference;
use dls_repro::report;
use dls_repro::runner::{CancelFlag, ExecContext, Progress};
use dls_repro::server::{ServeConfig, Server};
use dls_repro::spec::{ExperimentSpec, MeasuredValue, OverheadSpec};
use dls_repro::{analyze, registry, tss_exp};
use dls_telemetry::{to_prometheus_text, Logger, Snapshot, Telemetry};
use std::process::ExitCode;
use std::sync::OnceLock;

/// The process-wide cancellation flag, set from the SIGINT handler and
/// shared by every [`ExecContext`] this binary builds.
static GLOBAL_CANCEL: OnceLock<CancelFlag> = OnceLock::new();

fn global_cancel_flag() -> CancelFlag {
    GLOBAL_CANCEL.get_or_init(CancelFlag::new).clone()
}

/// Graceful-interrupt plumbing. The first Ctrl-C only raises the shared
/// [`CancelFlag`] (an atomic store, which is async-signal-safe); campaigns
/// notice it between runs, flush their journal, and exit 130. A second
/// Ctrl-C aborts immediately for users who really mean it.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SEEN: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if SEEN.swap(true, Ordering::SeqCst) {
            std::process::abort();
        }
        if let Some(flag) = super::GLOBAL_CANCEL.get() {
            flag.cancel();
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

fn install_sigint_handler() {
    global_cancel_flag(); // initialize before the handler can fire
    #[cfg(unix)]
    sigint::install();
}

/// Builds the [`ExecContext`] for a resumable command: the journal when
/// `--resume DIR` was given (validated against this command's identity and
/// result-affecting configuration), the process-wide cancel flag, and the
/// `--cancel-after` test hook. `fingerprint` must cover every option that
/// changes the campaign's results — and nothing else, so a resume may e.g.
/// change `--threads` or add `--csv` without invalidating the journal.
fn exec_context(
    command: &str,
    fingerprint: String,
    seed: u64,
    o: &Options,
) -> Result<ExecContext, ReproError> {
    let mut ctx = match &o.resume {
        Some(dir) => {
            let meta = JournalMeta::new(command, fingerprint, seed);
            let j = Journal::open(std::path::Path::new(dir), &meta)?;
            if j.resumed() > 0 {
                eprintln!("resume: replaying {} journaled run(s) from {dir}", j.resumed());
            }
            ExecContext::with_journal(j)
        }
        None => ExecContext::transient(),
    };
    ctx = ctx.with_cancel_flag(global_cancel_flag());
    if let Some(n) = o.cancel_after {
        ctx = ctx.with_cancel_after(n);
    }
    Ok(ctx)
}

/// Prints the post-campaign resilience summary: quarantined (panicked)
/// runs, and the journal's replayed/recorded/quarantined counts when one
/// is active.
fn report_resilience(ctx: &ExecContext) {
    let quarantined = ctx.quarantined();
    if !quarantined.is_empty() {
        eprintln!(
            "warning: {} run(s) panicked and were quarantined (excluded from the statistics):",
            quarantined.len()
        );
        for q in &quarantined {
            eprintln!("  {q}");
        }
        eprintln!("  rerun with RUST_BACKTRACE=1 and the listed seed to debug a quarantined run");
    }
    if let Some(j) = ctx.journal() {
        let s = j.stats();
        let quarantined = match s.quarantined {
            0 => String::new(),
            q => format!(", {q} record(s) quarantined"),
        };
        println!(
            "journal: {} run(s) replayed, {} newly recorded, {} byte(s) written -> {}{quarantined}",
            s.resumed,
            s.recorded,
            s.bytes_written,
            j.path().display(),
        );
    }
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

/// A structured logger when `--log FILE` asked for one, else the
/// zero-cost disabled handle.
fn logger_for(o: &Options) -> Logger {
    if o.log_file.is_some() {
        Logger::enabled()
    } else {
        Logger::disabled()
    }
}

/// Attaches the structured logger and a stderr-announcing progress
/// tracker to a campaign context when `--log` is active. Both are
/// host-side observers; `tests/log_determinism.rs` pins that attaching
/// them leaves the campaign's results bit-identical.
fn with_observability(ctx: ExecContext, logger: &Logger) -> ExecContext {
    if logger.is_enabled() {
        ctx.with_logger(logger.clone()).with_progress(Progress::new().announcing())
    } else {
        ctx
    }
}

/// Writes the `--log FILE` JSONL dump. Secondary tier, like the telemetry
/// dump: a log that fails to land degrades the run (exit 6), it never
/// discards the primary results.
fn emit_log(o: &Options, logger: &Logger, sink: &ArtifactSink) -> Result<(), ReproError> {
    let (Some(path), true) = (&o.log_file, logger.is_enabled()) else {
        return Ok(());
    };
    let landed = sink.write(
        ArtifactTier::Secondary,
        std::path::Path::new(path),
        logger.to_jsonl().as_bytes(),
    )?;
    if landed {
        let dropped = logger.dropped();
        if dropped > 0 {
            eprintln!("warning: log ring dropped {dropped} event(s); {path} holds the tail");
        }
        println!("wrote {path}");
    }
    Ok(())
}

/// Renders a snapshot as the `--telemetry` summary tables.
fn telemetry_tables(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        let rows: Vec<Vec<String>> =
            snap.counters.iter().map(|c| vec![c.name.clone(), c.value.to_string()]).collect();
        out.push_str(&report::format_table(&["counter", "value"], &rows));
        out.push('\n');
    }
    if !snap.gauges.is_empty() {
        let rows: Vec<Vec<String>> =
            snap.gauges.iter().map(|g| vec![g.name.clone(), format!("{}", g.value)]).collect();
        out.push_str(&report::format_table(&["gauge", "value"], &rows));
        out.push('\n');
    }
    if !snap.histograms.is_empty() {
        let rows: Vec<Vec<String>> = snap
            .histograms
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.count.to_string(),
                    format!("{:.6}", h.mean),
                    format!("{:.6}", h.p50),
                    format!("{:.6}", h.p90),
                    format!("{:.6}", h.max),
                ]
            })
            .collect();
        out.push_str(&report::format_table(
            &["histogram", "count", "mean", "p50", "p90", "max"],
            &rows,
        ));
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
        println!("telemetry:");
        println!("{}", telemetry_tables(snap));
    }
    if let Some(path) = &o.telemetry_json {
        let landed = sink.write(
            ArtifactTier::Secondary,
            std::path::Path::new(path),
            (snap.to_json() + "\n").as_bytes(),
        )?;
        if landed {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &o.telemetry_prom {
        let landed = sink.write(
            ArtifactTier::Secondary,
            std::path::Path::new(path),
            to_prometheus_text(snap).as_bytes(),
        )?;
        if landed {
            println!("wrote {path}");
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
fn emit_trace(a: &dls_repro::trace::TraceArtifacts, dir: &str) -> Result<(), ReproError> {
    let paths = dls_repro::trace::write_artifacts(a, std::path::Path::new(dir))?;
    for p in &paths {
        println!("wrote {}", p.display());
    }
    if a.evicted > 0 {
        eprintln!(
            "warning: trace ring evicted {} events; the exports cover only the tail of the run",
            a.evicted
        );
    }
    println!(
        "trace `{}`: {} events, {} PEs, makespan {:.2} s \
         (open the .trace.json in chrome://tracing or ui.perfetto.dev)",
        a.label,
        a.events.len(),
        a.p,
        a.makespan
    );
    if a.telemetry.counter("msgsim.simulate_calls").unwrap_or(0) > 0 {
        println!("{}", engine_summary(&a.telemetry));
    } else if let Some(calls) = a.telemetry.counter("hagerup.run_calls") {
        println!(
            "engine: {} direct-simulator run(s), {} chunks (no messages)",
            calls,
            a.telemetry.counter("hagerup.chunks").unwrap_or(0)
        );
    }
    Ok(())
}

fn cmd_trace(target: &str, o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    let seed = o.seed.unwrap_or(1);
    let a = dls_repro::trace::run_scenario(target, seed).map_err(ReproError::usage)?;
    let dir = o.out_dir.clone().unwrap_or_else(|| "traces".into());
    emit_trace(&a, &dir)?;
    emit_telemetry(o, &a.telemetry, sink)
}

/// Writes a result CSV. Primary tier: the CSV *is* the campaign's result,
/// so a write failure (after retries) is fatal with exit 3 — silently
/// losing it while printing a table to a scrollback buffer is data loss.
fn write_csv(
    sink: &ArtifactSink,
    dir: &str,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), ReproError> {
    let path = std::path::Path::new(dir).join(format!("{name}.csv"));
    std::fs::create_dir_all(dir).map_err(|e| ReproError::io(format!("{dir}: {e}")))?;
    sink.write(ArtifactTier::Primary, &path, report::format_csv(headers, rows).as_bytes())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_list() {
    let rows: Vec<Vec<String>> = registry::experiments()
        .iter()
        .map(|e| vec![e.id.into(), e.artifact.into(), e.section.into(), e.summary.into()])
        .collect();
    println!("{}", report::format_table(&["id", "artifact", "section", "summary"], &rows));
}

fn cmd_table2() {
    use dls_core::{Param, Technique};
    let cols = [
        Param::P,
        Param::N,
        Param::R,
        Param::H,
        Param::Mu,
        Param::Sigma,
        Param::F,
        Param::L,
        Param::M,
    ];
    let names = ["p", "n", "r", "h", "mu", "sigma", "f", "l", "m"];
    let mut rows = Vec::new();
    for t in Technique::hagerup_set() {
        let req = t.required_params();
        let mut row = vec![t.name().to_string()];
        row.extend(cols.iter().map(
            |c| {
                if req.contains(c) {
                    "X".to_string()
                } else {
                    "".to_string()
                }
            },
        ));
        rows.push(row);
    }
    let mut headers = vec!["DLS"];
    headers.extend(names);
    println!("{}", report::format_table(&headers, &rows));
}

fn cmd_tss(fig: &str, o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    use dls_repro::reference::TSS_PES;
    use dls_repro::tss_exp::{run_experiment_resilient, ContentionModel, TssExperiment};
    // No journal (one deterministic run per cell), but the shared cancel
    // flag still stops a long `repro all` promptly.
    let ctx = ExecContext::transient().with_cancel_flag(global_cancel_flag());
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
    println!("{fig}: speedup vs number of PEs (original values digitized from the publication)");
    println!("{}", report::format_table(&headers, &body));

    // ASCII rendition of the figure's (b) panel.
    let mut series: Vec<plot::Series> = Vec::new();
    for row in &rows {
        match series.iter_mut().find(|s| s.label == row.label) {
            Some(s) => s.points.push((row.p as f64, row.simulated)),
            None => series.push(plot::Series {
                label: row.label.clone(),
                points: vec![(row.p as f64, row.simulated)],
            }),
        }
    }
    println!("{}", plot::render(&series, plot::Scale::Linear, 60, 16));

    if let Some(dir) = &o.csv_dir {
        write_csv(sink, dir, fig, &headers, &body)?;
    }
    Ok(())
}

fn cmd_hagerup(fig: &str, o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    let n = hagerup_exp::figure_n(fig)
        .ok_or_else(|| ReproError::usage(format!("unknown figure `{fig}`")))?;
    let mut cfg = HagerupConfig::paper(n, o.runs.unwrap_or(1000));
    cfg.threads = o.threads;
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    if let Some(p) = &o.pes {
        cfg.pes = p.clone();
    }
    if let Some(ts) = &o.techniques {
        cfg.techniques = ts.clone();
    }
    let logger = logger_for(o);
    let ctx = with_observability(exec_context(fig, cfg.fingerprint(), cfg.seed, o)?, &logger);
    eprintln!(
        "{fig}: n={n}, pes={:?}, runs={}, h={}, exp(mu=1s) — running...",
        cfg.pes, cfg.runs, cfg.h
    );
    let telemetry = telemetry_for(o);
    let rows = hagerup_exp::run_figure_resilient(&cfg, &telemetry, &ctx)?;
    report_resilience(&ctx);
    let (headers, body) = report::wasted_rows(&rows);
    println!("{fig}: sample mean of the average wasted time over {} runs", cfg.runs);
    println!("{}", report::format_table(&headers, &body));

    // ASCII rendition of the figure's (b) panel: log-y wasted time vs p.
    let mut series: Vec<plot::Series> = Vec::new();
    for row in &rows {
        match series.iter_mut().find(|s| s.label == row.technique) {
            Some(s) => s.points.push((row.p as f64, row.msgsim)),
            None => series.push(plot::Series {
                label: row.technique.clone(),
                points: vec![(row.p as f64, row.msgsim)],
            }),
        }
    }
    println!("{}", plot::render(&series, plot::Scale::Log10, 60, 16));
    let max_rel = hagerup_exp::max_relative_discrepancy_excluding_outlier(&rows);
    let bound = reference::PAPER_DISCREPANCY_BOUNDS
        .iter()
        .find(|(bn, _)| *bn == n)
        .map(|(_, b)| *b)
        .unwrap_or(f64::NAN);
    println!(
        "max |relative discrepancy| excluding FAC@2PEs: {max_rel:.2} % \
         (paper reported <= {bound} % vs the original publication)"
    );
    if let Some(dir) = &o.csv_dir {
        write_csv(sink, dir, fig, &headers, &body)?;
    }
    if let Some(dir) = &o.trace_dir {
        let a = dls_repro::trace::trace_figure_cell(&cfg, fig)?;
        sink.soften(&format!("{dir} (trace artifacts)"), emit_trace(&a, dir))?;
    }
    emit_telemetry(o, &telemetry.snapshot(), sink)?;
    emit_log(o, &logger, sink)?;
    Ok(())
}

fn cmd_fig9(o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    let mut cfg = OutlierConfig::paper(o.runs.unwrap_or(1000));
    cfg.threads = o.threads;
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    eprintln!("fig9: FAC, p=2, n={}, runs={} — running...", cfg.n, cfg.runs);
    let a = outlier::run_outlier(&cfg, reference::fig9::OUTLIER_THRESHOLD)?;
    println!("fig9: average wasted time per run (FAC, 2 PEs, {} tasks)", cfg.n);
    println!("{}", report::outlier_summary(&a));
    println!(
        "paper: {} of 1000 runs above {:.0} s; trimmed mean {:.2} s",
        reference::fig9::PAPER_OUTLIER_COUNT,
        reference::fig9::OUTLIER_THRESHOLD,
        reference::fig9::PAPER_TRIMMED_MEAN
    );
    if let Some(dir) = &o.csv_dir {
        let rows: Vec<Vec<String>> = a
            .per_run
            .iter()
            .enumerate()
            .map(|(i, w)| vec![i.to_string(), format!("{w:.3}")])
            .collect();
        write_csv(sink, dir, "fig9", &["run", "avg_wasted_s"], &rows)?;
    }
    Ok(())
}

fn cmd_spec(o: &Options) -> Result<(), ReproError> {
    use dls_core::Technique;
    use dls_platform::{LinkSpec, Platform};
    use dls_workload::Workload;
    let dir = o.csv_dir.clone().unwrap_or_else(|| "specs".into());
    std::fs::create_dir_all(&dir).map_err(|e| ReproError::io(format!("{dir}: {e}")))?;
    let mut specs: Vec<ExperimentSpec> = Vec::new();
    for exp in [tss_exp::TssExperiment::Exp1, tss_exp::TssExperiment::Exp2] {
        let (id, artifact) = match exp {
            tss_exp::TssExperiment::Exp1 => ("fig3", "Figure 3"),
            tss_exp::TssExperiment::Exp2 => ("fig4", "Figure 4"),
        };
        specs.push(ExperimentSpec {
            id: id.into(),
            artifact: artifact.into(),
            workload: Workload::constant(exp.n(), exp.task_time()),
            techniques: exp.techniques(80).into_iter().map(|(_, t)| t).collect(),
            platform: Platform::homogeneous_star("pe", 80, 1.0, LinkSpec::fast()),
            runs: 1,
            measured: MeasuredValue::Speedup,
            overhead: OverheadSpec::None,
            seed: 0,
        });
    }
    for (fig, n) in [("fig5", 1_024u64), ("fig6", 8_192), ("fig7", 65_536), ("fig8", 524_288)] {
        specs.push(ExperimentSpec {
            id: fig.into(),
            artifact: format!("Figure {}", &fig[3..]),
            workload: Workload::exponential(n, 1.0)?,
            techniques: Technique::hagerup_set().to_vec(),
            platform: Platform::homogeneous_star("pe", 1024, 1.0, LinkSpec::negligible()),
            runs: o.runs.unwrap_or(1000),
            measured: MeasuredValue::AverageWastedTime,
            overhead: OverheadSpec::PostHocTotal { h: 0.5 },
            seed: o.seed.unwrap_or(0x20170529 ^ n),
        });
    }
    specs.push(ExperimentSpec {
        id: "fig9".into(),
        artifact: "Figure 9".into(),
        workload: Workload::exponential(524_288, 1.0)?,
        techniques: vec![Technique::Fac],
        platform: Platform::homogeneous_star("pe", 2, 1.0, LinkSpec::negligible()),
        runs: o.runs.unwrap_or(1000),
        measured: MeasuredValue::PerRunWastedTime,
        overhead: OverheadSpec::PostHocTotal { h: 0.5 },
        seed: o.seed.unwrap_or(0xF169),
    });
    for s in &specs {
        let path = std::path::Path::new(&dir).join(format!("{}.json", s.id));
        journal::write_artifact(&path, s.to_json().as_bytes())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_sweep(o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    use dls_repro::sweep::{run_sweep_resilient, winners, SweepConfig};
    let mut cfg = SweepConfig::default();
    if let Some(runs) = o.runs {
        cfg.runs = runs;
    }
    if let Some(p) = &o.pes {
        cfg.pes = p.clone();
    }
    if let Some(ts) = &o.techniques {
        cfg.techniques = ts.clone();
    }
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    cfg.threads = o.threads;
    let logger = logger_for(o);
    let ctx = with_observability(exec_context("sweep", cfg.fingerprint(), cfg.seed, o)?, &logger);
    eprintln!(
        "sweep: ns={:?}, pes={:?}, {} families x {} techniques, runs={}...",
        cfg.ns,
        cfg.pes,
        cfg.families.len(),
        cfg.techniques.len(),
        cfg.runs
    );
    let telemetry = telemetry_for(o);
    let rows = run_sweep_resilient(&cfg, &telemetry, &ctx)?;
    report_resilience(&ctx);
    let (headers, body) = dls_repro::sweep::table_rows(&rows);
    println!("{}", report::format_table(&headers, &body));
    println!("winners (lowest mean wasted time per workload family):");
    for (n, p, w, t, v) in winners(&rows) {
        println!("  n={n} p={p} {w:<12} -> {t} ({v:.3} s)");
    }
    if let Some(dir) = &o.csv_dir {
        write_csv(sink, dir, "sweep", &headers, &body)?;
    }
    if let Some(dir) = &o.trace_dir {
        let a = dls_repro::trace::trace_sweep_cell(&cfg)?;
        sink.soften(&format!("{dir} (trace artifacts)"), emit_trace(&a, dir))?;
    }
    emit_telemetry(o, &telemetry.snapshot(), sink)?;
    emit_log(o, &logger, sink)?;
    Ok(())
}

fn cmd_faults(o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    use dls_repro::faults::{self, FaultScenario, FaultSweepConfig};
    let mut cfg = FaultSweepConfig::default();
    if let Some(runs) = o.runs {
        cfg.runs = runs;
    }
    if let Some(p) = &o.pes {
        let &[p] = p.as_slice() else {
            return Err(ReproError::usage("faults takes a single --pes value"));
        };
        cfg.p = p;
        cfg.scenarios = faults::default_scenarios(cfg.n, cfg.p);
    }
    if let Some(ts) = &o.techniques {
        cfg.techniques = ts.clone();
    }
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    cfg.threads = o.threads;
    if let Some(path) = &o.fault_plan {
        let plan = faults::load_plan(path)?;
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        cfg.scenarios = vec![FaultScenario { name, plan }];
    }
    let logger = logger_for(o);
    let ctx = with_observability(exec_context("faults", cfg.fingerprint(), cfg.seed, o)?, &logger);
    eprintln!(
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
    report_resilience(&ctx);
    let (headers, body) = faults::table_rows(&rows);
    println!("{}", report::format_table(&headers, &body));
    println!("{}", engine_summary(&telemetry.snapshot()));
    if rows.iter().any(|r| !r.all_completed) {
        return Err(ReproError::Regression("some runs did not complete all tasks".into()));
    }
    if let Some(dir) = &o.csv_dir {
        write_csv(sink, dir, "faults", &headers, &body)?;
    }
    if let Some(dir) = &o.trace_dir {
        let a = dls_repro::trace::trace_fault_cell(&cfg)?;
        sink.soften(&format!("{dir} (trace artifacts)"), emit_trace(&a, dir))?;
    }
    emit_telemetry(o, &telemetry.snapshot(), sink)?;
    emit_log(o, &logger, sink)?;
    Ok(())
}

/// `repro chaos <fig5|sweep|faults|serve>` — crash-point exhaustion of a
/// reduced journaled campaign or of the campaign service, through the one
/// crash-exhaustion routine in [`dls_repro::chaos`].
fn cmd_chaos(target: &str, o: &Options) -> Result<(), ReproError> {
    use dls_repro::chaos::{self, ChaosConfig, ChaosTarget};
    let target: ChaosTarget = target.parse().map_err(ReproError::usage)?;
    let mut cfg = ChaosConfig::new(target);
    cfg.quick = o.quick;
    cfg.runs = o.runs;
    cfg.seed = o.seed;
    if let Some(path) = &o.host_fault_plan {
        cfg.plan = Some(chaos::load_host_plan(path)?);
    }
    let name = target.name();
    let mode = if cfg.quick { "quick" } else { "full" };
    eprintln!("chaos {name}: exhausting host-I/O crash points ({mode} mode)...");
    let report = chaos::run_crash_exhaustion(&cfg, &global_cancel_flag())?;
    println!("chaos {name}: {} host-I/O crash points enumerated", report.io_ops);
    println!(
        "  passthrough pin (empty fault plan): {}",
        if report.passthrough_identical { "bit-identical to the reference" } else { "DIVERGED" }
    );
    println!(
        "  crash exhaustion: {}/{} crash points recovered byte-identically",
        report.identical_recoveries, report.io_ops
    );
    let s = &report.storm_stats;
    println!(
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
    );
    for c in &report.checks {
        println!(
            "  {}: {}",
            c.name,
            if c.passed { c.detail.clone() } else { format!("FAILED ({})", c.detail) }
        );
    }
    for m in &report.mismatches {
        eprintln!("  mismatch: {m}");
    }
    if !report.is_ok() {
        let failed = report.mismatches.len() + report.checks.iter().filter(|c| !c.passed).count();
        return Err(ReproError::Regression(format!(
            "chaos {name}: {} invariant violation(s)",
            failed.max(1)
        )));
    }
    println!("  verdict: every crash point recovered to the reference bytes");
    Ok(())
}

fn cmd_verify(o: &Options) -> Result<(), ReproError> {
    use dls_repro::verify::{require_agreement, run_verification, verdict, VerifyConfig};
    let mut cfg = VerifyConfig::default();
    if let Some(runs) = o.runs {
        cfg.runs = runs;
    }
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    if let Some(p) = &o.pes {
        cfg.pes = p.clone();
    }
    eprintln!(
        "verify: ns={:?}, pes={:?}, runs={} — shared-realization comparison...",
        cfg.ns, cfg.pes, cfg.runs
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
    println!("{}", report::format_table(&headers, &body));
    let (worst, chunks_ok) = verdict(&rows);
    println!(
        "VERDICT: max deviation {worst:.4} % across the grid; chunk streams identical: {chunks_ok}"
    );
    println!(
        "(The paper's verification had to tolerate <= 15 % against unknown-seed\n\
         published values; with identical realizations the two simulators in\n\
         this workspace must agree to DES noise, below the table's precision.)"
    );
    require_agreement(&rows)
}

/// `repro serve`: run the campaign service until interrupted (exit 130)
/// or until `--max-requests` connections were handled (exit 0).
///
/// The structured log is always on for the service (the ring bounds its
/// cost); `--log FILE` additionally dumps it as JSONL on shutdown.
fn cmd_serve(o: &Options, sink: &ArtifactSink) -> Result<(), ReproError> {
    let mut cfg = ServeConfig::from_options(o);
    if let Some(path) = &o.host_fault_plan {
        // Deterministic fault injection into the server's cache writes —
        // the operational knob behind `repro chaos serve`.
        cfg.fault_plan = Some(dls_repro::chaos::load_host_plan(path)?);
    }
    let logger = Logger::enabled();
    let server = Server::bind(&cfg, Telemetry::enabled(), logger.clone(), global_cancel_flag())?;
    eprintln!(
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
    let logged = emit_log(o, &logger, sink);
    outcome.and(logged)
}

/// `repro report <DIR>`: offline campaign analyzer — joins the journal,
/// telemetry snapshots, trace CSVs and structured logs found in `DIR`
/// into `report.md` + `report.csv`.
fn cmd_report(dir: &str, sink: &ArtifactSink) -> Result<(), ReproError> {
    let report = analyze::analyze_dir(std::path::Path::new(dir))?;
    print!("{}", report.summary());
    let md = std::path::Path::new(dir).join("report.md");
    let csv = std::path::Path::new(dir).join("report.csv");
    if sink.write(ArtifactTier::Primary, &md, report.markdown.as_bytes())? {
        println!("wrote {}", md.display());
    }
    if sink.write(ArtifactTier::Secondary, &csv, report.csv.as_bytes())? {
        println!("wrote {}", csv.display());
    }
    Ok(())
}

fn usage() -> String {
    "usage: repro <list|table2|fig3|fig3a|fig4|fig4a|fig5|fig6|fig7|fig8|fig9|spec|verify|sweep|faults|trace|report|serve|all> \
     [--runs N] [--threads N] [--seed S] [--csv DIR] [--pes a,b,c] \
     [--techniques SS,FAC2,BOLD] [--fault-plan FILE] [--trace DIR]\n\
     fig3a/fig4a: rerun figures 3/4 with the BBN GP-1000 contention model\n\
     spec:        write Figure-2 style JSON experiment specs (to --csv DIR or specs/)\n\
     faults:      fault-injection sweep (techniques x scenarios, or one\n\
                  --fault-plan FILE with a JSON FaultPlan)\n\
     trace:       repro trace <hagerup|faults|TECHNIQUE> [--seed S] [--out DIR]\n\
                  record one run; write Chrome trace_event JSON + per-PE\n\
                  timeline/utilization/chunk-size CSVs (default dir: traces/)\n\
     report:      repro report DIR — offline campaign analyzer: joins the\n\
                  journal, telemetry JSON, trace CSVs and JSONL logs found\n\
                  in DIR into DIR/report.md + DIR/report.csv\n\
     serve:       campaign-as-a-service daemon with a content-addressed\n\
                  result cache: POST {\"fig\":\"fig5\",\"runs\":8,...} to /run,\n\
                  GET /metrics (Prometheus), /metrics.json, /progress,\n\
                  /requests, /healthz, /readyz. [--addr H:P] [--cache DIR]\n\
                  [--workers N] [--queue-depth N] [--max-requests N]\n\
                  [--deadline-ms MS] (or per-request X-Deadline-Ms; expiry\n\
                  answers 504) [--read-timeout-ms MS] [--write-timeout-ms MS]\n\
                  [--max-connections N] [--host-fault-plan FILE]; corrupt\n\
                  cache entries quarantine to CACHE/quarantine/ on load\n\
     --telemetry / --telemetry-json FILE on fig5-fig8/sweep/faults/trace print or\n\
                  dump the host-side metrics registry snapshot;\n\
                  --telemetry-prom FILE dumps it in Prometheus text format\n\
     --log FILE on fig5-fig8/sweep/faults/serve writes structured JSONL\n\
                  events (cell starts, heartbeats, quarantines, requests)\n\
                  and enables progress heartbeats on stderr\n\
     --trace DIR on fig5-fig8/sweep/faults additionally records one\n\
                  representative run of the campaign\n\
     --resume DIR on fig5-fig8/sweep/faults journals completed runs\n\
                  into DIR/journal.jsonl; rerunning the same command with\n\
                  the same --resume DIR replays them (bit-identical) instead\n\
                  of re-executing — resume after Ctrl-C or a crash\n\
     --cancel-after N (testing) injects a cooperative cancellation after N\n\
                  newly executed runs, simulating a mid-campaign kill\n\
     chaos:       repro chaos <fig5|sweep|faults|serve> [--quick] [--runs N]\n\
                  [--seed S] [--host-fault-plan FILE] — simulate a hard\n\
                  crash at every host-I/O boundary of a reduced journaled\n\
                  campaign, resume each, and prove the final CSVs and\n\
                  journal are byte-identical to an uninterrupted run;\n\
                  the serve target crash-exhausts the service's cache\n\
                  writes over HTTP, storms them with seeded faults, plants\n\
                  corrupt entries the quarantine must absorb, and pins the\n\
                  504 deadline path\n\
     an option the command does not read (e.g. --log on fig9) is a\n\
                  usage error naming the option\n\
     exit codes:  0 ok / quarantined-but-completed; 2 usage; 3 host I/O;\n\
                  4 invalid spec; 5 failed check; 6 completed with\n\
                  degraded secondary artifacts; 130 interrupted"
        .into()
}

fn run(args: &[String]) -> Result<(), ReproError> {
    let Some(cmd) = args.first().cloned() else {
        return Err(ReproError::usage("missing command"));
    };
    // `trace`, `chaos` and `report` take a positional target before the
    // options (a scenario name for the first two, a directory for report).
    let (target, opt_args) = if cmd == "trace" || cmd == "chaos" || cmd == "report" {
        match args.get(1).filter(|a| !a.starts_with("--")) {
            Some(t) => (Some(t.clone()), &args[2..]),
            None => return Err(ReproError::usage(format!("{cmd} requires a target"))),
        }
    } else {
        (None, &args[1..])
    };
    let opts = parse_options(opt_args).map_err(ReproError::usage)?;
    check_options(&cmd, &opts).map_err(ReproError::usage)?;
    // Degraded secondary artifacts surface *after* a command succeeds: the
    // primary results are safe on disk, the exit code (6) still tells CI.
    let sink = ArtifactSink::new();
    let outcome = match cmd.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "table2" => {
            cmd_table2();
            Ok(())
        }
        "fig3" | "fig4" | "fig3a" | "fig4a" => cmd_tss(&cmd, &opts, &sink),
        "fig5" | "fig6" | "fig7" | "fig8" => cmd_hagerup(&cmd, &opts, &sink),
        "fig9" => cmd_fig9(&opts, &sink),
        "spec" => cmd_spec(&opts),
        "verify" => cmd_verify(&opts),
        "sweep" => cmd_sweep(&opts, &sink),
        "faults" => cmd_faults(&opts, &sink),
        "trace" => cmd_trace(target.as_deref().unwrap_or_default(), &opts, &sink),
        "chaos" => cmd_chaos(target.as_deref().unwrap_or_default(), &opts),
        "report" => cmd_report(target.as_deref().unwrap_or_default(), &sink),
        "serve" => cmd_serve(&opts, &sink),
        "all" => {
            cmd_list();
            cmd_table2();
            cmd_tss("fig3", &opts, &sink)?;
            cmd_tss("fig4", &opts, &sink)?;
            cmd_hagerup("fig5", &opts, &sink)?;
            cmd_hagerup("fig6", &opts, &sink)?;
            cmd_hagerup("fig7", &opts, &sink)?;
            cmd_hagerup("fig8", &opts, &sink)?;
            cmd_fig9(&opts, &sink)
        }
        other => Err(ReproError::usage(format!("unknown command `{other}`"))),
    };
    outcome.and_then(|()| sink.finish())
}

fn main() -> ExitCode {
    install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.is_usage() {
                eprintln!("{}", usage());
            }
            ExitCode::from(e.exit_code())
        }
    }
}

//! Resilient-execution guarantees, end to end: a campaign interrupted at
//! ~50 % and resumed from its checkpoint journal must produce results
//! bit-identical to an uninterrupted campaign, and a panicking run must be
//! quarantined without aborting or contaminating its neighbours.

use dls_suite::dls_core::Technique;
use dls_suite::dls_repro::error::ReproError;
use dls_suite::dls_repro::hagerup_exp::{run_figure_resilient, HagerupConfig};
use dls_suite::dls_repro::journal::{Journal, JournalMeta, JOURNAL_FILE};
use dls_suite::dls_repro::runner::{run_campaign_resilient_batched, ExecContext};
use dls_suite::dls_repro::sweep::{run_sweep_resilient, SweepConfig};
use dls_suite::dls_repro::{faults, report, sweep};
use dls_telemetry::Telemetry;
use std::path::{Path, PathBuf};

/// Fresh scratch directory per test (std-only; no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn meta(command: &str) -> JournalMeta {
    JournalMeta::new(command, "test", 0)
}

/// The campaign runner at width 1 (one run per claim) over a per-run
/// closure, the way the sweeps drive it.
fn campaign<T>(
    runs: u32,
    seed: u64,
    threads: usize,
    telemetry: &Telemetry,
    ctx: &ExecContext,
    cell: &str,
    f: impl Fn(u32, u64) -> T + Sync,
) -> Result<Vec<Option<T>>, ReproError>
where
    T: Send + serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    run_campaign_resilient_batched(
        runs,
        seed,
        threads,
        1,
        telemetry,
        ctx,
        cell,
        || (),
        |items, _: &mut ()| items.iter().map(|&(run, seed)| f(run, seed)).collect(),
    )
}

/// Runs `body` once transiently and once interrupted-then-resumed through a
/// journal in `dir`, returning (clean, resumed) Debug renderings — which
/// are bit-exact for `f64` fields (shortest-round-trip formatting).
fn clean_vs_resumed<T: std::fmt::Debug>(
    dir: &Path,
    command: &str,
    cancel_after: u64,
    body: impl Fn(&ExecContext) -> Result<T, ReproError>,
) -> (String, String) {
    let clean = body(&ExecContext::transient()).expect("uninterrupted campaign");

    let interrupted_ctx = ExecContext::with_journal(Journal::open(dir, &meta(command)).unwrap())
        .with_cancel_after(cancel_after);
    let err = body(&interrupted_ctx).expect_err("cancel_after must interrupt the campaign");
    assert!(
        matches!(err, ReproError::Interrupted { resume_dir: Some(_) }),
        "expected Interrupted with a resume hint, got {err:?}"
    );

    let resume_ctx = ExecContext::with_journal(Journal::open(dir, &meta(command)).unwrap());
    assert!(
        resume_ctx.journal().unwrap().resumed() > 0,
        "the interrupted campaign must have journaled completed runs"
    );
    let resumed = body(&resume_ctx).expect("resumed campaign");
    (format!("{clean:?}"), format!("{resumed:?}"))
}

#[test]
fn interrupted_figure_campaign_resumes_bit_identical() {
    let mut cfg = HagerupConfig::paper(1_024, 6);
    cfg.pes = vec![2, 8];
    cfg.techniques = vec![Technique::SS, Technique::Fac2];
    cfg.threads = 2;
    let dir = scratch("fig");
    // 12 runs total (6 per PE cell); interrupt after ~half.
    let (clean, resumed) = clean_vs_resumed(&dir, "fig5", 5, |ctx| {
        run_figure_resilient(&cfg, &Telemetry::disabled(), ctx)
    });
    assert_eq!(clean, resumed, "resumed figure rows must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_bit_identical_and_counts_skips() {
    let cfg = SweepConfig {
        ns: vec![512],
        pes: vec![4],
        techniques: vec![Technique::SS, Technique::Fac2],
        runs: 4,
        threads: 2,
        ..SweepConfig::default()
    };
    let families = cfg.families.len() as u64;
    let dir = scratch("sweep");
    let telemetry = Telemetry::enabled();
    let (clean, resumed) =
        clean_vs_resumed(&dir, "sweep", 3, |ctx| run_sweep_resilient(&cfg, &telemetry, ctx));
    assert_eq!(clean, resumed, "resumed sweep rows must be bit-identical");
    // The journal counters surface on the shared registry: the resumed
    // invocation replayed at least the 3 pre-cancellation runs, and the
    // full grid is 2 techniques x families x 4 runs per campaign.
    let snap = telemetry.snapshot();
    let journal_counters = snap.counters_with_prefix("journal.");
    let skipped = snap.counter("journal.runs_skipped").unwrap_or(0);
    let recorded = snap.counter("journal.runs_recorded").unwrap_or(0);
    assert!(!journal_counters.is_empty(), "journal.* counters must be recorded");
    assert!(skipped >= 3, "resume must skip the journaled runs (skipped={skipped})");
    assert_eq!(recorded, 2 * families * 4, "every run is journaled exactly once");
    // Every journal line is written once across both sessions: the
    // resumed session appends to the clean file the interrupted one left.
    let journal_len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
    assert_eq!(snap.counter("journal.bytes_written"), Some(journal_len));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_fault_sweep_resumes_bit_identical() {
    let cfg = faults::FaultSweepConfig {
        techniques: vec![Technique::Fac2],
        runs: 3,
        threads: 2,
        ..faults::FaultSweepConfig::default()
    };
    let dir = scratch("faults");
    let (clean, resumed) = clean_vs_resumed(&dir, "faults", 4, |ctx| {
        faults::run_fault_sweep_resilient(&cfg, &Telemetry::disabled(), ctx)
    });
    assert_eq!(clean, resumed, "resumed fault rows must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_run_is_quarantined_without_contaminating_neighbours() {
    let telemetry = Telemetry::enabled();
    let ctx = ExecContext::transient();
    let results = campaign(8, 0xC0FFEE, 2, &telemetry, &ctx, "cell", |run, seed| {
        if run == 3 {
            panic!("injected failure at run 3");
        }
        seed as f64
    })
    .expect("a panicking run must not abort the campaign");

    assert_eq!(results.len(), 8);
    assert!(results[3].is_none(), "the panicking run is excluded");
    assert_eq!(results.iter().filter(|r| r.is_some()).count(), 7);

    let quarantined = ctx.quarantined();
    assert_eq!(quarantined.len(), 1, "exactly the panicking run is quarantined");
    assert_eq!(quarantined[0].cell, "cell");
    assert_eq!(quarantined[0].run, 3);
    assert!(quarantined[0].panic_message.contains("injected failure"));
    assert_eq!(telemetry.snapshot().counter("campaign.runs_quarantined"), Some(1));
}

#[test]
fn quarantine_is_scoped_to_one_sweep_cell() {
    // Drive two journaled sweep campaigns through the same context; only
    // the second cell's run panics, and only it lands in quarantine.
    let ctx = ExecContext::transient();
    let telemetry = Telemetry::disabled();
    let healthy = campaign(4, 1, 1, &telemetry, &ctx, "healthy", |_, seed| seed).unwrap();
    let faulty = campaign(4, 1, 1, &telemetry, &ctx, "faulty", |run, seed| {
        assert!(run != 2, "boom");
        seed
    })
    .unwrap();
    assert!(healthy.iter().all(|r| r.is_some()));
    assert_eq!(faulty.iter().filter(|r| r.is_none()).count(), 1);
    let quarantined = ctx.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].cell, "faulty");
    assert_eq!(quarantined[0].run, 2);
}

#[test]
fn sweep_statistics_survive_a_quarantined_run() {
    // The public aggregation path must divide by completed runs, not
    // requested runs: compare a 4-run cell with one quarantined run against
    // the same campaign where the "panicking" run simply never ran.
    let obs = |seed: u64| sweep::SweepRunObs { wasted: seed as f64, speedup: 1.0, chunks: 10 };
    let ctx = ExecContext::transient();
    let with_panic = campaign(4, 7, 1, &Telemetry::disabled(), &ctx, "cell", |run, seed| {
        assert!(run != 1, "boom");
        obs(seed)
    })
    .unwrap();
    let completed: Vec<_> = with_panic.iter().flatten().collect();
    assert_eq!(completed.len(), 3);
    // Mean over the 3 completed observations only.
    let mean = completed.iter().map(|o| o.wasted).sum::<f64>() / completed.len() as f64;
    assert!(mean.is_finite());
}

#[test]
fn a_changed_digit_in_a_journaled_sweep_record_is_quarantined_and_recomputed() {
    let cfg = SweepConfig {
        ns: vec![512],
        pes: vec![4],
        techniques: vec![Technique::SS, Technique::Fac2],
        runs: 4,
        threads: 2,
        ..SweepConfig::default()
    };
    let csv = |ctx: &ExecContext, telemetry: &Telemetry| {
        let (headers, body) =
            sweep::table_rows(&run_sweep_resilient(&cfg, telemetry, ctx).unwrap());
        report::format_csv(&headers, &body)
    };
    let off = Telemetry::disabled();
    let clean = csv(&ExecContext::transient(), &off);
    let dir = scratch("digit");
    csv(&ExecContext::with_journal(Journal::open(&dir, &meta("sweep")).unwrap()), &off);

    // Change one digit inside the value of a mid-file record.
    let path = dir.join(JOURNAL_FILE);
    let mut lines: Vec<String> =
        std::fs::read_to_string(&path).unwrap().lines().map(String::from).collect();
    let half = lines.len() / 2;
    let mid = &mut lines[half];
    let value = mid.find("\"value\":").expect("a record line");
    let at = value + mid[value..].find(|c: char| c.is_ascii_digit()).expect("a digit");
    let digit = mid.as_bytes()[at] - b'0';
    mid.replace_range(at..=at, &((digit + 1) % 10).to_string());
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let ctx = ExecContext::with_journal(Journal::open(&dir, &meta("sweep")).unwrap());
    assert_eq!(ctx.journal().unwrap().stats().quarantined, 1);
    let telemetry = Telemetry::enabled();
    assert_eq!(csv(&ctx, &telemetry), clean, "the changed record must be recomputed, not replayed");
    assert_eq!(ctx.journal().unwrap().stats().recorded, 1, "exactly the dropped run re-executes");
    // Credited once for the whole sweep, not once per cell.
    assert_eq!(telemetry.snapshot().counter("journal.records_quarantined"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

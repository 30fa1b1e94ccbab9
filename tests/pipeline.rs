//! End-to-end reproducibility pipeline: spec files → campaigns → reports.

use dls_suite::dls_core::Technique;
use dls_suite::dls_metrics::{mean_below_threshold, SummaryStats};
use dls_suite::dls_platform::{LinkSpec, Platform};
use dls_suite::dls_repro::error::ReproError;
use dls_suite::dls_repro::hagerup_exp::{
    run_cell_series, run_figure_resilient, HagerupConfig, OracleMode, WastedRow,
};
use dls_suite::dls_repro::report;
use dls_suite::dls_repro::runner::ExecContext;
use dls_suite::dls_repro::spec::{ExperimentSpec, MeasuredValue, OverheadSpec};
use dls_suite::dls_repro::tss_exp::{run_experiment_resilient, ContentionModel, TssExperiment};
use dls_suite::dls_workload::Workload;
use dls_telemetry::Telemetry;

fn figure(cfg: &HagerupConfig) -> Result<Vec<WastedRow>, ReproError> {
    run_figure_resilient(cfg, &Telemetry::disabled(), &ExecContext::transient())
}

/// A figure-2 spec survives serialization and drives a real campaign.
#[test]
fn spec_round_trip_drives_campaign() {
    let spec = ExperimentSpec {
        id: "fig5-mini".into(),
        artifact: "Figure 5".into(),
        workload: Workload::exponential(512, 1.0).unwrap(),
        techniques: Technique::hagerup_set().to_vec(),
        platform: Platform::homogeneous_star("pe", 4, 1.0, LinkSpec::negligible()),
        runs: 5,
        measured: MeasuredValue::AverageWastedTime,
        overhead: OverheadSpec::PostHocTotal { h: 0.5 },
        seed: 1,
    };
    let revived = ExperimentSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(spec, revived);

    let cfg = HagerupConfig {
        n: revived.workload.n(),
        pes: vec![revived.platform.num_hosts()],
        runs: revived.runs,
        h: 0.5,
        mean: revived.workload.mean(),
        seed: revived.seed,
        threads: 1,
        oracle: OracleMode::SharedRealizations,
        techniques: Technique::hagerup_set().to_vec(),
        batch_width: 8,
    };
    let rows = figure(&cfg).unwrap();
    assert_eq!(rows.len(), 8);
    let (headers, body) = report::wasted_rows(&rows);
    let table = report::format_table(&headers, &body);
    for t in ["STAT", "SS", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD"] {
        assert!(table.contains(t), "table missing {t}:\n{table}");
    }
}

/// Campaigns are bit-deterministic across invocations and thread counts.
#[test]
fn campaigns_are_deterministic() {
    let cfg = |threads| HagerupConfig {
        n: 256,
        pes: vec![4],
        runs: 10,
        h: 0.5,
        mean: 1.0,
        seed: 42,
        threads,
        oracle: OracleMode::IndependentSeeds,
        techniques: Technique::hagerup_set().to_vec(),
        batch_width: 8,
    };
    let a = figure(&cfg(1)).unwrap();
    let b = figure(&cfg(4)).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.msgsim, y.msgsim, "{} differs across thread counts", x.technique);
        assert_eq!(x.replica, y.replica);
    }
}

/// The TSS experiments emit a full cross-product of techniques × PEs and
/// join every row with a digitized original.
#[test]
fn tss_experiment_shape() {
    let rows = run_experiment_resilient(
        TssExperiment::Exp2,
        LinkSpec::fast(),
        &[8, 16, 24],
        ContentionModel::none(),
        &ExecContext::transient(),
    )
    .unwrap();
    assert_eq!(rows.len(), 5 * 3);
    assert!(rows.iter().all(|r| r.reference.is_some()));
    // The CSS chunk adapts to p: it is n/p in every row.
    let css8 = rows.iter().find(|r| r.label == "CSS" && r.p == 8).unwrap();
    assert!(css8.simulated > 7.0);
}

/// Figure 9's series (here Figure 6's FAC p=2 cell) holds exactly one
/// value per run and gives a coherent trimming analysis.
#[test]
fn outlier_analysis_is_coherent() {
    let series = run_cell_series(&HagerupConfig::fac_p2(8_192, 30)).unwrap();
    let per_run: Vec<f64> = series.iter().map(|s| s.msgsim).collect();
    let stats = SummaryStats::from_slice(&per_run);
    let outliers = per_run.iter().filter(|&&w| w > 10.0).count();
    assert_eq!(per_run.len(), 30);
    let summary = report::outlier_summary(&per_run, 10.0);
    assert!(summary.contains(&format!("> 10 s:          {outliers} runs")), "{summary}");
    assert!(stats.max() >= stats.mean());
    if let Some(tm) = mean_below_threshold(&per_run, 10.0) {
        assert!(tm <= stats.mean() + 1e-9);
        assert!(tm <= 10.0);
    }
    // The Figure 9 series is what the CSV export writes: finite positives,
    // on both sides.
    assert!(series
        .iter()
        .all(|s| [s.msgsim, s.replica].iter().all(|w| w.is_finite() && *w >= 0.0)));
}

/// The registry indexes every reproducible artifact and the CLI ids are
/// unique.
#[test]
fn registry_ids_unique_and_complete() {
    use dls_suite::dls_repro::registry;
    let entries = registry::experiments();
    let mut ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), entries.len(), "duplicate registry ids");
    for fig in ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"] {
        assert!(registry::find(fig).is_some(), "missing {fig}");
    }
}

//! Ablation: what the paper *could* measure vs what this workspace can.
//!
//! The paper compared SimGrid-MSG means against Hagerup's published values
//! — produced with an unknown RNG seed, so its discrepancies mix simulator
//! differences with sampling noise. With both simulators in one workspace
//! we can separate the two:
//!
//! * `independent` oracle — different realizations (the paper's situation);
//! * `shared` oracle — identical realizations (pure simulator difference).
//!
//! The printout shows `shared` discrepancies collapsing to ~0 while
//! `independent` ones follow the 1/√runs sampling law.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_repro::hagerup_exp::{
    max_relative_discrepancy_excluding_outlier, run_figure_resilient, HagerupConfig, OracleMode,
    WastedRow,
};
use dls_repro::runner::ExecContext;
use dls_telemetry::Telemetry;
use std::time::Duration;

fn cfg(runs: u32, oracle: OracleMode) -> HagerupConfig {
    let mut c = HagerupConfig::paper(1024, runs);
    c.pes = vec![2, 8, 64];
    c.threads = 1;
    c.oracle = oracle;
    c
}

fn figure(runs: u32, oracle: OracleMode) -> Vec<WastedRow> {
    run_figure_resilient(&cfg(runs, oracle), &Telemetry::disabled(), &ExecContext::transient())
        .unwrap()
}

fn oracle_mode(c: &mut Criterion) {
    eprintln!("\n=== oracle-mode ablation (n=1024, pes 2/8/64) ===");
    eprintln!("{:>6} {:>22} {:>22}", "runs", "independent max|rel|%", "shared max|rel|%");
    for runs in [25u32, 100, 400] {
        let ind =
            max_relative_discrepancy_excluding_outlier(&figure(runs, OracleMode::IndependentSeeds));
        let shr = max_relative_discrepancy_excluding_outlier(&figure(
            runs,
            OracleMode::SharedRealizations,
        ));
        eprintln!("{runs:>6} {ind:>22.2} {shr:>22.4}");
    }

    let mut g = c.benchmark_group("ablation_oracle_mode");
    g.sample_size(10).measurement_time(Duration::from_secs(6));
    for (name, mode) in
        [("independent", OracleMode::IndependentSeeds), ("shared", OracleMode::SharedRealizations)]
    {
        g.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            b.iter(|| figure(10, mode))
        });
    }
    g.finish();
}

criterion_group!(benches, oracle_mode);
criterion_main!(benches);

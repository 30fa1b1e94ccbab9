//! Statistical equivalence of the two simulators — the formal version of
//! the paper's discrepancy analysis, using dls-metrics' two-sample tests.

use dls_suite::dls_core::Technique;
use dls_suite::dls_hagerup::DirectSimulator;
use dls_suite::dls_metrics::{ks_test, welch_t_test, OverheadModel};
use dls_suite::dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_suite::dls_platform::{LinkSpec, Platform};
use dls_suite::dls_workload::Workload;
use dls_telemetry::Telemetry;
use dls_trace::Tracer;

/// Per-run average wasted times for a (simulator, technique) campaign with
/// its own seed stream.
fn campaign(
    technique: Technique,
    n: u64,
    p: usize,
    runs: u64,
    seed_salt: u64,
    use_replica: bool,
) -> Vec<f64> {
    let overhead = OverheadModel::PostHocTotal { h: 0.5 };
    let workload = Workload::exponential(n, 1.0).unwrap();
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    let spec = SimSpec::new(technique, workload.clone(), platform).with_overhead(overhead);
    let setup = spec.loop_setup();
    let direct = DirectSimulator::new(p, overhead);
    (0..runs)
        .map(|i| {
            let tasks = workload.generate(seed_salt.wrapping_add(i * 0x9E37_79B9));
            if use_replica {
                direct.run(technique, &setup, &tasks).unwrap().average_wasted(overhead)
            } else {
                simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled())
                    .unwrap()
                    .average_wasted()
            }
        })
        .collect()
}

/// With independent seeds, msgsim and the replica draw from the *same*
/// distribution: Welch's t-test must not reject at α = 0.001 for any
/// technique. (This is the hypothesis the paper's 1,000-run comparison
/// implicitly tests.)
#[test]
fn simulators_are_statistically_indistinguishable() {
    for technique in [
        Technique::Stat,
        Technique::Gss { min_chunk: 1 },
        Technique::Tss { first: None, last: None },
        Technique::Fac2,
        Technique::Bold,
    ] {
        let a = campaign(technique, 1024, 8, 120, 1, false);
        let b = campaign(technique, 1024, 8, 120, 2, true);
        let t = welch_t_test(&a, &b);
        assert!(
            t.p_value > 0.001,
            "{technique}: Welch rejected (t = {:.2}, p = {:.5})",
            t.statistic,
            t.p_value
        );
    }
}

/// The same test distinguishes what it should: STAT and SS have wildly
/// different wasted-time distributions.
#[test]
fn tests_reject_genuinely_different_techniques() {
    let stat = campaign(Technique::Stat, 1024, 8, 60, 3, false);
    let ss = campaign(Technique::SS, 1024, 8, 60, 4, false);
    assert!(welch_t_test(&stat, &ss).p_value < 1e-9);
    assert!(ks_test(&stat, &ss).p_value < 1e-9);
}

/// FAC's p = 2 heavy tail (paper Figure 9) against FAC2: means are close
/// enough that small samples may not separate them, but the KS test sees
/// the distributional difference at moderate sample sizes.
#[test]
fn ks_detects_fac_heavy_tail() {
    let fac = campaign(Technique::Fac, 16_384, 2, 150, 5, false);
    let fac2 = campaign(Technique::Fac2, 16_384, 2, 150, 6, false);
    let ks = ks_test(&fac, &fac2);
    assert!(
        ks.p_value < 0.01,
        "KS should separate FAC's tail from FAC2 (D = {:.3}, p = {:.4})",
        ks.statistic,
        ks.p_value
    );
}

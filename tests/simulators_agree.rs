//! Cross-simulator verification: the SimGrid-MSG analog and the Hagerup
//! replica must agree when fed identical task-time realizations over a
//! zeroed network — the within-workspace analogue of the paper's
//! verification-via-reproducibility argument.

use dls_suite::dls_core::{AwfVariant, Technique};
use dls_suite::dls_hagerup::DirectSimulator;
use dls_suite::dls_metrics::OverheadModel;
use dls_suite::dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_suite::dls_platform::{LinkSpec, Platform};
use dls_suite::dls_workload::{TimeModel, Workload};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;

fn all_techniques() -> Vec<Technique> {
    vec![
        Technique::Stat,
        Technique::SS,
        Technique::Css { k: 37 },
        Technique::Fsc,
        Technique::Gss { min_chunk: 1 },
        Technique::Gss { min_chunk: 8 },
        Technique::Tss { first: None, last: None },
        Technique::Fac,
        Technique::Fac2,
        Technique::Tap { alpha: 1.3 },
        Technique::Bold,
        Technique::Wf,
        Technique::Awf { variant: AwfVariant::Batch },
        Technique::Af,
    ]
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload::constant(2_000, 1e-3),
        Workload::exponential(2_000, 1.0).unwrap(),
        Workload::new(2_000, TimeModel::Uniform { lo: 0.1, hi: 2.0 }).unwrap(),
        Workload::new(2_000, TimeModel::LinearDecreasing { first: 2.0, last: 0.1 }).unwrap(),
        Workload::new(2_000, TimeModel::Gamma { shape: 2.0, scale: 0.5 }).unwrap(),
        Workload::new(2_000, TimeModel::Bimodal { a: 0.1, b: 5.0, p_a: 0.9 }).unwrap(),
    ]
}

/// Makespans must match within DES message-latency noise (~ns per chunk).
#[test]
fn makespans_agree_across_techniques_and_workloads() {
    for p in [2usize, 7, 16] {
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        let direct = DirectSimulator::new(p, OverheadModel::None);
        for workload in workloads() {
            for technique in all_techniques() {
                let tasks = workload.generate(11);
                let spec = SimSpec::new(technique, workload.clone(), platform.clone());
                let setup = spec.loop_setup();
                let msg =
                    simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled())
                        .unwrap();
                let rep = direct.run(technique, &setup, &tasks).unwrap();
                // Adaptive schedules drift where finish-time ties break
                // differently; non-adaptive ones must agree to DES noise.
                let tol = if technique.is_adaptive() {
                    0.05 * msg.makespan.max(1.0)
                } else {
                    1e-4 * msg.makespan.max(1.0)
                };
                assert!(
                    (msg.makespan - rep.makespan).abs() <= tol,
                    "{technique} p={p} {:?}: msgsim {} vs replica {}",
                    workload.model(),
                    msg.makespan,
                    rep.makespan
                );
                if technique.is_adaptive() {
                    // Adaptive chunk sizes depend on the feedback order;
                    // ties between equal finish times break differently in
                    // the two simulators, so allow small count drift.
                    let diff = msg.chunks.abs_diff(rep.chunks);
                    assert!(
                        diff <= 1 + rep.chunks / 10,
                        "{technique} p={p}: chunk counts diverged: {} vs {}",
                        msg.chunks,
                        rep.chunks
                    );
                } else {
                    assert_eq!(msg.chunks, rep.chunks, "{technique} p={p}: chunk counts differ");
                }
            }
        }
    }
}

/// Per-worker compute times agree, not just the aggregate makespan — the
/// two simulators dispatch requests in the same availability order.
#[test]
fn per_worker_compute_agrees() {
    let p = 5;
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    let direct = DirectSimulator::new(p, OverheadModel::None);
    let workload = Workload::exponential(3_000, 1.0).unwrap();
    for technique in [Technique::Fac2, Technique::Gss { min_chunk: 1 }, Technique::Bold] {
        let tasks = workload.generate(5);
        let spec = SimSpec::new(technique, workload.clone(), platform.clone());
        let msg = simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled())
            .unwrap();
        let rep = direct.run(technique, &spec.loop_setup(), &tasks).unwrap();
        for w in 0..p {
            assert!(
                (msg.compute[w] - rep.compute[w]).abs() < 1e-3 * rep.compute[w].max(1.0),
                "{technique} worker {w}: {} vs {}",
                msg.compute[w],
                rep.compute[w]
            );
        }
    }
}

/// The wasted-time metric agrees under the Hagerup overhead accounting.
#[test]
fn wasted_time_agrees_with_posthoc_overhead() {
    let p = 8;
    let overhead = OverheadModel::PostHocTotal { h: 0.5 };
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    let direct = DirectSimulator::new(p, overhead);
    let workload = Workload::exponential(1_024, 1.0).unwrap();
    for technique in Technique::hagerup_set() {
        let tasks = workload.generate(21);
        let spec =
            SimSpec::new(technique, workload.clone(), platform.clone()).with_overhead(overhead);
        let msg = simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled())
            .unwrap()
            .average_wasted();
        let rep =
            direct.run(technique, &spec.loop_setup(), &tasks).unwrap().average_wasted(overhead);
        assert!(
            (msg - rep).abs() < 1e-3 * rep.max(1.0),
            "{technique}: msgsim {msg} vs replica {rep}"
        );
    }
}

/// Heterogeneous speeds: both simulators must scale execution identically.
#[test]
fn heterogeneous_speeds_agree() {
    let speeds = vec![1.0, 2.0, 0.5];
    let platform = Platform::weighted_star("pe", &speeds, 1.0, LinkSpec::negligible()).unwrap();
    let direct = DirectSimulator::with_speeds(speeds, OverheadModel::None);
    let workload = Workload::exponential(2_000, 0.5).unwrap();
    for technique in [Technique::SS, Technique::Wf, Technique::Fac2] {
        let tasks = workload.generate(9);
        let spec = SimSpec::new(technique, workload.clone(), platform.clone());
        let msg = simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled())
            .unwrap();
        let rep = direct.run(technique, &spec.loop_setup(), &tasks).unwrap();
        assert!(
            (msg.makespan - rep.makespan).abs() < 1e-3 * rep.makespan,
            "{technique}: {} vs {}",
            msg.makespan,
            rep.makespan
        );
    }
}

/// A non-zero network cost must show up as a positive msgsim-minus-replica
/// discrepancy (the replica has no network at all).
#[test]
fn network_cost_creates_positive_discrepancy() {
    let p = 4;
    let slow_link = LinkSpec::new(5e-3, 1e6).unwrap();
    let platform = Platform::homogeneous_star("pe", p, 1.0, slow_link);
    let direct = DirectSimulator::new(p, OverheadModel::None);
    let workload = Workload::constant(1_000, 1e-3);
    let tasks = workload.generate(0);
    let spec = SimSpec::new(Technique::SS, workload.clone(), platform);
    let msg =
        simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled()).unwrap();
    let rep = direct.run(Technique::SS, &spec.loop_setup(), &tasks).unwrap();
    assert!(
        msg.makespan > 2.0 * rep.makespan,
        "per-task messaging on a 5 ms link must dominate: {} vs {}",
        msg.makespan,
        rep.makespan
    );
}

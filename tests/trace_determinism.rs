//! Tracing is observational: an enabled [`Tracer`] must leave every
//! simulation outcome bit-identical to an untraced run, and the Chrome
//! exporter's output must stay stable for a pinned scenario.
//!
//! The first property is the tentpole guarantee of the observability
//! layer — figures produced with `--trace` are the *same* figures. The
//! golden files pin the exporter's JSON shape and the traced event streams
//! of tiny deterministic runs: the Hagerup replica's Chrome export, and
//! msgsim's full engine-plus-actor stream with and without faults (the
//! order in which actor and engine events interleave is part of what they
//! pin). Regenerate them deliberately with
//! `BLESS_GOLDEN=1 cargo test -p dls-suite --test trace_determinism`.

use dls_core::Technique;
use dls_faults::FaultPlan;
use dls_hagerup::DirectSimulator;
use dls_metrics::OverheadModel;
use dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_trace::{chrome::chrome_trace_json, TraceEvent, Tracer};
use dls_workload::Workload;

fn fig_spec(technique: Technique, n: u64, p: usize) -> SimSpec {
    let workload = Workload::exponential(n, 1.0).unwrap();
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    SimSpec::new(technique, workload, platform)
        .with_overhead(OverheadModel::PostHocTotal { h: 0.5 })
}

/// Runs `spec` with a disabled and an enabled tracer and asserts the
/// outcomes are equal in every field (SimOutcome derives PartialEq; the
/// f64s come out of the same arithmetic, so equality here means
/// bit-identity up to NaN, which no outcome contains).
fn assert_tracing_is_observational(spec: &SimSpec, seed: u64) {
    let tasks = spec.workload.generate(seed);
    let plain =
        simulate_with_tasks(spec, &tasks, &Tracer::disabled(), &Telemetry::disabled()).unwrap();
    let (tracer, recorder) = Tracer::ring(1 << 20);
    let traced = simulate_with_tasks(spec, &tasks, &tracer, &Telemetry::disabled()).unwrap();
    assert_eq!(plain, traced, "enabled tracer changed the outcome");
    assert!(
        !recorder.borrow().events().is_empty(),
        "the traced run must actually have recorded events"
    );
    // Spot-check bit-identity on the headline scalar.
    assert_eq!(plain.makespan.to_bits(), traced.makespan.to_bits());
}

#[test]
fn tracer_leaves_fig_campaign_outcomes_bit_identical() {
    // One representative per scheduling family (static, self, decreasing,
    // factoring, moment-aware): the fig5–fig8 measurement paths.
    for technique in [
        Technique::Stat,
        Technique::SS,
        Technique::Tss { first: None, last: None },
        Technique::Fac2,
        Technique::Bold,
    ] {
        assert_tracing_is_observational(&fig_spec(technique, 1_024, 4), 0xD15);
    }
}

#[test]
fn tracer_leaves_fault_recovery_outcomes_bit_identical() {
    // Fail-stop + lossy links exercise the watchdog/reassignment path, the
    // retry timers and the dead-letter handling — every traced hook in the
    // recovery machinery.
    let est = 1_024.0 / 4.0;
    let plan = FaultPlan::none().with_fail_stop(0, 0.25 * est).with_loss(0.02);
    for technique in [Technique::Fac2, Technique::SS] {
        let spec = fig_spec(technique, 1_024, 4).with_faults(plan.clone());
        assert_tracing_is_observational(&spec, 0xFA_17);
    }
}

#[test]
fn tracer_leaves_hagerup_outcomes_bit_identical() {
    let overhead = OverheadModel::InDynamics { h: 0.3 };
    let workload = Workload::exponential(2_048, 1.0).unwrap();
    let platform = Platform::homogeneous_star("pe", 8, 1.0, LinkSpec::negligible());
    for technique in [Technique::Gss { min_chunk: 1 }, Technique::Fac, Technique::Bold] {
        let spec =
            SimSpec::new(technique, workload.clone(), platform.clone()).with_overhead(overhead);
        let setup = spec.loop_setup();
        let tasks = spec.workload.generate(0xB01D);
        let sim = DirectSimulator::new(8, overhead);
        let run = |tracer: &Tracer| {
            let mut scheduler = technique.build(&setup).unwrap();
            sim.run_with_ref(scheduler.as_mut(), &tasks, tracer, &Telemetry::disabled())
        };
        let plain = run(&Tracer::disabled());
        assert_eq!(plain, sim.run(technique, &setup, &tasks).unwrap());
        let (tracer, recorder) = Tracer::ring(1 << 20);
        let traced = run(&tracer);
        assert_eq!(plain, traced, "{technique:?}: enabled tracer changed the outcome");
        assert!(!recorder.borrow().events().is_empty());
    }
}

#[test]
fn chrome_export_of_tiny_tss_run_matches_golden() {
    // 2 PEs, 8 constant 1-second tasks, h = 0.25 s in-dynamics: every
    // timestamp is an exact binary fraction, so the run — and therefore
    // the exported JSON — is reproducible to the byte on any platform.
    let overhead = OverheadModel::InDynamics { h: 0.25 };
    let workload = Workload::constant(8, 1.0);
    let platform = Platform::homogeneous_star("pe", 2, 1.0, LinkSpec::negligible());
    let technique = Technique::Tss { first: None, last: None };
    let spec = SimSpec::new(technique, workload, platform).with_overhead(overhead);
    let setup = spec.loop_setup();
    let tasks = spec.workload.generate(1);
    let (tracer, recorder) = Tracer::ring(1 << 10);
    let mut scheduler = technique.build(&setup).unwrap();
    DirectSimulator::new(2, overhead).run_with_ref(
        scheduler.as_mut(),
        &tasks,
        &tracer,
        &Telemetry::disabled(),
    );
    let json = chrome_trace_json(&recorder.borrow().to_vec(), 2, "golden-tss-2pe");
    assert_matches_golden("chrome_tss_2pe.trace.json", &json);
}

/// Compares `text` with `tests/golden/<name>`, rewriting the file first
/// when `BLESS_GOLDEN` is set.
fn assert_matches_golden(name: &str, text: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing: run once with BLESS_GOLDEN=1 to create it");
    assert_eq!(text, golden, "{name}: trace stream changed; bless deliberately if intended");
}

/// Runs `spec` on the realization of `seed` with a recording tracer and
/// returns every event, one `at kind` line each. Debug formatting keeps
/// every field, including message seq numbers, at full precision.
fn msgsim_stream(spec: &SimSpec, seed: u64) -> (Vec<TraceEvent>, String) {
    let tasks = spec.workload.generate(seed);
    let (tracer, recorder) = Tracer::ring(1 << 16);
    simulate_with_tasks(spec, &tasks, &tracer, &Telemetry::disabled()).unwrap();
    let rec = recorder.borrow();
    assert_eq!(rec.evicted(), 0, "the golden stream must be complete");
    let events = rec.to_vec();
    let text = events.iter().map(|e| format!("{:?} {:?}\n", e.at, e.kind)).collect();
    (events, text)
}

#[test]
fn msgsim_fault_free_stream_matches_golden() {
    // 3 workers, 24 half-second tasks on the figures' 1 ns link: every
    // chunk's request, work message and completion timer.
    let workload = Workload::constant(24, 0.5);
    let platform = Platform::homogeneous_star("pe", 3, 1.0, LinkSpec::negligible());
    let spec = SimSpec::new(Technique::Fac2, workload, platform)
        .with_overhead(OverheadModel::InDynamics { h: 0.25 });
    let (_, text) = msgsim_stream(&spec, 1);
    assert_matches_golden("msgsim_fault_free.trace.txt", &text);
}

#[test]
fn msgsim_recovery_stream_matches_golden() {
    // One plan with every fault kind: a fail-stop, lossy links, a
    // partition and a latency spike. The stream must reach each recovery
    // and engine fault hook, so the golden pins their interleaving.
    let workload = Workload::constant(48, 1.0);
    let platform = Platform::homogeneous_star("pe", 4, 1.0, LinkSpec::negligible());
    let plan = FaultPlan::none()
        .with_seed(11)
        .with_fail_stop(1, 3.0)
        .with_loss(0.1)
        .with_partition(2, 2.0, 6.0)
        .with_latency_spike(3, 1.0, 4.0, 0.5);
    let spec = SimSpec::new(Technique::SS, workload, platform).with_faults(plan);
    let (events, text) = msgsim_stream(&spec, 1);
    for label in [
        "master_retry",
        "worker_retry",
        "msg_dropped",
        "msg_delayed",
        "dead_letter",
        "actor_killed",
    ] {
        assert!(events.iter().any(|e| e.kind.label() == label), "scenario never reaches {label}");
    }
    assert_matches_golden("msgsim_recovery.trace.txt", &text);
}

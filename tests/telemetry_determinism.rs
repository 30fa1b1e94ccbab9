//! Telemetry is observational: an enabled [`Telemetry`] registry must
//! leave every simulation outcome bit-identical to an unmetered run.
//!
//! This is the telemetry layer's analog of `trace_determinism.rs`: the
//! registry records wall-clock spans and host-side counters, so it runs
//! strictly *outside* the virtual-time engine — figures produced with
//! `--telemetry` are the *same* figures. These tests pin that guarantee
//! for the fig5 measurement path, the fault-recovery machinery and the
//! direct (Hagerup) simulator.

use dls_core::Technique;
use dls_faults::FaultPlan;
use dls_hagerup::DirectSimulator;
use dls_metrics::OverheadModel;
use dls_msgsim::{simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::Workload;

fn fig_spec(technique: Technique, n: u64, p: usize) -> SimSpec {
    let workload = Workload::exponential(n, 1.0).unwrap();
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    SimSpec::new(technique, workload, platform)
        .with_overhead(OverheadModel::PostHocTotal { h: 0.5 })
}

/// Runs `spec` with a disabled and an enabled registry and asserts the
/// outcomes are equal in every field (SimOutcome derives PartialEq;
/// equality here means bit-identity up to NaN, which no outcome contains).
fn assert_telemetry_is_observational(spec: &SimSpec, seed: u64) {
    let tasks = spec.workload.generate(seed);
    let plain =
        simulate_with_tasks(spec, &tasks, &Tracer::disabled(), &Telemetry::disabled()).unwrap();
    let telemetry = Telemetry::enabled();
    let metered = simulate_with_tasks(spec, &tasks, &Tracer::disabled(), &telemetry).unwrap();
    assert_eq!(plain, metered, "enabled telemetry changed the outcome");
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("msgsim.simulate_calls"), Some(1));
    assert!(
        snap.counter("msgsim.events").unwrap_or(0) > 0,
        "the metered run must actually have recorded engine events"
    );
    // Spot-check bit-identity on the headline scalars.
    assert_eq!(plain.makespan.to_bits(), metered.makespan.to_bits());
    assert_eq!(plain.average_wasted().to_bits(), metered.average_wasted().to_bits());
}

#[test]
fn telemetry_leaves_fig_campaign_outcomes_bit_identical() {
    // One representative per scheduling family (static, self, decreasing,
    // factoring, moment-aware): the fig5–fig8 measurement paths.
    for technique in [
        Technique::Stat,
        Technique::SS,
        Technique::Tss { first: None, last: None },
        Technique::Fac2,
        Technique::Bold,
    ] {
        assert_telemetry_is_observational(&fig_spec(technique, 1_024, 4), 0xD15);
    }
}

#[test]
fn telemetry_leaves_fault_recovery_outcomes_bit_identical() {
    // Fail-stop + lossy links exercise the watchdog/reassignment path, the
    // retry timers and the dead-letter handling; the registry additionally
    // tallies dropped sends here, and must still not perturb the run.
    let est = 1_024.0 / 4.0;
    let plan = FaultPlan::none().with_fail_stop(0, 0.25 * est).with_loss(0.02);
    for technique in [Technique::Fac2, Technique::SS] {
        let spec = fig_spec(technique, 1_024, 4).with_faults(plan.clone());
        assert_telemetry_is_observational(&spec, 0xFA_17);
    }
}

#[test]
fn telemetry_leaves_hagerup_outcomes_bit_identical() {
    let overhead = OverheadModel::InDynamics { h: 0.3 };
    let workload = Workload::exponential(2_048, 1.0).unwrap();
    let platform = Platform::homogeneous_star("pe", 8, 1.0, LinkSpec::negligible());
    for technique in [Technique::Gss { min_chunk: 1 }, Technique::Fac, Technique::Bold] {
        let spec =
            SimSpec::new(technique, workload.clone(), platform.clone()).with_overhead(overhead);
        let setup = spec.loop_setup();
        let tasks = spec.workload.generate(0xB01D);
        let sim = DirectSimulator::new(8, overhead);
        let run = |telemetry: &Telemetry| {
            let mut scheduler = technique.build(&setup).unwrap();
            sim.run_with_ref(scheduler.as_mut(), &tasks, &Tracer::disabled(), telemetry)
        };
        let plain = run(&Telemetry::disabled());
        assert_eq!(plain, sim.run(technique, &setup, &tasks).unwrap());
        let telemetry = Telemetry::enabled();
        let metered = run(&telemetry);
        assert_eq!(plain, metered, "{technique:?}: enabled telemetry changed the outcome");
        assert_eq!(plain.makespan.to_bits(), metered.makespan.to_bits());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("hagerup.run_calls"), Some(1));
        assert_eq!(snap.counter("hagerup.chunks"), Some(metered.chunks));
    }
}

#[test]
fn tracer_and_telemetry_compose_without_perturbing_the_run() {
    // Both observability layers enabled at once — the combination the
    // `repro trace` command uses — must still be bit-identical.
    let spec = fig_spec(Technique::Fac2, 1_024, 4);
    let tasks = spec.workload.generate(0xC0);
    let plain =
        simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled()).unwrap();
    let (tracer, recorder) = Tracer::ring(1 << 20);
    let telemetry = Telemetry::enabled();
    let both = simulate_with_tasks(&spec, &tasks, &tracer, &telemetry).unwrap();
    assert_eq!(plain, both, "tracer + telemetry together changed the outcome");
    assert!(!recorder.borrow().events().is_empty());
    assert!(telemetry.snapshot().counter("msgsim.events").unwrap_or(0) > 0);
}

//! Property-based tests over the core scheduling invariants.
//!
//! For *any* loop size, PE count, technique and request order:
//! * chunks are positive and sum to exactly `n` (task conservation);
//! * the scheduler reports 0 remaining afterwards and stays exhausted;
//! * simulated makespans are bounded below by the critical path and above
//!   by the serial time (plus communication);
//! * speedup never exceeds `p`; wasted time is never negative.
//!
//! The properties sample n < 50,000 and p < 64; one deterministic test
//! checks conservation at the paper's own scale.

use dls_suite::dls_core::{drain_round_robin, LoopSetup, Technique};
use dls_suite::dls_hagerup::{BatchDirectSimulator, DirectSimulator};
use dls_suite::dls_metrics::OverheadModel;
use dls_suite::dls_msgsim::{simulate, simulate_with_tasks, SimSpec};
use dls_suite::dls_platform::{LinkSpec, Platform};
use dls_suite::dls_rng::{SplitMix64, UniformSource};
use dls_suite::dls_workload::{TimeModel, Workload};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use proptest::prelude::*;

fn technique_strategy() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Stat),
        Just(Technique::SS),
        (1u64..500).prop_map(|k| Technique::Css { k }),
        Just(Technique::Fsc),
        (1u64..100).prop_map(|min_chunk| Technique::Gss { min_chunk }),
        Just(Technique::Tss { first: None, last: None }),
        Just(Technique::Fac),
        Just(Technique::Fac2),
        (1u32..30).prop_map(|a| Technique::Tap { alpha: a as f64 / 10.0 }),
        Just(Technique::Bold),
        Just(Technique::Wf),
        Just(Technique::Af),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-robin draining conserves tasks for every technique.
    #[test]
    fn chunks_sum_to_n(
        n in 1u64..50_000,
        p in 1usize..64,
        technique in technique_strategy(),
        sigma in 0.0f64..4.0,
        h in 0.0f64..2.0,
    ) {
        let setup = LoopSetup::new(n, p).with_moments(1.0, sigma).with_overhead(h);
        let mut sched = technique.build(&setup).unwrap();
        let chunks = drain_round_robin(sched.as_mut(), p);
        prop_assert_eq!(chunks.iter().sum::<u64>(), n);
        prop_assert!(chunks.iter().all(|&c| c > 0));
        prop_assert_eq!(sched.remaining(), 0);
        prop_assert_eq!(sched.next_chunk(0), 0);
    }

    /// Conservation holds for adversarial (random) request orders too.
    #[test]
    fn chunks_sum_to_n_random_order(
        n in 1u64..20_000,
        p in 2usize..32,
        technique in technique_strategy(),
        seed in any::<u64>(),
    ) {
        let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(0.5);
        let mut sched = technique.build(&setup).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut total = 0u64;
        // Random requesting PE each time; at most n+p iterations needed.
        for _ in 0..(n + p as u64 + 8) {
            let pe = (rng.next_u01() * p as f64) as usize % p;
            let c = sched.next_chunk(pe);
            total += c;
            if sched.remaining() == 0 && c == 0 {
                break;
            }
        }
        // STAT may return 0 to an already-served PE while work remains for
        // others; finish the drain deterministically.
        for pe in 0..p {
            loop {
                let c = sched.next_chunk(pe);
                if c == 0 { break; }
                total += c;
            }
        }
        prop_assert_eq!(total, n);
    }

    /// Makespan bounds: serial/p <= makespan <= serial (for a free network,
    /// unit speeds, and work-conserving scheduling).
    #[test]
    fn makespan_bounds(
        n in 1u64..5_000,
        p in 1usize..24,
        technique in technique_strategy(),
        seed in any::<u64>(),
    ) {
        let workload = Workload::exponential(n, 1.0).unwrap();
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        let spec = SimSpec::new(technique, workload, platform);
        let out = simulate(&spec, seed).unwrap();
        let lower = out.serial_time / p as f64;
        // Generous epsilon for nanosecond message latencies.
        prop_assert!(out.makespan + 1e-6 >= lower,
            "makespan {} below critical path {}", out.makespan, lower);
        prop_assert!(out.makespan <= out.serial_time + 1.0,
            "makespan {} above serial {}", out.makespan, out.serial_time);
        prop_assert!(out.speedup() <= p as f64 + 1e-6);
        prop_assert!(out.average_wasted() >= 0.0);
    }

    /// The two simulators agree for arbitrary techniques/sizes/seeds.
    #[test]
    fn simulators_agree_property(
        n in 1u64..4_000,
        p in 1usize..24,
        technique in technique_strategy(),
        seed in any::<u64>(),
    ) {
        let workload = Workload::exponential(n, 1.0).unwrap();
        let tasks = workload.generate(seed);
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        let spec = SimSpec::new(technique, workload, platform);
        let msg = dls_suite::dls_msgsim::simulate_with_tasks(&spec, &tasks, &Tracer::disabled(), &Telemetry::disabled()).unwrap();
        let rep = DirectSimulator::new(p, OverheadModel::None)
            .run(technique, &spec.loop_setup(), &tasks)
            .unwrap();
        prop_assert!((msg.makespan - rep.makespan).abs() <= 1e-4 * rep.makespan.max(1.0),
            "{technique}: {} vs {}", msg.makespan, rep.makespan);
        prop_assert_eq!(msg.chunks, rep.chunks);
    }

    /// Workload realizations respect the declared moments (LLN bound) and
    /// are reproducible from the seed.
    #[test]
    fn workload_moments_and_determinism(
        mean in 0.1f64..10.0,
        seed in any::<u64>(),
    ) {
        let w = Workload::exponential(50_000, mean).unwrap();
        let a = w.generate(seed);
        let b = w.generate(seed);
        prop_assert_eq!(a.total(), b.total());
        let sample_mean = a.total() / a.len() as f64;
        // 50k exponential samples: SE = mean/√50k ≈ 0.45% of mean.
        prop_assert!((sample_mean - mean).abs() < 0.05 * mean,
            "sample mean {} vs {}", sample_mean, mean);
    }

    /// Decreasing-chunk techniques produce non-increasing chunk sequences
    /// under round-robin requests.
    #[test]
    fn guided_family_is_non_increasing(
        n in 100u64..50_000,
        p in 2usize..64,
    ) {
        for technique in [
            Technique::Gss { min_chunk: 1 },
            Technique::Tss { first: None, last: None },
            Technique::Fac2,
            Technique::Bold,
            Technique::Tap { alpha: 1.3 },
        ] {
            let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(0.5);
            let mut sched = technique.build(&setup).unwrap();
            let chunks = drain_round_robin(sched.as_mut(), p);
            prop_assert!(
                chunks.windows(2).all(|w| w[0] >= w[1]),
                "{technique} produced an increasing chunk pair: {:?}",
                chunks.windows(2).find(|w| w[0] < w[1])
            );
        }
    }

    /// Constant workloads have zero imbalance under STAT when p divides n:
    /// all wasted time is overhead.
    #[test]
    fn stat_perfect_balance(blocks in 1u64..200, p in 1usize..32) {
        let n = blocks * p as u64;
        let workload = Workload::constant(n, 1e-3);
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        let spec = SimSpec::new(Technique::Stat, workload, platform);
        let out = simulate(&spec, 0).unwrap();
        prop_assert!(out.average_wasted() < 1e-6, "wasted = {}", out.average_wasted());
    }

    /// TimeModel ramps hit their endpoints for any n >= 2.
    #[test]
    fn ramps_hit_endpoints(n in 2u64..10_000, a in 0.0f64..10.0, b in 0.0f64..10.0) {
        let w = Workload::new(n, TimeModel::LinearDecreasing { first: a, last: b });
        prop_assume!(w.is_ok());
        let t = w.unwrap().generate(0);
        prop_assert!((t.time(0) - a).abs() < 1e-9);
        prop_assert!((t.time((n - 1) as usize) - b).abs() < 1e-9);
    }
}

/// Task conservation at the paper's largest scale (Figure 8: n = 524,288,
/// p ∈ {2, 1024}) for every technique of the figures, through msgsim, the
/// scalar replica and the batched replica: every task is assigned exactly
/// once, and the three agree on the chunk count.
#[test]
fn paper_scale_runs_assign_every_task_once() {
    let n = 524_288;
    let workload = Workload::exponential(n, 1.0).unwrap();
    let tasks = [workload.generate(1), workload.generate(2)];
    let overhead = OverheadModel::PostHocTotal { h: 0.5 };
    for p in [2, 1024] {
        let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
        for technique in Technique::hagerup_set() {
            let spec =
                SimSpec::new(technique, workload.clone(), platform.clone()).with_overhead(overhead);
            let setup = spec.loop_setup();
            let msg =
                simulate_with_tasks(&spec, &tasks[0], &Tracer::disabled(), &Telemetry::disabled())
                    .unwrap();
            let direct =
                DirectSimulator::new(p, overhead).run(technique, &setup, &tasks[0]).unwrap();
            let batched = BatchDirectSimulator::new(p, overhead)
                .run_batch(technique, &setup, &tasks)
                .unwrap();
            assert_eq!(msg.faults.completed_tasks, n, "{technique} p={p}: msgsim");
            assert_eq!(direct.tasks_per_pe.iter().sum::<u64>(), n, "{technique} p={p}: direct");
            for lane in &batched {
                assert_eq!(lane.tasks_per_pe.iter().sum::<u64>(), n, "{technique} p={p}: batch");
            }
            assert_eq!(msg.chunks, direct.chunks, "{technique} p={p}: msgsim vs direct chunks");
            assert_eq!(batched[0].chunks, direct.chunks, "{technique} p={p}: batch vs direct");
        }
    }
}

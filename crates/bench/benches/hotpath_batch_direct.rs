//! Hot-path microbenches for the PR-10 batched direct simulator.
//!
//! Two A/Bs, mirroring `hotpath_event_queue`'s role for the event engine:
//!
//! 1. **Ready-queue layout** — the scalar simulator's `p ≤ 16` flat
//!    index-min scan against the forced `BinaryHeap` path, at the paper's
//!    PE counts. Outcomes are bit-identical by construction; only the
//!    queue bookkeeping differs.
//! 2. **Lockstep batching** — `BatchDirectSimulator::run_batch` over B
//!    seeds against B scalar `DirectSimulator::run` calls on the same
//!    realizations, at the fig5 (n=1k, p=8) and fig6 (n=8k, p=64) cell
//!    shapes. This is the microbench half of the ≥3× campaign-cell
//!    acceptance A/B (the `repro bench` cells `fig5_batch` and
//!    `fig6_batch` are the end-to-end half).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dls_core::{LoopSetup, Technique};
use dls_hagerup::{BatchDirectSimulator, DirectSimulator};
use dls_metrics::OverheadModel;
use dls_workload::{TaskTimes, Workload};
use std::time::Duration;

fn realizations(n: u64, seeds: std::ops::Range<u64>) -> Vec<TaskTimes> {
    let wl = Workload::exponential(n, 1.0).unwrap();
    seeds.map(|s| wl.generate(s)).collect()
}

/// Flat index-min scan vs forced heap, single-seed scalar runs.
fn ready_queue(c: &mut Criterion) {
    let n = 8_192u64;
    let tasks = realizations(n, 0..1).pop().unwrap();
    let mut g = c.benchmark_group("hotpath_ready_queue");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for p in [4usize, 8, 16] {
        let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(0.5);
        let sim = DirectSimulator::new(p, OverheadModel::PostHocTotal { h: 0.5 });
        let tech = Technique::Fac2;
        g.bench_with_input(BenchmarkId::new("flat", p), &p, |b, _| {
            b.iter(|| sim.run(tech, &setup, &tasks).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("heap", p), &p, |b, _| {
            b.iter(|| {
                let mut sched = tech.build(&setup).unwrap();
                sim.run_with_ref_forced_heap(sched.as_mut(), &tasks)
            })
        });
    }
    g.finish();
}

/// Lockstep batch vs seed-at-a-time scalar, at the bench-suite cell shapes.
fn batch_vs_scalar(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_batch_direct");
    g.sample_size(15).measurement_time(Duration::from_secs(4));
    let width = 16u64;
    for (label, n, p, tech) in [
        ("fig5_shape", 1_024u64, 8usize, Technique::Fac2),
        ("fig6_shape", 8_192, 64, Technique::Gss { min_chunk: 1 }),
    ] {
        let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(0.5);
        let batch = realizations(n, 0..width);
        let bsim = BatchDirectSimulator::new(p, OverheadModel::PostHocTotal { h: 0.5 });
        g.throughput(Throughput::Elements(width));
        g.bench_with_input(BenchmarkId::new("scalar", label), &(), |b, _| {
            b.iter(|| {
                batch
                    .iter()
                    .map(|t| bsim.scalar().run(tech, &setup, t).unwrap().makespan)
                    .sum::<f64>()
            })
        });
        g.bench_with_input(BenchmarkId::new("batched", label), &(), |b, _| {
            b.iter(|| {
                bsim.run_batch(tech, &setup, &batch)
                    .unwrap()
                    .iter()
                    .map(|o| o.makespan)
                    .sum::<f64>()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, ready_queue, batch_vs_scalar);
criterion_main!(benches);

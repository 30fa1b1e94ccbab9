//! Hot-path microbenches for the direct (Hagerup-replica) simulator.
//!
//! Two groups, mirroring `hotpath_event_queue`'s role for the event engine:
//!
//! 1. **Scalar ready queue** — single-seed `DirectSimulator::run` at
//!    p ∈ {2, 16, 256, 1024}, from the smallest paper PE count to the
//!    largest. Every dispatch re-keys the top of the 4-ary `QuadHeap`
//!    ready queue, so SS (one task per chunk) is queue-bound and FAC2
//!    shows the cost at the paper's chunk counts. At p > `LOCKSTEP_MAX_P` this is
//!    also what the batch dispatcher falls back to, seed by seed.
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

/// Single-seed scalar runs across the paper's PE range.
fn scalar_ready_queue(c: &mut Criterion) {
    let n = 8_192u64;
    let tasks = realizations(n, 0..1).pop().unwrap();
    let mut g = c.benchmark_group("hotpath_scalar_direct");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for p in [2usize, 16, 256, 1024] {
        let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(0.5);
        let sim = DirectSimulator::new(p, OverheadModel::PostHocTotal { h: 0.5 });
        for tech in [Technique::SS, Technique::Fac2] {
            g.bench_with_input(BenchmarkId::new(tech.name(), p), &p, |b, _| {
                b.iter(|| sim.run(tech, &setup, &tasks).unwrap())
            });
        }
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

criterion_group!(benches, scalar_ready_queue, batch_vs_scalar);
criterion_main!(benches);

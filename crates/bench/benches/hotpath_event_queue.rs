//! Hot-path microbenches for the slab-indexed event queue.
//!
//! The queue keeps small `Copy` heap nodes while event payloads live in a
//! slab. These benches pin three costs: push/pop at realistic
//! pending-population depths (a campaign holds roughly one pending event
//! per PE, so 1k and 16k bracket the paper grid and a far larger
//! deployment), the set/cancel path of cancellable timers, and the pure
//! chunk-stream computation of the techniques whose decisions feed those
//! events.
//!
//! The cancel path gets its own group because no perfbench workload
//! reaches it: only msgsim's fault-tolerant master arms cancellable
//! timers, and the benchmark's campaigns run fault-free.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dls_core::{LoopSetup, Technique};
use dls_des::{Actor, ActorId, Ctx, Engine, SimTime, TimerId};
use std::time::Duration;

/// Holds the pending-event population at a constant depth: `on_start`
/// arms `depth` timers, then every firing re-arms one timer, so each
/// processed event is exactly one pop plus one push against a heap of
/// `depth` entries.
struct DepthHolder {
    depth: u32,
    ops_left: u32,
}

impl Actor<()> for DepthHolder {
    fn on_message(&mut self, _from: ActorId, _m: (), _ctx: &mut Ctx<'_, ()>) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for k in 0..self.depth {
            ctx.set_timer(SimTime::from_nanos(1_000 + k as u64), k as u64);
        }
    }

    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
        if self.ops_left == 0 {
            ctx.stop();
            return;
        }
        self.ops_left -= 1;
        // Push far enough ahead that the population never drains.
        ctx.set_timer(SimTime::from_nanos(1_000_000 + self.depth as u64), key);
    }
}

fn queue_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath_queue_depth");
    g.sample_size(20).measurement_time(Duration::from_secs(3));

    let ops = 100_000u32;
    for depth in [1_024u32, 16_384] {
        g.throughput(Throughput::Elements(ops as u64));
        g.bench_with_input(BenchmarkId::new("push_pop", depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut eng = Engine::new();
                eng.add_actor(Box::new(DepthHolder { depth, ops_left: ops }));
                let (_, stats) = eng.run();
                stats.events
            })
        });
    }
    g.finish();
}

/// Timers armed per churn cycle; all but the earliest are cancelled.
const CHURN_BATCH: u64 = 8;

/// Each cycle arms [`CHURN_BATCH`] cancellable timers and immediately
/// cancels all but the earliest, whose firing starts the next cycle. This
/// isolates the set/cancel path (slab reuse plus tombstone bookkeeping)
/// from any simulation logic.
struct ChurnActor {
    cycles_left: u32,
    /// Reused across cycles so the storm measures the engine, not `Vec`
    /// growth in the actor.
    doomed: Vec<TimerId>,
}

impl ChurnActor {
    fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
        if self.cycles_left == 0 {
            ctx.stop();
            return;
        }
        self.cycles_left -= 1;
        self.doomed.clear();
        for k in 0..CHURN_BATCH {
            let id = ctx.set_cancellable_timer(SimTime::from_nanos(10 + k), k);
            if k > 0 {
                self.doomed.push(id);
            }
        }
        for &id in &self.doomed {
            ctx.cancel_timer(id);
        }
    }
}

impl Actor<()> for ChurnActor {
    fn on_message(&mut self, _from: ActorId, _m: (), _ctx: &mut Ctx<'_, ()>) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        self.step(ctx);
    }

    fn on_timer(&mut self, _key: u64, ctx: &mut Ctx<'_, ()>) {
        self.step(ctx);
    }
}

fn cancel_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("cancel_churn");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let cycles = 512u32;
    g.throughput(Throughput::Elements(cycles as u64 * CHURN_BATCH));
    g.bench_function(BenchmarkId::new("set_cancel", CHURN_BATCH), |b| {
        b.iter(|| {
            let mut eng = Engine::new();
            eng.add_actor(Box::new(ChurnActor { cycles_left: cycles, doomed: Vec::new() }));
            let (_, stats) = eng.run();
            stats.events
        })
    });
    g.finish();
}

fn chunk_stream(c: &mut Criterion) {
    let setup = LoopSetup::new(100_000, 16).with_moments(1.0, 1.0).with_overhead(0.5);
    let mut g = c.benchmark_group("hotpath_chunk_stream");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for t in [Technique::Gss { min_chunk: 1 }, Technique::Fac2, Technique::Bold] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                let mut sched = t.build(&setup).unwrap();
                let mut pe = 0usize;
                let mut total = 0u64;
                loop {
                    let chunk = sched.next_chunk(pe);
                    if chunk == 0 {
                        break;
                    }
                    total += chunk;
                    sched.record_completion(pe, chunk, chunk as f64);
                    pe = (pe + 1) % 16;
                }
                total
            })
        });
    }
    g.finish();
}

criterion_group!(benches, queue_depth, cancel_churn, chunk_stream);
criterion_main!(benches);

//! Ablation: raw discrete-event engine throughput.
//!
//! The 1,000-run campaigns stand on the DES hot loop (heap push/pop +
//! dispatch). This bench measures events/second for a ping-pong pair and
//! for a fan of workers, isolating engine cost from scheduling logic. The
//! `typed_vs_boxed` group runs the same hub and spokes through the boxed
//! `Engine<u32>` and through `Engine<u32, Node>` over one actor enum, so
//! the cost of the vtable call stays measured and the boxed form stays
//! exercised.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dls_des::{Actor, ActorId, Ctx, Engine, SimTime};
use std::time::Duration;

struct Pinger {
    peer: ActorId,
    remaining: u32,
}

impl Actor<u32> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        if ctx.self_id() == 0 {
            ctx.send(self.peer, SimTime::from_nanos(10), self.remaining);
        }
    }
    fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        if msg > 0 {
            ctx.send(from, SimTime::from_nanos(10), msg - 1);
        }
    }
}

/// A hub that bounces `rounds` messages to each of `n` spokes — models a
/// master with n workers (heap size = n).
struct Hub {
    spokes: usize,
    rounds: u32,
}
struct Spoke;

impl Actor<u32> for Hub {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for s in 0..self.spokes {
            ctx.send(s + 1, SimTime::from_nanos(7), self.rounds);
        }
    }
    fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        if msg > 0 {
            ctx.send(from, SimTime::from_nanos(7), msg - 1);
        }
    }
}
impl Actor<u32> for Spoke {
    fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.send(from, SimTime::from_nanos(3), msg);
    }
}

/// The hub and its spokes as one actor type, for the typed engine.
enum Node {
    Hub(Hub),
    Spoke(Spoke),
}

impl Actor<u32> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        match self {
            Node::Hub(a) => a.on_start(ctx),
            Node::Spoke(a) => a.on_start(ctx),
        }
    }
    fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        match self {
            Node::Hub(a) => a.on_message(from, msg, ctx),
            Node::Spoke(a) => a.on_message(from, msg, ctx),
        }
    }
}

fn event_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_event_engine");
    g.sample_size(20).measurement_time(Duration::from_secs(3));

    let rounds = 50_000u32;
    g.throughput(Throughput::Elements(rounds as u64 + 1));
    g.bench_function("ping_pong_50k", |b| {
        b.iter(|| {
            let mut eng = Engine::new();
            eng.add_actor(Box::new(Pinger { peer: 1, remaining: rounds }));
            eng.add_actor(Box::new(Pinger { peer: 0, remaining: rounds }));
            let (_, stats) = eng.run();
            stats.events
        })
    });

    for spokes in [8usize, 64, 512] {
        let rounds = 100u32;
        let events = (spokes as u64) * (2 * rounds as u64 + 1);
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(BenchmarkId::new("hub_fan", spokes), &spokes, |b, &n| {
            b.iter(|| {
                let mut eng = Engine::new();
                eng.add_actor(Box::new(Hub { spokes: n, rounds }));
                for _ in 0..n {
                    eng.add_actor(Box::new(Spoke));
                }
                let (_, stats) = eng.run();
                stats.events
            })
        });
    }
    g.finish();
}

fn typed_vs_boxed(c: &mut Criterion) {
    let mut g = c.benchmark_group("typed_vs_boxed");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let rounds = 100u32;
    for spokes in [64usize, 1024] {
        g.throughput(Throughput::Elements((spokes as u64) * (2 * rounds as u64 + 1)));
        g.bench_with_input(BenchmarkId::new("boxed", spokes), &spokes, |b, &n| {
            b.iter(|| {
                let mut eng: Engine<u32> = Engine::new();
                eng.add_actor(Box::new(Hub { spokes: n, rounds }));
                for _ in 0..n {
                    eng.add_actor(Box::new(Spoke));
                }
                eng.run().1.events
            })
        });
        g.bench_with_input(BenchmarkId::new("typed", spokes), &spokes, |b, &n| {
            b.iter(|| {
                let mut eng: Engine<u32, Node> = Engine::with_capacity(n + 1);
                eng.spawn(Node::Hub(Hub { spokes: n, rounds }));
                for _ in 0..n {
                    eng.spawn(Node::Spoke(Spoke));
                }
                eng.run().1.events
            })
        });
    }
    g.finish();
}

criterion_group!(benches, event_engine, typed_vs_boxed);
criterion_main!(benches);

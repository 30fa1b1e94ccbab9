//! Ablation: the BOLD reconstruction's two ingredients, separated.
//!
//! DESIGN.md §4 reconstructs BOLD as `max(factoring rate, overhead floor)`.
//! This ablation runs each ingredient alone on the Hagerup grid:
//!
//! * `fac-rate` — ⌈r/2p⌉ per request, no floor (BOLD with h = 0);
//! * `k-star`   — the overhead floor K*(r) alone;
//! * `bold`     — the combination (the shipped reconstruction);
//! * `fac2`     — batched factoring, the baseline BOLD must beat.
//!
//! The printed table shows why the combination is needed: the rate term
//! alone drowns in end-of-loop overhead at large p; the floor alone
//! over-allocates early.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dls_core::{ChunkScheduler, LoopSetup, Technique};
use dls_hagerup::DirectSimulator;
use dls_metrics::{OverheadModel, SummaryStats};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::Workload;
use std::time::Duration;

/// The overhead floor K*(r) = (2·h·r / (σ·√(2·ln p)))^(2/3) alone.
struct KStarOnly {
    p: f64,
    h: f64,
    sigma: f64,
    n: u64,
    remaining: u64,
}

impl ChunkScheduler for KStarOnly {
    fn name(&self) -> &'static str {
        "k-star"
    }
    fn remaining(&self) -> u64 {
        self.remaining
    }
    fn next_chunk(&mut self, _pe: usize) -> u64 {
        if self.remaining == 0 {
            return 0;
        }
        let r = self.remaining as f64;
        let k = if self.p < 2.0 || self.sigma <= 0.0 {
            r
        } else {
            (2.0 * self.h * r / (self.sigma * (2.0 * self.p.ln()).sqrt())).powf(2.0 / 3.0)
        };
        let c = (k.ceil() as u64).clamp(1, self.remaining);
        self.remaining -= c;
        c
    }
    fn start_time_step(&mut self) {
        self.remaining = self.n;
    }
}

fn mean_wasted(
    build: &dyn Fn(&LoopSetup) -> Box<dyn ChunkScheduler>,
    n: u64,
    p: usize,
    runs: u64,
) -> f64 {
    let h = 0.5;
    let overhead = OverheadModel::PostHocTotal { h };
    let workload = Workload::exponential(n, 1.0).unwrap();
    let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(h);
    let sim = DirectSimulator::new(p, overhead);
    let mut stats = SummaryStats::new();
    for seed in 0..runs {
        let tasks = workload.generate(seed);
        let out = sim.run_with_ref(
            build(&setup).as_mut(),
            &tasks,
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        stats.push(out.average_wasted(overhead));
    }
    stats.mean()
}

type SchedulerFactory = Box<dyn Fn(&LoopSetup) -> Box<dyn ChunkScheduler>>;

fn bold_reconstruction(c: &mut Criterion) {
    let variants: Vec<(&str, SchedulerFactory)> = vec![
        (
            "fac-rate",
            Box::new(|s: &LoopSetup| {
                let mut no_h = s.clone();
                no_h.h = 0.0;
                Technique::Bold.build(&no_h).unwrap()
            }),
        ),
        (
            "k-star",
            Box::new(|s: &LoopSetup| {
                Box::new(KStarOnly {
                    p: s.p as f64,
                    h: s.h,
                    sigma: s.sigma,
                    n: s.n,
                    remaining: s.n,
                })
            }),
        ),
        ("bold", Box::new(|s: &LoopSetup| Technique::Bold.build(s).unwrap())),
        ("fac2", Box::new(|s: &LoopSetup| Technique::Fac2.build(s).unwrap())),
    ];

    eprintln!("\n=== BOLD reconstruction ablation (n=8192, exp(mu=1s), h=0.5s, 50 runs) ===");
    eprintln!("{:<10} {:>10} {:>10} {:>10}", "variant", "p=2", "p=64", "p=1024");
    for (name, build) in &variants {
        let w: Vec<f64> =
            [2usize, 64, 1024].iter().map(|&p| mean_wasted(build, 8_192, p, 50)).collect();
        eprintln!("{:<10} {:>10.1} {:>10.1} {:>10.1}", name, w[0], w[1], w[2]);
    }

    let mut g = c.benchmark_group("ablation_bold_reconstruction");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for (name, build) in &variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), build, |b, build| {
            b.iter(|| mean_wasted(build, 8_192, 64, 3))
        });
    }
    g.finish();
}

criterion_group!(benches, bold_reconstruction);
criterion_main!(benches);

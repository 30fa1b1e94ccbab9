//! Visualize how a DLS technique carves the loop: an ASCII Gantt chart of
//! chunk assignments per worker (paper Figure 1's protocol, made visible).
//!
//! ```text
//! cargo run --release --example schedule_gantt [technique] [n] [p]
//! cargo run --release --example schedule_gantt "GSS(1)" 2000 6
//! ```

use dls_suite::dls_msgsim::simulate_with_tasks;
use dls_suite::dls_workload::Workload;
use dls_suite::prelude::*;
use dls_telemetry::Telemetry;
use dls_trace::Tracer;

fn main() {
    let mut args = std::env::args().skip(1);
    let technique: Technique =
        args.next().map(|s| s.parse().expect("unknown technique")).unwrap_or(Technique::Fac2);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);

    let workload = Workload::exponential(n, 1e-3).unwrap();
    let platform = Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible());
    let spec = SimSpec::new(technique, workload, platform);
    // Every chunk assignment, in assignment order, recorded by the tracer.
    let (tracer, chunks) = Tracer::chunks();
    let out =
        simulate_with_tasks(&spec, &spec.workload.generate(7), &tracer, &Telemetry::disabled())
            .expect("valid spec");
    let chunks = chunks.borrow();
    let trace = chunks.chunks();

    println!(
        "{technique}: {} tasks on {} workers — {} chunks, makespan {:.3} s\n",
        n, p, out.chunks, out.makespan
    );

    // Time-proportional Gantt: one row per worker, one cell per time slice.
    const WIDTH: usize = 72;
    let scale = WIDTH as f64 / out.makespan;
    for w in 0..p {
        let mut row = vec![' '; WIDTH];
        let mut glyphs = ['#', '='].iter().cycle();
        for rec in trace.iter().filter(|r| r.worker == w) {
            // Approximate the execution interval from the assignment time
            // and the chunk's expected work (count × empirical mean).
            let share = rec.count as f64 * (out.serial_time / n as f64);
            let start = (rec.at * scale) as usize;
            let len = ((share * scale).ceil() as usize).max(1);
            let g = *glyphs.next().unwrap();
            for cell in row.iter_mut().skip(start).take(len) {
                *cell = g;
            }
        }
        println!("pe-{w:<2} |{}|", row.iter().collect::<String>());
    }

    println!("\nchunk sizes in assignment order:");
    let sizes: Vec<String> = trace.iter().map(|r| r.count.to_string()).collect();
    let line = sizes.join(" ");
    if line.len() > 400 {
        println!("{} ... ({} chunks)", &line[..400], trace.len());
    } else {
        println!("{line}");
    }
}

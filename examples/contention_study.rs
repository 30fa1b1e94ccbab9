//! Why the TSS reproduction failed — and how contention explains it.
//!
//! The paper could not reproduce Figures 3a/4a of the TSS publication: its
//! SimGrid-MSG simulation (explicit master–worker parallelism) showed SS
//! and GSS(1) near-ideal, while the original BBN GP-1000 (implicit
//! parallelism over a shared loop index, lock-based GSS) degraded them
//! badly. This example runs experiment 1 three ways:
//!
//! 1. contention-free (the paper's Figure 3b),
//! 2. with the BBN GP-1000 contention model (atomic index updates serialize
//!    at ~5.5 µs; GSS's locked chunk computation at ~150 µs),
//! 3. the digitized originals (Figure 3a),
//!
//! showing that a serialized scheduling critical section is sufficient to
//! restore the original tendencies.
//!
//! ```text
//! cargo run --release --example contention_study
//! ```

use dls_suite::dls_platform::LinkSpec;
use dls_suite::dls_repro::reference::TSS_PES;
use dls_suite::dls_repro::runner::ExecContext;
use dls_suite::dls_repro::tss_exp::{run_experiment_resilient, ContentionModel, TssExperiment};

fn main() {
    let run = |contention| {
        let ctx = ExecContext::transient();
        run_experiment_resilient(TssExperiment::Exp1, LinkSpec::fast(), &TSS_PES, contention, &ctx)
            .unwrap()
    };
    let free = run(ContentionModel::none());
    let contended = run(ContentionModel::bbn_gp1000());

    println!("TSS publication experiment 1 (n=100,000, 110 µs tasks), speedup at each p:\n");
    println!(
        "{:<8} {:>4} {:>14} {:>16} {:>12}",
        "DLS", "p", "contention-free", "BBN-GP1000 model", "original"
    );
    for (f, c) in free.iter().zip(&contended) {
        assert_eq!(f.label, c.label);
        println!(
            "{:<8} {:>4} {:>14.1} {:>16.1} {:>12}",
            f.label,
            f.p,
            f.simulated,
            c.simulated,
            f.reference.map(|o| format!("{o:.1}")).unwrap_or_else(|| "-".into()),
        );
    }

    // Quantify the explanation: mean |relative error| vs the originals.
    for (name, rows) in [("contention-free", &free), ("BBN-GP1000 model", &contended)] {
        let mut err = 0.0;
        let mut count = 0;
        for r in rows.iter() {
            if let Some(orig) = r.reference {
                err += ((r.simulated - orig) / orig).abs();
                count += 1;
            }
        }
        println!(
            "\n{name}: mean |relative error| vs originals = {:.1} %",
            100.0 * err / count as f64
        );
    }
    println!(
        "\nThe serialized critical section alone recovers the original\n\
         figure's shape — supporting the paper's §VI hypothesis that the\n\
         implicit-parallelism contention SimGrid-MSG lacks caused the\n\
         failed reproduction."
    );
}

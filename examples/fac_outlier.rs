//! The FAC heavy-tail mechanism behind paper Figure 9, at reduced scale.
//!
//! FAC's moment-aware first batch covers almost all tasks when σ/µ is small
//! relative to √R: at p = 2 the two first chunks are each just under half
//! the loop. When their sums diverge by more than the leftover work can
//! absorb, the run's wasted time explodes — a rare event that dominates the
//! mean. The paper excludes these runs (trimmed mean 25.82 s); this example
//! reproduces the phenomenon and the trimming analysis on the FAC, p = 2
//! cell of the figure campaign at `n` tasks (Figure 7's cell by default,
//! Figure 9 itself at n = 524,288).
//!
//! ```text
//! cargo run --release --example fac_outlier [n] [runs]
//! ```

use dls_suite::dls_metrics::{mean_below_threshold, percentile, sort_ascending, SummaryStats};
use dls_suite::dls_repro::hagerup_exp::{run_cell_series, HagerupConfig};
use dls_suite::dls_repro::report;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(65_536);
    let runs: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);

    // Threshold scaled from the paper's 400 s at n = 524,288.
    let threshold = 400.0 * n as f64 / 524_288.0;
    let series = run_cell_series(&HagerupConfig::fac_p2(n, runs)).expect("valid configuration");
    let per_run: Vec<f64> = series.iter().map(|s| s.msgsim).collect();

    println!("FAC, p = 2, n = {n}, {runs} runs (paper Figure 9 at reduced scale)\n");
    println!("{}", report::outlier_summary(&per_run, threshold));

    let mut sorted = per_run.clone();
    sort_ascending(&mut sorted);
    println!("percentiles of the per-run average wasted time:");
    for q in [50.0, 90.0, 99.0, 100.0] {
        println!("  p{q:<5} {:>10.2} s", percentile(&sorted, q));
    }

    let mean = SummaryStats::from_slice(&per_run).mean();
    let outliers = per_run.iter().filter(|&&w| w > threshold).count();
    let tail_share = (mean - mean_below_threshold(&per_run, threshold).unwrap_or(mean))
        / mean.max(f64::MIN_POSITIVE);
    println!(
        "\n{:.1} % of the mean comes from the {} outlier run(s) — the same\n\
         heavy-tail effect the paper isolates for FAC with 2 PEs.",
        100.0 * tail_share,
        outliers
    );
}

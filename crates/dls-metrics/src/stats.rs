//! Summary statistics: Welford accumulation, percentiles, trimmed means.
//!
//! # NaN policy
//!
//! The order statistics in this module ([`percentile`], [`trimmed_mean`],
//! [`mean_below_threshold`]) **reject NaN observations with a panic**: NaN
//! has no place in an order statistic (it is unordered), and the historical
//! behaviours were inconsistent silent misclassifications — `percentile`
//! interpolated garbage, `trimmed_mean` panicked mid-sort, and
//! `mean_below_threshold` silently treated NaN as above-threshold. A
//! campaign that produces a NaN wasted time is a bug upstream and must
//! surface, not skew a figure.

/// Online mean/variance accumulator (Welford), plus min/max.
///
/// Numerically stable for the long 1,000-run campaigns of Figures 5–8 where
/// naive sum-of-squares would lose precision on wasted times spanning five
/// orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl SummaryStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        SummaryStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Builds directly from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction, Chan's formula).
    pub fn merge(&mut self, other: &SummaryStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Half-width of an approximate 95 % normal confidence interval.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

/// Percentile of a sample by linear interpolation (Hyndman–Fan type 7,
/// the default of R / NumPy). `q` in `[0, 100]`.
///
/// Panics on NaN observations (see the module-level NaN policy).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100]");
    assert!(sorted.iter().all(|x| !x.is_nan()), "percentile: NaN observation");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (q / 100.0) * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Mean after removing every observation strictly greater than `threshold`
/// (the paper's Figure 9 analysis: dropping the 15 runs above 400 s).
///
/// Panics on NaN observations (see the module-level NaN policy; previously
/// NaN was silently discarded as if it were above the threshold).
pub fn mean_below_threshold(xs: &[f64], threshold: f64) -> Option<f64> {
    assert!(xs.iter().all(|x| !x.is_nan()), "mean_below_threshold: NaN observation");
    let kept: Vec<f64> = xs.iter().copied().filter(|&x| x <= threshold).collect();
    if kept.is_empty() {
        None
    } else {
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

/// Sorts `xs` ascending under the crate's unified NaN policy: a NaN
/// observation is a diagnosable upstream bug, so it panics with the
/// documented diagnostic instead of the anonymous `partial_cmp().unwrap()`
/// a caller-side sort would produce.
pub fn sort_ascending(xs: &mut [f64]) {
    assert!(xs.iter().all(|x| !x.is_nan()), "sort_ascending: NaN observation");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
}

/// Symmetric trimmed mean: drops `trim_frac` of the mass from each tail.
///
/// Panics on NaN observations (see the module-level NaN policy).
pub fn trimmed_mean(xs: &[f64], trim_frac: f64) -> Option<f64> {
    assert!((0.0..0.5).contains(&trim_frac), "trim fraction in [0, 0.5)");
    assert!(xs.iter().all(|x| !x.is_nan()), "trimmed_mean: NaN observation");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sort_ascending(&mut sorted);
    let k = (xs.len() as f64 * trim_frac).floor() as usize;
    let kept = &sorted[k..sorted.len() - k];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_ascending_sorts_and_rejects_nan() {
        let mut xs = [3.0, -1.0, 2.5, 0.0];
        sort_ascending(&mut xs);
        assert_eq!(xs, [-1.0, 0.0, 2.5, 3.0]);
        let caught = std::panic::catch_unwind(|| {
            let mut bad = [1.0, f64::NAN];
            sort_ascending(&mut bad);
        })
        .unwrap_err();
        let msg = caught
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("sort_ascending: NaN observation"), "diagnostic named: {msg}");
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = SummaryStats::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all = SummaryStats::from_slice(&xs);
        let mut a = SummaryStats::from_slice(&xs[..37]);
        let b = SummaryStats::from_slice(&xs[37..]);
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut s = SummaryStats::from_slice(&xs);
        s.merge(&SummaryStats::new());
        assert!((s.mean() - 2.0).abs() < 1e-12);
        let mut e = SummaryStats::new();
        e.merge(&SummaryStats::from_slice(&xs));
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_defined() {
        let s = SummaryStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[42.0], 73.0), 42.0);
    }

    #[test]
    fn threshold_mean_mirrors_paper_fig9_analysis() {
        // 15 of 1000 values above 400 s get dropped; the rest average low.
        let mut xs = vec![25.0; 985];
        xs.extend(vec![600.0; 15]);
        let m = mean_below_threshold(&xs, 400.0).unwrap();
        assert!((m - 25.0).abs() < 1e-12);
        assert_eq!(mean_below_threshold(&[500.0], 400.0), None);
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let xs = [0.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 1000.0];
        let m = trimmed_mean(&xs, 0.1).unwrap();
        assert!((m - 10.0).abs() < 1e-12);
        assert_eq!(trimmed_mean(&[], 0.1), None);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn percentile_rejects_nan() {
        percentile(&[1.0, f64::NAN], 50.0);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn trimmed_mean_rejects_nan() {
        trimmed_mean(&[1.0, f64::NAN, 2.0], 0.1);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn mean_below_threshold_rejects_nan() {
        // Previously NaN was silently dropped as if above-threshold.
        mean_below_threshold(&[1.0, f64::NAN], 400.0);
    }
}

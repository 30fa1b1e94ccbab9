//! Histogram storage: fixed log-spaced buckets plus the raw observations
//! (for exact percentiles at export time).

/// Number of finite histogram buckets. Bucket `i` covers
/// `(bucket_le(i-1), bucket_le(i)]`; one extra overflow bucket catches
/// everything above [`bucket_le`]`(BUCKETS - 1)`.
pub const BUCKETS: usize = 40;

/// Hard cap on raw observations retained per histogram (per shard, and
/// again after the cross-shard merge).
///
/// The moments (`count`/`sum`/`min`/`max`/`mean`) and the log-spaced
/// buckets keep counting *every* observation forever; only the raw-sample
/// vector backing the exact percentiles is bounded, so a long-running
/// `repro serve` daemon cannot grow memory without bound. Once the cap is
/// hit, later observations are tallied in `dropped_samples` and the
/// exported percentiles become an estimate over the first
/// `MAX_SAMPLES` observations rather than the exact all-time values —
/// acceptable because every workload in this workspace either finishes
/// well under the cap (CLI campaigns) or is dominated by its steady-state
/// early distribution (the serve daemon). Bucket counts stay exact, so
/// coarse log-bucket quantiles remain available past the cap.
pub const MAX_SAMPLES: usize = 8192;

/// Lowest finite bucket upper bound, seconds (1 µs).
const BASE: f64 = 1e-6;
/// Log-spacing growth factor: four buckets per decade, so 40 buckets span
/// 1 µs … 10 ks — wider than any wall time this workspace produces.
const GROWTH: f64 = 1.778_279_410_038_922_8; // 10^(1/4)

/// Upper bound (inclusive) of finite bucket `i`, seconds.
///
/// The overflow bucket (index [`BUCKETS`]) reports `f64::INFINITY`.
pub fn bucket_le(i: usize) -> f64 {
    if i >= BUCKETS {
        f64::INFINITY
    } else {
        BASE * GROWTH.powi(i as i32)
    }
}

/// Bucket index for observation `v` (NaN must be filtered by the caller).
pub(crate) fn bucket_index(v: f64) -> usize {
    if v <= BASE {
        return 0;
    }
    // ceil(log_GROWTH(v / BASE)), then correct for log/pow rounding in
    // *both* directions. The rounding guard must also cover the overflow
    // classification: a value just below `bucket_le(BUCKETS - 1)` whose
    // `log10` rounds up past `BUCKETS` belongs in the last finite bucket,
    // not the overflow one — so walk back down from `BUCKETS` against the
    // exact bounds before accepting overflow.
    let idx = ((v / BASE).log10() * 4.0).ceil();
    let mut i = if idx < 0.0 { 0 } else { (idx as usize).min(BUCKETS) };
    while i > 0 && v <= bucket_le(i - 1) {
        i -= 1;
    }
    while i < BUCKETS && v > bucket_le(i) {
        i += 1;
    }
    i
}

/// Exact percentile (linear interpolation between closest ranks) of a
/// sorted, NaN-free sample — the same semantics as
/// `dls_metrics::percentile`, reimplemented here so the telemetry crate
/// stays dependency-free.
///
/// # Panics
/// On an empty slice or `q` outside `[0, 100]`.
pub fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100]");
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

/// [`exact_percentile`] at each of `qs` over an unsorted, NaN-free sample,
/// without sorting it: each percentile reads only its two closest ranks, so
/// only those ranks are put in place, by recursive selection around the
/// middle wanted rank (O(n log k) for k ranks, against a sort's
/// O(n log n)). Reorders `samples`; 0 for each `q` when it is empty.
///
/// The result equals `exact_percentile` over the sorted sample bit for bit:
/// a rank holds the same value either way, and the one place where two
/// equal values differ, the sign of a zero, cannot reach the interpolated
/// result for two or more samples.
///
/// # Panics
/// On a `q` outside `[0, 100]`.
pub(crate) fn select_percentiles<const K: usize>(samples: &mut [f64], qs: [f64; K]) -> [f64; K] {
    assert!(qs.iter().all(|q| (0.0..=100.0).contains(q)), "q must be in [0, 100]");
    let n = samples.len();
    if n <= 1 {
        return qs.map(|_| samples.first().copied().unwrap_or(0.0));
    }
    let rank = |q: f64| {
        let h = (q / 100.0) * (n as f64 - 1.0);
        (h.floor() as usize, h.ceil() as usize, h - h.floor())
    };
    let mut ranks: Vec<usize> = qs
        .iter()
        .flat_map(|&q| {
            let (lo, hi, _) = rank(q);
            [lo, hi]
        })
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    select_ranks(samples, 0, &ranks);
    qs.map(|q| {
        let (lo, hi, frac) = rank(q);
        samples[lo] + (samples[hi] - samples[lo]) * frac
    })
}

/// Puts each of the sorted `ranks` (indices into the slice `v` starts at
/// `offset` of) in its sorted position, and nothing else.
fn select_ranks(v: &mut [f64], offset: usize, ranks: &[usize]) {
    let Some(&pivot) = ranks.get(ranks.len() / 2) else { return };
    let (below, _, above) = v.select_nth_unstable_by(pivot - offset, |a, b| {
        a.partial_cmp(b).expect("samples are NaN-free")
    });
    select_ranks(below, offset, &ranks[..ranks.len() / 2]);
    select_ranks(above, pivot + 1, &ranks[ranks.len() / 2 + 1..]);
}

/// One histogram's shard-local state.
#[derive(Debug, Clone)]
pub(crate) struct HistData {
    pub count: u64,
    pub nan_count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Finite buckets plus one overflow bucket.
    pub buckets: Vec<u64>,
    /// Raw observations (NaN excluded) for exact percentiles at export,
    /// capped at [`MAX_SAMPLES`]; overflow is tallied in `dropped_samples`.
    pub samples: Vec<f64>,
    /// Observations not retained in `samples` because the cap was hit.
    pub dropped_samples: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            nan_count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; BUCKETS + 1],
            samples: Vec::new(),
            dropped_samples: 0,
        }
    }
}

impl HistData {
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            self.nan_count = self.nan_count.saturating_add(1);
            return;
        }
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(v);
        } else {
            self.dropped_samples = self.dropped_samples.saturating_add(1);
        }
    }

    /// Merges another shard's state into this one. The merged sample set is
    /// capped at [`MAX_SAMPLES`] too; anything over the cap moves into
    /// `dropped_samples`.
    pub fn merge(&mut self, other: &HistData) {
        self.count = self.count.saturating_add(other.count);
        self.nan_count = self.nan_count.saturating_add(other.nan_count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        let room = MAX_SAMPLES.saturating_sub(self.samples.len());
        let take = other.samples.len().min(room);
        self.samples.extend_from_slice(&other.samples[..take]);
        self.dropped_samples = self
            .dropped_samples
            .saturating_add(other.dropped_samples)
            .saturating_add((other.samples.len() - take) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_log_spaced() {
        assert!((bucket_le(0) - 1e-6).abs() < 1e-18);
        // Four buckets per decade: bound 4 is one decade up.
        assert!((bucket_le(4) / bucket_le(0) - 10.0).abs() < 1e-9);
        assert!(bucket_le(BUCKETS).is_infinite());
        for i in 1..BUCKETS {
            assert!(bucket_le(i) > bucket_le(i - 1));
        }
    }

    #[test]
    fn bucket_index_respects_bounds() {
        for i in 0..BUCKETS {
            let bound = bucket_le(i);
            assert_eq!(bucket_index(bound), i, "bound of bucket {i} must land in it");
            assert!(bucket_index(bound * 1.000001) > i || i == BUCKETS - 1);
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS);
        assert_eq!(bucket_index(1e9), BUCKETS);
    }

    /// Smallest f64 strictly greater than `v` (Rust 1.75 lacks `f64::next_up`).
    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    /// Largest f64 strictly smaller than `v`.
    fn next_down(v: f64) -> f64 {
        f64::from_bits(v.to_bits() - 1)
    }

    #[test]
    fn bucket_index_is_exact_at_every_edge() {
        for i in 0..BUCKETS {
            let bound = bucket_le(i);
            // The bound itself is inclusive: it belongs to bucket i.
            assert_eq!(bucket_index(bound), i, "le({i}) must land in bucket {i}");
            // One ulp below stays at or below bucket i (bucket i for i >= 1;
            // i == 0 also absorbs everything <= BASE).
            let lo = bucket_index(next_down(bound));
            assert!(lo <= i, "next_down(le({i})) classified above its bucket");
            if i >= 1 {
                assert_eq!(lo, i, "next_down(le({i})) must stay in bucket {i}");
            }
            // One ulp above crosses into the next bucket — including the
            // overflow bucket for the last finite edge.
            assert_eq!(
                bucket_index(next_up(bound)),
                i + 1,
                "next_up(le({i})) must land in bucket {}",
                i + 1
            );
        }
    }

    #[test]
    fn last_finite_edge_is_not_misclassified_as_overflow() {
        // Regression: the rounding guard must also apply when ceil(log10)
        // lands at or past BUCKETS. Values at and just below the last finite
        // bound belong in bucket BUCKETS-1, never the overflow bucket.
        let last = bucket_le(BUCKETS - 1);
        assert_eq!(bucket_index(last), BUCKETS - 1);
        assert_eq!(bucket_index(next_down(last)), BUCKETS - 1);
        assert_eq!(bucket_index(next_up(last)), BUCKETS);
    }

    #[test]
    fn percentile_matches_metrics_crate_semantics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exact_percentile(&xs, 0.0), 1.0);
        assert_eq!(exact_percentile(&xs, 100.0), 4.0);
        assert!((exact_percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(exact_percentile(&[42.0], 73.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        exact_percentile(&[], 50.0);
    }

    #[test]
    fn sample_retention_is_capped_with_drop_accounting() {
        let mut h = HistData::default();
        for i in 0..(MAX_SAMPLES + 100) {
            h.record(i as f64 * 1e-6);
        }
        // Moments and buckets keep counting every observation...
        assert_eq!(h.count, (MAX_SAMPLES + 100) as u64);
        assert_eq!(h.buckets.iter().sum::<u64>(), (MAX_SAMPLES + 100) as u64);
        assert_eq!(h.max, (MAX_SAMPLES + 99) as f64 * 1e-6);
        // ...while the raw-sample vector stops at the cap.
        assert_eq!(h.samples.len(), MAX_SAMPLES);
        assert_eq!(h.dropped_samples, 100);
    }

    #[test]
    fn merge_respects_the_sample_cap() {
        let mut a = HistData::default();
        let mut b = HistData::default();
        for _ in 0..(MAX_SAMPLES - 10) {
            a.record(1.0);
        }
        for _ in 0..50 {
            b.record(2.0);
        }
        a.merge(&b);
        assert_eq!(a.samples.len(), MAX_SAMPLES);
        assert_eq!(a.dropped_samples, 40, "overflow past the cap is tallied");
        assert_eq!(a.count, (MAX_SAMPLES - 10 + 50) as u64, "count is exact regardless");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = HistData::default();
        let mut b = HistData::default();
        a.record(1.0);
        a.record(f64::NAN);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.nan_count, 1);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.samples.len(), 2);
        assert_eq!(a.buckets.iter().sum::<u64>(), 2);
    }
}

//! Point-in-time aggregated view of a registry, serializable to JSON.

use crate::hist::{bucket_le, select_percentiles, HistData};
use serde::{Deserialize, Serialize};

/// One counter's merged value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Merged (summed, saturating) value across all shards.
    pub value: u64,
}

/// One gauge's merged value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last value written across all shards.
    pub value: f64,
}

/// One log-spaced bucket of a histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket, seconds. The overflow bucket
    /// exports `f64::MAX` (JSON cannot represent infinity).
    pub le: f64,
    /// Observations in the bucket.
    pub count: u64,
}

/// One histogram's merged summary: moments, sample percentiles and the
/// non-empty buckets.
///
/// Percentiles are *exact* while the raw-sample store is under
/// [`crate::MAX_SAMPLES`] observations (`dropped_samples == 0`). Past the
/// cap they are computed over the first `MAX_SAMPLES` retained samples —
/// an estimate biased toward the early distribution — while `count`,
/// `sum`, `min`, `max`, `mean` and the buckets stay exact for all
/// observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Non-NaN observations.
    pub count: u64,
    /// NaN observations (excluded from everything else).
    pub nan_count: u64,
    /// Observations not retained for percentile computation because the
    /// raw-sample cap ([`crate::MAX_SAMPLES`]) was hit. Non-zero means the
    /// percentiles below are estimates, not exact.
    #[serde(default)]
    pub dropped_samples: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Exact 10th percentile of the raw samples.
    pub p10: f64,
    /// Exact median of the raw samples.
    pub p50: f64,
    /// Exact 90th percentile of the raw samples.
    pub p90: f64,
    /// Exact 99th percentile of the raw samples.
    pub p99: f64,
    /// Non-empty buckets only, in ascending bound order.
    pub buckets: Vec<BucketCount>,
}

/// Merged view of every metric in a registry; see `Telemetry::snapshot`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// True when no metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// All counters whose name starts with `prefix`, in name order.
    /// Namespaced counter families (`journal.*`, `campaign.*`, `msgsim.*`)
    /// can be summarized as a group without enumerating every member.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| (c.name.as_str(), c.value))
            .collect()
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Pretty JSON rendering (the `--telemetry-json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot back from its JSON rendering.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid telemetry snapshot: {e}"))
    }
}

/// Builds the exported summary for one merged histogram. The percentiles
/// are selected in place in `h.samples`, which the merge copied for this
/// snapshot alone, so nothing is cloned or fully sorted.
pub(crate) fn summarize(name: &'static str, h: &mut HistData) -> HistogramSnapshot {
    let [p10, p50, p90, p99] = select_percentiles(&mut h.samples, [10.0, 50.0, 90.0, 99.0]);
    HistogramSnapshot {
        name: name.into(),
        count: h.count,
        nan_count: h.nan_count,
        dropped_samples: h.dropped_samples,
        sum: h.sum,
        min: if h.count == 0 { 0.0 } else { h.min },
        max: if h.count == 0 { 0.0 } else { h.max },
        mean: if h.count == 0 { 0.0 } else { h.sum / h.count as f64 },
        p10,
        p50,
        p90,
        p99,
        buckets: h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| BucketCount { le: bucket_le(i).min(f64::MAX), count })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::exact_percentile;

    /// The summary as it was computed before selection: clone the samples,
    /// sort them, interpolate.
    fn sorted_reference(name: &'static str, h: &HistData) -> HistogramSnapshot {
        let mut sorted = h.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are NaN-free"));
        let pct = |q: f64| if sorted.is_empty() { 0.0 } else { exact_percentile(&sorted, q) };
        let mut scratch = h.clone();
        HistogramSnapshot {
            p10: pct(10.0),
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            ..summarize(name, &mut scratch)
        }
    }

    /// Every field's bits, floats included, so `-0.0` and `0.0` differ.
    fn bits(s: &HistogramSnapshot) -> Vec<u64> {
        let mut out = vec![s.count, s.nan_count, s.dropped_samples];
        out.extend([s.sum, s.min, s.max, s.mean, s.p10, s.p50, s.p90, s.p99].map(f64::to_bits));
        out.extend(s.buckets.iter().flat_map(|b| [b.le.to_bits(), b.count]));
        out
    }

    /// A sample value from raw bits: mostly a few tied values and both
    /// zeros, otherwise any finite or infinite double (NaN is recorded
    /// apart from the samples, so it maps to a tie).
    fn sample(raw: u64) -> f64 {
        const TIES: [f64; 6] = [-0.0, 0.0, 1e-3, 1e-3, 2.5e-3, -1.0];
        match raw % 4 {
            0 | 1 => TIES[(raw >> 2) as usize % TIES.len()],
            _ => {
                let x = f64::from_bits(raw);
                if x.is_nan() {
                    TIES[0]
                } else {
                    x
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        /// Selection reproduces the sort-based summary in every field, bit
        /// for bit, on random samples full of ties and signed zeros.
        #[test]
        fn selected_percentiles_match_the_sorted_reference(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300),
        ) {
            let mut h = HistData::default();
            for &r in &raw {
                h.record(sample(r));
            }
            let want = sorted_reference("h", &h);
            let got = summarize("h", &mut h.clone());
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            proptest::prop_assert_eq!(got.name, want.name);
        }
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = summarize("empty", &mut HistData::default());
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn counters_with_prefix_selects_a_namespace() {
        let snap = Snapshot {
            counters: vec![
                CounterSnapshot { name: "campaign.runs_started".into(), value: 10 },
                CounterSnapshot { name: "journal.runs_recorded".into(), value: 4 },
                CounterSnapshot { name: "journal.runs_skipped".into(), value: 6 },
            ],
            gauges: vec![],
            histograms: vec![],
        };
        let journal = snap.counters_with_prefix("journal.");
        assert_eq!(journal, vec![("journal.runs_recorded", 4), ("journal.runs_skipped", 6)]);
        assert!(snap.counters_with_prefix("nope.").is_empty());
    }

    #[test]
    fn overflow_bucket_round_trips_through_json() {
        let mut h = HistData::default();
        h.record(1e9); // beyond the last finite bound
        let s = summarize("big", &mut h);
        assert_eq!(s.buckets.len(), 1);
        // Infinity is not representable in JSON, so the overflow bound is
        // exported as f64::MAX and must survive a round trip.
        assert_eq!(s.buckets[0].le, f64::MAX);
        let snap = Snapshot { counters: vec![], gauges: vec![], histograms: vec![s] };
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.histogram("big").unwrap().buckets[0].count, 1);
    }
}

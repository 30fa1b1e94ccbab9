//! Virtual simulation time as integer nanoseconds.

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic provided (`+`, `-`, saturating/checked variants) is closed
/// over the type. Conversions from `f64` seconds round to the nearest
/// nanosecond and saturate at the representable range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from seconds, rounding to the nearest nanosecond and
    /// saturating on overflow / negative / NaN input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            // NaN, zero and negatives all clamp to zero: durations in this
            // workspace are physically non-negative.
            return SimTime(0);
        }
        let ns = secs * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime(u64::MAX)
        } else {
            SimTime(round_half_up(ns))
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds (lossy above 2^53 ns ≈ 104 days; fine for metrics).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

/// `ns.round() as u64` for finite `0 <= ns < 2^64`, without the libm call
/// `f64::round` compiles to on the x86-64 baseline target.
///
/// Exact: below 2^53 both `i as f64` and the fraction `ns - i` are
/// representable, so the tie test sees the true fraction; from 2^52 up
/// every `f64` is already an integer and the fraction is zero. Below 2^63
/// (every simulated time in practice) the conversions are the signed ones,
/// one instruction each; the unsigned ones need a range fix-up.
#[inline]
fn round_half_up(ns: f64) -> u64 {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if ns < TWO_POW_63 {
        let i = ns as i64;
        (if ns - i as f64 >= 0.5 { i + 1 } else { i }) as u64
    } else {
        ns as u64
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime addition overflowed"))
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflowed"))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_seconds() {
        for secs in [0.0, 1.0, 110e-6, 2e-3, 0.5, 1.3e5] {
            let t = SimTime::from_secs_f64(secs);
            assert!((t.as_secs_f64() - secs).abs() < 1e-9, "secs {secs} -> {t}");
        }
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn huge_saturates() {
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a + a, b);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(SimTime::from_nanos(1)), SimTime::MAX);
        assert_eq!(SimTime::ZERO.saturating_sub(SimTime::from_nanos(1)), SimTime::ZERO);
    }

    /// The reference the fast rounding must match bit for bit.
    fn libm_round(ns: f64) -> u64 {
        ns.round() as u64
    }

    fn up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn round_half_up_matches_round_at_ties_and_neighbours() {
        let mut probes = vec![0.0, f64::MIN_POSITIVE, 0.49999999999999994, 0.5, 1.0];
        for k in [0u64, 1, 2, 7, 1_000, 123_456_789, 1 << 40, (1 << 52) - 1] {
            let tie = k as f64 + 0.5;
            probes.extend([tie, up(tie), down(tie), k as f64, up(k as f64)]);
        }
        for e in [52, 53, 63] {
            let x = 2f64.powi(e);
            probes.extend([x, up(x), down(x), down(down(x)), x - 0.5, x + 0.5, x + 1.0]);
        }
        // The largest f64 below 2^64 (2^64 itself saturates in the caller).
        probes.push(down(2f64.powi(64)));
        for ns in probes {
            assert!((0.0..2f64.powi(64)).contains(&ns), "probe {ns} out of domain");
            assert_eq!(round_half_up(ns), libm_round(ns), "ns = {ns:e} ({:#x})", ns.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        /// Random bit patterns: every finite value in `[0, 2^64)` rounds as
        /// `f64::round` does, and `from_secs_f64` agrees with the libm
        /// formulation on any input at all.
        #[test]
        fn round_half_up_matches_round_on_random_bits(bits in proptest::prelude::any::<u64>()) {
            let x = f64::from_bits(bits);
            let ns = x.abs();
            if ns < 2f64.powi(64) {
                proptest::prop_assert_eq!(round_half_up(ns), libm_round(ns));
            }
            let reference = if x.is_nan() || x <= 0.0 {
                0
            } else if x * 1e9 >= u64::MAX as f64 {
                u64::MAX
            } else {
                libm_round(x * 1e9)
            };
            proptest::prop_assert_eq!(SimTime::from_secs_f64(x).as_nanos(), reference);
        }

        /// Random ties `k + 0.5` below 2^52 and their one-ulp neighbours.
        #[test]
        fn round_half_up_matches_round_at_random_ties(k in 0u64..(1 << 52)) {
            let tie = k as f64 + 0.5;
            for ns in [tie, up(tie), down(tie)] {
                proptest::prop_assert_eq!(round_half_up(ns), libm_round(ns), "ns = {:e}", ns);
            }
        }
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }
}

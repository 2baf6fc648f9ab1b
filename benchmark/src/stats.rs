//! Order statistics the ledger reports: medians, nearest-rank percentiles,
//! quartiles by the same rule as Python's `statistics.quantiles(n=4)` (the
//! rule the acceptance procedure uses), the tail percentile a sample count
//! can support, and the quiet decile timings are reported at.

use crate::spec::Better;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a measured series.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of an unsorted series.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Share of a run's repeats that beat the value a timing is reported at.
pub const QUIET_SHARE: f64 = 0.1;

/// The value a tenth of the repeats beat: the 90th percentile of a metric
/// that is better higher, the 10th of one that is better lower, linearly
/// interpolated between ranks.
///
/// This machine is a few cores of a shared host. A neighbour slows a
/// single-threaded repeat by 25-30 % for 10-40 s at a time, so a run's
/// median says how much of the run the neighbour was awake for, and ten
/// runs of unchanged code spread 10-30 %. The quiet end of a run's repeats
/// is the program on the machine alone: over 150 s series of every train
/// workload, cut into runs of 30 s, it spreads 2-3 % (5-7 % at worst) where
/// the median spreads 3-10 % (8-31 % at worst).
pub fn quiet_decile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quiet decile of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = match better {
        Better::Higher => 1.0 - QUIET_SHARE,
        Better::Lower => QUIET_SHARE,
    };
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 for a
/// series too short to have quartiles or with a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                ((q3 - q1) / m).abs()
            }
        }
        None => 0.0,
    }
}

/// The highest of p90/p99 that still has at least ten samples beyond it;
/// `0.5` when neither has — a short series supports nothing above its
/// median.
pub fn tail_quantile(count: usize) -> f64 {
    // In integers: 100 * (1 - 0.9) is not 10 in floating point.
    [(99, 100), (9, 10)]
        .into_iter()
        .find(|&(num, den)| count - (count * num).div_ceil(den) >= 10)
        .map_or(0.5, |(num, den)| num as f64 / den as f64)
}

/// One metric's repeats: the value it is reported and gated at, and their
/// median, extremes and quartile spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median, or for a timing ([`Summary::quiet`]) the quiet decile.
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub spread: f64,
    pub count: usize,
}

impl Summary {
    /// Summarises a non-empty series, reported at its median.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: median(values),
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            spread: quartile_spread(values),
            count: values.len(),
        }
    }

    /// Summarises the repeats of a timing, reported at their quiet decile.
    pub fn quiet(values: &[f64], better: Better) -> Summary {
        Summary {
            value: quiet_decile(values, better),
            ..Summary::of(values)
        }
    }

    /// A metric measured once per run (peak memory, a deterministic loss).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// How far the reported value may sit from the true one, as a share of
    /// it: two standard errors of a median of `count` repeats (1.253 sigma /
    /// sqrt n, sigma = quartile distance / 1.349) — for a quiet decile an
    /// over-estimate, since the spread of a run's repeats is mostly the
    /// neighbour the decile leaves out. The spread itself would be the noise
    /// of a single repeat, which is not what is compared. `None` for a
    /// metric measured once: one value says nothing about how it repeats.
    pub fn noise(&self) -> Option<f64> {
        (self.count >= 2).then(|| 2.0 * 1.253 / 1.349 * self.spread / (self.count as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn quiet_decile_is_the_value_a_tenth_of_the_repeats_beat() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quiet_decile(&v, Better::Higher), 9.0);
        assert_eq!(quiet_decile(&v, Better::Lower), 1.0);
        // Interpolated between ranks, whatever the order of the series.
        assert_eq!(quiet_decile(&[3.0, 1.0, 2.0], Better::Higher), 2.8);
        assert_eq!(quiet_decile(&[3.0, 1.0, 2.0], Better::Lower), 1.2);
        assert_eq!(quiet_decile(&[7.0], Better::Lower), 7.0);
        // A neighbour awake for most of a run moves the median, not this.
        let slowed = [800.0, 600.0, 610.0, 590.0, 805.0, 600.0, 795.0, 605.0];
        assert!(quiet_decile(&slowed, Better::Higher) > 795.0);
        assert!(median(&slowed) < 610.0);
        let s = Summary::quiet(&slowed, Better::Higher);
        assert_eq!((s.median, s.count), (median(&slowed), 8));
        assert_eq!(s.value, quiet_decile(&slowed, Better::Higher));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(18_000), 0.99);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(5), 0.5);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.count), (4.0, 2.0, 9.0, 3));
        assert_eq!(s.value, 4.0);
        assert_eq!(Summary::single(3.5).spread, 0.0);
    }

    #[test]
    fn noise_shrinks_with_repeats_and_is_unknown_for_one() {
        let of = |count| Summary {
            spread: 0.2 * 1.349 / (2.0 * 1.253),
            count,
            ..Summary::single(100.0)
        };
        assert!((of(4).noise().unwrap() - 0.1).abs() < 1e-12);
        assert!((of(16).noise().unwrap() - 0.05).abs() < 1e-12);
        assert_eq!(of(1).noise(), None);
        assert_eq!(Summary::single(7.0).noise(), None);
        assert_eq!(Summary::of(&[2.0, 2.0, 2.0]).noise(), Some(0.0));
    }
}

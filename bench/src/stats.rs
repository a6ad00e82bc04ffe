//! Honest statistics for a small sandbox: medians and quartiles instead
//! of means, the highest percentile the sample count can support, and
//! the capacity-knee finder for offered-rate ladders. No dependency on
//! the Criterion shim.

/// Sort a sample ascending (wall times and rates are never NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// Median of a sample (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty sample — a median of nothing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the *exclusive* method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, so spreads
/// printed here can be compared with an outside runner's.
///
/// # Panics
/// Panics on fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    [1usize, 2, 3].map(|k| {
        // Position k(n+1)/4 on a 1-based axis, clamped into the sample.
        let num = k * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Nearest-rank percentile (`q` in percent) of a sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it — a tail percentile resting on fewer is an anecdote.
/// `None` below twenty samples (not even the median qualifies).
pub fn highest_honest_percentile(samples: u64) -> Option<f64> {
    // Per-mille integers: 100 × (1 − 0.9) is 9.999… in floating point.
    [999u64, 990, 900, 500]
        .into_iter()
        .find(|pm| samples - (samples * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Summary of one timing sample, as printed beside every `host_*` rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(percent, value)`; `None` when not even the median qualifies.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise a sample of at least two values.
    pub fn of(values: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
            p90: percentile(values, 90.0),
            tail: highest_honest_percentile(values.len() as u64)
                .map(|q| (q, percentile(values, q))),
        }
    }

    /// The wall time a `host_*` rate is computed from: the first quartile.
    ///
    /// A shared host only ever *adds* time. On the reference sandbox a
    /// neighbour's burst slows a third of a run's repetitions by half
    /// for seconds at a stretch: the median then lands in either mode
    /// (23 % spread between ten runs of one commit), the first quartile
    /// stays in the undisturbed one (9 %), and in quiet periods the two
    /// repeat equally well. A slowdown of the code moves every quantile.
    pub fn quiet(&self) -> f64 {
        self.q1
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread the benchmark contract bounds.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// One rung of an offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate of the rung (msgs/s).
    pub rate: f64,
    /// p99 match latency observed at that rate (seconds).
    pub p99: f64,
    /// The service reported a growing backlog.
    pub saturated: bool,
    /// Arrivals spilled or shed at that rate.
    pub overflow: u64,
}

/// The capacity knee of an ascending ladder: the highest rate *below the
/// first saturated rung* whose p99 meets `limit` with nothing spilled or
/// shed.
///
/// Low rungs may miss the limit without disqualifying higher ones: a
/// batching service waits for its batch threshold to fill, so p99 latency
/// falls as the offered rate rises before it explodes at saturation. Only
/// saturation ends the search.
pub fn knee(rungs: &[Rung], limit: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| !r.saturated)
        .filter(|r| r.p99 <= limit && r.overflow == 0)
        .map(|r| r.rate)
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // Two samples extrapolate inside the clamp: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn summary_reports_spread_and_only_the_tail_the_sample_supports() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!((s.n, s.p90, s.tail), (10, 9.0, None));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail, Some((90.0, 90.0)));
        assert_eq!(Summary::of(&[2.0, 2.0, 2.0]).iqr_share(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn honest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_honest_percentile(19), None);
        assert_eq!(highest_honest_percentile(20), Some(50.0));
        assert_eq!(highest_honest_percentile(99), Some(50.0));
        assert_eq!(highest_honest_percentile(100), Some(90.0));
        assert_eq!(highest_honest_percentile(1_000), Some(99.0));
        assert_eq!(highest_honest_percentile(16_000), Some(99.9));
    }

    fn rung(rate: f64, p99_us: f64, saturated: bool) -> Rung {
        Rung {
            rate,
            p99: p99_us * 1e-6,
            saturated,
            overflow: 0,
        }
    }

    #[test]
    fn knee_is_the_last_passing_rung_before_saturation() {
        let ladder = [
            rung(4e6, 169.0, false),
            rung(8e6, 103.0, false),
            rung(13e6, 77.0, false),
            rung(14e6, 1290.0, true),
            rung(15e6, 90.0, false), // past saturation: never considered
        ];
        assert_eq!(knee(&ladder, 200e-6), Some(13e6));
    }

    #[test]
    fn knee_tolerates_the_low_rate_batch_fill_hump() {
        // The lowest rungs miss the limit because batches fill slowly;
        // that must not hide the passing rungs above them.
        let ladder = [
            rung(2e6, 340.0, false),
            rung(4e6, 169.0, false),
            rung(6e6, 125.0, false),
            rung(7e6, 900.0, true),
        ];
        assert_eq!(knee(&ladder, 150e-6), Some(6e6));
    }

    #[test]
    fn knee_rejects_overflow_and_reports_none_when_nothing_passes() {
        let mut spilled = rung(5e6, 10.0, false);
        spilled.overflow = 3;
        assert_eq!(knee(&[spilled], 1.0), None);
        assert_eq!(knee(&[rung(1e6, 50.0, true)], 1.0), None);
        assert_eq!(knee(&[], 1.0), None);
    }
}

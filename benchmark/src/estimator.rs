//! The estimator every timing metric uses: repeat a fixed call list for
//! the window, report the **fastest round**, print median and quartiles
//! beside it. On this shared 2-core host the median round moved ±18 %
//! across identical runs while the fastest moved ±1 % (README, "Noise").

/// Fastest, quartiles and count of one series of per-round times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub rounds: usize,
    pub fastest: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Summarizes per-round times (any unit; lower is faster).
///
/// # Panics
///
/// Panics on an empty sample: a workload that ran no round has no result.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no rounds were measured");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, median, q3) = quartiles(&sorted);
    Summary {
        rounds: sorted.len(),
        fastest: sorted[0],
        q1,
        median,
        q3,
    }
}

/// Quartiles of a sorted sample, as Python's `statistics.quantiles(n=4)`
/// computes them (exclusive method), so the numbers printed here can be
/// compared with the acceptance script's. A single sample is its own
/// quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped into the sample.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least `q` of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50 and p95 (nearest rank) of per-call latencies in nanoseconds, as µs.
pub fn p50_p95_us(latencies_ns: &[u64]) -> (f64, f64) {
    let mut sorted: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    sorted.sort_by(f64::total_cmp);
    (nearest_rank(&sorted, 0.50), nearest_rank(&sorted, 0.95))
}

/// One timed quantity of a workload: what a round processes and how long
/// each round took.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    /// Uncompressed bytes one round of this series processes; 0 for a
    /// series of plain values (latency percentiles per round) that has no
    /// rate.
    pub bytes: u64,
    /// Seconds per round (or the plain values).
    pub secs: Vec<f64>,
}

impl Series {
    pub fn new(name: impl Into<String>, bytes: u64) -> Self {
        Series {
            name: name.into(),
            bytes,
            secs: Vec::new(),
        }
    }

    pub fn fastest(&self) -> f64 {
        summarize(&self.secs).fastest
    }

    /// Uncompressed MB (10⁶ bytes) per second of the fastest round.
    pub fn mb_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.fastest()
    }
}

/// Geometric mean over `series` of each one's fastest-round MB/s.
pub fn geomean_mb_s(series: &[Series]) -> f64 {
    let rates: Vec<f64> = series.iter().map(Series::mb_s).collect();
    cdpu_util::stats::geomean(&rates).expect("a workload has at least one series")
}

/// Repeats `f` at least `min_reps` times and until `budget_s` has passed
/// (at most 200 times) and returns the fastest run in seconds: the
/// estimator at the scale of one layer replay.
pub fn fastest_of(min_reps: usize, budget_s: f64, mut f: impl FnMut() -> f64) -> f64 {
    let start = std::time::Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps < min_reps.max(1) || (start.elapsed().as_secs_f64() < budget_s && reps < 200) {
        best = best.min(f());
        reps += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_round_and_quartiles_on_synthetic_samples() {
        // 1..=9 shuffled: python statistics.quantiles(range(1,10), n=4)
        // gives [2.5, 5.0, 7.5].
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!(s.rounds, 9);
        assert_eq!(s.fastest, 1.0);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        // quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // Two samples: exclusive method extrapolates to the ends, clamped
        // to the neighbouring pair exactly as python does.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn a_slow_outlier_moves_the_mean_not_the_fastest() {
        let quiet = summarize(&[10.0, 10.1, 10.2, 10.1]);
        let noisy = summarize(&[10.0, 10.1, 30.0, 10.1]);
        assert_eq!(quiet.fastest, noisy.fastest);
        assert!(noisy.q3 > quiet.q3);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.50), 10.0);
        assert_eq!(nearest_rank(&xs, 0.95), 19.0);
        assert_eq!(nearest_rank(&xs, 1.0), 20.0);
        assert_eq!(nearest_rank(&[7.0], 0.95), 7.0);
        assert_eq!(p50_p95_us(&[3000, 1000, 2000, 4000]), (2.0, 4.0));
    }

    #[test]
    fn series_rate_uses_the_fastest_round() {
        let mut s = Series::new("x", 2_000_000);
        s.secs = vec![0.5, 0.25, 1.0];
        assert_eq!(s.mb_s(), 8.0);
        let mut t = Series::new("y", 2_000_000);
        t.secs = vec![1.0];
        assert!((geomean_mb_s(&[s, t]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fastest_of_honours_min_reps_and_budget() {
        let mut calls = 0;
        let best = fastest_of(3, 0.0, || {
            calls += 1;
            f64::from(10 - calls)
        });
        assert_eq!((calls, best), (3, 7.0));
    }
}

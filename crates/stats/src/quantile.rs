//! Empirical quantiles and cumulative distribution functions.
//!
//! The paper reports most results as CDFs (power utilization in Fig 1,
//! job durations in Fig 7, power changes in Fig 9) and the controller
//! itself uses the 99.5th percentile of historical power increases as
//! its safety margin `Et` (§3.6). These helpers implement the common
//! "linear interpolation between closest ranks" estimator (type 7 in
//! the Hyndman–Fan taxonomy, the numpy/R default).

/// An empirical cumulative distribution function over a sample.
///
/// The sample is sorted once at construction; queries are `O(log n)`.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from a sample. Non-finite values are rejected.
    ///
    /// Returns `None` if the sample is empty or contains NaN/infinity.
    pub fn new(mut sample: Vec<f64>) -> Option<Self> {
        if sample.is_empty() || sample.iter().any(|v| !v.is_finite()) {
            return None;
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(Self { sorted: sample })
    }

    /// Number of points in the underlying sample.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed `Cdf`).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of the sample that is `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        // Index of the first element strictly greater than `x`.
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / n as f64
    }

    /// Inverse CDF: the value at quantile `q` in `[0, 1]`, with linear
    /// interpolation between order statistics.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Minimum of the sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum of the sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The sorted sample underlying this CDF.
    pub fn sorted_sample(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates the CDF on an evenly spaced grid of `points` x-values
    /// spanning `[min, max]`, returning `(x, F(x))` pairs. Useful for
    /// regenerating the paper's CDF figures as plottable series.
    pub fn grid(&self, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        let (lo, hi) = (self.min(), self.max());
        let span = hi - lo;
        (0..points)
            .map(|i| {
                let x = lo + span * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Quantile of an *already sorted* slice with linear interpolation.
///
/// `q` is clamped to `[0, 1]`. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = bracket(q, n);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The 0-based ranks of the two order statistics that bracket quantile
/// `q` (clamped to `[0, 1]`) of `n > 1` points, and the interpolation
/// weight of the upper one.
fn bracket(q: f64, n: usize) -> (usize, usize, f64) {
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// The top of a sample, kept exactly in bounded memory: enough of its
/// largest values to answer the high quantiles of the whole sample bit
/// for bit like [`quantile_sorted`] on the sorted sample.
///
/// [`TopTail::push`] keeps a value only if it is above a floor, and when
/// the buffer reaches `2 * keep` values it selects down to the top
/// `keep` and raises the floor to the least of them. Every value kept is
/// then at or above every value dropped, so the buffer always holds the
/// top of the sample (values that compare equal are interchangeable, so
/// of `-0.0` and `0.0` either sign may surface), at least `keep` values
/// of it once a prune has run, and at most `2 * keep` at any time.
#[derive(Debug, Clone)]
pub struct TopTail {
    keep: usize,
    /// The top of the sample, in no order.
    top: Vec<f64>,
    /// Values at or below this are dropped; `-inf` before the first
    /// prune.
    floor: f64,
}

impl TopTail {
    /// A tail that keeps at least the top `keep` values.
    ///
    /// # Panics
    /// If `keep` is 0.
    pub fn new(keep: usize) -> Self {
        assert!(keep > 0, "a tail must keep at least one value");
        Self {
            keep,
            top: Vec::with_capacity(2 * keep),
            floor: f64::NEG_INFINITY,
        }
    }

    /// How many of the top values of an `n`-point sample its quantile
    /// `q` (clamped to `[0, 1]`) reads: a tail that keeps this many
    /// answers every quantile at or above `q`.
    pub fn keep_for(q: f64, n: usize) -> usize {
        if n <= 1 {
            return 1;
        }
        n - bracket(q, n).0
    }

    /// Adds one value of the sample. A NaN is never above the floor and
    /// is dropped, so the caller must not count it.
    pub fn push(&mut self, v: f64) {
        if v > self.floor {
            self.top.push(v);
            if self.top.len() == 2 * self.keep {
                self.prune();
            }
        }
    }

    /// Selects the buffer down to its top `keep` values.
    fn prune(&mut self) {
        let least = self.keep - 1;
        self.top
            .select_nth_unstable_by(least, |a, b| b.partial_cmp(a).expect("a tail holds no NaN"));
        self.floor = self.top[least];
        self.top.truncate(self.keep);
    }

    /// The quantiles `qs` of the whole sample, which had `n` values
    /// pushed, each equal to [`quantile_sorted`] on the sorted sample;
    /// `None` if a quantile reads a rank below the tail.
    ///
    /// Only the order statistics the quantiles need are placed, by
    /// successive `select_nth_unstable_by` calls in rank order, each over
    /// the part of the tail above the previous rank.
    ///
    /// # Panics
    /// If `n` is 0 or less than the number of values kept.
    pub fn quantiles<const N: usize>(&mut self, n: usize, qs: [f64; N]) -> Option<[f64; N]> {
        assert!(n > 0, "quantile of empty sample");
        let kept = self.top.len();
        assert!(kept <= n, "{kept} values kept of a {n}-point sample");
        if n == 1 {
            return Some([self.top[0]; N]);
        }
        // Rank `r` of the sample is rank `r - below` of the tail.
        let below = n - kept;
        let brackets = qs.map(|q| bracket(q, n));
        if brackets.iter().any(|&(lo, _, _)| lo < below) {
            return None;
        }
        let mut ranks: Vec<usize> = brackets
            .iter()
            .flat_map(|&(lo, hi, _)| [lo - below, hi - below])
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        let tail = &mut self.top[..];
        let mut start = 0;
        for &rank in &ranks {
            tail[start..].select_nth_unstable_by(rank - start, |a, b| {
                a.partial_cmp(b).expect("a tail holds no NaN")
            });
            start = rank + 1;
        }
        Some(brackets.map(|(lo, hi, frac)| {
            let (lo, hi) = (tail[lo - below], tail[hi - below]);
            lo + (hi - lo) * frac
        }))
    }
}

/// Percentile (`p` in `[0, 100]`) of an arbitrary sample.
///
/// Returns `None` on an empty sample or non-finite values.
pub fn percentile(sample: &[f64], p: f64) -> Option<f64> {
    let cdf = Cdf::new(sample.to_vec())?;
    Some(cdf.quantile(p / 100.0))
}

/// Returns the `(value, cumulative_fraction)` step points of the
/// empirical CDF — one point per sample order statistic.
pub fn cdf_points(sample: &[f64]) -> Vec<(f64, f64)> {
    match Cdf::new(sample.to_vec()) {
        None => Vec::new(),
        Some(cdf) => {
            let n = cdf.len() as f64;
            cdf.sorted_sample()
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (i + 1) as f64 / n))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_rejects_empty_and_nan() {
        assert!(Cdf::new(vec![]).is_none());
        assert!(Cdf::new(vec![1.0, f64::NAN]).is_none());
        assert!(Cdf::new(vec![1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn cdf_eval_simple() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(9.0), 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        let cdf = Cdf::new(vec![0.0, 10.0]).unwrap();
        assert_eq!(cdf.quantile(0.0), 0.0);
        assert_eq!(cdf.quantile(0.5), 5.0);
        assert_eq!(cdf.quantile(1.0), 10.0);
    }

    #[test]
    fn quantile_of_singleton() {
        let cdf = Cdf::new(vec![7.0]).unwrap();
        assert_eq!(cdf.quantile(0.3), 7.0);
    }

    #[test]
    fn percentile_matches_quantile() {
        let sample = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&sample, 50.0), Some(3.0));
        assert_eq!(percentile(&sample, 0.0), Some(1.0));
        assert_eq!(percentile(&sample, 100.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let pts = cdf_points(&[3.0, 1.0, 2.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn grid_spans_range() {
        let cdf = Cdf::new(vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let g = cdf.grid(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0].0, 0.0);
        assert_eq!(g[4], (3.0, 1.0));
        // Monotone non-decreasing in F.
        for w in g.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn mean_min_max() {
        let cdf = Cdf::new(vec![2.0, 4.0, 6.0]).unwrap();
        assert_eq!(cdf.mean(), 4.0);
        assert_eq!(cdf.min(), 2.0);
        assert_eq!(cdf.max(), 6.0);
    }
}

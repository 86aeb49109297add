//! Empirical cumulative distribution functions, the workhorse of the
//! paper's characterization figures (Figs. 1, 5, 6, 8, 9).

/// A borrowed empirical CDF over an externally-owned **sorted** sample
/// slice. The fused characterization engine sorts one shared sample
/// buffer and hands out `CdfView`s, so a dozen figures evaluate against
/// the same memory instead of each re-collecting and re-sorting its own
/// `Vec` (use [`Cdf`] when the CDF should own its samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfView<'a> {
    sorted: &'a [f64],
}

impl<'a> CdfView<'a> {
    /// Wrap a sorted, NaN-free slice.
    pub fn from_sorted(sorted: &'a [f64]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "slice not sorted");
        CdfView { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 <= q <= 1), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty CDF")
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty CDF")
    }

    /// Evaluate the CDF at `points`, returning `(x, F(x))` pairs — the
    /// series a figure plots.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.fraction_at(x))).collect()
    }
}

/// An empirical CDF over `f64` samples (owning; see [`CdfView`] for the
/// borrowed form).
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Sorted samples.
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from unsorted samples (NaNs are rejected). The sort uses
    /// `f64::total_cmp` — robust to any future NaN leak and faster than
    /// branching on `partial_cmp`'s `Option`.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_unstable_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Borrowed view over the sorted samples.
    pub fn view(&self) -> CdfView<'_> {
        CdfView {
            sorted: &self.sorted,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_at(&self, x: f64) -> f64 {
        self.view().fraction_at(x)
    }

    /// The `q`-quantile (0 <= q <= 1), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        self.view().quantile(q)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.view().median()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.view().mean()
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.view().min()
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.view().max()
    }

    /// Evaluate the CDF at `points`, returning `(x, F(x))` pairs — the
    /// series a figure plots.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        self.view().series(points)
    }

    /// Log-spaced evaluation grid from `lo` to `hi` (inclusive), `n` points —
    /// the paper's duration CDFs use log-scale x-axes.
    pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        assert!(lo > 0.0 && hi > lo && n >= 2);
        let (l, h) = (lo.ln(), hi.ln());
        (0..n)
            .map(|i| (l + (h - l) * i as f64 / (n - 1) as f64).exp())
            .collect()
    }
}

/// Weighted CDF: fraction of total *weight* attributable to samples `<= x`.
/// Used for "GPU time by job size" style figures (Fig. 6b) and the
/// user-consumption curves (Fig. 8: fraction of users vs fraction of time).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCdf {
    /// (value, weight) sorted by value.
    entries: Vec<(f64, f64)>,
    total: f64,
}

impl WeightedCdf {
    /// Build from (value, weight) pairs; weights must be non-negative.
    pub fn new(mut entries: Vec<(f64, f64)>) -> Self {
        assert!(entries
            .iter()
            .all(|(v, w)| !v.is_nan() && *w >= 0.0 && w.is_finite()));
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = entries.iter().map(|e| e.1).sum();
        WeightedCdf { entries, total }
    }

    /// Fraction of total weight at values `<= x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for &(v, w) in &self.entries {
            if v > x {
                break;
            }
            acc += w;
        }
        acc / self.total
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Lorenz-style curve: sort entries by weight *descending* and return
    /// the cumulative weight share of the top `k` entries for each k as
    /// `(fraction_of_entries, fraction_of_weight)`. This is exactly the
    /// "CDF of users that consume the cluster resources" of Fig. 8.
    pub fn concentration_curve(&self) -> Vec<(f64, f64)> {
        let mut weights: Vec<f64> = self.entries.iter().map(|e| e.1).collect();
        weights.sort_by(|a, b| b.total_cmp(a));
        let n = weights.len();
        let mut acc = 0.0;
        weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                acc += w;
                (
                    (i + 1) as f64 / n as f64,
                    if self.total > 0.0 {
                        acc / self.total
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_and_quantiles() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(2.0), 0.5);
        assert_eq!(cdf.fraction_at(10.0), 1.0);
        assert_eq!(cdf.median(), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.quantile(0.25), 1.0);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 4.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let cdf = Cdf::new((0..100).map(|i| ((i * 37) % 100) as f64).collect());
        let grid = Cdf::log_grid(0.5, 200.0, 40);
        let series = cdf.series(&grid);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!((series.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_grid_shape() {
        let g = Cdf::log_grid(1.0, 1000.0, 4);
        assert_eq!(g.len(), 4);
        assert!((g[0] - 1.0).abs() < 1e-9);
        assert!((g[3] - 1000.0).abs() < 1e-6);
        assert!((g[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_fraction() {
        let w = WeightedCdf::new(vec![(1.0, 1.0), (8.0, 9.0)]);
        assert!((w.fraction_at(1.0) - 0.1).abs() < 1e-12);
        assert!((w.fraction_at(8.0) - 1.0).abs() < 1e-12);
        assert_eq!(w.total(), 10.0);
    }

    #[test]
    fn concentration_curve_is_lorenz_like() {
        // One heavy user (90) and nine light users (10/9 each).
        let mut entries = vec![(0.0, 90.0)];
        entries.extend((1..10).map(|i| (i as f64, 10.0 / 9.0)));
        let w = WeightedCdf::new(entries);
        let curve = w.concentration_curve();
        // Top 10% of users (1 of 10) hold 90% of the weight.
        assert!((curve[0].0 - 0.1).abs() < 1e-12);
        assert!((curve[0].1 - 0.9).abs() < 1e-12);
        let last = curve.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_fraction_is_zero() {
        let cdf = Cdf::new(vec![]);
        assert_eq!(cdf.fraction_at(5.0), 0.0);
        assert!(cdf.is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile of empty CDF")]
    fn empty_quantile_panics() {
        Cdf::new(vec![]).median();
    }
}

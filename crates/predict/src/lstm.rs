//! LSTM forecasting baseline (§4.3.2 compares GBDT against an LSTM \[11\]).
//!
//! A deliberately small but real implementation: single-layer univariate
//! LSTM with a linear head, trained by truncated BPTT with Adam, predicting
//! the series value `horizon` bins ahead of the input window (direct
//! forecasting, matching how the GBDT forecaster is evaluated).

// Index-based loops mirror the textbook gate equations.
#![allow(clippy::needless_range_loop)]

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmParams {
    pub hidden: usize,
    /// Input window length (bins).
    pub seq_len: usize,
    /// Forecast horizon (bins ahead of the window end).
    pub horizon: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    /// Cap on training windows per epoch (random subsample).
    pub max_windows: usize,
    pub seed: u64,
}

impl Default for LstmParams {
    fn default() -> Self {
        LstmParams {
            hidden: 16,
            seq_len: 48,
            horizon: 18,
            epochs: 30,
            learning_rate: 0.01,
            max_windows: 2_000,
            seed: 11,
        }
    }
}

/// Flat parameter vector with Adam state.
#[derive(Debug, Clone)]
struct AdamVec {
    w: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamVec {
    fn new(n: usize, rng: &mut ChaCha12Rng, scale: f64) -> Self {
        AdamVec {
            w: (0..n)
                .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
                .collect(),
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn step(&mut self, grads: &[f64], lr: f64, t: usize) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.w.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            self.w[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A trained LSTM forecaster.
#[derive(Debug, Clone)]
pub struct LstmForecaster {
    params: LstmParams,
    /// Input weights, gate-major: [4H] (univariate input).
    wx: AdamVec,
    /// Recurrent weights [4H x H], row-major by gate unit.
    wh: AdamVec,
    /// Gate biases [4H].
    b: AdamVec,
    /// Output head [H] + bias.
    wy: AdamVec,
    by: AdamVec,
    /// Normalization (z-score) of the training series.
    mean: f64,
    std: f64,
    steps: usize,
}

/// Preallocated forward/backward buffers, reused across every training
/// window: per-step gate activations and states live in flat
/// `[seq_len x hidden]` matrices (step `t`'s values in row `t`, the
/// previous step's state read from row `t - 1`), so the loops allocate
/// nothing — no per-timestep `clone()`s, no per-gate fresh `Vec`s.
#[derive(Debug, Default)]
struct Workspace {
    /// Gate activations, `[seq_len x h]` each.
    ig: Vec<f64>,
    fg: Vec<f64>,
    gg: Vec<f64>,
    og: Vec<f64>,
    /// Cell / hidden states per step, `[seq_len x h]`.
    cs: Vec<f64>,
    hs: Vec<f64>,
    /// Inputs per step.
    xs: Vec<f64>,
    /// Gradient accumulators.
    g_wx: Vec<f64>,
    g_wh: Vec<f64>,
    g_b: Vec<f64>,
    g_wy: Vec<f64>,
    /// BPTT carries.
    dh: Vec<f64>,
    dh_prev: Vec<f64>,
    dc: Vec<f64>,
}

impl Workspace {
    /// Buffers the forward pass touches (all inference needs).
    fn ensure_forward(&mut self, seq_len: usize, h: usize) {
        self.ig.resize(seq_len * h, 0.0);
        self.fg.resize(seq_len * h, 0.0);
        self.gg.resize(seq_len * h, 0.0);
        self.og.resize(seq_len * h, 0.0);
        self.cs.resize(seq_len * h, 0.0);
        self.hs.resize(seq_len * h, 0.0);
        self.xs.resize(seq_len, 0.0);
    }

    /// Additionally the backward/gradient buffers (training only — the
    /// `4h²` recurrent-gradient buffer in particular is dead weight for
    /// inference).
    fn ensure_backward(&mut self, h: usize) {
        self.g_wx.resize(4 * h, 0.0);
        self.g_wh.resize(4 * h * h, 0.0);
        self.g_b.resize(4 * h, 0.0);
        self.g_wy.resize(h, 0.0);
        self.dh.resize(h, 0.0);
        self.dh_prev.resize(h, 0.0);
        self.dc.resize(h, 0.0);
    }
}

/// In-place L2 gradient clipping (no per-call closures).
fn clip(g: &mut [f64]) {
    let norm: f64 = g.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 5.0 {
        let s = 5.0 / norm;
        for x in g.iter_mut() {
            *x *= s;
        }
    }
}

impl LstmForecaster {
    /// Train on `series` (raw scale).
    pub fn fit(series: &[f64], params: LstmParams) -> LstmForecaster {
        let need = params.seq_len + params.horizon + 1;
        assert!(
            series.len() >= need,
            "series too short: {} < {need}",
            series.len()
        );
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var = series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / series.len() as f64;
        let std = var.sqrt().max(1e-9);
        let norm: Vec<f64> = series.iter().map(|v| (v - mean) / std).collect();

        let h = params.hidden;
        let mut rng = ChaCha12Rng::seed_from_u64(params.seed);
        let scale = (1.0 / h as f64).sqrt();
        let mut model = LstmForecaster {
            params,
            wx: AdamVec::new(4 * h, &mut rng, scale),
            wh: AdamVec::new(4 * h * h, &mut rng, scale),
            b: AdamVec::new(4 * h, &mut rng, 0.0),
            wy: AdamVec::new(h, &mut rng, scale),
            by: AdamVec::new(1, &mut rng, 0.0),
            mean,
            std,
            steps: 0,
        };
        // Forget-gate bias init at 1.0 (standard trick for gradient flow).
        for i in h..2 * h {
            model.b.w[i] = 1.0;
        }

        let num_windows = norm.len() - model.params.seq_len - model.params.horizon;
        let mut order: Vec<usize> = (0..num_windows).collect();
        let mut ws = Workspace::default();
        for _ in 0..model.params.epochs {
            // Shuffle and subsample windows.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let take = order.len().min(model.params.max_windows);
            for &start in order.iter().take(take) {
                let window = &norm[start..start + model.params.seq_len];
                let target = norm[start + model.params.seq_len - 1 + model.params.horizon];
                model.train_window(window, target, &mut ws);
            }
        }
        model
    }

    /// Forward pass over one window, filling the workspace's step caches.
    /// Step `t` reads the previous state from cache row `t - 1` (zeros at
    /// `t = 0`) — no per-step state clones.
    fn forward(&self, window: &[f64], ws: &mut Workspace) -> f64 {
        let h = self.params.hidden;
        ws.ensure_forward(window.len(), h);
        for (t, &x) in window.iter().enumerate() {
            ws.xs[t] = x;
            let row = t * h;
            let prev = row.wrapping_sub(h);
            for u in 0..h {
                let mut zi = self.wx.w[u] * x + self.b.w[u];
                let mut zf = self.wx.w[h + u] * x + self.b.w[h + u];
                let mut zg = self.wx.w[2 * h + u] * x + self.b.w[2 * h + u];
                let mut zo = self.wx.w[3 * h + u] * x + self.b.w[3 * h + u];
                if t > 0 {
                    let h_prev = &ws.hs[prev..prev + h];
                    for (k, &hk) in h_prev.iter().enumerate() {
                        zi += self.wh.w[u * h + k] * hk;
                        zf += self.wh.w[(h + u) * h + k] * hk;
                        zg += self.wh.w[(2 * h + u) * h + k] * hk;
                        zo += self.wh.w[(3 * h + u) * h + k] * hk;
                    }
                }
                let ig = sigmoid(zi);
                let fg = sigmoid(zf);
                let gg = zg.tanh();
                let og = sigmoid(zo);
                let c_prev = if t > 0 { ws.cs[prev + u] } else { 0.0 };
                let c = fg * c_prev + ig * gg;
                ws.ig[row + u] = ig;
                ws.fg[row + u] = fg;
                ws.gg[row + u] = gg;
                ws.og[row + u] = og;
                ws.cs[row + u] = c;
                ws.hs[row + u] = og * c.tanh();
            }
        }
        let last = (window.len() - 1) * h;
        ws.hs[last..last + h]
            .iter()
            .zip(&self.wy.w)
            .map(|(a, b)| a * b)
            .sum::<f64>()
            + self.by.w[0]
    }

    fn train_window(&mut self, window: &[f64], target: f64, ws: &mut Workspace) {
        let h = self.params.hidden;
        ws.ensure_backward(h);
        let y = self.forward(window, ws);
        let dy = y - target; // d(0.5 (y - t)^2)/dy

        ws.g_wx.fill(0.0);
        ws.g_wh.fill(0.0);
        ws.g_b.fill(0.0);
        let last = (window.len() - 1) * h;
        for (gw, &hh) in ws.g_wy.iter_mut().zip(&ws.hs[last..last + h]) {
            *gw = dy * hh;
        }
        let g_by = [dy];

        for (d, w) in ws.dh.iter_mut().zip(&self.wy.w) {
            *d = dy * w;
        }
        ws.dc.fill(0.0);
        for t in (0..window.len()).rev() {
            let row = t * h;
            let prev = row.wrapping_sub(h);
            let x = ws.xs[t];
            ws.dh_prev.fill(0.0);
            for u in 0..h {
                let ig = ws.ig[row + u];
                let fg = ws.fg[row + u];
                let gg = ws.gg[row + u];
                let og = ws.og[row + u];
                let tanh_c = ws.cs[row + u].tanh();
                let do_u = ws.dh[u] * tanh_c;
                let dcu = ws.dc[u] + ws.dh[u] * og * (1.0 - tanh_c * tanh_c);
                let di = dcu * gg;
                let dg = dcu * ig;
                let c_prev = if t > 0 { ws.cs[prev + u] } else { 0.0 };
                let df = dcu * c_prev;
                ws.dc[u] = dcu * fg;

                let dzi = di * ig * (1.0 - ig);
                let dzf = df * fg * (1.0 - fg);
                let dzg = dg * (1.0 - gg * gg);
                let dzo = do_u * og * (1.0 - og);

                ws.g_wx[u] += dzi * x;
                ws.g_wx[h + u] += dzf * x;
                ws.g_wx[2 * h + u] += dzg * x;
                ws.g_wx[3 * h + u] += dzo * x;
                ws.g_b[u] += dzi;
                ws.g_b[h + u] += dzf;
                ws.g_b[2 * h + u] += dzg;
                ws.g_b[3 * h + u] += dzo;
                if t > 0 {
                    for k in 0..h {
                        let hp = ws.hs[prev + k];
                        ws.g_wh[u * h + k] += dzi * hp;
                        ws.g_wh[(h + u) * h + k] += dzf * hp;
                        ws.g_wh[(2 * h + u) * h + k] += dzg * hp;
                        ws.g_wh[(3 * h + u) * h + k] += dzo * hp;
                        ws.dh_prev[k] += dzi * self.wh.w[u * h + k]
                            + dzf * self.wh.w[(h + u) * h + k]
                            + dzg * self.wh.w[(2 * h + u) * h + k]
                            + dzo * self.wh.w[(3 * h + u) * h + k];
                    }
                } else {
                    for k in 0..h {
                        ws.dh_prev[k] += dzi * self.wh.w[u * h + k]
                            + dzf * self.wh.w[(h + u) * h + k]
                            + dzg * self.wh.w[(2 * h + u) * h + k]
                            + dzo * self.wh.w[(3 * h + u) * h + k];
                    }
                }
            }
            std::mem::swap(&mut ws.dh, &mut ws.dh_prev);
        }

        // Gradient clipping for stability.
        clip(&mut ws.g_wx);
        clip(&mut ws.g_wh);
        clip(&mut ws.g_b);
        clip(&mut ws.g_wy);

        self.steps += 1;
        let lr = self.params.learning_rate;
        let t = self.steps;
        self.wx.step(&ws.g_wx, lr, t);
        self.wh.step(&ws.g_wh, lr, t);
        self.b.step(&ws.g_b, lr, t);
        self.wy.step(&ws.g_wy, lr, t);
        self.by.step(&g_by, lr, t);
    }

    /// Predict the value `horizon` bins ahead of the window's last element.
    /// `window` must have length `seq_len` (raw scale).
    pub fn predict(&self, window: &[f64]) -> f64 {
        self.predict_in(window, &mut Workspace::default(), &mut Vec::new())
    }

    fn predict_in(&self, window: &[f64], ws: &mut Workspace, norm: &mut Vec<f64>) -> f64 {
        assert_eq!(window.len(), self.params.seq_len, "window length mismatch");
        norm.clear();
        norm.extend(window.iter().map(|v| (v - self.mean) / self.std));
        let y = self.forward(norm, ws);
        y * self.std + self.mean
    }

    /// Direct h-ahead forecasts for each index in `indices` of `series`
    /// (each index is the window *end*; requires `idx + 1 >= seq_len`).
    /// One reused workspace serves every window.
    pub fn forecast_at(&self, series: &[f64], indices: &[usize]) -> Vec<f64> {
        let mut ws = Workspace::default();
        let mut norm = Vec::new();
        indices
            .iter()
            .map(|&idx| {
                assert!(idx + 1 >= self.params.seq_len);
                self.predict_in(
                    &series[idx + 1 - self.params.seq_len..=idx],
                    &mut ws,
                    &mut norm,
                )
            })
            .collect()
    }

    /// The forecast horizon this model was trained for.
    pub fn horizon(&self) -> usize {
        self.params.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| 50.0 + 10.0 * (t as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect()
    }

    fn small_params() -> LstmParams {
        LstmParams {
            hidden: 8,
            seq_len: 24,
            horizon: 3,
            epochs: 16,
            learning_rate: 0.02,
            max_windows: 400,
            seed: 4,
        }
    }

    #[test]
    fn learns_a_sine_wave() {
        let series = sine_series(600);
        let model = LstmForecaster::fit(&series[..480], small_params());
        // Forecast on held-out windows.
        let indices: Vec<usize> = (480..(600 - 3)).step_by(7).collect();
        let preds = model.forecast_at(&series, &indices);
        let actual: Vec<f64> = indices.iter().map(|&i| series[i + 3]).collect();
        let err = crate::metrics::rmse(&actual, &preds);
        // Naive "predict the mean" RMSE would be ~7; the LSTM must beat it
        // clearly.
        assert!(err < 3.5, "rmse {err}");
    }

    #[test]
    fn beats_persistence_on_shifted_signal() {
        let series = sine_series(600);
        let model = LstmForecaster::fit(&series[..480], small_params());
        let indices: Vec<usize> = (480..590).step_by(5).collect();
        let preds = model.forecast_at(&series, &indices);
        let actual: Vec<f64> = indices.iter().map(|&i| series[i + 3]).collect();
        let persistence: Vec<f64> = indices.iter().map(|&i| series[i]).collect();
        let lstm_err = crate::metrics::rmse(&actual, &preds);
        let pers_err = crate::metrics::rmse(&actual, &persistence);
        assert!(
            lstm_err < pers_err,
            "lstm {lstm_err} vs persistence {pers_err}"
        );
    }

    #[test]
    fn constant_series_predicts_constant() {
        let series = vec![42.0; 200];
        let model = LstmForecaster::fit(&series, small_params());
        let p = model.predict(&[42.0; 24]);
        assert!((p - 42.0).abs() < 2.0, "{p}");
    }

    #[test]
    fn deterministic_given_seed() {
        let series = sine_series(300);
        let a = LstmForecaster::fit(&series, small_params());
        let b = LstmForecaster::fit(&series, small_params());
        let w = &series[100..124];
        assert_eq!(a.predict(w), b.predict(w));
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn wrong_window_length_rejected() {
        let series = sine_series(300);
        let model = LstmForecaster::fit(&series, small_params());
        model.predict(&series[..10]);
    }
}

//! Gradient-Boosted Decision Trees for regression (squared loss), built
//! from scratch in the style of LightGBM \[42\]: quantile-binned histograms,
//! shrinkage, row/feature subsampling and validation-based early stopping.
//!
//! This is the model behind both paper services: QSSF's job-GPU-time
//! estimator P_M (§4.2.2) and CES's node-demand forecaster (§4.3.2).
//! Trees sum their gradients in exact fixed point (see [`crate::tree`]),
//! so a fit does not depend on summation order. Each round's row and
//! column subsamples come from one ChaCha12 stream, drawn ahead on a
//! scoped helper thread so the draw overlaps the previous tree; no tree
//! state feeds a draw, so the model is the same bit for bit. A row or
//! column is kept when its word `x` passes `(x >> 11) < ceil(p · 2^53)`,
//! the integer form of `rng.gen::<f64>() < p` on the same word, and one
//! pass over the rows builds both the subsample and its complement.

use crate::binning::BinnedDataset;
use crate::tree::{build_tree_in, Tree, TreeParams, TreeWorkspace};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Boosting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Maximum boosting rounds.
    pub num_trees: usize,
    pub learning_rate: f64,
    pub max_depth: usize,
    pub min_leaf: usize,
    pub lambda: f64,
    /// Row subsample fraction per tree.
    pub subsample: f64,
    /// Feature subsample fraction per tree.
    pub colsample: f64,
    /// Maximum histogram bins per feature.
    pub max_bins: usize,
    /// Stop when the validation RMSE has not improved for this many
    /// consecutive checks (0 disables early stopping).
    pub early_stopping: usize,
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            num_trees: 200,
            learning_rate: 0.1,
            max_depth: 6,
            min_leaf: 20,
            lambda: 1.0,
            subsample: 0.8,
            colsample: 0.8,
            max_bins: 128,
            early_stopping: 10,
            seed: 7,
        }
    }
}

/// A trained GBDT regressor.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<Tree>,
}

impl Gbdt {
    /// Fit on a column-major feature matrix (`features[feature][row]`).
    /// If `valid` is provided (same layout), early stopping monitors its
    /// RMSE.
    ///
    /// # Panics
    ///
    /// On an empty training set, a non-finite target, or targets whose
    /// mean overflows `f64`; and on a validation set that is empty, has a
    /// different number of features, has a column whose length differs
    /// from its target count, or has a non-finite target.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        params: &GbdtParams,
        valid: Option<(&[Vec<f64>], &[f64])>,
    ) -> Gbdt {
        assert!(!features.is_empty());
        let n = targets.len();
        assert!(features.iter().all(|c| c.len() == n));
        assert!(n > 0, "empty training set");
        assert!(
            targets.iter().all(|t| t.is_finite()),
            "GBDT targets must be finite"
        );
        let base = targets.iter().sum::<f64>() / n as f64;
        assert!(
            base.is_finite(),
            "GBDT target mean must be finite (the targets' sum overflows f64)"
        );
        if let Some((cols, y)) = valid {
            assert!(!y.is_empty(), "empty validation set");
            assert_eq!(
                cols.len(),
                features.len(),
                "validation set must have one column per training feature"
            );
            assert!(
                cols.iter().all(|c| c.len() == y.len()),
                "validation columns must have one row per validation target"
            );
            assert!(
                y.iter().all(|t| t.is_finite()),
                "GBDT validation targets must be finite"
            );
        }
        let num_features = features.len() as u16;
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::sync_channel(1);
            s.spawn(move || draw_rounds(params, n, num_features, tx));
            // The receiver moves into `boost`: if the grower panics,
            // unwinding drops it, the helper's send fails, and the scope
            // can join the helper instead of waiting on it forever.
            Gbdt::boost(features, targets, base, params, valid, rx)
        })
    }

    /// The boosting loop of [`Gbdt::fit`], one tree per received draw.
    fn boost(
        features: &[Vec<f64>],
        targets: &[f64],
        base: f64,
        params: &GbdtParams,
        valid: Option<(&[Vec<f64>], &[f64])>,
        draws: Receiver<Draw>,
    ) -> Gbdt {
        let data = BinnedDataset::from_columns(features, params.max_bins);
        let mut preds = vec![base; targets.len()];

        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_leaf: params.min_leaf,
            lambda: params.lambda,
            min_gain: 1e-9,
        };

        // Validation rows (row-major) for early stopping.
        let valid_rows: Option<(Vec<Vec<f64>>, &[f64])> = valid.map(|(cols, y)| {
            let m = y.len();
            let rows = (0..m)
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect();
            (rows, y)
        });

        let mut model = Gbdt {
            base,
            learning_rate: params.learning_rate,
            trees: Vec::with_capacity(params.num_trees),
        };
        let mut best_rmse = f64::INFINITY;
        let mut best_len = 0;
        let mut stale_checks = 0;
        let mut ws = TreeWorkspace::default();

        for (round, draw) in draws.into_iter().enumerate() {
            let Draw {
                rows,
                out_rows,
                cols,
            } = draw;
            if rows.len() < 2 * params.min_leaf {
                break;
            }
            // Gradients of 1/2 (pred - y)^2, gathered in subsample order:
            // `build_tree_in` takes them aligned with `rows` and quantizes
            // them into its per-row array.
            let grads: Vec<f64> = rows
                .iter()
                .map(|&r| preds[r as usize] - targets[r as usize])
                .collect();

            // In-sample predictions update for free as leaves form.
            let lr = params.learning_rate;
            let tree = build_tree_in(
                &mut ws,
                &data,
                rows,
                grads,
                &cols,
                &tree_params,
                |value, leaf_rows| {
                    for &r in leaf_rows {
                        preds[r as usize] += lr * value;
                    }
                },
            );
            // Out-of-sample rows take the traversal path.
            tree.predict_binned_batch(&data, &out_rows, |r, value| {
                preds[r as usize] += lr * value;
            });
            model.trees.push(tree);

            // Early stopping on validation RMSE every 5 rounds.
            if params.early_stopping > 0 && (round + 1) % 5 == 0 {
                if let Some((ref vrows, vy)) = valid_rows {
                    let rmse = {
                        let mut acc = 0.0;
                        for (row, &y) in vrows.iter().zip(vy.iter()) {
                            let p = model.predict_row(row);
                            acc += (p - y) * (p - y);
                        }
                        (acc / vy.len() as f64).sqrt()
                    };
                    if rmse < best_rmse - 1e-9 {
                        best_rmse = rmse;
                        best_len = model.trees.len();
                        stale_checks = 0;
                    } else {
                        stale_checks += 1;
                        if stale_checks >= params.early_stopping {
                            model.trees.truncate(best_len);
                            break;
                        }
                    }
                }
            }
        }
        // If early stopping tracked a best prefix, honor it.
        if best_len > 0 && best_len < model.trees.len() {
            model.trees.truncate(best_len);
        }
        model
    }

    /// Predict one raw feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut p = self.base;
        for t in &self.trees {
            p += self.learning_rate * t.predict_row(row);
        }
        p
    }

    /// Predict many rows.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of trees kept after fitting.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The constant base prediction (training-target mean).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Split-frequency feature importance: how often each of the
    /// `num_features` features was chosen as a split across the ensemble,
    /// normalized to sum to 1. (The paper's feature analysis — e.g. "job
    /// name and user dominate duration prediction" — is read off this.)
    pub fn feature_importance(&self, num_features: usize) -> Vec<f64> {
        let mut counts = vec![0u64; num_features];
        for t in &self.trees {
            t.accumulate_split_counts(&mut counts);
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; num_features];
        }
        counts
            .into_iter()
            .map(|c| c as f64 / total as f64)
            .collect()
    }
}

/// One boosting round's random draws.
struct Draw {
    /// The row subsample, ascending.
    rows: Vec<u32>,
    /// Its complement: rows that miss the grower's leaf partitions and are
    /// routed through a tree traversal instead.
    out_rows: Vec<u32>,
    /// The column subsample.
    cols: Vec<u16>,
}

/// Draw every round's subsamples from the fit's one ChaCha12 stream and
/// send them to the grower. No tree state feeds a draw, so the stream is
/// consumed in the same order as drawing inside the loop: each round's
/// rows, then its columns. With `sync_channel(1)` the helper runs at most
/// two rounds ahead. Returns early once the grower hangs up (it stopped, or
/// it is unwinding from a panic).
fn draw_rounds(params: &GbdtParams, n: usize, num_features: u16, tx: SyncSender<Draw>) {
    let mut rng = ChaCha12Rng::seed_from_u64(params.seed);
    for _ in 0..params.num_trees {
        let (rows, out_rows) = if params.subsample < 1.0 {
            draw_rows(&mut rng, n, params.subsample)
        } else {
            ((0..n as u32).collect(), Vec::new())
        };
        let cols: Vec<u16> = if params.colsample < 1.0 {
            let cut = keep_below(params.colsample);
            let mut chosen: Vec<u16> = (0..num_features)
                .filter(|_| rng.next_u64() >> 11 < cut)
                .collect();
            if chosen.is_empty() {
                chosen.push(rng.gen_range(0..num_features));
            }
            chosen
        } else {
            (0..num_features).collect()
        };
        let draw = Draw {
            rows,
            out_rows,
            cols,
        };
        if tx.send(draw).is_err() {
            return;
        }
    }
}

/// The bound that makes `x >> 11 < keep_below(p)` the same test as
/// `gen::<f64>() < p` on word `x`: the vendored `rand` maps `x` to
/// `(x >> 11) · 2^-53`, multiplying by a power of two is exact, and an
/// integer is below `p · 2^53` exactly when it is below its ceiling. The
/// cast saturates, so `p ≤ 0` and NaN keep nothing, as the float test does.
fn keep_below(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Split `0..n` by one word of `rng` per row, in row order: the rows that
/// pass `gen::<f64>() < p` and the rest, each ascending.
fn draw_rows(rng: &mut ChaCha12Rng, n: usize, p: f64) -> (Vec<u32>, Vec<u32>) {
    let cut = keep_below(p);
    // Kept rows fill the buffer from the front and the rest from the back.
    // Each row is written at both cursors and only one advances, so no
    // branch depends on the draw. The cursors never cross: before row `r`,
    // `front + (n − back) == r < n`.
    let mut rows = vec![0; n];
    let (mut front, mut back) = (0, n);
    for r in 0..n as u32 {
        let keep = rng.next_u64() >> 11 < cut;
        rows[front] = r;
        rows[back - 1] = r;
        front += keep as usize;
        back -= !keep as usize;
    }
    let mut rest = rows.split_off(front);
    rest.reverse();
    (rows, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns_from_rows(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let p = rows[0].len();
        (0..p)
            .map(|f| rows.iter().map(|r| r[f]).collect())
            .collect()
    }

    #[test]
    fn fits_linear_function() {
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let cols = columns_from_rows(&rows);
        let model = Gbdt::fit(
            &cols,
            &y,
            &GbdtParams {
                num_trees: 150,
                early_stopping: 0,
                ..Default::default()
            },
            None,
        );
        let preds = model.predict(&rows);
        let rmse = crate::metrics::rmse(&y, &preds);
        let spread =
            y.iter().cloned().fold(f64::MIN, f64::max) - y.iter().cloned().fold(f64::MAX, f64::min);
        assert!(rmse < 0.05 * spread, "rmse {rmse} vs spread {spread}");
    }

    #[test]
    fn fits_nonlinear_interaction() {
        // Asymmetric XOR-ish interaction that a linear model cannot fit
        // (a perfectly symmetric XOR has zero first-split gain for any
        // greedy tree learner, LightGBM included).
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| match (r[0] > 0.5, r[1] > 0.5) {
                (false, true) => 1.0,
                (true, false) => 0.8,
                _ => 0.0,
            })
            .collect();
        let cols = columns_from_rows(&rows);
        let model = Gbdt::fit(
            &cols,
            &y,
            &GbdtParams {
                num_trees: 60,
                max_depth: 3,
                min_leaf: 5,
                subsample: 1.0,
                colsample: 1.0,
                early_stopping: 0,
                ..Default::default()
            },
            None,
        );
        assert!(model.predict_row(&[0.0, 1.0]) > 0.8);
        assert!(model.predict_row(&[1.0, 1.0]) < 0.2);
    }

    #[test]
    fn early_stopping_caps_trees() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 10) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let cols = columns_from_rows(&rows);
        // Validation = same distribution; the model converges quickly, so
        // early stopping should cut well below 500 trees.
        let model = Gbdt::fit(
            &cols,
            &y,
            &GbdtParams {
                num_trees: 500,
                early_stopping: 3,
                ..Default::default()
            },
            Some((&cols, &y)),
        );
        assert!(model.num_trees() < 500, "kept {}", model.num_trees());
    }

    #[test]
    fn constant_target_predicts_constant() {
        let cols = vec![(0..50).map(|i| i as f64).collect::<Vec<f64>>()];
        let y = vec![7.5; 50];
        let model = Gbdt::fit(&cols, &y, &GbdtParams::default(), None);
        assert!((model.predict_row(&[3.0]) - 7.5).abs() < 1e-6);
        assert_eq!(model.base(), 7.5);
    }

    #[test]
    #[should_panic(expected = "GBDT targets must be finite")]
    fn nan_target_is_refused() {
        let cols = vec![(0..50).map(|i| i as f64).collect::<Vec<f64>>()];
        let mut y = vec![1.0; 50];
        y[17] = f64::NAN;
        Gbdt::fit(&cols, &y, &GbdtParams::default(), None);
    }

    #[test]
    #[should_panic(expected = "GBDT target mean must be finite")]
    fn overflowing_target_mean_is_refused() {
        // Every target is finite, but their sum is not.
        let cols = vec![(0..64).map(|i| i as f64).collect::<Vec<f64>>()];
        Gbdt::fit(&cols, &[f64::MAX; 64], &GbdtParams::default(), None);
    }

    /// The message of a caught panic, whether it was formatted or literal.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |m| m.to_string()),
        }
    }

    #[test]
    fn grower_panic_propagates_instead_of_hanging() {
        // A learning rate of 3 overshoots every round, doubling the ±1e300
        // residuals until a gradient overflows and the grower's
        // finiteness check panics. The panic must unwind through the draw
        // helper's scope. Waiting on a channel with a deadline turns a
        // deadlock into a failure.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rows: Vec<Vec<f64>> = (0..400)
                .map(|i| vec![(i % 7) as f64, (i % 20) as f64])
                .collect();
            let y: Vec<f64> = (0..400)
                .map(|i| if i % 2 == 0 { 1e300 } else { -1e300 })
                .collect();
            let cols = columns_from_rows(&rows);
            let params = GbdtParams {
                num_trees: 50,
                learning_rate: 3.0,
                ..Default::default()
            };
            let fit = std::panic::catch_unwind(|| {
                Gbdt::fit(&cols, &y, &params, None);
            });
            let _ = tx.send(fit.err().map(panic_message));
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the fit neither returned nor panicked within 60 s")
            .expect("the fit must panic");
        assert!(message.contains("non-finite gradient"), "{message}");
    }

    #[test]
    fn malformed_validation_sets_are_refused_at_entry() {
        // Refused before any tree grows, rather than by a panic inside
        // `predict_row` at the first early-stopping check or by a model
        // that silently keeps 0 trees.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 7) as f64, (i % 20) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[1] * 3.0).collect();
        let cols = columns_from_rows(&rows);
        let narrow = [cols[0].clone()];
        let short = [cols[0].clone(), cols[1][..10].to_vec()];
        let empty = [Vec::new(), Vec::new()];
        let mut nan_y = y.clone();
        nan_y[3] = f64::NAN;
        let cases = [
            (&narrow[..], &y[..], "one column per training feature"),
            (&short[..], &y[..], "one row per validation target"),
            (&empty[..], &[][..], "empty validation set"),
            (&cols[..], &nan_y[..], "validation targets must be finite"),
        ];
        for (vcols, vy, want) in cases {
            let fit = std::panic::catch_unwind(|| {
                Gbdt::fit(&cols, &y, &GbdtParams::default(), Some((vcols, vy)));
            });
            let message = fit.err().map(panic_message).expect("refused at entry");
            assert!(message.contains(want), "{want}: {message}");
        }
    }

    #[test]
    fn targets_scaled_by_2_pow_40_keep_every_split() {
        // Each tree's fixed-point scale follows its largest gradient, so
        // huge targets neither overflow nor lose bits: every tree keeps its
        // splits and its leaves scale by exactly 2^40.
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 37) as f64, ((i * 11) % 29) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] * 0.4).sin() * 8.0 + r[1] * 0.3)
            .collect();
        let factor = 2f64.powi(40);
        let big: Vec<f64> = y.iter().map(|v| v * factor).collect();
        let cols = columns_from_rows(&rows);
        let p = GbdtParams {
            num_trees: 20,
            min_leaf: 5,
            early_stopping: 0,
            ..Default::default()
        };
        let a = Gbdt::fit(&cols, &y, &p, None);
        let b = Gbdt::fit(&cols, &big, &p, None);
        assert_eq!(b.base(), a.base() * factor);
        assert_eq!(a.num_trees(), 20);
        assert_eq!(b.num_trees(), 20);
        for (ta, tb) in a.trees.iter().zip(&b.trees) {
            assert!(ta.num_leaves() > 1);
            assert_eq!(*tb, ta.scale_leaves(factor));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![(i % 30) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * 0.3).sin()).collect();
        let cols = columns_from_rows(&rows);
        let p = GbdtParams {
            num_trees: 30,
            ..Default::default()
        };
        let a = Gbdt::fit(&cols, &y, &p, None);
        let b = Gbdt::fit(&cols, &y, &p, None);
        assert_eq!(a.predict_row(&[5.0]), b.predict_row(&[5.0]));
    }

    #[test]
    fn feature_importance_identifies_the_signal() {
        // y depends only on feature 0; feature 1 is pure noise.
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![(i % 25) as f64, ((i * 31) % 17) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let cols = columns_from_rows(&rows);
        let model = Gbdt::fit(
            &cols,
            &y,
            &GbdtParams {
                num_trees: 40,
                subsample: 1.0,
                colsample: 1.0,
                early_stopping: 0,
                ..Default::default()
            },
            None,
        );
        let imp = model.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "importance {imp:?}");
    }

    /// FNV-1a over the bits of every prediction on `rows`.
    fn prediction_digest(model: &Gbdt, rows: &[Vec<f64>]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for row in rows {
            for byte in model.predict_row(row).to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Five features, two of them noise, with a nonlinear target.
    fn pin_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    (i % 23) as f64,
                    ((i * 7) % 19) as f64,
                    ((i * 13) % 31) as f64 * 0.5,
                    ((i * 29) % 11) as f64,
                    (i % 3) as f64,
                ]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| (r[0] * 0.3).sin() * 5.0 + r[1] * r[4] * 0.2 + (r[2] * 0.7).cos())
            .collect();
        (rows, y)
    }

    #[test]
    fn fits_are_pinned_bit_for_bit() {
        // Each case pins the tree count and every prediction bit of one
        // fit, so a change to the sampling stream, the order it is
        // consumed in, or the grower shows up here. Every branch of the
        // round loop is covered: row and column subsampling, neither, the
        // empty-column fallback draw, validation early stopping, and the
        // too-few-rows break.
        let (rows, y) = pin_data(600);
        let cols = columns_from_rows(&rows);
        let base = GbdtParams {
            num_trees: 40,
            min_leaf: 8,
            early_stopping: 0,
            ..Default::default()
        };
        let fit = |p: GbdtParams, valid: Option<(&[Vec<f64>], &[f64])>| {
            let model = Gbdt::fit(&cols, &y, &p, valid);
            (model.num_trees(), prediction_digest(&model, &rows))
        };
        let subsampled = fit(
            GbdtParams {
                subsample: 0.7,
                colsample: 0.6,
                ..base
            },
            None,
        );
        let full = fit(
            GbdtParams {
                subsample: 1.0,
                colsample: 1.0,
                ..base
            },
            None,
        );
        // With 5 features at 0.05, most rounds choose no column and fall
        // back to one uniform pick.
        let fallback = fit(
            GbdtParams {
                colsample: 0.05,
                ..base
            },
            None,
        );
        // Validation targets carry noise the training set lacks, so the
        // validation RMSE soon stops improving.
        let (vrows, vy) = pin_data(200);
        let vy: Vec<f64> = vy
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i * 37) % 7) as f64 - 3.0)
            .collect();
        let vcols = columns_from_rows(&vrows);
        let stopped = fit(
            GbdtParams {
                num_trees: 400,
                early_stopping: 2,
                ..base
            },
            Some((&vcols, &vy)),
        );
        // 80 rows at subsample 0.5 fall under 2 × 17 = 34 rows within a
        // few rounds.
        let (small_rows, small_y) = pin_data(80);
        let small_cols = columns_from_rows(&small_rows);
        let small_model = Gbdt::fit(
            &small_cols,
            &small_y,
            &GbdtParams {
                subsample: 0.5,
                min_leaf: 17,
                ..base
            },
            None,
        );
        let small = (
            small_model.num_trees(),
            prediction_digest(&small_model, &small_rows),
        );
        assert_eq!(subsampled, (40, 0xcf58_5755_c732_3e76));
        assert_eq!(full, (40, 0x5aa0_c918_e613_5501));
        assert_eq!(fallback, (40, 0xe4f9_0738_be4f_34fb));
        assert_eq!(stopped, (130, 0xa4f0_44f4_af41_d936));
        assert_eq!(small, (23, 0xf1fd_6b62_ca9b_3f61));
    }

    #[test]
    fn integer_draw_matches_the_float_draw() {
        let tiny = 2f64.powi(-53);
        // 1,000 rows read 1,000 words, across 31 keystream refills.
        let n = 1000;
        for p in [tiny, 0.3, 0.5, 0.8, 0.9, 1.0 - tiny] {
            // The bound is the least integer whose float image reaches p.
            let cut = keep_below(p);
            assert!(
                cut as f64 * tiny >= p && (cut - 1) as f64 * tiny < p,
                "p {p}"
            );
            let mut int_rng = ChaCha12Rng::seed_from_u64(29);
            let mut float_rng = ChaCha12Rng::seed_from_u64(29);
            let drawn = draw_rows(&mut int_rng, n, p);
            let want: (Vec<u32>, Vec<u32>) =
                (0..n as u32).partition(|_| float_rng.gen::<f64>() < p);
            assert_eq!(drawn, want, "p {p}");
            assert_eq!(int_rng.next_u64(), float_rng.next_u64(), "p {p}");
        }
        assert_eq!(keep_below(0.0), 0);
        assert_eq!(keep_below(f64::NAN), 0);
    }

    #[test]
    fn generalizes_to_heldout_rows() {
        // Train on even x, test on odd x of a smooth function.
        let train_rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(2 * i) as f64]).collect();
        let test_rows: Vec<Vec<f64>> = (0..199).map(|i| vec![(2 * i + 1) as f64]).collect();
        let f = |x: f64| (x / 40.0).sin() * 10.0;
        let y: Vec<f64> = train_rows.iter().map(|r| f(r[0])).collect();
        let cols = columns_from_rows(&train_rows);
        let model = Gbdt::fit(
            &cols,
            &y,
            &GbdtParams {
                num_trees: 120,
                early_stopping: 0,
                ..Default::default()
            },
            None,
        );
        let expect: Vec<f64> = test_rows.iter().map(|r| f(r[0])).collect();
        let preds = model.predict(&test_rows);
        assert!(crate::metrics::rmse(&expect, &preds) < 1.5);
    }
}

//! Gradient-Boosted Decision Trees for regression (squared loss), built
//! from scratch in the style of LightGBM \[42\]: quantile-binned histograms,
//! shrinkage, row/feature subsampling and validation-based early stopping.
//!
//! This is the model behind both paper services: QSSF's job-GPU-time
//! estimator P_M (§4.2.2) and CES's node-demand forecaster (§4.3.2).
//! Trees sum their gradients in exact fixed point (see [`crate::tree`]),
//! so a fit does not depend on summation order.

use crate::binning::BinnedDataset;
use crate::tree::{build_tree_in, Tree, TreeParams, TreeWorkspace};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Boosting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<Tree>,
}

impl Gbdt {
    /// Fit on a column-major feature matrix (`features[feature][row]`).
    /// If `valid` is provided (same layout), early stopping monitors its
    /// RMSE.
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

        let data = BinnedDataset::from_columns(features, params.max_bins);
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut preds = vec![base; n];
        let mut rng = ChaCha12Rng::seed_from_u64(params.seed);

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

        let num_features = features.len() as u16;
        for round in 0..params.num_trees {
            // Row subsample.
            let rows: Vec<u32> = if params.subsample < 1.0 {
                (0..n as u32)
                    .filter(|_| rng.gen::<f64>() < params.subsample)
                    .collect()
            } else {
                (0..n as u32).collect()
            };
            if rows.len() < 2 * params.min_leaf {
                break;
            }
            // Out-of-sample complement (`rows` is ascending): these rows
            // miss the grower's leaf partitions and are routed through a
            // tree traversal below instead.
            let out_rows: Vec<u32> = if rows.len() < n {
                let mut out = Vec::with_capacity(n - rows.len());
                let mut it = rows.iter().copied().peekable();
                for r in 0..n as u32 {
                    if it.peek() == Some(&r) {
                        it.next();
                    } else {
                        out.push(r);
                    }
                }
                out
            } else {
                Vec::new()
            };
            // Gradients of 1/2 (pred - y)^2, gathered straight into node
            // order — the full-length gradient vector is never built.
            let grads: Vec<f64> = rows
                .iter()
                .map(|&r| preds[r as usize] - targets[r as usize])
                .collect();
            // Feature subsample.
            let cols: Vec<u16> = if params.colsample < 1.0 {
                let mut chosen: Vec<u16> = (0..num_features)
                    .filter(|_| rng.gen::<f64>() < params.colsample)
                    .collect();
                if chosen.is_empty() {
                    chosen.push(rng.gen_range(0..num_features));
                }
                chosen
            } else {
                (0..num_features).collect()
            };

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
            for &r in &out_rows {
                preds[r as usize] += lr * tree.predict_binned(&data, r as usize);
            }
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

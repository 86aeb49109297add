//! Histogram binning for GBDT training (the LightGBM-style discretization
//! the paper's GBDT \[42\] uses).

/// Maps raw feature values to at most 256 quantile bins.
#[derive(Debug, Clone, PartialEq)]
pub struct BinMapper {
    /// Upper edge of each bin except the last: value `v` lands in the first
    /// bin `b` with `v <= edges[b]`, or in the last bin.
    edges: Vec<f64>,
}

impl BinMapper {
    /// Fit quantile bins over `values` (at most `max_bins`, deduplicated).
    /// NaN is ignored; an all-NaN column gets a single bin.
    pub fn fit(values: &[f64], max_bins: usize) -> Self {
        assert!((2..=256).contains(&max_bins));
        assert!(!values.is_empty());
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return BinMapper { edges: Vec::new() };
        }
        sorted.sort_unstable_by(f64::total_cmp);
        let mut edges = Vec::with_capacity(max_bins - 1);
        for b in 1..max_bins {
            let idx = (b * sorted.len()) / max_bins;
            let e = sorted[idx.min(sorted.len() - 1)];
            if edges.last().is_none_or(|&last| e > last) {
                edges.push(e);
            }
        }
        BinMapper { edges }
    }

    /// Number of bins (edges + 1 overflow bin).
    pub fn num_bins(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin index for a value (NaN lands in bin 0).
    pub fn bin(&self, v: f64) -> u8 {
        self.edges.partition_point(|&e| e < v) as u8
    }

    /// The raw-value threshold corresponding to "bin <= b". Returns
    /// `f64::INFINITY` for the last bin (everything goes left).
    pub fn threshold(&self, b: u8) -> f64 {
        self.edges.get(b as usize).copied().unwrap_or(f64::INFINITY)
    }
}

/// A fully binned training set, stored **row-major**: all feature bins of
/// one row sit in `num_features` consecutive bytes. The tree grower's
/// histogram pass walks a node's rows once and reads every feature of a
/// row from a single cache line, instead of one strided pass per feature.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    /// `data[row * num_features + feature]`.
    data: Vec<u8>,
    pub mappers: Vec<BinMapper>,
    pub num_rows: usize,
    num_features: usize,
}

impl BinnedDataset {
    /// Bin a column-major feature matrix (`features[feature][row]`).
    pub fn from_columns(features: &[Vec<f64>], max_bins: usize) -> Self {
        assert!(!features.is_empty());
        let num_rows = features[0].len();
        assert!(features.iter().all(|c| c.len() == num_rows));
        let num_features = features.len();
        let mappers: Vec<BinMapper> = features
            .iter()
            .map(|col| BinMapper::fit(col, max_bins))
            .collect();
        let mut data = vec![0u8; num_rows * num_features];
        for (f, (col, m)) in features.iter().zip(&mappers).enumerate() {
            for (r, &v) in col.iter().enumerate() {
                data[r * num_features + f] = m.bin(v);
            }
        }
        BinnedDataset {
            data,
            mappers,
            num_rows,
            num_features,
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Bin of one (feature, row) cell.
    #[inline]
    pub fn bin(&self, feature: usize, row: usize) -> u8 {
        self.data[row * self.num_features + feature]
    }

    /// All feature bins of one row (length `num_features`).
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        &self.data[row * self.num_features..(row + 1) * self.num_features]
    }

    /// The full row-major bin matrix (`num_rows * num_features` bytes) —
    /// the tree grower's histogram sweep indexes it directly.
    #[inline]
    pub(crate) fn raw(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_are_monotone_in_value() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let m = BinMapper::fit(&values, 16);
        let mut last = 0;
        for v in [0.0, 1.0, 5.0, 10.0, 20.0, 31.0] {
            let b = m.bin(v);
            assert!(b >= last);
            last = b;
        }
        assert!(m.num_bins() <= 16);
    }

    #[test]
    fn threshold_respects_bin_assignment() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = BinMapper::fit(&values, 8);
        for v in values {
            let b = m.bin(v);
            // v <= threshold(b) must hold (that's the split semantics).
            assert!(v <= m.threshold(b), "v={v} b={b} thr={}", m.threshold(b));
            if b > 0 {
                assert!(v > m.threshold(b - 1));
            }
        }
    }

    #[test]
    fn constant_feature_collapses() {
        let m = BinMapper::fit(&[5.0; 50], 32);
        // One real bin plus at most one (empty) overflow bin.
        assert!(m.num_bins() <= 2);
        assert_eq!(m.bin(5.0), 0);
    }

    #[test]
    fn all_nan_column_gets_one_bin() {
        let m = BinMapper::fit(&[f64::NAN; 50], 16);
        assert_eq!(m.num_bins(), 1);
        assert_eq!(m.bin(f64::NAN), 0);
    }

    #[test]
    fn categorical_like_feature_keeps_distinct_bins() {
        let mut values = Vec::new();
        for c in 0..5 {
            values.extend(std::iter::repeat_n(c as f64, 20));
        }
        let m = BinMapper::fit(&values, 64);
        let bins: Vec<u8> = (0..5).map(|c| m.bin(c as f64)).collect();
        let mut dedup = bins.clone();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            5,
            "each category must keep its own bin: {bins:?}"
        );
    }

    #[test]
    fn binned_dataset_shape() {
        let cols = vec![
            (0..50).map(|i| i as f64).collect::<Vec<f64>>(),
            (0..50).map(|i| (i % 3) as f64).collect(),
        ];
        let d = BinnedDataset::from_columns(&cols, 16);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.num_rows, 50);
        assert_eq!(d.row(0).len(), 2);
        assert!(d.mappers[1].num_bins() <= 4);
    }

    #[test]
    fn row_major_cells_match_mappers() {
        let cols = vec![
            (0..200).map(|i| (i as f64).sin()).collect::<Vec<f64>>(),
            (0..200).map(|i| (i % 7) as f64).collect(),
            (0..200).map(|i| (i * i) as f64).collect(),
        ];
        let d = BinnedDataset::from_columns(&cols, 32);
        for r in (0..200).step_by(11) {
            for (f, col) in cols.iter().enumerate() {
                assert_eq!(d.bin(f, r), d.mappers[f].bin(col[r]));
                assert_eq!(d.row(r)[f], d.bin(f, r));
            }
        }
    }
}

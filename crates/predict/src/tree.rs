//! Histogram-based regression trees — the weak learners of the GBDT
//! (§4.2.2 / §4.3.2 use a LightGBM-style GBDT \[42\]).
//!
//! The grower is allocation-light and cache-friendly: node rows live in one
//! index buffer partitioned in place (stable, via a scratch buffer), and a
//! partition moves row ids only. Each tree quantizes its gradients once
//! into an array indexed by row id, which a histogram pass reads at each of
//! the node's rows. A single row-major sweep fills the histograms of *all*
//! candidate features at once (the binned dataset stores a row's feature
//! bins contiguously).
//!
//! Every histogram sum is exact: each tree quantizes its gradients once to
//! `i64` fixed point, so sums do not depend on row order, and a split
//! sweeps only its smaller child and derives the larger as parent −
//! smaller (LightGBM's sibling subtraction) with no drift.

use crate::binning::BinnedDataset;

/// Tree-growing hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    pub max_depth: usize,
    /// Minimum rows on each side of a split.
    pub min_leaf: usize,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum gain for a split to be accepted.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_leaf: 20,
            lambda: 1.0,
            min_gain: 1e-6,
        }
    }
}

/// A tree node: either an internal split or a leaf with an output value.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Split {
        feature: u16,
        /// Split on binned data: go left if `bin <= bin_threshold`.
        bin_threshold: u8,
        /// Equivalent raw-value threshold: go right if `value > threshold`,
        /// else left (NaN included).
        threshold: f64,
        left: u32,
        right: u32,
    },
    Leaf(f64),
}

/// A trained regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Predict from a raw feature row (feature order as in training).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    // NaN goes left, as in training, where it bins to 0.
                    idx = if row[*feature as usize] > *threshold {
                        *right as usize
                    } else {
                        *left as usize
                    };
                }
            }
        }
    }

    /// Predict for a row of the *binned* training set (fast path used
    /// during boosting). The row's bins sit in one contiguous slice, so
    /// the whole traversal touches a single cache line of bin data.
    pub fn predict_binned(&self, data: &BinnedDataset, row: usize) -> f64 {
        let bins = data.row(row);
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    bin_threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if bins[*feature as usize] <= *bin_threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// [`Tree::predict_binned`] for every row of `rows`: calls
    /// `f(row, prediction)` once per row, in order. Walks [`LANES`] rows at
    /// a time in lock step, so their node and bin loads overlap instead of
    /// forming one dependent chain per row. A leaf steps to itself, so
    /// every lane takes the tree's depth in steps and no step branches on
    /// the node kind or the comparison.
    pub(crate) fn predict_binned_batch(
        &self,
        data: &BinnedDataset,
        rows: &[u32],
        mut f: impl FnMut(u32, f64),
    ) {
        let (steps, depth) = self.steps();
        let nf = data.num_features();
        let raw = data.raw();
        for batch in rows.chunks(LANES) {
            let mut at = [0u32; LANES];
            for _ in 0..depth {
                for (node, &r) in at.iter_mut().zip(batch) {
                    let step = &steps[*node as usize];
                    let bin = raw[r as usize * nf + step.feature as usize];
                    *node = step.next[(bin > step.bin) as usize];
                }
            }
            for (&node, &r) in at.iter().zip(batch) {
                f(r, steps[node as usize].value);
            }
        }
    }

    /// Each node as a [`Step`], and the depth of the deepest leaf. Nodes
    /// are stored in pre-order, so a parent precedes its children.
    fn steps(&self) -> (Vec<Step>, usize) {
        let mut depth = vec![0; self.nodes.len()];
        let mut max_depth = 0;
        let steps = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match *node {
                Node::Leaf(value) => Step {
                    feature: 0,
                    bin: u8::MAX,
                    next: [i as u32; 2],
                    value,
                },
                Node::Split {
                    feature,
                    bin_threshold,
                    left,
                    right,
                    ..
                } => {
                    let d = depth[i] + 1;
                    depth[left as usize] = d;
                    depth[right as usize] = d;
                    max_depth = max_depth.max(d);
                    Step {
                        feature,
                        bin: bin_threshold,
                        next: [left, right],
                        value: 0.0,
                    }
                }
            })
            .collect();
        (steps, max_depth)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf(_)))
            .count()
    }

    /// Accumulate split counts per feature into `counts` (split-frequency
    /// feature importance).
    pub fn accumulate_split_counts(&self, counts: &mut [u64]) {
        for n in &self.nodes {
            if let Node::Split { feature, .. } = n {
                counts[*feature as usize] += 1;
            }
        }
    }
}

/// Rows [`Tree::predict_binned_batch`] walks in lock step. On a 2-core
/// x86_64 host, the out-of-bag traversal of one Saturn scale-0.05 QSSF fit
/// (120 trees, about 11,000 rows each) took 27–29 ms one row at a time and
/// 21–22, 15 and 15–21 ms at 4, 8 and 16 lanes (best of 9 fits).
const LANES: usize = 8;

/// One node of a tree as a branch-free traversal step: a row goes to
/// `next[1]` when its bin of `feature` exceeds `bin`, else to `next[0]`. A
/// leaf holds `value` and steps to itself (its `bin` is `u8::MAX`).
struct Step {
    feature: u16,
    bin: u8,
    next: [u32; 2],
    value: f64,
}

struct BestSplit {
    feature: u16,
    bin: u8,
    gain: f64,
    /// Rows going left — read off the split scan, so the grower knows the
    /// children's sizes before partitioning.
    left_count: usize,
    /// Fixed-point gradient sum of the left child, also read off the scan.
    left_grad: i64,
}

/// One histogram bin: fixed-point gradient sum and row count, interleaved
/// so both read-modify-writes of an update hit the same cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HistCell {
    g: i64,
    n: u64,
}

/// Reusable grower buffers. One instance serves every tree of a boosting
/// run — scratch and histogram space is allocated once, not per node.
/// `hist_pool` recycles per-node histograms (at most O(depth) are alive at
/// once, so the pool stays a few hundred KB).
#[derive(Debug, Default)]
pub struct TreeWorkspace {
    idx_scratch: Vec<u32>,
    /// The current tree's fixed-point gradients, indexed by row id. Rows
    /// outside its subsample keep stale values that nothing reads.
    grads: Vec<i64>,
    hist_pool: Vec<Vec<HistCell>>,
}

/// Build one regression tree on the gradient targets (squared loss: the
/// hessian is 1 per row, so leaf value = -sum(grad) / (count + lambda)).
///
/// `rows` selects the (possibly subsampled) training rows; `features`
/// selects the (possibly column-subsampled) features.
pub fn build_tree(
    data: &BinnedDataset,
    grads: &[f64],
    rows: Vec<u32>,
    features: &[u16],
    params: &TreeParams,
) -> Tree {
    let gathered: Vec<f64> = rows.iter().map(|&r| grads[r as usize]).collect();
    let mut ws = TreeWorkspace::default();
    build_tree_in(&mut ws, data, rows, gathered, features, params, |_, _| {})
}

/// [`build_tree`] with caller-owned buffers and a leaf callback.
///
/// `grads` must be aligned with `rows` (`grads[k]` is the gradient of row
/// `rows[k]`) and finite, and the row ids in `rows` must be distinct: the
/// gradients are quantized into an array indexed by row id, so a repeated
/// id keeps only its last gradient. `on_leaf(value, rows)` fires once per
/// created leaf with the training rows that landed in it — the boosting
/// loop uses it to update its predictions without re-traversing the tree
/// per row.
pub fn build_tree_in(
    ws: &mut TreeWorkspace,
    data: &BinnedDataset,
    rows: Vec<u32>,
    grads: Vec<f64>,
    features: &[u16],
    params: &TreeParams,
    mut on_leaf: impl FnMut(f64, &[u32]),
) -> Tree {
    assert_eq!(rows.len(), grads.len(), "rows/grads must be aligned");
    // The sweep's and the partition's unchecked indexing rely on these
    // bounds; validating them once here is O(n), negligible next to a
    // single histogram pass. `num_rows` is a public field, so it is checked
    // against the stored bins before row ids are checked against it.
    assert!(
        data.num_rows.checked_mul(data.num_features()) == Some(data.raw().len()),
        "binned dataset's row count does not match its bins"
    );
    assert!(
        rows.iter().all(|&r| (r as usize) < data.num_rows),
        "row id out of range for the binned dataset"
    );
    assert!(
        features.iter().all(|&f| (f as usize) < data.num_features()),
        "feature id out of range for the binned dataset"
    );
    let n = rows.len();
    let stride = features
        .iter()
        .map(|&f| data.mappers[f as usize].num_bins())
        .max()
        .unwrap_or(1);
    ws.idx_scratch.resize(n, 0);
    ws.grads.resize(data.num_rows, 0);
    let (grad_sum, unit) = quantize(&rows, &grads, &mut ws.grads);
    drop(grads);

    let mut grower = Grower {
        data,
        features,
        params,
        stride,
        idx: rows,
        unit,
        ws,
        nodes: Vec::new(),
    };
    let hist = grower.splittable(n, 0).then(|| grower.build_hist(0, n));
    grower.grow(0, n, 0, grad_sum, hist, &mut on_leaf);
    Tree {
        nodes: grower.nodes,
    }
}

/// Quantize a tree's gradients to `round(g · 2^k)`, writing `grads[i]`'s
/// to `out[rows[i]]`; returns their sum and `2^-k`.
/// With `n ≤ 2^b` rows and `max|g| < 2^(e+1)`, `k = 60 − b − e` keeps
/// `n · max|g| · 2^k ≤ 2^61`: no node sum, sibling difference or split
/// prefix can overflow. (The clamp keeps `2^±k` normal; a row count large
/// enough to reach its lower end cannot fit in memory.)
fn quantize(rows: &[u32], grads: &[f64], out: &mut [i64]) -> (i64, f64) {
    // A non-negative float's bits order as its value, and every non-finite
    // magnitude's bits exceed every finite one's, so one integer max both
    // finds max|g| and checks that every gradient is finite.
    let max_bits = grads.iter().fold(0, |m, g| m.max(g.abs().to_bits()));
    assert!(max_bits < f64::INFINITY.to_bits(), "non-finite gradient");
    let b = usize::BITS - grads.len().saturating_sub(1).leading_zeros();
    // Zero and subnormals read as e = −1023, still an upper bound.
    let e = (max_bits >> 52) as i32 - 1023;
    let k = (60 - b as i32 - e).clamp(-1022, 1022);
    let scale = f64::from_bits(((k + 1023) as u64) << 52);
    let mut sum = 0;
    for (&r, &g) in rows.iter().zip(grads) {
        // SAFETY: `g` is finite (asserted above) and `|g| < 2^(e+1)`, so
        // `|g · scale| < 2^(e+1+k)`: at most 2^61 where `k` is unclamped
        // or clamped down, and below 4 where it is clamped up to −1022
        // (that takes `e > 1018`). Either way it is under 2^63.
        let q = unsafe { round_half_away(g * scale) };
        out[r as usize] = q;
        sum += q;
    }
    (sum, 1.0 / scale)
}

/// `x.round() as i64` without the libm call `f64::round` compiles to on
/// baseline x86_64: truncate toward zero, then step one away from zero if
/// the dropped fraction is at least a half. The fraction is exact: below
/// 2^52 it is a multiple of `x`'s ulp under 1, and from 2^52 up `x` is an
/// integer and the fraction 0.
///
/// # Safety
/// `x` must be finite with `|x| < 2^63`, so that its truncation fits in
/// an `i64`.
#[inline]
unsafe fn round_half_away(x: f64) -> i64 {
    // SAFETY: the caller guarantees `x` is finite and `|x| < 2^63`.
    let t = unsafe { x.to_int_unchecked::<i64>() };
    let frac = x - t as f64;
    t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64
}

struct Grower<'a> {
    data: &'a BinnedDataset,
    features: &'a [u16],
    params: &'a TreeParams,
    stride: usize,
    /// Row ids, permuted in place; a node owns `idx[lo..hi]`.
    idx: Vec<u32>,
    /// The value of one fixed-point gradient unit.
    unit: f64,
    ws: &'a mut TreeWorkspace,
    nodes: Vec<Node>,
}

impl Grower<'_> {
    /// Whether a node may split; any other node is a leaf with no histogram.
    fn splittable(&self, count: usize, depth: usize) -> bool {
        depth < self.params.max_depth && count >= 2 * self.params.min_leaf
    }

    /// Grow the subtree over `idx[lo..hi]`, whose gradients sum to
    /// `grad_sum`. `hist` is the node's histogram, present exactly when the
    /// node is [`Grower::splittable`].
    fn grow(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        grad_sum: i64,
        hist: Option<Vec<HistCell>>,
        on_leaf: &mut impl FnMut(f64, &[u32]),
    ) -> u32 {
        let node_idx = self.nodes.len() as u32;
        let Some(mut hist) = hist else {
            return self.push_leaf(grad_sum, lo, hi, on_leaf);
        };
        let Some(split) = self.best_split(&hist, grad_sum, hi - lo) else {
            self.ws.hist_pool.push(hist);
            return self.push_leaf(grad_sum, lo, hi, on_leaf);
        };

        let mid = self.partition(lo, hi, split.feature, split.bin);
        debug_assert_eq!(mid - lo, split.left_count);
        // Sweep the smaller child; this buffer minus it is the larger one's
        // histogram. The smaller child splits only if the larger one does.
        let (nl, nr) = (mid - lo, hi - mid);
        let (left_hist, right_hist) = if self.splittable(nl.max(nr), depth + 1) {
            let (s_lo, s_hi) = if nl <= nr { (lo, mid) } else { (mid, hi) };
            let swept = self.build_hist(s_lo, s_hi);
            subtract(&mut hist, &swept);
            let small = if self.splittable(nl.min(nr), depth + 1) {
                Some(swept)
            } else {
                self.ws.hist_pool.push(swept);
                None
            };
            if nl <= nr {
                (small, Some(hist))
            } else {
                (Some(hist), small)
            }
        } else {
            self.ws.hist_pool.push(hist);
            (None, None)
        };

        // Reserve this node, then grow children.
        self.nodes.push(Node::Leaf(0.0)); // placeholder
        let left = self.grow(lo, mid, depth + 1, split.left_grad, left_hist, on_leaf);
        let right_grad = grad_sum - split.left_grad;
        let right = self.grow(mid, hi, depth + 1, right_grad, right_hist, on_leaf);
        self.nodes[node_idx as usize] = Node::Split {
            feature: split.feature,
            bin_threshold: split.bin,
            threshold: self.data.mappers[split.feature as usize].threshold(split.bin),
            left,
            right,
        };
        node_idx
    }

    fn push_leaf(
        &mut self,
        grad_sum: i64,
        lo: usize,
        hi: usize,
        on_leaf: &mut impl FnMut(f64, &[u32]),
    ) -> u32 {
        let node_idx = self.nodes.len() as u32;
        let value = -(grad_sum as f64 * self.unit) / ((hi - lo) as f64 + self.params.lambda);
        self.nodes.push(Node::Leaf(value));
        on_leaf(value, &self.idx[lo..hi]);
        node_idx
    }

    /// One pass over the node's rows fills the histograms of every
    /// candidate feature.
    fn build_hist(&mut self, lo: usize, hi: usize) -> Vec<HistCell> {
        let mut hist = self.take_hist();
        sweep(
            &mut hist,
            self.stride,
            &self.idx[lo..hi],
            &self.ws.grads,
            self.data,
            self.features,
        );
        hist
    }

    /// Scan every feature's histogram for the best split. Tie semantics
    /// match the historical per-feature scan + `max_by`: within a feature
    /// the earliest maximal bin wins, across features the latest maximal
    /// feature wins.
    fn best_split(&self, hist_all: &[HistCell], grad_sum: i64, count: usize) -> Option<BestSplit> {
        let lambda = self.params.lambda;
        let total = grad_sum as f64 * self.unit;
        let parent_score = total * total / (count as f64 + lambda);
        let mut best: Option<BestSplit> = None;
        for (fi, &f) in self.features.iter().enumerate() {
            let nbins = self.data.mappers[f as usize].num_bins();
            if nbins < 2 {
                continue;
            }
            let hist = &hist_all[fi * self.stride..fi * self.stride + nbins];
            let mut gl = 0i64;
            let mut nl = 0u64;
            let mut feature_best: Option<(u8, f64, u64, i64)> = None;
            for (b, cell) in hist[..nbins - 1].iter().enumerate() {
                gl += cell.g;
                nl += cell.n;
                let nr = count as u64 - nl;
                if (nl as usize) < self.params.min_leaf || (nr as usize) < self.params.min_leaf {
                    continue;
                }
                let left = gl as f64 * self.unit;
                let right = (grad_sum - gl) as f64 * self.unit;
                let gain = left * left / (nl as f64 + lambda)
                    + right * right / (nr as f64 + lambda)
                    - parent_score;
                if gain > self.params.min_gain && feature_best.is_none_or(|(_, fg, ..)| gain > fg) {
                    feature_best = Some((b as u8, gain, nl, gl));
                }
            }
            if let Some((bin, gain, nl, gl)) = feature_best {
                if best.as_ref().is_none_or(|s| gain >= s.gain) {
                    best = Some(BestSplit {
                        feature: f,
                        bin,
                        gain,
                        left_count: nl as usize,
                        left_grad: gl,
                    });
                }
            }
        }
        best
    }

    /// Stable in-place partition of `idx[lo..hi]` by the split predicate;
    /// returns the start of the right child. Order within each side
    /// matches `Vec::partition`, so every node's rows stay in their
    /// original relative order. Only row ids move.
    fn partition(&mut self, lo: usize, hi: usize, feature: u16, bin: u8) -> usize {
        let idx = &mut self.idx[lo..hi];
        let spill_buf = &mut self.ws.idx_scratch[..idx.len()];
        let nf = self.data.num_features();
        // The split feature's column: row `r`'s bin is `column[r * nf]`.
        let column = &self.data.raw()[feature as usize..];
        let (mut left, mut spill) = (0usize, 0usize);
        for k in 0..idx.len() {
            let r = idx[k];
            // SAFETY: `r < num_rows`, `feature < nf` and `raw().len() ==
            // num_rows · nf` (`build_tree_in` asserts all three), so
            // `r * nf ≤ (num_rows − 1) · nf`, which is below `column.len()
            // = num_rows · nf − feature`.
            let goes_left = unsafe { *column.get_unchecked(r as usize * nf) } <= bin;
            // Branch-free: write both sides, advance one cursor.
            // SAFETY: both cursors trail `k`: `left + spill == k`, and
            // `k < idx.len() == spill_buf.len()`.
            unsafe {
                *idx.get_unchecked_mut(left) = r;
                *spill_buf.get_unchecked_mut(spill) = r;
            }
            left += goes_left as usize;
            spill += !goes_left as usize;
        }
        idx[left..].copy_from_slice(&spill_buf[..spill]);
        lo + left
    }

    /// A zeroed histogram buffer from the pool.
    fn take_hist(&mut self) -> Vec<HistCell> {
        let len = self.features.len() * self.stride;
        match self.ws.hist_pool.pop() {
            Some(mut h) => {
                h.fill(HistCell::default());
                h.resize(len, HistCell::default());
                h
            }
            None => vec![HistCell::default(); len],
        }
    }
}

/// Turn a node's histogram into its larger child's: parent − smaller child,
/// cell by cell.
fn subtract(parent: &mut [HistCell], child: &[HistCell]) {
    for (p, c) in parent.iter_mut().zip(child) {
        p.g -= c.g;
        p.n -= c.n;
    }
}

/// Add one row's bins into a histogram set.
///
/// # Safety
/// `bins` must point at `data.num_features()` valid bytes, every feature id
/// in `features` must be below that count, and `hist` must hold
/// `features.len() * stride` cells with every stored bin below `stride`.
#[inline(always)]
unsafe fn accum_row(
    hist: &mut [HistCell],
    stride: usize,
    features: &[u16],
    bins: *const u8,
    g: i64,
) {
    for (fi, &f) in features.iter().enumerate() {
        // SAFETY: `f` is below the row's feature count (caller contract).
        let b = unsafe { *bins.add(f as usize) } as usize;
        // SAFETY: `fi < features.len()` and `b < stride` (caller contract).
        let cell = unsafe { hist.get_unchecked_mut(fi * stride + b) };
        cell.g += g;
        cell.n += 1;
    }
}

/// The histogram hot loop: for every node row, add its gradient into the
/// bin cell of each candidate feature.
///
/// Uses unchecked indexing — the bounds are structural: `r < num_rows`
/// (rows come from `0..num_rows`), `grads.len() == num_rows` (gradients are
/// indexed by row id), `f < num_features` (feature ids come from the same
/// dataset), and `bin < stride` (`stride` is the maximum `num_bins` over
/// the candidate features, and every stored bin is below its mapper's
/// `num_bins`).
#[inline]
fn sweep(
    hist: &mut [HistCell],
    stride: usize,
    rows: &[u32],
    grads: &[i64],
    data: &BinnedDataset,
    features: &[u16],
) {
    let nf = data.num_features();
    let raw = data.raw();
    debug_assert!(hist.len() >= features.len() * stride);
    debug_assert!(features
        .iter()
        .all(|&f| (f as usize) < nf && data.mappers[f as usize].num_bins() <= stride));
    for &r in rows {
        let base = r as usize * nf;
        debug_assert!(base + nf <= raw.len() && (r as usize) < grads.len());
        // SAFETY: the structural bounds above hold for every row and
        // feature; `build_tree_in` asserts the row and feature ids and
        // sizes `grads` to the dataset's row count.
        unsafe {
            let g = *grads.get_unchecked(r as usize);
            accum_row(hist, stride, features, raw.as_ptr().add(base), g);
        }
    }
}

#[cfg(test)]
impl Tree {
    /// This tree with every leaf value multiplied by `factor`.
    pub(crate) fn scale_leaves(&self, factor: f64) -> Tree {
        let nodes = self.nodes.iter().map(|n| match n {
            Node::Leaf(v) => Node::Leaf(v * factor),
            split => split.clone(),
        });
        Tree {
            nodes: nodes.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinnedDataset;

    /// Build a tree fitting targets directly (gradients = -targets, so the
    /// leaf means approximate the targets).
    fn fit_targets(cols: &[Vec<f64>], y: &[f64], params: &TreeParams) -> (Tree, BinnedDataset) {
        let data = BinnedDataset::from_columns(cols, 64);
        let grads: Vec<f64> = y.iter().map(|v| -v).collect();
        let rows: Vec<u32> = (0..y.len() as u32).collect();
        let features: Vec<u16> = (0..cols.len() as u16).collect();
        (build_tree(&data, &grads, rows, &features, params), data)
    }

    #[test]
    fn splits_a_step_function() {
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| if v < 100.0 { -1.0 } else { 1.0 })
            .collect();
        let params = TreeParams {
            max_depth: 2,
            min_leaf: 5,
            lambda: 0.0,
            min_gain: 1e-9,
        };
        let (tree, _) = fit_targets(std::slice::from_ref(&x), &y, &params);
        assert!(tree.num_leaves() >= 2);
        assert!(tree.predict_row(&[50.0]) < -0.8);
        assert!(tree.predict_row(&[150.0]) > 0.8);
    }

    #[test]
    fn respects_max_depth_zero() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y = x.clone();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let (tree, _) = fit_targets(&[x], &y, &params);
        assert_eq!(tree.num_nodes(), 1);
        // Root leaf = mean of y (lambda small relative to n).
        let v = tree.predict_row(&[0.0]);
        assert!((v - 49.5).abs() < 1.0, "{v}");
    }

    #[test]
    fn min_leaf_respected() {
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| if v < 2.0 { 100.0 } else { 0.0 })
            .collect();
        let params = TreeParams {
            max_depth: 4,
            min_leaf: 10,
            lambda: 0.0,
            min_gain: 1e-9,
        };
        let (tree, _) = fit_targets(&[x], &y, &params);
        // The natural split at x<2 has only 2 rows on the left — forbidden.
        // The tree may still split elsewhere, but predictions at x=0 and
        // x=5 must then be equal-ish (same side) or the left side has >= 10.
        let p0 = tree.predict_row(&[0.0]);
        let p5 = tree.predict_row(&[5.0]);
        assert!((p0 - p5).abs() < 30.0, "p0={p0} p5={p5}");
    }

    #[test]
    fn binned_and_raw_predictions_agree() {
        let mut x1: Vec<f64> = (0..300).map(|i| (i % 17) as f64).collect();
        let x2: Vec<f64> = (0..300).map(|i| ((i * 7) % 23) as f64).collect();
        let y: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a * 2.0 - b * 0.5).collect();
        // Every 7th x1 is missing (rows 0, 91, 182 and 273 are checked).
        for v in x1.iter_mut().step_by(7) {
            *v = f64::NAN;
        }
        let (tree, data) = fit_targets(&[x1.clone(), x2.clone()], &y, &TreeParams::default());
        for r in (0..300).step_by(13) {
            let raw = tree.predict_row(&[x1[r], x2[r]]);
            let binned = tree.predict_binned(&data, r);
            assert!((raw - binned).abs() < 1e-12, "row {r}: {raw} vs {binned}");
        }
    }

    #[test]
    fn leaf_callback_covers_every_row_once() {
        let x1: Vec<f64> = (0..500).map(|i| (i % 31) as f64).collect();
        let x2: Vec<f64> = (0..500).map(|i| ((i * 13) % 11) as f64).collect();
        let y: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a - b).collect();
        let data = BinnedDataset::from_columns(&[x1.clone(), x2.clone()], 64);
        let grads: Vec<f64> = y.iter().map(|v| -v).collect();
        let rows: Vec<u32> = (0..500u32).collect();
        let features = [0u16, 1u16];
        let mut ws = TreeWorkspace::default();
        let mut seen = vec![0u32; 500];
        let mut leaf_of = vec![f64::NAN; 500];
        let tree = build_tree_in(
            &mut ws,
            &data,
            rows.clone(),
            rows.iter().map(|&r| grads[r as usize]).collect(),
            &features,
            &TreeParams::default(),
            |value, leaf_rows| {
                for &r in leaf_rows {
                    seen[r as usize] += 1;
                    leaf_of[r as usize] = value;
                }
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "each row in exactly one leaf");
        // The callback's leaf value must equal the traversal's.
        for r in (0..500).step_by(17) {
            assert_eq!(leaf_of[r], tree.predict_binned(&data, r));
        }
    }

    #[test]
    #[should_panic(expected = "row count does not match its bins")]
    fn refuses_a_row_count_its_bins_do_not_hold() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut data = BinnedDataset::from_columns(&[x], 64);
        data.num_rows += 1;
        let params = TreeParams::default();
        build_tree(&data, &[0.5; 101], (0..101).collect(), &[0], &params);
    }

    #[test]
    fn deeper_trees_fit_better() {
        let x: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| (v * 12.0).sin()).collect();
        let sse = |depth: usize| -> f64 {
            let params = TreeParams {
                max_depth: depth,
                min_leaf: 5,
                lambda: 0.0,
                min_gain: 1e-12,
            };
            let (tree, _) = fit_targets(std::slice::from_ref(&x), &y, &params);
            x.iter()
                .zip(&y)
                .map(|(&xi, &yi)| (tree.predict_row(&[xi]) - yi).powi(2))
                .sum()
        };
        assert!(sse(4) < sse(1));
        assert!(sse(6) < sse(2));
    }

    /// Three features over 1,000 rows, with a target whose partial sums
    /// round differently in different orders.
    fn irregular_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|f| {
                (0..1000)
                    .map(|i| ((i * (7 + f * 6)) % 101) as f64)
                    .collect()
            })
            .collect();
        let y = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + cols[0][i] * 0.013 - cols[2][i] / 7.0)
            .collect();
        (cols, y)
    }

    #[test]
    fn row_order_does_not_change_the_tree() {
        let (cols, y) = irregular_data();
        let data = BinnedDataset::from_columns(&cols, 64);
        let grads: Vec<f64> = y.iter().map(|v| -v).collect();
        let features = [0u16, 1, 2];
        let params = TreeParams {
            min_leaf: 5,
            ..Default::default()
        };
        let ascending: Vec<u32> = (0..1000).collect();
        let descending: Vec<u32> = (0..1000).rev().collect();
        let a = build_tree(&data, &grads, ascending, &features, &params);
        let d = build_tree(&data, &grads, descending, &features, &params);
        assert!(a.num_leaves() > 8);
        assert_eq!(a, d);
    }

    #[test]
    fn parent_minus_smaller_sibling_equals_a_direct_sweep() {
        let (cols, y) = irregular_data();
        let data = BinnedDataset::from_columns(&cols, 64);
        let features = [0u16, 1, 2];
        let stride = features
            .iter()
            .map(|&f| data.mappers[f as usize].num_bins())
            .max()
            .unwrap();
        let rows: Vec<u32> = (0..1000).collect();
        let mut grads = vec![0; rows.len()];
        quantize(&rows, &y, &mut grads);
        let hist_of = |rows: &[u32]| {
            let mut hist = vec![HistCell::default(); features.len() * stride];
            sweep(&mut hist, stride, rows, &grads, &data, &features);
            hist
        };
        for bin in [3u8, 20, 40] {
            let (left, right): (Vec<u32>, Vec<u32>) =
                rows.iter().partition(|&&r| data.bin(1, r as usize) <= bin);
            let (small, large) = if left.len() <= right.len() {
                (left, right)
            } else {
                (right, left)
            };
            assert!(!small.is_empty(), "bin {bin} must split the rows");
            let mut derived = hist_of(&rows);
            subtract(&mut derived, &hist_of(&small));
            assert_eq!(derived, hist_of(&large), "bin {bin}");
        }
    }

    #[test]
    fn batched_traversal_matches_predict_binned() {
        let (cols, y) = irregular_data();
        let params = TreeParams {
            max_depth: 8,
            min_leaf: 5,
            ..Default::default()
        };
        let (deep, data) = fit_targets(&cols, &y, &params);
        let stump = TreeParams {
            max_depth: 0,
            ..params
        };
        let (leaf, _) = fit_targets(&cols, &y, &stump);
        assert!(deep.steps().1 >= 6, "a deep tree");
        assert_eq!(leaf.num_nodes(), 1);
        let all: Vec<u32> = (0..1000).rev().collect();
        for tree in [&deep, &leaf] {
            for n in [0, 1, 7, 8, 9, 1000] {
                let rows = &all[..n];
                let mut got = Vec::new();
                tree.predict_binned_batch(&data, rows, |r, v| got.push((r, v)));
                let want: Vec<(u32, f64)> = rows
                    .iter()
                    .map(|&r| (r, tree.predict_binned(&data, r as usize)))
                    .collect();
                assert_eq!(got, want, "{n} rows");
            }
        }
    }

    #[test]
    fn round_half_away_matches_round() {
        let two = |e: i32| 2f64.powi(e);
        let mut cases = vec![
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            two(62),
        ];
        for e in [52, 53] {
            for d in [-1.5, -1.0, -0.5, 0.0, 1.0, 2.0] {
                cases.push(two(e) + d);
            }
        }
        for x in cases.clone() {
            cases.push(-x);
        }
        for x in cases {
            // SAFETY: every case is finite and at most 2^62 in magnitude.
            let got = unsafe { round_half_away(x) };
            assert_eq!(got, x.round() as i64, "{x:e}");
        }
    }

    #[test]
    fn tiny_targets_keep_every_split_and_leaf() {
        // The fixed-point scale follows max|g|, so targets scaled by 2^-40
        // quantize to the same integers: same splits, leaves × 2^-40.
        let (cols, y) = irregular_data();
        let params = TreeParams {
            min_leaf: 5,
            ..Default::default()
        };
        let (tree, _) = fit_targets(&cols, &y, &params);
        let tiny: Vec<f64> = y.iter().map(|v| v * 2f64.powi(-40)).collect();
        let tiny_params = TreeParams {
            min_gain: params.min_gain * 2f64.powi(-80),
            ..params
        };
        let (tiny_tree, _) = fit_targets(&cols, &tiny, &tiny_params);
        assert!(tree.num_leaves() > 8);
        assert_eq!(tiny_tree, tree.scale_leaves(2f64.powi(-40)));
    }
}

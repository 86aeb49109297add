//! The rolling estimate P_R of Algorithm 1 (QSSF): a purely historical,
//! per-user estimator with three fallback tiers —
//!
//! 1. unknown user → average duration of all historical jobs with the same
//!    GPU demand;
//! 2. known user but no similar job name → average duration of the user's
//!    own jobs with the same GPU demand;
//! 3. similar names found → exponentially-weighted decay over the matched
//!    name's historical durations (recent runs dominate).

use crate::text::{strip_run_suffix, Pattern};
use helios_trace::UserId;
use std::collections::HashMap;

/// Running (sum, count) average.
#[derive(Debug, Clone, Copy, Default)]
struct Avg {
    sum: f64,
    n: u64,
}

impl Avg {
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn get(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

#[derive(Debug, Clone, Default)]
struct UserHistory {
    by_demand: HashMap<u32, Avg>,
    all: Avg,
    /// Recent durations per name stem, oldest first (bounded).
    by_stem: HashMap<String, Vec<f64>>,
}

/// Maximum retained durations per (user, stem).
const STEM_HISTORY: usize = 32;

/// The rolling estimator.
#[derive(Debug, Clone)]
pub struct RollingEstimator {
    /// Exponential decay factor for older runs (weight `decay^age`).
    decay: f64,
    /// Normalized Levenshtein threshold for "similar name".
    name_threshold: f64,
    global_by_demand: HashMap<u32, Avg>,
    global: Avg,
    users: HashMap<UserId, UserHistory>,
    /// Cold-start prior when no history exists at all (seconds).
    prior: f64,
}

impl Default for RollingEstimator {
    fn default() -> Self {
        RollingEstimator::new(0.7, 0.25, 600.0)
    }
}

impl RollingEstimator {
    /// `decay` in (0,1]: weight of a run `age` submissions old is
    /// `decay^age`. `name_threshold`: normalized Levenshtein similarity
    /// cut-off. `prior`: cold-start duration estimate.
    pub fn new(decay: f64, name_threshold: f64, prior: f64) -> Self {
        assert!(decay > 0.0 && decay <= 1.0);
        RollingEstimator {
            decay,
            name_threshold,
            global_by_demand: HashMap::new(),
            global: Avg::default(),
            users: HashMap::new(),
            prior,
        }
    }

    /// Record a finished job's observed duration.
    pub fn observe(&mut self, user: UserId, name: &str, gpus: u32, duration: f64) {
        self.observe_stem(user, strip_run_suffix(name), gpus, duration);
    }

    /// [`RollingEstimator::observe`] with a pre-stripped name stem — the
    /// hot path for callers that cache stems per interned template name
    /// (allocation-free once the stem is known).
    pub fn observe_stem(&mut self, user: UserId, stem: &str, gpus: u32, duration: f64) {
        self.global.push(duration);
        self.global_by_demand
            .entry(gpus)
            .or_default()
            .push(duration);
        let uh = self.users.entry(user).or_default();
        uh.all.push(duration);
        uh.by_demand.entry(gpus).or_default().push(duration);
        if !uh.by_stem.contains_key(stem) {
            uh.by_stem.insert(stem.to_string(), Vec::new());
        }
        let hist = uh.by_stem.get_mut(stem).expect("inserted above");
        hist.push(duration);
        if hist.len() > STEM_HISTORY {
            hist.remove(0);
        }
    }

    /// Estimate the duration of an incoming job (Algorithm 1 lines 12–18).
    pub fn estimate(&self, user: UserId, name: &str, gpus: u32) -> f64 {
        self.estimate_stem(user, strip_run_suffix(name), gpus)
    }

    /// [`RollingEstimator::estimate`] with a pre-stripped name stem.
    pub fn estimate_stem(&self, user: UserId, stem: &str, gpus: u32) -> f64 {
        let Some(uh) = self.users.get(&user) else {
            // Case 1: new user -> global average for this GPU demand.
            return self
                .global_by_demand
                .get(&gpus)
                .and_then(Avg::get)
                .or_else(|| self.global.get())
                .unwrap_or(self.prior);
        };
        // Case 3: matched names -> exponentially weighted recency average.
        if let Some(hist) = self.matched_history(uh, stem) {
            let mut num = 0.0;
            let mut den = 0.0;
            let n = hist.len();
            for (i, &d) in hist.iter().enumerate() {
                let w = self.decay.powi((n - 1 - i) as i32);
                num += w * d;
                den += w;
            }
            return num / den;
        }
        // Case 2: known user, new name -> user's average for this demand.
        uh.by_demand
            .get(&gpus)
            .and_then(Avg::get)
            .or_else(|| uh.all.get())
            .unwrap_or(self.prior)
    }

    /// Find the user's stem history matching `stem` (exact stem first, then
    /// nearest within the similarity threshold). Stems at equal distance go
    /// to the lexicographically smallest, so the choice does not depend on
    /// the map's iteration order.
    fn matched_history<'a>(&self, uh: &'a UserHistory, stem: &str) -> Option<&'a Vec<f64>> {
        if let Some(h) = uh.by_stem.get(stem) {
            return Some(h);
        }
        let pattern = Pattern::new(stem);
        let mut best: Option<(f64, &str, &Vec<f64>)> = None;
        for (s, h) in &uh.by_stem {
            let d = pattern.normalized_distance(s);
            if d <= self.name_threshold
                && best.is_none_or(|(bd, bs, _)| d < bd || (d == bd && s.as_str() < bs))
            {
                best = Some((d, s, h));
            }
        }
        best.map(|(_, _, h)| h)
    }

    /// Number of users with history.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_uses_prior() {
        let e = RollingEstimator::default();
        assert_eq!(e.estimate(1, "train_x_1", 8), 600.0);
    }

    #[test]
    fn new_user_falls_back_to_demand_average() {
        let mut e = RollingEstimator::default();
        e.observe(1, "train_a_1", 8, 1_000.0);
        e.observe(2, "train_b_1", 8, 3_000.0);
        e.observe(3, "eval_c_1", 1, 50.0);
        // User 99 never seen: averages all 8-GPU jobs.
        assert!((e.estimate(99, "whatever_1", 8) - 2_000.0).abs() < 1e-9);
        // Unseen demand falls back to the global average.
        let est = e.estimate(99, "whatever_1", 16);
        assert!((est - (1_000.0 + 3_000.0 + 50.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn known_user_new_name_uses_own_demand_average() {
        let mut e = RollingEstimator::default();
        e.observe(1, "train_a_1", 8, 1_000.0);
        e.observe(1, "train_a_2", 8, 2_000.0);
        e.observe(2, "other_1", 8, 50_000.0);
        // Completely dissimilar name for user 1 -> user 1's 8-GPU average,
        // not polluted by user 2.
        let est = e.estimate(1, "zzzzzzzzzzzzzzzzzzzzzzzzzz", 8);
        assert!((est - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn matched_name_uses_recency_weighting() {
        let mut e = RollingEstimator::new(0.5, 0.25, 600.0);
        e.observe(1, "train_resnet50_imagenet_1", 8, 1_000.0);
        e.observe(1, "train_resnet50_imagenet_2", 8, 2_000.0);
        // Weights: older 0.5, newer 1.0 -> (0.5*1000 + 1*2000) / 1.5.
        let est = e.estimate(1, "train_resnet50_imagenet_3", 8);
        assert!((est - 2_500.0 / 1.5).abs() < 1e-9, "{est}");
        // Recency: estimate is closer to the latest run.
        assert!(est > 1_500.0);
    }

    #[test]
    fn similar_but_not_identical_names_match() {
        let mut e = RollingEstimator::default();
        e.observe(1, "train_resnet50_imagenet_1", 8, 4_000.0);
        let est = e.estimate(1, "train_resnet56_imagenet_9", 8);
        assert!((est - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn equidistant_stems_break_ties_by_name() {
        // "train_ab" and "train_ba" are both one edit from "train_aa" and
        // carry different histories. Fresh estimators each get their own
        // hash order; with either insertion order, every one must pick
        // the same stem ("train_ab", the smaller).
        let estimates: Vec<f64> = (0..32)
            .map(|i| {
                let mut e = RollingEstimator::default();
                let stems = [("train_ab", 1_000.0), ("train_ba", 9_000.0)];
                for k in 0..2 {
                    let (stem, duration) = stems[(i + k) % 2];
                    e.observe_stem(1, stem, 8, duration);
                }
                e.estimate_stem(1, "train_aa", 8)
            })
            .collect();
        assert!(estimates.iter().all(|&v| v == 1_000.0), "{estimates:?}");
    }

    #[test]
    fn stem_history_is_bounded() {
        let mut e = RollingEstimator::default();
        for i in 0..100 {
            e.observe(1, &format!("train_a_{i}"), 1, i as f64);
        }
        // Only the most recent STEM_HISTORY observations are retained; the
        // estimate must be near the recent values, not the early ones.
        let est = e.estimate(1, "train_a_101", 1);
        assert!(est > 90.0, "{est}");
    }

    #[test]
    fn user_count() {
        let mut e = RollingEstimator::default();
        e.observe(1, "a_1", 1, 1.0);
        e.observe(2, "b_1", 1, 1.0);
        e.observe(1, "c_1", 1, 1.0);
        assert_eq!(e.num_users(), 2);
    }
}

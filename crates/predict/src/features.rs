//! Feature pipelines.
//!
//! `job`: the QSSF feature extraction of §4.2.2 — encoded categories
//! (user, VC, Levenshtein name bucket), resource demands, parsed
//! submission-time attributes (month, day, weekday, hour, minute), plus
//! causal rolling statistics of the user's / bucket's past durations.
//!
//! `series`: the CES feature extraction of §4.3.2 — lags, rolling
//! means/stds under several window sizes, calendar encodings and holiday
//! indicators over a node-count time series.

pub mod job {
    use crate::text::NameBuckets;
    use helios_trace::{Calendar, JobRecord, NameId, NamePool, Trace, UserId};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// Number of features produced per job.
    pub const NUM_FEATURES: usize = 16;

    /// Feature names, index-aligned with the extracted vectors.
    pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
        "user",
        "vc",
        "gpus",
        "cpus",
        "log2_gpus",
        "name_bucket",
        "run_index",
        "month",
        "day_of_month",
        "weekday",
        "hour",
        "minute",
        "is_offday",
        "user_mean_logdur",
        "bucket_mean_logdur",
        "bucket_count",
    ];

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
        fn get_or(&self, default: f64) -> f64 {
            if self.n > 0 {
                self.sum / self.n as f64
            } else {
                default
            }
        }
    }

    /// Stateful, causal feature extractor. Call [`FeatureExtractor::extract`]
    /// at submission time and [`FeatureExtractor::observe`] at termination
    /// time; the rolling statistics never see the future.
    #[derive(Debug, Clone)]
    pub struct FeatureExtractor {
        buckets: NameBuckets,
        /// Bucket per interned name id. The bucket depends only on the
        /// name's stem (the run suffix is stripped), so it is resolved once
        /// per template instead of once per job — the Levenshtein scan and
        /// the per-job display-string allocation both disappear from the
        /// hot path.
        bucket_by_name: HashMap<NameId, u32>,
        user_logdur: HashMap<UserId, Avg>,
        bucket_logdur: HashMap<u32, Avg>,
        /// Global mean log-duration (cold-start default).
        global: Avg,
    }

    impl Default for FeatureExtractor {
        fn default() -> Self {
            Self::new()
        }
    }

    impl FeatureExtractor {
        /// Fresh extractor with the paper-style name bucketizer.
        pub fn new() -> Self {
            FeatureExtractor {
                buckets: NameBuckets::new(0.25),
                bucket_by_name: HashMap::new(),
                user_logdur: HashMap::new(),
                bucket_logdur: HashMap::new(),
                global: Avg::default(),
            }
        }

        /// Name bucket for a job, cached per interned name id (a display
        /// name is `base_run`, whose run suffix the bucketizer strips, so
        /// every job of a template shares one bucket).
        fn bucket_of(&mut self, job: &JobRecord, names: &NamePool) -> u32 {
            if let Some(&b) = self.bucket_by_name.get(&job.name) {
                return b;
            }
            let display = names.display_name(job);
            let b = self.buckets.bucket(&display);
            self.bucket_by_name.insert(job.name, b);
            b
        }

        /// The full feature row as a stack array (no allocation).
        fn features(
            &mut self,
            job: &JobRecord,
            names: &NamePool,
            cal: &Calendar,
        ) -> [f64; NUM_FEATURES] {
            let bucket = self.bucket_of(job, names);
            let g = self.global.get_or(6.0); // ~exp(6) = 400 s prior
            [
                job.user as f64,
                job.vc as f64,
                job.gpus as f64,
                job.cpus as f64,
                (job.gpus.max(1) as f64).log2(),
                bucket as f64,
                job.run as f64,
                cal.month_index(job.submit) as f64,
                cal.day_of_month(job.submit) as f64,
                cal.weekday(job.submit).index() as f64,
                cal.hour_of_day(job.submit) as f64,
                cal.minute_of_hour(job.submit) as f64,
                f64::from(cal.is_offday(job.submit)),
                self.user_logdur.get(&job.user).map_or(g, |a| a.get_or(g)),
                self.bucket_logdur.get(&bucket).map_or(g, |a| a.get_or(g)),
                self.bucket_logdur.get(&bucket).map_or(0.0, |a| a.n as f64),
            ]
        }

        /// Feature vector for a job at submission time.
        pub fn extract(&mut self, job: &JobRecord, names: &NamePool, cal: &Calendar) -> Vec<f64> {
            self.features(job, names, cal).to_vec()
        }

        /// Append a job's features directly onto a columnar matrix
        /// (`cols[feature]`), skipping the per-job row allocation.
        pub fn extract_into(
            &mut self,
            job: &JobRecord,
            names: &NamePool,
            cal: &Calendar,
            cols: &mut [Vec<f64>],
        ) {
            debug_assert_eq!(cols.len(), NUM_FEATURES);
            let row = self.features(job, names, cal);
            for (c, v) in cols.iter_mut().zip(row) {
                c.push(v);
            }
        }

        /// Record a finished job's duration (log-space).
        pub fn observe(&mut self, job: &JobRecord, names: &NamePool) {
            let bucket = self.bucket_of(job, names);
            let logdur = (job.duration.max(1) as f64).ln();
            self.global.push(logdur);
            self.user_logdur.entry(job.user).or_default().push(logdur);
            self.bucket_logdur.entry(bucket).or_default().push(logdur);
        }

        /// Number of name buckets discovered so far.
        pub fn num_buckets(&self) -> usize {
            self.buckets.num_buckets()
        }
    }

    /// Build a supervised training matrix from the GPU jobs of `trace`
    /// submitted in `[t_lo, t_hi)`. Returns `(columns, targets)` where
    /// targets are `ln(duration)`, plus the extractor state (to keep
    /// extracting consistently at inference time).
    ///
    /// The pass is causal: a job's features are extracted before any job
    /// that ends later is observed.
    pub fn build_training_matrix(
        trace: &Trace,
        t_lo: i64,
        t_hi: i64,
    ) -> (Vec<Vec<f64>>, Vec<f64>, FeatureExtractor) {
        let mut extractor = FeatureExtractor::new();
        let mut cols = vec![Vec::new(); NUM_FEATURES];
        let mut targets = Vec::new();
        // Min-heap of (end_time, index into trace.jobs) for pending
        // observations.
        let mut pending: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
        for (idx, job) in trace.jobs.iter().enumerate() {
            if !job.is_gpu() {
                continue;
            }
            if job.submit >= t_hi {
                break;
            }
            // Observe everything that finished before this submission.
            while let Some(&Reverse((end, j))) = pending.peek() {
                if end > job.submit {
                    break;
                }
                pending.pop();
                extractor.observe(&trace.jobs[j], &trace.names);
            }
            if job.submit >= t_lo {
                extractor.extract_into(job, &trace.names, &trace.calendar, &mut cols);
                targets.push((job.duration.max(1) as f64).ln());
            }
            pending.push(Reverse((job.end(), idx)));
        }
        (cols, targets, extractor)
    }
}

pub mod series {
    use helios_trace::Calendar;

    /// Configuration of the node-series feature extraction.
    #[derive(Debug, Clone)]
    pub struct SeriesFeatureConfig {
        /// Lag offsets, in bins.
        pub lags: Vec<usize>,
        /// Rolling-window sizes, in bins (mean and std each).
        pub windows: Vec<usize>,
        /// Forecast horizon, in bins (direct h-step-ahead target).
        pub horizon: usize,
    }

    impl SeriesFeatureConfig {
        /// Defaults for 10-minute bins and a 3-hour horizon (the paper's
        /// `PeriodicCheck` looks ~3 h ahead, §4.3.2).
        pub fn default_10min() -> Self {
            SeriesFeatureConfig {
                lags: vec![1, 2, 3, 6, 12, 36, 72, 144],
                windows: vec![6, 36, 144],
                horizon: 18,
            }
        }

        /// Number of features produced.
        pub fn num_features(&self) -> usize {
            self.lags.len() + 2 * self.windows.len() + 6
        }

        /// Earliest index with full feature support.
        pub fn min_index(&self) -> usize {
            self.lags
                .iter()
                .chain(self.windows.iter())
                .copied()
                .max()
                .unwrap_or(1)
        }
    }

    /// Feature vector describing the series at index `idx` (uses only
    /// values `<= idx`): lags, rolling means/stds, and calendar encodings
    /// of the bin timestamp.
    pub fn features_at(
        values: &[f64],
        idx: usize,
        t0: i64,
        bin: i64,
        cal: &Calendar,
        cfg: &SeriesFeatureConfig,
    ) -> Vec<f64> {
        assert!(idx >= cfg.min_index(), "insufficient history at {idx}");
        let mut row = Vec::with_capacity(cfg.num_features());
        for &lag in &cfg.lags {
            row.push(values[idx - lag]);
        }
        for &w in &cfg.windows {
            let slice = &values[idx + 1 - w..=idx];
            let mean = slice.iter().sum::<f64>() / w as f64;
            let var = slice.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / w as f64;
            row.push(mean);
            row.push(var.sqrt());
        }
        let t = t0 + bin * idx as i64;
        row.push(cal.hour_of_day(t) as f64);
        row.push(cal.weekday(t).index() as f64);
        row.push(f64::from(cal.is_offday(t)));
        row.push(cal.day_of_trace(t) as f64);
        row.push(cal.month_index(t) as f64);
        row.push(((t.rem_euclid(86_400)) / bin.max(1)) as f64); // bin-of-day
        row
    }

    /// Build the supervised (columns, targets, indices) set for direct
    /// h-step-ahead forecasting: target at feature index `i` is
    /// `values[i + horizon]`.
    pub fn build_series_dataset(
        values: &[f64],
        t0: i64,
        bin: i64,
        cal: &Calendar,
        cfg: &SeriesFeatureConfig,
    ) -> (Vec<Vec<f64>>, Vec<f64>, Vec<usize>) {
        let start = cfg.min_index();
        let end = values.len().saturating_sub(cfg.horizon);
        let mut cols = vec![Vec::new(); cfg.num_features()];
        let mut targets = Vec::new();
        let mut indices = Vec::new();
        for i in start..end {
            let row = features_at(values, i, t0, bin, cal, cfg);
            for (c, v) in cols.iter_mut().zip(row) {
                c.push(v);
            }
            targets.push(values[i + cfg.horizon]);
            indices.push(i);
        }
        (cols, targets, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::job::{build_training_matrix, FeatureExtractor, FEATURE_NAMES, NUM_FEATURES};
    use super::series::{build_series_dataset, features_at, SeriesFeatureConfig};
    use helios_trace::{generate, venus_profile, Calendar, GeneratorConfig};

    #[test]
    fn job_matrix_is_rectangular_and_causal() {
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.03,
                seed: 5,
            },
        )
        .unwrap();
        let hi = t.calendar.month_end(1);
        let (cols, y, _) = build_training_matrix(&t, 0, hi);
        assert_eq!(cols.len(), NUM_FEATURES);
        assert!(!y.is_empty());
        for c in &cols {
            assert_eq!(c.len(), y.len());
        }
        // Targets are log-durations of real jobs: positive and bounded.
        assert!(y.iter().all(|&v| (0.0..=16.0).contains(&v)));
    }

    #[test]
    fn feature_names_align() {
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.03,
                seed: 5,
            },
        )
        .unwrap();
        let mut ex = FeatureExtractor::new();
        let job = t.gpu_jobs().next().unwrap();
        let row = ex.extract(job, &t.names, &t.calendar);
        assert_eq!(row.len(), NUM_FEATURES);
        assert_eq!(row[2], job.gpus as f64);
    }

    #[test]
    fn rolling_stats_update_on_observe() {
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.03,
                seed: 5,
            },
        )
        .unwrap();
        let mut ex = FeatureExtractor::new();
        let job = *t.gpu_jobs().next().unwrap();
        let before = ex.extract(&job, &t.names, &t.calendar);
        ex.observe(&job, &t.names);
        let after = ex.extract(&job, &t.names, &t.calendar);
        // user_mean_logdur reflects the observed duration now.
        let expect = (job.duration as f64).ln();
        assert!((after[13] - expect).abs() < 1e-9);
        // bucket count incremented.
        assert_eq!(after[15], before[15] + 1.0);
    }

    #[test]
    fn series_features_shape() {
        let cal = Calendar::helios_2020();
        let cfg = SeriesFeatureConfig::default_10min();
        let values: Vec<f64> = (0..1_000)
            .map(|i| (i as f64 / 20.0).sin() * 10.0 + 50.0)
            .collect();
        let row = features_at(&values, 200, 0, 600, &cal, &cfg);
        assert_eq!(row.len(), cfg.num_features());
        // First lag feature equals values[idx-1].
        assert_eq!(row[0], values[199]);
    }

    #[test]
    fn series_dataset_targets_are_shifted() {
        let cal = Calendar::helios_2020();
        let cfg = SeriesFeatureConfig {
            lags: vec![1, 2],
            windows: vec![3],
            horizon: 5,
        };
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let (cols, y, idx) = build_series_dataset(&values, 0, 600, &cal, &cfg);
        assert_eq!(cols.len(), cfg.num_features());
        assert_eq!(y.len(), idx.len());
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(y[k], values[i + 5]);
        }
        // Last target uses the final value.
        assert_eq!(*y.last().unwrap(), 49.0);
    }

    #[test]
    #[should_panic(expected = "insufficient history")]
    fn series_features_guard_history() {
        let cal = Calendar::helios_2020();
        let cfg = SeriesFeatureConfig::default_10min();
        let values = vec![1.0; 500];
        features_at(&values, 3, 0, 600, &cal, &cfg);
    }
}

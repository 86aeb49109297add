//! Time-binned occupancy and rate series derived from a job trace.
//!
//! These series back the cluster-level figures (Figs. 2, 3, 4, 14, 15) and
//! feed the CES forecasting pipeline: GPU occupancy (utilization), submission
//! rates, and per-bin busy-node counts.

use helios_trace::{JobRecord, SECS_PER_HOUR};
use rayon::prelude::*;

/// A regularly-binned time series over `[t0, t0 + bin * len)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSeries {
    /// Start of the first bin.
    pub t0: i64,
    /// Bin width, seconds.
    pub bin: i64,
    /// One value per bin.
    pub values: Vec<f64>,
}

impl BinnedSeries {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Midpoint timestamp of bin `i`.
    pub fn bin_mid(&self, i: usize) -> i64 {
        self.t0 + self.bin * i as i64 + self.bin / 2
    }

    /// Average of the values.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation of the values.
    pub fn std_dev(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / self.values.len() as f64).sqrt()
    }

    /// Group bins by `key(bin_mid)` and average per group; returns
    /// `groups[key] = mean`. Used to fold a 6-month series into a 24-hour
    /// daily profile (Fig. 2).
    pub fn fold_by<F: Fn(i64) -> usize>(&self, num_groups: usize, key: F) -> Vec<f64> {
        let mut sums = vec![0.0; num_groups];
        let mut counts = vec![0usize; num_groups];
        for (i, &v) in self.values.iter().enumerate() {
            let k = key(self.bin_mid(i));
            sums[k] += v;
            counts[k] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }
}

/// GPU-seconds busy per bin, divided by `capacity * bin` → utilization in
/// \[0, 1\]. Jobs wider than `capacity` (over-capacity artifacts) are ignored,
/// matching the replay semantics.
pub fn gpu_utilization_series(
    jobs: &[JobRecord],
    capacity_gpus: u64,
    t0: i64,
    t1: i64,
    bin: i64,
) -> BinnedSeries {
    gpu_utilization_series_from(jobs, capacity_gpus, t0, t1, bin)
}

/// [`gpu_utilization_series`] over any job iterator — callers that already
/// hold per-VC job references avoid cloning records into a fresh `Vec`.
pub fn gpu_utilization_series_from<'a>(
    jobs: impl IntoIterator<Item = &'a JobRecord>,
    capacity_gpus: u64,
    t0: i64,
    t1: i64,
    bin: i64,
) -> BinnedSeries {
    assert!(bin > 0 && t1 > t0);
    let n = ((t1 - t0) + bin - 1) / bin;
    let mut busy = vec![0.0f64; n as usize];
    for j in jobs {
        if !j.is_gpu() || j.gpus as u64 > capacity_gpus {
            continue;
        }
        let (s, e) = (j.start.max(t0), j.end().min(t1));
        if e <= s {
            continue;
        }
        let first = (s - t0) / bin;
        let last = (e - 1 - t0) / bin;
        for b in first..=last {
            let bin_lo = t0 + b * bin;
            let bin_hi = bin_lo + bin;
            let overlap = (e.min(bin_hi) - s.max(bin_lo)) as f64;
            busy[b as usize] += overlap * j.gpus as f64;
        }
    }
    let denom = (capacity_gpus * bin as u64) as f64;
    BinnedSeries {
        t0,
        bin,
        values: busy.into_iter().map(|b| b / denom).collect(),
    }
}

/// Jobs submitted per bin (optionally restricted by a filter).
pub fn submission_rate_series<F: Fn(&JobRecord) -> bool + Sync>(
    jobs: &[JobRecord],
    t0: i64,
    t1: i64,
    bin: i64,
    filter: F,
) -> BinnedSeries {
    assert!(bin > 0 && t1 > t0);
    let n = (((t1 - t0) + bin - 1) / bin) as usize;
    // Parallel fold: count submissions per bin.
    let values = jobs
        .par_iter()
        .fold(
            || vec![0.0f64; n],
            |mut acc, j| {
                if j.submit >= t0 && j.submit < t1 && filter(j) {
                    acc[((j.submit - t0) / bin) as usize] += 1.0;
                }
                acc
            },
        )
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    BinnedSeries { t0, bin, values }
}

/// Hourly profile over a day: fold a series into 24 hour-of-day buckets.
pub fn hourly_profile(series: &BinnedSeries) -> Vec<f64> {
    series.fold_by(24, |t| {
        ((t.rem_euclid(24 * SECS_PER_HOUR)) / SECS_PER_HOUR) as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::JobStatus;

    fn job(gpus: u32, start: i64, duration: i64) -> JobRecord {
        JobRecord {
            id: 0,
            user: 0,
            vc: 0,
            gpus,
            cpus: 0,
            submit: start,
            start,
            duration,
            status: JobStatus::Completed,
            name: 0,
            run: 0,
        }
    }

    #[test]
    fn utilization_exact_for_aligned_job() {
        // 4 GPUs busy for one full 100s bin of an 8-GPU cluster = 0.5.
        let jobs = vec![job(4, 0, 100)];
        let s = gpu_utilization_series(&jobs, 8, 0, 300, 100);
        assert_eq!(s.values.len(), 3);
        assert!((s.values[0] - 0.5).abs() < 1e-12);
        assert_eq!(s.values[1], 0.0);
    }

    #[test]
    fn utilization_splits_across_bins() {
        // Job spans half of bin 0 and half of bin 1.
        let jobs = vec![job(8, 50, 100)];
        let s = gpu_utilization_series(&jobs, 8, 0, 200, 100);
        assert!((s.values[0] - 0.5).abs() < 1e-12);
        assert!((s.values[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_clips_to_window() {
        let jobs = vec![job(8, -50, 100), job(8, 150, 100)];
        let s = gpu_utilization_series(&jobs, 8, 0, 200, 100);
        assert!((s.values[0] - 0.5).abs() < 1e-12);
        assert!((s.values[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn over_capacity_jobs_ignored() {
        let jobs = vec![job(2048, 0, 100)];
        let s = gpu_utilization_series(&jobs, 8, 0, 100, 100);
        assert_eq!(s.values[0], 0.0);
    }

    #[test]
    fn submission_counts() {
        let jobs = vec![job(1, 10, 5), job(1, 20, 5), job(2, 110, 5)];
        let s = submission_rate_series(&jobs, 0, 200, 100, |_| true);
        assert_eq!(s.values, vec![2.0, 1.0]);
        let multi = submission_rate_series(&jobs, 0, 200, 100, |j| j.gpus > 1);
        assert_eq!(multi.values, vec![0.0, 1.0]);
    }

    #[test]
    fn fold_daily_profile() {
        // Two days of hourly bins with value == hour index.
        let values: Vec<f64> = (0..48).map(|i| (i % 24) as f64).collect();
        let s = BinnedSeries {
            t0: 0,
            bin: SECS_PER_HOUR,
            values,
        };
        let prof = hourly_profile(&s);
        assert_eq!(prof.len(), 24);
        for (h, v) in prof.iter().enumerate() {
            assert!((v - h as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_helpers() {
        let s = BinnedSeries {
            t0: 0,
            bin: 10,
            values: vec![1.0, 3.0],
        };
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.std_dev() - 1.0).abs() < 1e-12);
        assert_eq!(s.bin_mid(1), 15);
    }
}

//! Cluster-level characterization (§3.1): daily utilization/submission
//! profiles (Fig. 2) and monthly trends (Fig. 3).

use crate::timeseries::{gpu_utilization_series, hourly_profile, submission_rate_series};
use helios_trace::{Trace, SECS_PER_HOUR};

/// Fig. 2 data for one cluster: 24-entry hourly averages.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyPattern {
    pub cluster: String,
    /// Fig. 2(a): average utilization per hour-of-day, percent.
    pub hourly_utilization: Vec<f64>,
    /// Fig. 2(b): average GPU-job submissions per hour-of-day.
    pub hourly_submissions: Vec<f64>,
    /// §3.1.1 quotes the std-dev of hourly utilization (7% for Saturn,
    /// 10–12% elsewhere).
    pub utilization_std_dev: f64,
}

/// Compute Fig. 2 for one trace.
pub fn daily_pattern(trace: &Trace) -> DailyPattern {
    let horizon = trace.calendar.total_seconds();
    let util = gpu_utilization_series(
        &trace.jobs,
        trace.total_gpus() as u64,
        0,
        horizon,
        SECS_PER_HOUR,
    );
    let subs = submission_rate_series(&trace.jobs, 0, horizon, SECS_PER_HOUR, |j| j.is_gpu());
    DailyPattern {
        cluster: trace.spec.id.name().to_string(),
        hourly_utilization: hourly_profile(&util)
            .into_iter()
            .map(|u| u * 100.0)
            .collect(),
        hourly_submissions: hourly_profile(&subs),
        utilization_std_dev: util.std_dev() * 100.0,
    }
}

/// Fig. 3 data for one cluster: per-month aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyTrend {
    pub cluster: String,
    pub months: Vec<String>,
    /// Fig. 3 top bars: submitted single-GPU jobs per month.
    pub single_gpu_jobs: Vec<u64>,
    /// Fig. 3 top bars: submitted multi-GPU jobs per month.
    pub multi_gpu_jobs: Vec<u64>,
    /// Fig. 3 top dashed line: average utilization per month, percent.
    pub utilization: Vec<f64>,
    /// Fig. 3 bottom: utilization attributable to single-GPU jobs, percent.
    pub single_gpu_utilization: Vec<f64>,
    /// Fig. 3 bottom: utilization attributable to multi-GPU jobs, percent.
    pub multi_gpu_utilization: Vec<f64>,
    /// §3.1.2: std-dev of the average requested GPU count across months
    /// (paper: 2.9, i.e. multi-GPU demand is stable month over month).
    pub monthly_avg_gpu_std_dev: f64,
}

/// Compute Fig. 3 for one trace.
pub fn monthly_trend(trace: &Trace) -> MonthlyTrend {
    let cal = &trace.calendar;
    let capacity = trace.total_gpus() as u64;
    let mut single = Vec::new();
    let mut multi = Vec::new();
    let mut util = Vec::new();
    let mut single_util = Vec::new();
    let mut multi_util = Vec::new();
    let mut avg_gpus = Vec::new();
    for m in 0..cal.num_months() {
        let (lo, hi) = cal.month_range(m);
        let mut s = 0u64;
        let mut mu = 0u64;
        let mut gpus_sum = 0.0;
        let mut gpu_jobs = 0u64;
        for j in trace.jobs_in_month(m) {
            if !j.is_gpu() {
                continue;
            }
            gpu_jobs += 1;
            gpus_sum += j.gpus as f64;
            if j.gpus == 1 {
                s += 1;
            } else {
                mu += 1;
            }
        }
        single.push(s);
        multi.push(mu);
        avg_gpus.push(if gpu_jobs > 0 {
            gpus_sum / gpu_jobs as f64
        } else {
            0.0
        });
        // Occupancy within the month, split by job width.
        let denom = (capacity as i64 * (hi - lo)) as f64;
        let occupied = |pred: &dyn Fn(u32) -> bool| -> f64 {
            trace
                .gpu_jobs()
                .filter(|j| j.gpus as u64 <= capacity && pred(j.gpus))
                .map(|j| {
                    let (s, e) = (j.start.max(lo), j.end().min(hi));
                    if e > s {
                        (e - s) as f64 * j.gpus as f64
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / denom
                * 100.0
        };
        let su = occupied(&|g| g == 1);
        let mu_ = occupied(&|g| g > 1);
        single_util.push(su);
        multi_util.push(mu_);
        util.push(su + mu_);
    }
    let mean = avg_gpus.iter().sum::<f64>() / avg_gpus.len().max(1) as f64;
    let std = (avg_gpus.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
        / avg_gpus.len().max(1) as f64)
        .sqrt();
    MonthlyTrend {
        cluster: trace.spec.id.name().to_string(),
        months: cal.month_names.clone(),
        single_gpu_jobs: single,
        multi_gpu_jobs: multi,
        utilization: util,
        single_gpu_utilization: single_util,
        multi_gpu_utilization: multi_util,
        monthly_avg_gpu_std_dev: std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{generate, venus_profile, GeneratorConfig};

    fn trace() -> Trace {
        generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
            },
        )
        .unwrap()
    }

    #[test]
    fn daily_pattern_shape() {
        let p = daily_pattern(&trace());
        assert_eq!(p.hourly_utilization.len(), 24);
        assert_eq!(p.hourly_submissions.len(), 24);
        // Utilization stays within a sane percentage band.
        assert!(p
            .hourly_utilization
            .iter()
            .all(|&u| (0.0..=100.0).contains(&u)));
        // Night submissions below afternoon submissions (Implication #1).
        let night: f64 = p.hourly_submissions[3..6].iter().sum();
        let afternoon: f64 = p.hourly_submissions[14..17].iter().sum();
        assert!(night < afternoon);
    }

    #[test]
    fn nightly_utilization_dip_is_mild() {
        // §3.1.1: a 5-8% decrease at night, "not very significant" because
        // long jobs run overnight.
        let p = daily_pattern(&trace());
        let day_max = p.hourly_utilization.iter().cloned().fold(0.0, f64::max);
        let night_min = p.hourly_utilization[0..8]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(day_max - night_min < 25.0, "dip {}", day_max - night_min);
    }

    #[test]
    fn monthly_trend_shape() {
        let t = trace();
        let m = monthly_trend(&t);
        assert_eq!(m.months.len(), 6);
        assert_eq!(m.single_gpu_jobs.len(), 6);
        // Single + multi utilization compose the total.
        for i in 0..6 {
            let sum = m.single_gpu_utilization[i] + m.multi_gpu_utilization[i];
            assert!((sum - m.utilization[i]).abs() < 1e-9);
        }
        // Implication #2: multi-GPU jobs dominate utilization.
        let su: f64 = m.single_gpu_utilization.iter().sum();
        let mu: f64 = m.multi_gpu_utilization.iter().sum();
        assert!(mu > su);
    }

    #[test]
    fn multi_gpu_submissions_are_stable() {
        // Fig. 3: multi-GPU monthly counts are stable while single-GPU
        // fluctuates; requested-GPU std-dev is small (paper: 2.9).
        let m = monthly_trend(&trace());
        let spread = |v: &[u64]| {
            let max = *v.iter().max().unwrap() as f64;
            let min = *v.iter().min().unwrap() as f64;
            max / min.max(1.0)
        };
        // Exclude September (truncated month in the paper too).
        let multi = &m.multi_gpu_jobs[..5];
        let single = &m.single_gpu_jobs[..5];
        assert!(
            spread(multi) < spread(single),
            "multi {multi:?} single {single:?}"
        );
        assert!(m.monthly_avg_gpu_std_dev < 4.0);
    }
}

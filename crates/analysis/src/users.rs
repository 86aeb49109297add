//! User-level characterization (§3.3): resource-consumption concentration
//! (Fig. 8), queuing-delay distribution across users and per-user completion
//! rates (Fig. 9).

use crate::cdf::WeightedCdf;
use helios_trace::{JobStatus, Trace, UserId};
use std::collections::BTreeMap;

/// Per-user aggregates for one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserStats {
    pub user: UserId,
    pub gpu_jobs: u64,
    pub cpu_jobs: u64,
    pub gpu_time: f64,
    pub cpu_time: f64,
    pub queue_delay: f64,
    pub completed_gpu_jobs: u64,
}

impl UserStats {
    /// GPU-job completion rate in \[0, 1\].
    pub fn completion_rate(&self) -> f64 {
        if self.gpu_jobs == 0 {
            0.0
        } else {
            self.completed_gpu_jobs as f64 / self.gpu_jobs as f64
        }
    }
}

/// Aggregate the trace per user.
pub fn per_user_stats(trace: &Trace) -> Vec<UserStats> {
    let mut map: BTreeMap<UserId, UserStats> = BTreeMap::new();
    for j in &trace.jobs {
        let s = map.entry(j.user).or_insert_with(|| UserStats {
            user: j.user,
            ..Default::default()
        });
        if j.is_gpu() {
            s.gpu_jobs += 1;
            s.gpu_time += j.gpu_time() as f64;
            s.queue_delay += j.queue_delay() as f64;
            if j.status == JobStatus::Completed {
                s.completed_gpu_jobs += 1;
            }
        } else {
            s.cpu_jobs += 1;
            s.cpu_time += j.cpu_time() as f64;
        }
    }
    // BTreeMap iteration is user-id order already — the report contract.
    map.into_values().collect()
}

/// One concentration curve: (fraction of users, fraction of resource time),
/// users sorted by descending consumption.
pub type ConcentrationCurve = Vec<(f64, f64)>;

/// Fig. 8 curves: GPU-time and CPU-time concentration across users.
pub fn consumption_curves(stats: &[UserStats]) -> (ConcentrationCurve, ConcentrationCurve) {
    let gpu = WeightedCdf::new(stats.iter().map(|s| (s.user as f64, s.gpu_time)).collect());
    let cpu = WeightedCdf::new(
        stats
            .iter()
            .filter(|s| s.cpu_jobs > 0)
            .map(|s| (s.user as f64, s.cpu_time))
            .collect(),
    );
    (gpu.concentration_curve(), cpu.concentration_curve())
}

/// Share of a resource held by the top `frac` of users (e.g. 0.05).
pub fn top_share(curve: &[(f64, f64)], frac: f64) -> f64 {
    curve
        .iter()
        .find(|(users, _)| *users >= frac)
        .map(|&(_, share)| share)
        .unwrap_or(1.0)
}

/// Fig. 9(a): concentration curve of total queueing delay across users
/// ("marquee users" hold most of the waiting).
pub fn queuing_curve(stats: &[UserStats]) -> Vec<(f64, f64)> {
    WeightedCdf::new(
        stats
            .iter()
            .map(|s| (s.user as f64, s.queue_delay))
            .collect(),
    )
    .concentration_curve()
}

/// Fig. 9(b): histogram of per-user GPU-job completion rates. Returns the
/// number of users in each of `bins` equal-width buckets over \[0, 1\].
pub fn completion_rate_histogram(stats: &[UserStats], bins: usize) -> Vec<u64> {
    let mut hist = vec![0u64; bins];
    for s in stats {
        if s.gpu_jobs == 0 {
            continue;
        }
        let idx = ((s.completion_rate() * bins as f64) as usize).min(bins - 1);
        hist[idx] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{generate, venus_profile, GeneratorConfig};

    fn stats() -> Vec<UserStats> {
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
            },
        )
        .unwrap();
        per_user_stats(&t)
    }

    #[test]
    fn aggregates_cover_all_jobs() {
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
            },
        )
        .unwrap();
        let stats = per_user_stats(&t);
        let total: u64 = stats.iter().map(|s| s.gpu_jobs + s.cpu_jobs).sum();
        assert_eq!(total, t.jobs.len() as u64);
    }

    #[test]
    fn cpu_time_more_concentrated_than_gpu_time() {
        // §3.3: CPU CDF curves are much steeper; top 5% of users hold >90%
        // of CPU time but only 45-60% of GPU time.
        let stats = stats();
        let (gpu_curve, cpu_curve) = consumption_curves(&stats);
        let gpu5 = top_share(&gpu_curve, 0.05);
        // cpu_curve only ranges over CPU users; translate "5% of all users"
        // into the CPU-user fraction.
        let cpu_users = stats.iter().filter(|s| s.cpu_jobs > 0).count() as f64;
        let all_users = stats.len() as f64;
        let cpu5 = top_share(&cpu_curve, (0.05 * all_users / cpu_users).min(1.0));
        assert!(cpu5 > gpu5, "cpu5={cpu5} gpu5={gpu5}");
        assert!(cpu5 > 0.6, "cpu5={cpu5}");
        assert!((0.3..0.95).contains(&gpu5), "gpu5={gpu5}");
    }

    #[test]
    fn queueing_is_concentrated() {
        // Fig. 9a: a few users bear most of the queueing delay.
        let curve = queuing_curve(&stats());
        let top10 = top_share(&curve, 0.10);
        assert!(top10 > 0.4, "top-10% queue share {top10}");
    }

    #[test]
    fn completion_histogram_totals() {
        let stats = stats();
        let hist = completion_rate_histogram(&stats, 10);
        let users_with_gpu = stats.iter().filter(|s| s.gpu_jobs > 0).count() as u64;
        assert_eq!(hist.iter().sum::<u64>(), users_with_gpu);
        // Fig. 9b: completion rates are "generally low" — the mass is not
        // all in the top bucket.
        assert!(hist[9] < users_with_gpu / 2);
    }

    #[test]
    fn completion_rate_bounds() {
        for s in stats() {
            let r = s.completion_rate();
            assert!((0.0..=1.0).contains(&r));
        }
    }
}

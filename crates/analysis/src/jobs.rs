//! Job-level characterization (§3.2): duration CDFs (Figs. 1a/5), job-size
//! distributions (Fig. 6), final-status breakdowns (Figs. 1b/7) and the
//! Table 2 summary row.

use crate::cdf::{Cdf, WeightedCdf};
use helios_trace::{JobStatus, Trace};

/// Table 2 row for a trace set.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    pub clusters: usize,
    pub vcs: usize,
    pub jobs: u64,
    pub gpu_jobs: u64,
    pub cpu_jobs: u64,
    pub duration_days: u32,
    pub avg_gpus: f64,
    pub max_gpus: u32,
    pub avg_duration_s: f64,
    pub max_duration_s: i64,
}

/// Compute the Table 2 summary over one or more traces.
pub fn summarize(traces: &[&Trace]) -> TraceSummary {
    let mut gpu_jobs = 0u64;
    let mut cpu_jobs = 0u64;
    let mut gpus_sum = 0.0;
    let mut max_gpus = 0;
    let mut dur_sum = 0.0;
    let mut max_dur = 0;
    for t in traces {
        for j in &t.jobs {
            if j.is_gpu() {
                gpu_jobs += 1;
                gpus_sum += j.gpus as f64;
                max_gpus = max_gpus.max(j.gpus);
                dur_sum += j.duration as f64;
                max_dur = max_dur.max(j.duration);
            } else {
                cpu_jobs += 1;
            }
        }
    }
    TraceSummary {
        clusters: traces.len(),
        vcs: traces.iter().map(|t| t.spec.num_vcs()).sum(),
        jobs: gpu_jobs + cpu_jobs,
        gpu_jobs,
        cpu_jobs,
        duration_days: traces
            .iter()
            .map(|t| t.calendar.total_days())
            .max()
            .unwrap_or(0),
        avg_gpus: gpus_sum / gpu_jobs.max(1) as f64,
        max_gpus,
        avg_duration_s: dur_sum / gpu_jobs.max(1) as f64,
        max_duration_s: max_dur,
    }
}

/// Duration CDF of GPU jobs (Fig. 1a / Fig. 5a).
pub fn gpu_duration_cdf(trace: &Trace) -> Cdf {
    Cdf::new(trace.gpu_jobs().map(|j| j.duration as f64).collect())
}

/// Duration CDF of CPU jobs (Fig. 5b).
pub fn cpu_duration_cdf(trace: &Trace) -> Cdf {
    Cdf::new(trace.cpu_jobs().map(|j| j.duration as f64).collect())
}

/// Fig. 6(a): CDF of job sizes weighted by job count, and
/// Fig. 6(b): CDF of job sizes weighted by GPU time.
pub fn job_size_cdfs(trace: &Trace) -> (Cdf, WeightedCdf) {
    let by_count = Cdf::new(trace.gpu_jobs().map(|j| j.gpus as f64).collect());
    let by_time = WeightedCdf::new(
        trace
            .gpu_jobs()
            .map(|j| (j.gpus as f64, j.gpu_time() as f64))
            .collect(),
    );
    (by_count, by_time)
}

/// Status shares in percent, ordered [completed, canceled, failed].
pub type StatusShares = [f64; 3];

pub(crate) fn shares(counts: [f64; 3]) -> StatusShares {
    let total: f64 = counts.iter().sum();
    if total == 0.0 {
        return [0.0; 3];
    }
    [
        counts[0] / total * 100.0,
        counts[1] / total * 100.0,
        counts[2] / total * 100.0,
    ]
}

pub(crate) fn status_index(s: JobStatus) -> usize {
    match s {
        JobStatus::Completed => 0,
        JobStatus::Canceled => 1,
        JobStatus::Failed => 2,
    }
}

/// Fig. 1(b): percentage of *GPU time* by final status.
pub fn gpu_time_by_status(traces: &[&Trace]) -> StatusShares {
    let mut acc = [0.0f64; 3];
    for t in traces {
        for j in t.gpu_jobs() {
            acc[status_index(j.status)] += j.gpu_time() as f64;
        }
    }
    shares(acc)
}

/// Fig. 7(a): percentage of jobs by final status, for (cpu, gpu) jobs.
pub fn status_by_job_class(traces: &[&Trace]) -> (StatusShares, StatusShares) {
    let mut cpu = [0.0f64; 3];
    let mut gpu = [0.0f64; 3];
    for t in traces {
        for j in &t.jobs {
            let acc = if j.is_gpu() { &mut gpu } else { &mut cpu };
            acc[status_index(j.status)] += 1.0;
        }
    }
    (shares(cpu), shares(gpu))
}

/// Fig. 7(b): status shares per GPU-demand bucket. Buckets are the powers of
/// two the paper plots: 1, 2, 4, 8, 16, 32, >=64.
pub const DEMAND_BUCKETS: [&str; 7] = ["1", "2", "4", "8", "16", "32", ">=64"];

/// Map a GPU count to its Fig. 7(b) bucket.
pub fn demand_bucket(gpus: u32) -> Option<usize> {
    match gpus {
        1 => Some(0),
        2 => Some(1),
        4 => Some(2),
        8 => Some(3),
        16 => Some(4),
        32 => Some(5),
        g if g >= 64 => Some(6),
        _ => None, // non power-of-two demands are rare and excluded, as in the paper
    }
}

/// Compute Fig. 7(b): one status-share triple per demand bucket.
pub fn status_by_gpu_demand(traces: &[&Trace]) -> Vec<StatusShares> {
    let mut acc = vec![[0.0f64; 3]; DEMAND_BUCKETS.len()];
    for t in traces {
        for j in t.gpu_jobs() {
            if let Some(b) = demand_bucket(j.gpus) {
                acc[b][status_index(j.status)] += 1.0;
            }
        }
    }
    acc.into_iter().map(shares).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{generate, generate_helios, venus_profile, GeneratorConfig};

    fn cfg() -> GeneratorConfig {
        GeneratorConfig {
            scale: 0.05,
            seed: 3,
        }
    }

    #[test]
    fn summary_counts_consistent() {
        let t = generate(&venus_profile(), &cfg()).unwrap();
        let s = summarize(&[&t]);
        assert_eq!(s.jobs, t.jobs.len() as u64);
        assert_eq!(s.gpu_jobs + s.cpu_jobs, s.jobs);
        assert_eq!(s.clusters, 1);
        assert!(s.avg_gpus >= 1.0);
        assert!(s.max_duration_s <= helios_trace::MAX_DURATION_SECS);
    }

    #[test]
    fn duration_cdfs_ordered() {
        // GPU jobs are an order of magnitude longer than CPU jobs (§3.2.1).
        let t = generate(&venus_profile(), &cfg()).unwrap();
        let g = gpu_duration_cdf(&t);
        let c = cpu_duration_cdf(&t);
        assert!(g.median() > c.median());
        // Paper ratio is 10.6x; at tiny test scale the preprocess tail
        // is noisy, so assert a conservative 2x.
        assert!(g.mean() > 2.0 * c.mean());
    }

    #[test]
    fn job_size_cdf_pair() {
        let t = generate(&venus_profile(), &cfg()).unwrap();
        let (count, time) = job_size_cdfs(&t);
        // >50% single-GPU by count, far less by GPU time (Implication #4).
        assert!(count.fraction_at(1.0) > 0.5);
        assert!(time.fraction_at(1.0) < count.fraction_at(1.0));
    }

    #[test]
    fn status_shares_sum_to_100() {
        let traces = generate_helios(&cfg()).unwrap();
        let refs: Vec<&Trace> = traces.iter().collect();
        let (cpu, gpu) = status_by_job_class(&refs);
        assert!((cpu.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((gpu.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        // Fig. 7a: GPU unsuccessful >> CPU unsuccessful.
        assert!(gpu[1] + gpu[2] > 2.0 * (cpu[1] + cpu[2]));
    }

    #[test]
    fn completion_falls_with_demand() {
        let traces = generate_helios(&cfg()).unwrap();
        let refs: Vec<&Trace> = traces.iter().collect();
        let by_demand = status_by_gpu_demand(&refs);
        // Fig. 7b: small jobs complete far more often than large jobs. At
        // test scale the VC-size cap empties the largest buckets, so compare
        // against the largest bucket with a meaningful population.
        let mut counts = vec![0u64; DEMAND_BUCKETS.len()];
        for t in &refs {
            for j in t.gpu_jobs() {
                if let Some(b) = demand_bucket(j.gpus) {
                    counts[b] += 1;
                }
            }
        }
        let large_idx = (0..DEMAND_BUCKETS.len())
            .rev()
            .find(|&b| counts[b] >= 100)
            .expect("no populated large bucket");
        assert!(large_idx >= 3, "largest populated bucket only {large_idx}");
        let small = by_demand[0][0];
        let large = by_demand[large_idx][0];
        assert!(small > large + 10.0, "small {small} large {large}");
        let large_unsuccessful = by_demand[large_idx][1] + by_demand[large_idx][2];
        assert!(
            large_unsuccessful > 35.0,
            "large unsuccessful {large_unsuccessful}"
        );
    }

    #[test]
    fn demand_bucket_mapping() {
        assert_eq!(demand_bucket(1), Some(0));
        assert_eq!(demand_bucket(32), Some(5));
        assert_eq!(demand_bucket(64), Some(6));
        assert_eq!(demand_bucket(2048), Some(6));
        assert_eq!(demand_bucket(3), None);
        assert_eq!(demand_bucket(0), None);
    }

    #[test]
    fn gpu_time_by_status_shares() {
        let traces = generate_helios(&cfg()).unwrap();
        let refs: Vec<&Trace> = traces.iter().collect();
        let s = gpu_time_by_status(&refs);
        assert!((s.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        // Fig. 1b: a significant fraction of GPU time goes to non-completed
        // jobs.
        assert!(s[1] + s[2] > 15.0);
    }
}

//! Virtual-cluster characterization (§3.1.3, Fig. 4): per-VC utilization
//! boxplots, average GPU demand, and normalized duration/queuing delay for
//! the top-k largest VCs over a stable month.

use crate::quantiles::{min_max_normalize, BoxStats};
use crate::timeseries::gpu_utilization_series_from;
use helios_trace::{Trace, VcId, SECS_PER_MINUTE};
use rayon::prelude::*;

/// Fig. 4 data for one VC.
#[derive(Debug, Clone, PartialEq)]
pub struct VcBehavior {
    pub vc: VcId,
    pub name: String,
    pub gpus: u32,
    /// Boxplot of per-minute utilization (percent) over the window.
    pub utilization: BoxStats,
    /// Average requested GPUs per job (the dashed line of Fig. 4 top).
    pub avg_gpu_request: f64,
    /// Average job duration, seconds.
    pub avg_duration: f64,
    /// Average queuing delay, seconds.
    pub avg_queuing: f64,
    pub jobs: u64,
}

/// Fig. 4: behaviors of the `top_k` largest VCs over month `month`.
/// Utilization is averaged per minute as in the paper.
///
/// One pass over the trace gathers per-VC job references (no record
/// clones, no per-VC re-scan), then the per-VC series fan out over rayon.
pub fn vc_behaviors(trace: &Trace, month: usize, top_k: usize) -> Vec<VcBehavior> {
    let (lo, hi) = trace.calendar.month_range(month);
    let mut order: Vec<usize> = (0..trace.spec.num_vcs()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(trace.spec.vcs[i].nodes));
    order.truncate(top_k);

    // slot_of[vc] = output position of a selected VC.
    let mut slot_of = vec![usize::MAX; trace.spec.num_vcs()];
    for (slot, &vc_idx) in order.iter().enumerate() {
        slot_of[vc_idx] = slot;
    }
    // Single traversal: GPU-job references per selected VC, trace order.
    let mut occupying: Vec<Vec<&helios_trace::JobRecord>> = vec![Vec::new(); order.len()];
    for j in trace.gpu_jobs() {
        let slot = slot_of[j.vc as usize];
        if slot != usize::MAX {
            occupying[slot].push(j);
        }
    }

    order
        .iter()
        .zip(occupying)
        .collect::<Vec<_>>()
        .into_par_iter()
        .with_min_len(1)
        .map(|(&vc_idx, occ)| {
            let vc = vc_idx as VcId;
            let capacity = trace.spec.vc_gpus(vc) as u64;
            let util =
                gpu_utilization_series_from(occ.iter().copied(), capacity, lo, hi, SECS_PER_MINUTE);
            let pct: Vec<f64> = util.values.iter().map(|u| u * 100.0).collect();
            let vc_jobs: Vec<_> = occ
                .iter()
                .filter(|j| j.submit >= lo && j.submit < hi)
                .collect();
            let n = vc_jobs.len() as f64;
            VcBehavior {
                vc,
                name: trace.spec.vcs[vc_idx].name.clone(),
                gpus: capacity as u32,
                utilization: BoxStats::from_samples(&pct),
                avg_gpu_request: vc_jobs.iter().map(|j| j.gpus as f64).sum::<f64>() / n.max(1.0),
                avg_duration: vc_jobs.iter().map(|j| j.duration as f64).sum::<f64>() / n.max(1.0),
                avg_queuing: vc_jobs.iter().map(|j| j.queue_delay() as f64).sum::<f64>()
                    / n.max(1.0),
                jobs: vc_jobs.len() as u64,
            }
        })
        .collect()
}

/// Fig. 4 bottom: min-max-normalized (avg duration, avg queuing delay)
/// across the listed VCs.
pub fn normalized_delay_series(behaviors: &[VcBehavior]) -> (Vec<f64>, Vec<f64>) {
    let dur: Vec<f64> = behaviors.iter().map(|b| b.avg_duration).collect();
    let qd: Vec<f64> = behaviors.iter().map(|b| b.avg_queuing).collect();
    (min_max_normalize(&dur), min_max_normalize(&qd))
}

/// Pearson correlation between two equal-length slices; NaN-free inputs.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{earth_profile, generate, GeneratorConfig};

    fn behaviors() -> Vec<VcBehavior> {
        let t = generate(
            &earth_profile(),
            &GeneratorConfig {
                scale: 0.12,
                seed: 3,
            },
        )
        .unwrap();
        // May in Earth, as the paper does (month index 1).
        vc_behaviors(&t, 1, 10)
    }

    #[test]
    fn top_k_by_size_descending() {
        let b = behaviors();
        assert_eq!(b.len(), 10);
        for w in b.windows(2) {
            assert!(w[0].gpus >= w[1].gpus);
        }
    }

    #[test]
    fn utilization_percentages_valid() {
        for b in behaviors() {
            assert!(b.utilization.min >= 0.0);
            assert!(b.utilization.max <= 100.0 + 1e-9);
            assert!(b.utilization.q1 <= b.utilization.median);
            assert!(b.utilization.median <= b.utilization.q3);
        }
    }

    #[test]
    fn queuing_correlates_with_duration() {
        // §3.1.3: "the job queuing delay is approximately proportional to
        // the average job duration".
        let b = behaviors();
        let (dur, qd) = normalized_delay_series(&b);
        assert_eq!(dur.len(), 10);
        let r = pearson(&dur, &qd);
        // Positive, if noisy at reduced scale (the paper reports an
        // approximate proportionality).
        assert!(r > 0.05, "duration-queuing correlation {r}");
    }

    #[test]
    fn pearson_basics() {
        let a = [1.0, 2.0, 3.0];
        assert!((pearson(&a, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0, 5.0, 5.0]), 0.0);
    }
}

//! Scheduling metrics: the aggregates behind Tables 3–4 and Figs. 11–13.

use crate::job::JobOutcome;
use helios_trace::VcId;
use std::collections::BTreeMap;

/// Jobs are "queued" when they waited at least this long (1 minute; the
/// paper counts jobs that observably queued).
pub const QUEUED_THRESHOLD_SECS: i64 = 60;

/// Table 3 row: cluster-wide scheduling aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    pub jobs: u64,
    pub avg_jct: f64,
    pub avg_queue_delay: f64,
    /// Jobs with queue delay >= [`QUEUED_THRESHOLD_SECS`].
    pub queued_jobs: u64,
    pub total_preemptions: u64,
}

/// Aggregate outcomes cluster-wide.
pub fn schedule_stats(outcomes: &[JobOutcome]) -> ScheduleStats {
    let n = outcomes.len() as f64;
    let mut jct = 0.0;
    let mut qd = 0.0;
    let mut queued = 0;
    let mut preempt = 0;
    for o in outcomes {
        jct += o.jct() as f64;
        qd += o.queue_delay() as f64;
        if o.queue_delay() >= QUEUED_THRESHOLD_SECS {
            queued += 1;
        }
        preempt += o.preemptions as u64;
    }
    ScheduleStats {
        jobs: outcomes.len() as u64,
        avg_jct: jct / n.max(1.0),
        avg_queue_delay: qd / n.max(1.0),
        queued_jobs: queued,
        total_preemptions: preempt,
    }
}

/// Stable FNV-1a fingerprint of a scheduling result: each outcome's id,
/// start, end and preemption count, in the order given. The committed
/// `BENCH_*.json` result pins and every byte-identity test compare this
/// digest, so it must never change.
pub fn outcome_digest(outcomes: &[JobOutcome]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for o in outcomes {
        mix(o.id);
        mix(o.start as u64);
        mix(o.end as u64);
        mix(o.preemptions as u64);
    }
    format!("{h:016x}")
}

/// Per-VC average queue delay (Figs. 12–13).
///
/// Returns a `BTreeMap` so iteration order is the VC id order — this
/// feeds report digests, and `HashMap`'s seed-dependent order would
/// make byte-identical reports impossible.
pub fn per_vc_queue_delay(outcomes: &[JobOutcome]) -> BTreeMap<VcId, f64> {
    let mut sums: BTreeMap<VcId, (f64, u64)> = BTreeMap::new();
    for o in outcomes {
        let e = sums.entry(o.vc).or_insert((0.0, 0));
        e.0 += o.queue_delay() as f64;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(vc, (s, n))| (vc, s / n as f64))
        .collect()
}

/// Duration groups of Table 4.
pub const DURATION_GROUPS: [&str; 3] = ["short (<15m)", "middle (15m-6h)", "long (>6h)"];

/// Table 4 group index for a ground-truth duration.
pub fn duration_group(duration: i64) -> usize {
    if duration < 15 * 60 {
        0
    } else if duration <= 6 * 3_600 {
        1
    } else {
        2
    }
}

/// Average queue delay per duration group.
pub fn queue_delay_by_group(outcomes: &[JobOutcome]) -> [f64; 3] {
    let mut sums = [0.0f64; 3];
    let mut counts = [0u64; 3];
    for o in outcomes {
        let g = duration_group(o.duration);
        sums[g] += o.queue_delay() as f64;
        counts[g] += 1;
    }
    let mut out = [0.0; 3];
    for g in 0..3 {
        out[g] = if counts[g] > 0 {
            sums[g] / counts[g] as f64
        } else {
            0.0
        };
    }
    out
}

/// Table 4: per-group ratio of `baseline` avg queue delay over `improved`
/// avg queue delay (higher = better for `improved`). Groups without jobs
/// yield 0.
pub fn group_delay_ratios(baseline: &[JobOutcome], improved: &[JobOutcome]) -> [f64; 3] {
    let b = queue_delay_by_group(baseline);
    let i = queue_delay_by_group(improved);
    let mut out = [0.0; 3];
    for g in 0..3 {
        out[g] = if i[g] > 0.0 { b[g] / i[g] } else { 0.0 };
    }
    out
}

/// JCT samples for CDF plots (Fig. 11).
pub fn jct_samples(outcomes: &[JobOutcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.jct().max(1) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(vc: VcId, submit: i64, start: i64, duration: i64) -> JobOutcome {
        JobOutcome {
            id: 0,
            vc,
            gpus: 1,
            submit,
            start,
            end: start + duration,
            duration,
            preemptions: 0,
        }
    }

    #[test]
    fn stats_aggregation() {
        let o = vec![
            outcome(0, 0, 0, 100),   // no wait
            outcome(0, 0, 300, 100), // 300 wait
        ];
        let s = schedule_stats(&o);
        assert_eq!(s.jobs, 2);
        assert!((s.avg_queue_delay - 150.0).abs() < 1e-9);
        assert!((s.avg_jct - (100.0 + 400.0) / 2.0).abs() < 1e-9);
        assert_eq!(s.queued_jobs, 1);
    }

    #[test]
    fn outcome_digest_is_pinned() {
        // FNV-1a's offset basis for no outcomes; every field and the
        // outcome order reach the digest.
        assert_eq!(outcome_digest(&[]), "cbf29ce484222325");
        let two = [outcome(0, 0, 300, 100), outcome(1, 0, 0, 50)];
        let mut moved = two;
        moved[0].start += 1;
        assert_ne!(outcome_digest(&moved), outcome_digest(&two));
        let mut ids = two;
        ids[1].id = 7;
        assert_ne!(outcome_digest(&ids), outcome_digest(&two));
        assert_ne!(outcome_digest(&[two[1], two[0]]), outcome_digest(&two));
    }

    #[test]
    fn per_vc_breakdown() {
        let o = vec![
            outcome(0, 0, 100, 10),
            outcome(0, 0, 300, 10),
            outcome(1, 0, 0, 10),
        ];
        let m = per_vc_queue_delay(&o);
        assert!((m[&0] - 200.0).abs() < 1e-9);
        assert!((m[&1] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn per_vc_iteration_order_is_vc_order() {
        // Insert VCs out of order; the breakdown must iterate sorted by
        // VC id regardless, because report digests consume it in
        // iteration order.
        let o = vec![
            outcome(7, 0, 10, 10),
            outcome(2, 0, 20, 10),
            outcome(5, 0, 30, 10),
            outcome(2, 0, 40, 10),
        ];
        let m = per_vc_queue_delay(&o);
        let vcs: Vec<VcId> = m.keys().copied().collect();
        assert_eq!(vcs, vec![2, 5, 7]);
        assert!((m[&2] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn duration_groups_boundaries() {
        assert_eq!(duration_group(1), 0);
        assert_eq!(duration_group(15 * 60 - 1), 0);
        assert_eq!(duration_group(15 * 60), 1);
        assert_eq!(duration_group(6 * 3_600), 1);
        assert_eq!(duration_group(6 * 3_600 + 1), 2);
    }

    #[test]
    fn group_ratios() {
        let fifo = vec![outcome(0, 0, 1_000, 60), outcome(0, 0, 5_000, 100_000)];
        let qssf = vec![outcome(0, 0, 100, 60), outcome(0, 0, 2_500, 100_000)];
        let r = group_delay_ratios(&fifo, &qssf);
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[2] - 2.0).abs() < 1e-9);
        assert_eq!(r[1], 0.0, "empty group yields 0");
    }

    #[test]
    fn jct_samples_positive() {
        let o = vec![outcome(0, 5, 5, 1)];
        assert_eq!(jct_samples(&o), vec![1.0]);
    }
}

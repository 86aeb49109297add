//! Simulator job descriptions and per-job outcomes.

use helios_trace::{JobId, JobRecord, Trace, VcId};

/// A job as the simulator sees it: arrival, demand, ground-truth runtime
/// (how long it *will* occupy its GPUs, whatever its final status), and a
/// scheduling priority (lower = runs first under the `Priority` policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    pub id: JobId,
    pub vc: VcId,
    pub gpus: u32,
    pub submit: i64,
    /// Ground-truth occupancy time (seconds, >= 1).
    pub duration: i64,
    /// Priority score for the `Priority` policy (QSSF: predicted GPU time).
    pub priority: f64,
}

/// What happened to a job in one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    pub id: JobId,
    pub vc: VcId,
    pub gpus: u32,
    pub submit: i64,
    /// First execution start.
    pub start: i64,
    /// Final completion time.
    pub end: i64,
    /// Ground-truth execution time.
    pub duration: i64,
    /// Times the job was preempted (SRTF only).
    pub preemptions: u32,
}

impl JobOutcome {
    /// Job completion time (queueing + execution + any preemption gaps).
    pub fn jct(&self) -> i64 {
        self.end - self.submit
    }

    /// Total non-running time before completion.
    pub fn queue_delay(&self) -> i64 {
        self.jct() - self.duration
    }
}

/// Convert the GPU jobs of a trace submitted in `[t_lo, t_hi)` into
/// simulator jobs. Jobs whose demand exceeds their VC capacity (the
/// 2 048-GPU artifacts) are dropped — they can never be scheduled under a
/// static partition. Priorities default to the submission time (FIFO-like)
/// and are overwritten by the caller for priority policies.
pub fn jobs_from_trace(trace: &Trace, t_lo: i64, t_hi: i64) -> Vec<SimJob> {
    trace
        .gpu_jobs()
        .filter(|j| j.submit >= t_lo && j.submit < t_hi)
        .filter(|j| j.gpus <= trace.spec.vc_gpus(j.vc))
        .map(|j| SimJob {
            id: j.id,
            vc: j.vc,
            gpus: j.gpus,
            submit: j.submit,
            duration: j.duration.max(1),
            priority: j.submit as f64,
        })
        .collect()
}

/// Look up the original trace record for a sim job (by id).
pub fn record_of<'a>(trace: &'a Trace, job: &SimJob) -> &'a JobRecord {
    &trace.jobs[job.id as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{generate, venus_profile, GeneratorConfig};

    #[test]
    fn outcome_metrics() {
        let o = JobOutcome {
            id: 0,
            vc: 0,
            gpus: 8,
            submit: 100,
            start: 400,
            end: 1_000,
            duration: 600,
            preemptions: 0,
        };
        assert_eq!(o.jct(), 900);
        assert_eq!(o.queue_delay(), 300);
    }

    #[test]
    fn trace_conversion_filters_and_windows() {
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
            },
        )
        .unwrap();
        let (lo, hi) = t.calendar.month_range(2);
        let jobs = jobs_from_trace(&t, lo, hi);
        assert!(!jobs.is_empty());
        for j in &jobs {
            assert!(j.submit >= lo && j.submit < hi);
            assert!(j.gpus >= 1 && j.gpus <= t.spec.vc_gpus(j.vc));
            assert!(j.duration >= 1);
            let rec = record_of(&t, j);
            assert_eq!(rec.id, j.id);
        }
    }
}

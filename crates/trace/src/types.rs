//! Core trace record types shared across the workspace.
//!
//! A [`JobRecord`] mirrors the fields available from the Slurm `sacct` logs
//! the paper collects (§2.3): submission/start/end timing, resource demands,
//! final status, and the (interned) job name used by the QSSF predictor.

use std::fmt;

/// Identifier of a user within one cluster.
pub type UserId = u32;
/// Identifier of a virtual cluster (VC) within one cluster.
pub type VcId = u16;
/// Identifier of a job within one cluster trace.
pub type JobId = u64;
/// Identifier of an interned job-name template (see [`NamePool`]).
pub type NameId = u32;

/// Final status of a job (§2.3.1). `Timeout` and `NodeFail` are "very rare"
/// in the original traces and folded into `Failed`, as the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Finished successfully.
    Completed,
    /// Terminated by the user (early stopping, feedback-driven exploration).
    Canceled,
    /// Terminated by an internal/external error (incl. timeout, node fail).
    Failed,
}

impl JobStatus {
    /// All statuses in presentation order.
    pub const ALL: [JobStatus; 3] = [JobStatus::Completed, JobStatus::Canceled, JobStatus::Failed];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Canceled => "canceled",
            JobStatus::Failed => "failed",
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The four Helios clusters (Table 1) plus the Philly comparison cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterId {
    Venus,
    Earth,
    Saturn,
    Uranus,
    Philly,
}

impl ClusterId {
    /// The four Helios clusters, in Table 1 order.
    pub const HELIOS: [ClusterId; 4] = [
        ClusterId::Venus,
        ClusterId::Earth,
        ClusterId::Saturn,
        ClusterId::Uranus,
    ];

    /// Cluster display name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterId::Venus => "Venus",
            ClusterId::Earth => "Earth",
            ClusterId::Saturn => "Saturn",
            ClusterId::Uranus => "Uranus",
            ClusterId::Philly => "Philly",
        }
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One job-log row.
///
/// Timestamps are seconds relative to the trace epoch (see
/// [`crate::time::Calendar`]). `start >= submit` always holds after replay;
/// `duration` is the execution time (not including queueing), so the job
/// occupies its resources over `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Unique id within the trace (dense, submission-ordered).
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Target virtual cluster.
    pub vc: VcId,
    /// Requested GPUs; 0 for CPU jobs.
    pub gpus: u32,
    /// Requested CPU threads (Helios allocates CPUs proportional to GPUs
    /// when unspecified, §2.1).
    pub cpus: u32,
    /// Submission timestamp.
    pub submit: i64,
    /// Execution start timestamp (assigned by the FIFO replay).
    pub start: i64,
    /// Execution time in seconds (>= 1).
    pub duration: i64,
    /// Final status.
    pub status: JobStatus,
    /// Interned base name of the job (template); see [`NamePool`].
    pub name: NameId,
    /// Per-template run index, used to synthesize the full job name
    /// (`"<base>_<run>"`), mimicking users resubmitting variations.
    pub run: u32,
}

impl JobRecord {
    /// Execution end timestamp.
    pub fn end(&self) -> i64 {
        self.start + self.duration
    }

    /// Queueing delay in seconds.
    pub fn queue_delay(&self) -> i64 {
        self.start - self.submit
    }

    /// Job completion time: queueing + execution (the JCT metric of §4.2).
    pub fn jct(&self) -> i64 {
        self.end() - self.submit
    }

    /// True if the job needs GPUs.
    pub fn is_gpu(&self) -> bool {
        self.gpus > 0
    }

    /// GPU time = duration × #GPUs (§2.3.1). Zero for CPU jobs.
    pub fn gpu_time(&self) -> i64 {
        self.duration * self.gpus as i64
    }

    /// CPU time = duration × #CPUs (§2.3.1).
    pub fn cpu_time(&self) -> i64 {
        self.duration * self.cpus as i64
    }
}

/// Interning pool for job-name templates.
///
/// The synthetic generator produces recurrent job names ("resubmit the same
/// experiment with a new run index"); storing the base once keeps a
/// multi-million-job trace compact while [`NamePool::display_name`] can
/// reconstruct the full per-job string for name-similarity features.
#[derive(Debug, Clone, Default)]
pub struct NamePool {
    names: Vec<String>,
}

impl NamePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a base name, returning its id. Does not deduplicate — callers
    /// intern each template exactly once at generation time.
    pub fn intern(&mut self, name: String) -> NameId {
        let id = self.names.len() as NameId;
        self.names.push(name);
        id
    }

    /// Look up a base name.
    pub fn base(&self, id: NameId) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Reconstruct the full job name a user would have submitted.
    pub fn display_name(&self, job: &JobRecord) -> String {
        format!("{}_{}", self.base(job.name), job.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord {
            id: 7,
            user: 3,
            vc: 1,
            gpus: 8,
            cpus: 32,
            submit: 100,
            start: 250,
            duration: 600,
            status: JobStatus::Completed,
            name: 0,
            run: 4,
        }
    }

    #[test]
    fn derived_metrics() {
        let j = job();
        assert_eq!(j.end(), 850);
        assert_eq!(j.queue_delay(), 150);
        assert_eq!(j.jct(), 750);
        assert_eq!(j.gpu_time(), 4800);
        assert_eq!(j.cpu_time(), 19_200);
        assert!(j.is_gpu());
    }

    #[test]
    fn cpu_job_has_zero_gpu_time() {
        let mut j = job();
        j.gpus = 0;
        assert!(!j.is_gpu());
        assert_eq!(j.gpu_time(), 0);
    }

    #[test]
    fn name_pool_roundtrip() {
        let mut pool = NamePool::new();
        let a = pool.intern("train_resnet50_imagenet".into());
        let b = pool.intern("preprocess_video_frames".into());
        assert_ne!(a, b);
        assert_eq!(pool.base(a), "train_resnet50_imagenet");
        let mut j = job();
        j.name = a;
        j.run = 12;
        assert_eq!(pool.display_name(&j), "train_resnet50_imagenet_12");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn status_labels() {
        assert_eq!(JobStatus::Completed.label(), "completed");
        assert_eq!(JobStatus::ALL.len(), 3);
        assert_eq!(ClusterId::HELIOS.len(), 4);
        assert_eq!(ClusterId::Saturn.name(), "Saturn");
    }
}

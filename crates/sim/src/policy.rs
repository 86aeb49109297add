//! Pluggable scheduling policies.
//!
//! The kernel in [`crate::engine`] is policy-agnostic: every queue decision
//! goes through a [`SchedulingPolicy`] trait object, so new disciplines
//! (least-attained-service, energy-aware, fairness, ...) plug in without
//! touching the event loop. The four historical policies of the paper's
//! Fig. 11 (FIFO / SJF / SRTF / Priority) are themselves implemented as
//! policy objects here; the legacy [`Policy`](crate::Policy) enum is just a
//! constructor table over them.
//!
//! ```
//! use helios_sim::{simulate_with, KernelConfig, SimJob, SjfPolicy};
//! use helios_trace::venus;
//!
//! let jobs = vec![SimJob { id: 0, vc: 0, gpus: 8, submit: 0, duration: 60, priority: 1.0 }];
//! let r = simulate_with(&venus(), &jobs, Box::new(SjfPolicy), &KernelConfig::default())?;
//! assert_eq!(r.outcomes[0].start, 0);
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

use crate::fault::DrainDirective;
use crate::job::SimJob;
use crate::observer::ClusterView;

/// What a policy may inspect about one job when ordering a queue: the
/// static description plus the kernel's dynamic execution state.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// The job as submitted.
    pub job: &'a SimJob,
    /// Remaining execution time as of the decision instant (equals
    /// `job.duration.max(1)` until the job first runs).
    pub remaining: i64,
    /// How many times the kernel has preempted this job so far.
    pub preemptions: u32,
}

impl JobView<'_> {
    /// Execution time attained so far (seconds).
    pub fn attained(&self) -> i64 {
        self.job.duration.max(1) - self.remaining
    }

    /// GPU-service attained so far (GPU·seconds) — the Tiresias/LAS
    /// ordering signal.
    pub fn attained_service(&self) -> f64 {
        self.attained() as f64 * self.job.gpus as f64
    }
}

/// A pluggable queue discipline plus event hooks.
///
/// The kernel calls [`queue_key`](SchedulingPolicy::queue_key) whenever a
/// job enters a VC queue (on submission and after every preemption); lower
/// keys run first, ties break on job id and then insertion order. The
/// `on_*` hooks stream the kernel's lifecycle events — stateful policies
/// (least-attained-service, energy/occupancy gating, fairness accounting)
/// update their internal state there.
///
/// Preemptive policies return `true` from
/// [`preemptive`](SchedulingPolicy::preemptive); when the queue head cannot
/// be placed, the kernel then evicts running jobs whose current
/// [`preempt_rank`](SchedulingPolicy::preempt_rank) is strictly greater
/// than the head's (largest rank first) until the head fits.
pub trait SchedulingPolicy: Send {
    /// Short display label ("fifo", "tiresias", ...). Used by the façade as
    /// the schedule-outcome label.
    fn name(&self) -> &str;

    /// Queue-ordering key for `job` at enqueue time; lower runs first.
    /// Must be finite.
    fn queue_key(&mut self, job: &JobView<'_>) -> f64;

    /// Whether the kernel may preempt running jobs for a blocked head.
    fn preemptive(&self) -> bool {
        false
    }

    /// Ranking used for victim selection under preemption: a running job
    /// is evicted only if its rank is strictly greater than the blocked
    /// head's. Defaults to [`queue_key`](SchedulingPolicy::queue_key)
    /// evaluated at the decision instant.
    fn preempt_rank(&mut self, job: &JobView<'_>) -> f64 {
        self.queue_key(job)
    }

    /// A job entered a VC queue.
    fn on_submit(&mut self, _job: &SimJob, _now: i64, _cluster: &ClusterView<'_>) {}

    /// A job started (or resumed) on an allocation.
    fn on_start(&mut self, _job: &SimJob, _now: i64, _cluster: &ClusterView<'_>) {}

    /// A job finished and released its allocation.
    fn on_finish(&mut self, _job: &SimJob, _now: i64, _cluster: &ClusterView<'_>) {}

    /// A running job was preempted and re-queued.
    fn on_preempt(&mut self, _job: &SimJob, _now: i64, _cluster: &ClusterView<'_>) {}

    /// Serialize internal policy state for a kernel snapshot. Stateless
    /// policies (all four built-ins, Tiresias) keep the default and write
    /// nothing; stateful ones append their dynamic fields so
    /// [`load_state`](SchedulingPolicy::load_state) on a freshly
    /// constructed twin reproduces decisions byte-identically.
    fn save_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Drain planning hook, polled by the kernel **after every processed
    /// event** while failure injection is active: append
    /// [`DrainDirective`]s to take predicted-bad nodes out of placement
    /// (or return recovered ones). The kernel applies them immediately —
    /// draining never kills running gangs, it only blocks new placements
    /// (and, under checkpoint/restart semantics, proactively checkpoints
    /// the gangs on the node). The default emits nothing; see
    /// `helios-faults`' `DrainPolicy` for the predictor-driven wrapper.
    fn drain_directives(&mut self, _out: &mut Vec<DrainDirective>) {}

    /// Restore state previously written by
    /// [`save_state`](SchedulingPolicy::save_state). The default accepts
    /// only an empty payload, so a stateful policy restored through a
    /// stateless impl fails loudly instead of silently diverging.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), helios_trace::HeliosError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(helios_trace::HeliosError::snapshot(
                "restoring policy state",
                format!(
                    "policy `{}` is stateless but the snapshot carries {} state bytes",
                    self.name(),
                    bytes.len()
                ),
            ))
        }
    }
}

/// Forwarding impl so a caller can lend a policy to the kernel
/// (`Box::new(&mut my_policy)`) and inspect its state afterwards.
impl<T: SchedulingPolicy + ?Sized> SchedulingPolicy for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        (**self).queue_key(job)
    }
    fn preemptive(&self) -> bool {
        (**self).preemptive()
    }
    fn preempt_rank(&mut self, job: &JobView<'_>) -> f64 {
        (**self).preempt_rank(job)
    }
    fn on_submit(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        (**self).on_submit(job, now, cluster)
    }
    fn on_start(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        (**self).on_start(job, now, cluster)
    }
    fn on_finish(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        (**self).on_finish(job, now, cluster)
    }
    fn on_preempt(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        (**self).on_preempt(job, now, cluster)
    }
    fn drain_directives(&mut self, out: &mut Vec<DrainDirective>) {
        (**self).drain_directives(out)
    }
    fn save_state(&self, out: &mut Vec<u8>) {
        (**self).save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), helios_trace::HeliosError> {
        (**self).load_state(bytes)
    }
}

/// Arrival order (production default; Table 3 baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPolicy;

impl SchedulingPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "FIFO"
    }
    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        job.job.submit as f64
    }
}

/// Shortest-Job-First on the ground-truth duration (oracle,
/// non-preemptive upper bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct SjfPolicy;

impl SchedulingPolicy for SjfPolicy {
    fn name(&self) -> &str {
        "SJF"
    }
    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        job.job.duration as f64
    }
}

/// Shortest-Remaining-Time-First with free preemption (oracle, preemptive
/// upper bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct SrtfPolicy;

impl SchedulingPolicy for SrtfPolicy {
    fn name(&self) -> &str {
        "SRTF"
    }
    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        job.remaining as f64
    }
    fn preemptive(&self) -> bool {
        true
    }
}

/// Order by the externally-supplied [`SimJob::priority`] score (QSSF:
/// predicted GPU time; lower runs first).
#[derive(Debug, Clone, Copy)]
pub struct PriorityPolicy {
    label: &'static str,
}

impl PriorityPolicy {
    /// A priority policy labelled with the score's provenance ("QSSF",
    /// "noisy-oracle", ...).
    pub fn named(label: &'static str) -> Self {
        PriorityPolicy { label }
    }
}

impl Default for PriorityPolicy {
    fn default() -> Self {
        PriorityPolicy { label: "Priority" }
    }
}

impl SchedulingPolicy for PriorityPolicy {
    fn name(&self) -> &str {
        self.label
    }
    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        job.job.priority
    }
}

/// Key stride separating Tiresias queue levels. Submission timestamps stay
/// far below this, so `level * STRIDE + submit` orders by level first and
/// FIFO within a level, exactly while both terms are integers below 2^52.
const TIRESIAS_LEVEL_STRIDE: f64 = 1.0e12;

/// Tiresias-style discretized Least-Attained-Service (Gu et al., NSDI'19):
/// jobs are ordered by the multi-level queue their attained GPU-service
/// falls into (thresholds double per level), FIFO within a level. The
/// policy is preemptive *across* levels — a freshly submitted job (level 0)
/// evicts runners that have already consumed whole quanta — but never
/// within a level, which is what bounds thrashing.
///
/// Knowing nothing about durations, it needs no predictor and no oracle:
/// the paper's survey follow-up lists it as the canonical
/// information-agnostic alternative to QSSF's predicted-GPU-time ordering.
#[derive(Debug, Clone, Copy)]
pub struct TiresiasPolicy {
    /// Attained GPU·seconds covered by the first queue level (default one
    /// GPU-hour). Level `i` covers `[quantum * 2^(i-1), quantum * 2^i)`.
    pub quantum: f64,
    /// Number of discrete levels; everything past the last threshold lands
    /// in the final level (default 5).
    pub levels: u32,
}

impl Default for TiresiasPolicy {
    fn default() -> Self {
        TiresiasPolicy {
            quantum: 3_600.0,
            levels: 5,
        }
    }
}

impl TiresiasPolicy {
    /// Queue level for an attained GPU-service value.
    pub fn level(&self, attained_service: f64) -> u32 {
        let mut threshold = self.quantum;
        for level in 0..self.levels.saturating_sub(1) {
            if attained_service < threshold {
                return level;
            }
            threshold *= 2.0;
        }
        self.levels.saturating_sub(1)
    }
}

impl SchedulingPolicy for TiresiasPolicy {
    fn name(&self) -> &str {
        "TIRESIAS"
    }
    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        self.level(job.attained_service()) as f64 * TIRESIAS_LEVEL_STRIDE + job.job.submit as f64
    }
    fn preemptive(&self) -> bool {
        true
    }
    fn preempt_rank(&mut self, job: &JobView<'_>) -> f64 {
        // Rank by level alone: strictly-greater comparison then means a
        // runner is only evicted by a job from a *lower* level, never by a
        // same-level sibling with an earlier submit.
        self.level(job.attained_service()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, submit: i64, duration: i64, gpus: u32) -> SimJob {
        SimJob {
            id,
            vc: 0,
            gpus,
            submit,
            duration,
            priority: 0.0,
        }
    }

    #[test]
    fn builtin_keys_match_legacy_ordering() {
        let j = job(7, 123, 456, 4);
        let fresh = JobView {
            job: &j,
            remaining: 456,
            preemptions: 0,
        };
        assert_eq!(FifoPolicy.queue_key(&fresh), 123.0);
        assert_eq!(SjfPolicy.queue_key(&fresh), 456.0);
        assert_eq!(SrtfPolicy.queue_key(&fresh), 456.0);
        let half = JobView {
            job: &j,
            remaining: 200,
            preemptions: 1,
        };
        assert_eq!(SrtfPolicy.queue_key(&half), 200.0);
        let mut pri = PriorityPolicy::default();
        let mut scored = j;
        scored.priority = 9.5;
        assert_eq!(
            pri.queue_key(&JobView {
                job: &scored,
                remaining: 456,
                preemptions: 0
            }),
            9.5
        );
    }

    #[test]
    fn tiresias_levels_double() {
        let p = TiresiasPolicy {
            quantum: 100.0,
            levels: 4,
        };
        assert_eq!(p.level(0.0), 0);
        assert_eq!(p.level(99.9), 0);
        assert_eq!(p.level(100.0), 1);
        assert_eq!(p.level(199.9), 1);
        assert_eq!(p.level(200.0), 2);
        assert_eq!(p.level(399.9), 2);
        assert_eq!(p.level(400.0), 3);
        assert_eq!(p.level(1.0e12), 3, "everything beyond lands in the tail");
    }

    #[test]
    fn tiresias_orders_by_level_then_fifo() {
        let mut p = TiresiasPolicy::default();
        let early = job(0, 100, 50_000, 8);
        let late = job(1, 900, 50_000, 8);
        let fresh_late = JobView {
            job: &late,
            remaining: 50_000,
            preemptions: 0,
        };
        // `early` has consumed two GPU-hours: it drops below a fresh job.
        let used_early = JobView {
            job: &early,
            remaining: 50_000 - 900,
            preemptions: 1,
        };
        assert!(p.queue_key(&fresh_late) < p.queue_key(&used_early));
        // Same level: FIFO by submit.
        let fresh_early = JobView {
            job: &early,
            remaining: 50_000,
            preemptions: 0,
        };
        assert!(p.queue_key(&fresh_early) < p.queue_key(&fresh_late));
        // Victim ranking ignores submit, so same-level jobs never evict
        // each other.
        assert_eq!(p.preempt_rank(&fresh_early), p.preempt_rank(&fresh_late));
    }
}

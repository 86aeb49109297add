//! The discrete-event scheduling kernel.
//!
//! One simulation runs a whole cluster: every VC has its own policy-ordered
//! queue and its own node pool, exactly like the production Slurm setup the
//! paper describes (§2.1): gang allocation, no over-subscription, strict
//! head-of-line blocking unless backfill is enabled, and preemption when
//! the active [`SchedulingPolicy`] asks for it.
//!
//! The kernel is **incremental**: a [`Simulator`] accepts jobs online
//! ([`Simulator::push_jobs`]), advances event by event ([`Simulator::step`])
//! or up to a horizon ([`Simulator::run_until`]), and surrenders finished
//! jobs through [`Simulator::drain_outcomes`] — callers never need the
//! whole trace or the whole outcome vector resident. The one-shot
//! [`simulate_with`] entry point is a thin wrapper over it.

use crate::fault::{
    DrainDirective, FaultConfig, FaultSemantics, FaultState, FaultStats, FAULT_EV_FAIL,
};
use crate::heap::MinHeap;
use crate::job::{JobOutcome, SimJob};
use crate::observer::{ClusterView, SimEvent, SimObserver};
use crate::policy::{FifoPolicy, JobView, PriorityPolicy, SchedulingPolicy, SjfPolicy, SrtfPolicy};
use crate::pool::{Allocation, NodePool, Placement};
use crate::snapshot::{
    append_log_frame, spec_fingerprint, JobStateSnap, QueueKey, SimSnapshot, SnapView, VcView,
};
use helios_trace::{ClusterSpec, HeliosError, HeliosResult};
use std::borrow::Cow;

/// The built-in scheduling policies of the paper's Fig. 11, kept as a
/// serializable constructor table over the [`SchedulingPolicy`] objects in
/// [`crate::policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Arrival order (production default; Table 3 baseline).
    Fifo,
    /// Shortest-Job-First on the ground-truth duration (oracle,
    /// non-preemptive upper bound).
    Sjf,
    /// Shortest-Remaining-Time-First with free preemption (oracle,
    /// preemptive upper bound).
    Srtf,
    /// Order by the externally-supplied `SimJob::priority` score
    /// (QSSF: predicted GPU time; lower runs first).
    Priority,
}

impl Policy {
    /// Construct the policy object implementing this discipline.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            Policy::Fifo => Box::new(FifoPolicy),
            Policy::Sjf => Box::new(SjfPolicy),
            Policy::Srtf => Box::new(SrtfPolicy),
            Policy::Priority => Box::new(PriorityPolicy::default()),
        }
    }
}

/// Kernel knobs shared by every policy: placement strategy and EASY
/// backfill (the paper leaves backfill to future work, §4.2.3 — this is
/// the ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    pub placement: Placement,
    /// EASY backfill: jobs behind a blocked head may run if they fit and
    /// (by their duration estimate) finish before the head's shadow time.
    /// Ignored by preemptive policies.
    pub backfill: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            placement: Placement::Consolidate,
            backfill: false,
        }
    }
}

/// Simulation output of [`simulate_with`].
#[derive(Debug, Clone)]
pub struct SimResult {
    /// One outcome per input job, in input order.
    pub outcomes: Vec<JobOutcome>,
}

/// Sentinel for the `i64` timestamp fields of [`JobStateSnap`]: "not
/// set".
const UNSET: i64 = i64::MIN;

impl JobStateSnap {
    fn new(job: SimJob) -> Self {
        JobStateSnap {
            job,
            remaining: job.duration.max(1),
            started_at: UNSET,
            first_start: UNSET,
            end: UNSET,
            epoch: 0,
            preemptions: 0,
            run_slot: u32::MAX,
        }
    }

    fn view(&self) -> JobView<'_> {
        JobView {
            job: &self.job,
            remaining: self.remaining,
            preemptions: self.preemptions,
        }
    }
}

/// One dequeued kernel event. Finishes release resources before
/// same-instant arrivals queue (the historical heap tie order); fault
/// events land between the two, so a node failing at `t` sees every
/// `t`-finish already drained but kills gangs before `t`-arrivals queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Finish { idx: usize, epoch: u32 },
    Fault { node: u32, kind: u8, epoch: u32 },
    Arrive { idx: usize },
}

pub(crate) struct VcState {
    pub(crate) pool: NodePool,
    pub(crate) queue: MinHeap<(QueueKey, usize)>,
    pub(crate) running: Vec<usize>,
    /// `running_allocs[i]` is the live allocation of job `running[i]` —
    /// slot-parallel so the cold `Allocation` payload stays out of the
    /// hot per-job state array.
    pub(crate) running_allocs: Vec<Allocation>,
    /// True while the blocked head has been extracted from the queue for
    /// the duration of a preemption apply: the job is still logically
    /// queued, so queue-length views count it (preserving the pre-rewrite
    /// observable, where the head stayed in the heap until it started).
    pub(crate) held_head: bool,
}

/// Cluster-wide aggregates the kernel maintains incrementally on every
/// placement, release, enqueue, and dequeue — [`ClusterView`] answers
/// every cluster-wide query from these in O(1) instead of re-summing the
/// VC pools on each event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClusterStats {
    pub(crate) busy_gpus: u32,
    pub(crate) busy_nodes: u32,
    pub(crate) total_nodes: u32,
    pub(crate) capacity_gpus: u32,
    pub(crate) queued_jobs: usize,
    pub(crate) running_jobs: usize,
}

/// Check one job against the cluster (otherwise the event loop would end
/// with it stuck in a queue forever). All violations surface as typed
/// errors, never panics. Public so admission layers (the fleet service)
/// can reject at submission time, before a job ever crosses a channel.
pub fn validate_job(spec: &ClusterSpec, job: &SimJob) -> HeliosResult<()> {
    let vc = job.vc as usize;
    if vc >= spec.num_vcs() {
        return Err(HeliosError::InvalidJob {
            job_id: job.id,
            reason: format!(
                "VC {} does not exist (cluster has {})",
                job.vc,
                spec.num_vcs()
            ),
        });
    }
    if job.gpus == 0 {
        return Err(HeliosError::InvalidJob {
            job_id: job.id,
            reason: "requests 0 GPUs (CPU jobs are not simulated)".into(),
        });
    }
    let capacity = spec.vc_gpus(job.vc);
    if job.gpus > capacity {
        return Err(HeliosError::InvalidJob {
            job_id: job.id,
            reason: format!(
                "requests {} GPUs but VC {} holds only {capacity}",
                job.gpus, job.vc
            ),
        });
    }
    if job.duration < 0 {
        return Err(HeliosError::InvalidJob {
            job_id: job.id,
            reason: format!("negative duration {}", job.duration),
        });
    }
    if !job.priority.is_finite() {
        return Err(HeliosError::InvalidJob {
            job_id: job.id,
            reason: format!("non-finite priority {}", job.priority),
        });
    }
    Ok(())
}

/// The incremental discrete-event scheduling kernel.
///
/// Jobs arrive online through [`push_jobs`](Simulator::push_jobs), the
/// clock advances through [`step`](Simulator::step) /
/// [`run_until`](Simulator::run_until) /
/// [`run_to_completion`](Simulator::run_to_completion), and finished jobs
/// leave through [`drain_outcomes`](Simulator::drain_outcomes). Every
/// queue decision is delegated to the attached [`SchedulingPolicy`]; every
/// lifecycle event streams through the registered [`SimObserver`]s.
///
/// The lifetime parameter lets callers lend borrowed policies/observers
/// (`Box::new(&mut observer)`) and read their state back after the run.
pub struct Simulator<'a> {
    spec: ClusterSpec,
    placement: Placement,
    backfill: bool,
    policy: Box<dyn SchedulingPolicy + 'a>,
    observers: Vec<Box<dyn SimObserver + 'a>>,
    states: Vec<JobStateSnap>,
    vcs: Vec<VcState>,
    stats: ClusterStats,
    /// Pending arrivals as state indices, sorted by (submit, index) and
    /// consumed from `next_arrival` on — a sorted cursor instead of a
    /// 100k-entry heap, so the per-event cost is O(1) and cache-local.
    arrivals: Vec<usize>,
    next_arrival: usize,
    /// Scheduled finishes `(time, state idx, epoch)`; stale entries
    /// (preempted epochs) are skipped on pop. Bounded by the number of
    /// concurrently running jobs, not the trace length.
    finishes: MinHeap<(i64, usize, u32)>,
    /// Simulated horizon: max of the last processed event time and every
    /// `run_until` target. Jobs must not arrive before it.
    horizon: i64,
    /// Finished jobs as state indices, in finish order (append-only: the
    /// order of the finished-record log), and how many of them were
    /// drained; the rest are the next `drain_outcomes`.
    finish_order: Vec<usize>,
    drained: usize,
    /// Reusable scratch buffers for the preemption/backfill decision
    /// paths — no per-event allocations on the hot path.
    trial_log: Vec<(u32, i64)>,
    scratch_victims: Vec<(f64, usize)>,
    scratch_ends: Vec<(i64, usize)>,
    scratch_rest: Vec<(QueueKey, usize)>,
    /// Failure-injection state (`None` — the default — is exactly the
    /// legacy kernel: no fault events, no per-node telemetry, zero cost).
    fault: Option<Box<FaultState>>,
    /// Reusable buffer for the per-event policy drain poll.
    scratch_drains: Vec<DrainDirective>,
    /// Cooperative liveness pulse (`None` — the default — is exactly the
    /// legacy event loop: one branch per event, no hook, no cancellation).
    pulse: Option<Pulse<'a>>,
    /// Set when the pulse hook requested cancellation; the run loops stop
    /// at the next event boundary. Cleared by [`Simulator::take_cancelled`].
    cancelled: bool,
}

/// Cooperative liveness hook state: every `every` processed events the
/// hook is invoked with the cumulative event count; returning `true`
/// cancels the current run loop at the event boundary (the pending event
/// stays queued, so kernel state remains consistent).
struct Pulse<'a> {
    every: u32,
    tick: u32,
    count: u64,
    hook: Box<dyn FnMut(u64) -> bool + 'a>,
}

impl<'a> Simulator<'a> {
    /// A kernel over `spec` driven by `policy`, with default placement
    /// (consolidate) and no backfill.
    pub fn new(spec: &ClusterSpec, policy: Box<dyn SchedulingPolicy + 'a>) -> Simulator<'a> {
        Self::with_config(spec, policy, &KernelConfig::default())
    }

    /// A kernel with explicit placement/backfill knobs.
    pub fn with_config(
        spec: &ClusterSpec,
        policy: Box<dyn SchedulingPolicy + 'a>,
        cfg: &KernelConfig,
    ) -> Simulator<'a> {
        let vcs: Vec<VcState> = spec
            .vcs
            .iter()
            .map(|vc| VcState {
                pool: NodePool::new(vc.nodes, spec.gpus_per_node),
                queue: MinHeap::new(),
                running: Vec::new(),
                running_allocs: Vec::new(),
                held_head: false,
            })
            .collect();
        let stats = ClusterStats {
            total_nodes: vcs.iter().map(|v| v.pool.nodes()).sum(),
            capacity_gpus: vcs.iter().map(|v| v.pool.capacity()).sum(),
            ..ClusterStats::default()
        };
        Simulator {
            spec: spec.clone(),
            placement: cfg.placement,
            backfill: cfg.backfill,
            policy,
            observers: Vec::new(),
            states: Vec::new(),
            vcs,
            stats,
            arrivals: Vec::new(),
            next_arrival: 0,
            finishes: MinHeap::new(),
            horizon: i64::MIN,
            finish_order: Vec::new(),
            drained: 0,
            trial_log: Vec::new(),
            scratch_victims: Vec::new(),
            scratch_ends: Vec::new(),
            scratch_rest: Vec::new(),
            fault: None,
            scratch_drains: Vec::new(),
            pulse: None,
            cancelled: false,
        }
    }

    /// Turn on failure injection with the given model. Must be called
    /// before the failure process should begin (typically right after
    /// construction); per-node failure clocks are seeded lazily at the
    /// first job event, so failures anchor to the trace's calendar.
    /// Rejects invalid configurations and double-enabling with typed
    /// errors.
    pub fn enable_faults(&mut self, cfg: &FaultConfig) -> HeliosResult<()> {
        cfg.validate()?;
        if self.fault.is_some() {
            return Err(HeliosError::invalid_config(
                "failure_injection",
                "failure injection is already enabled on this kernel",
            ));
        }
        self.fault = Some(Box::new(FaultState::new(*cfg, &self.spec)));
        Ok(())
    }

    /// Whether failure injection is active.
    pub fn fault_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// Running totals of the failure process (`None` when injection is
    /// off).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_deref().map(|f| f.stats())
    }

    /// Register a streaming observer. Lend a borrowed one
    /// (`Box::new(&mut obs)`) to read its series after the run.
    pub fn observe(&mut self, observer: Box<dyn SimObserver + 'a>) {
        self.observers.push(observer);
    }

    /// Attach a cooperative liveness pulse: `hook(total_events)` runs
    /// once every `every` processed events (clamped to at least 1) —
    /// publish a heartbeat there, and return `true` to cancel the
    /// current [`run_until`](Self::run_until) /
    /// [`run_to_completion`](Self::run_to_completion) loop at the next
    /// event boundary. Cancellation leaves the kernel in a consistent
    /// state (the pending event stays queued); poll it with
    /// [`take_cancelled`](Self::take_cancelled). The pulse is transient —
    /// like observers it is not serialized into snapshots — and when no
    /// pulse is set the event loop pays a single branch per event.
    pub fn set_pulse(&mut self, every: u32, hook: Box<dyn FnMut(u64) -> bool + 'a>) {
        self.pulse = Some(Pulse {
            every: every.max(1),
            tick: 0,
            count: 0,
            hook,
        });
    }

    /// True when the pulse hook cancelled a run loop since the last call;
    /// clears the flag. A cancelled kernel is consistent and can resume
    /// (the typical caller instead discards it for a checkpoint restore).
    pub fn take_cancelled(&mut self) -> bool {
        std::mem::take(&mut self.cancelled)
    }

    /// The attached policy's display name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Simulated horizon reached so far (`i64::MIN` before any activity).
    pub fn now(&self) -> i64 {
        self.horizon
    }

    /// Jobs accepted so far.
    pub fn total_jobs(&self) -> usize {
        self.states.len()
    }

    /// Jobs accepted but not yet finished (queued, running, or not yet
    /// arrived).
    pub fn unfinished_jobs(&self) -> usize {
        self.states.len() - self.finish_order.len()
    }

    /// Pending kernel events (arrivals + scheduled finishes, including
    /// stale ones).
    pub fn pending_events(&self) -> usize {
        self.arrivals.len() - self.next_arrival + self.finishes.len()
    }

    /// The cluster spec this kernel runs.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Live read-only view over the incrementally maintained cluster
    /// aggregates — the same O(1) queries observers get per event
    /// (utilization, queue depths, per-VC busy/capacity), available
    /// between events for service layers polling kernel state.
    pub fn cluster_view(&self) -> ClusterView<'_> {
        ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref())
    }

    /// The jobs waiting in one VC's queue, in heap (not queue-key) order;
    /// empty for an unknown VC. Between events this is every queued job of
    /// the VC, so service layers can aggregate over the queue without
    /// tracking it event by event.
    pub fn queued_jobs(&self, vc: usize) -> impl Iterator<Item = &SimJob> + '_ {
        self.vcs
            .get(vc)
            .into_iter()
            .flat_map(|v| v.queue.as_slice())
            .filter_map(|&(_, idx)| self.states.get(idx))
            .map(|s| &s.job)
    }

    /// Capture the complete resumable kernel state; see
    /// [`SimSnapshot`] for what is (and is
    /// not) included. Restoring via [`Simulator::restore`] and continuing
    /// reproduces the uninterrupted run's outcomes byte-identically.
    pub fn snapshot(&self) -> SimSnapshot {
        let finished = self.finished_records(0).map(|(idx, s)| (idx, *s));
        self.view().into_snapshot(finished.collect())
    }

    /// Encode the live frame into `out`, replacing its contents and
    /// reusing its allocation: the header, every unfinished job's record,
    /// the queues, allocations, finish heap, policy payload and failure
    /// state. Its size follows the unfinished work, not the jobs ever
    /// admitted; [`SimSnapshot::from_parts`] decodes it over the log frames
    /// [`log_frame_into`](Self::log_frame_into) wrote up to this state.
    pub fn live_frame_into(&self, out: &mut Vec<u8>) {
        self.view().encode_into(out);
    }

    /// Append to `out` one log frame holding the records of the jobs that
    /// finished since finish-order position `from` (0 for every finished
    /// job; otherwise what the previous call returned), and return the
    /// position reached. A finished record never changes, so the frames of
    /// successive calls concatenate into the log every later live frame
    /// decodes over.
    pub fn log_frame_into(&self, from: usize, out: &mut Vec<u8>) -> usize {
        append_log_frame(out, self.finished_records(from));
        self.finish_order.len()
    }

    /// The finished records from finish-order position `from` on.
    fn finished_records(&self, from: usize) -> impl Iterator<Item = (usize, &JobStateSnap)> {
        self.finish_order
            .get(from..)
            .unwrap_or_default()
            .iter()
            .filter_map(|&idx| self.states.get(idx).map(|s| (idx, s)))
    }

    fn view(&self) -> SnapView<'_> {
        debug_assert!(
            self.vcs.iter().all(|vc| !vc.held_head),
            "kernel invariant: held_head is transient within one event"
        );
        let mut policy_state = Vec::new();
        self.policy.save_state(&mut policy_state);
        // The unfinished jobs, from the structures that hold them: the
        // arrival cursor, the queues and the running lists.
        let mut live: Vec<usize> = self
            .arrivals
            .get(self.next_arrival..)
            .unwrap_or_default()
            .to_vec();
        for vc in &self.vcs {
            live.extend(vc.queue.as_slice().iter().map(|&(_, idx)| idx));
            live.extend_from_slice(&vc.running);
        }
        live.sort_unstable();
        SnapView {
            placement: self.placement,
            backfill: self.backfill,
            policy_name: self.policy.name(),
            spec_fingerprint: spec_fingerprint(&self.spec),
            horizon: self.horizon,
            job_count: self.states.len(),
            drained: self.drained,
            live: live
                .into_iter()
                .filter_map(|idx| self.states.get(idx).map(|s| (idx, *s)))
                .collect(),
            vcs: self
                .vcs
                .iter()
                .map(|vc| VcView {
                    queue: vc.queue.as_slice(),
                    running_allocs: &vc.running_allocs,
                })
                .collect(),
            finishes: self.finishes.as_slice(),
            policy_state: Cow::Owned(policy_state),
            fault: self.fault.as_deref().map(|f| Cow::Owned(f.to_snap())),
        }
    }

    /// Rebuild a kernel from a [`SimSnapshot`] taken against `spec`.
    /// `policy` must be a fresh instance of the same discipline the
    /// snapshot was taken under (checked by name); its dynamic state is
    /// rehydrated through [`SchedulingPolicy::load_state`].
    ///
    /// The snapshot stores each fact once; restore derives the rest in one
    /// membership pass that fills the job table from the live and the
    /// finished records, each state index exactly once, and puts every job
    /// in exactly one place: a live record is *pending* (never started and
    /// not queued; in submit, then index, order these are the arrival
    /// cursor), *queued* (once, in its own VC) or *running* (started, its
    /// `run_slot` naming one of its VC's allocations, with exactly one live
    /// finish entry, at `started_at + remaining`); a finished record has an
    /// end and a first start and is in no queue. Free GPUs (and, under
    /// failure injection, each node's busy GPUs) come from the allocations,
    /// the undrained completions are the finished records past the drained
    /// count, and the cluster aggregates and pool indices come from both.
    /// Scratch buffers start empty and no observers are attached. Any other
    /// state — wrong cluster or policy, job records `push_jobs` would
    /// refuse, an allocation the pool could not release, a queue head that
    /// fits its pool, a heap array out of order — is a typed
    /// [`HeliosError::Snapshot`], never a panic.
    pub fn restore(
        spec: &ClusterSpec,
        mut policy: Box<dyn SchedulingPolicy + 'a>,
        snap: &SimSnapshot,
    ) -> HeliosResult<Simulator<'a>> {
        let refuse = |detail: String| HeliosError::snapshot("restoring kernel snapshot", detail);
        if snap.spec_fingerprint != spec_fingerprint(spec) {
            return Err(refuse(format!(
                "snapshot was taken against a different cluster than {}",
                spec.id.name()
            )));
        }
        if policy.name() != snap.policy_name {
            return Err(refuse(format!(
                "snapshot was taken under policy `{}` but `{}` was supplied",
                snap.policy_name,
                policy.name()
            )));
        }
        if snap.vcs.len() != spec.num_vcs() {
            return Err(refuse(format!(
                "snapshot has {} VCs but the spec has {}",
                snap.vcs.len(),
                spec.num_vcs()
            )));
        }
        policy.load_state(&snap.policy_state)?;
        let mut fault: Option<Box<FaultState>> = match &snap.fault {
            Some(fs) => Some(Box::new(FaultState::from_snap(fs, spec)?)),
            None => None,
        };
        // The job table: `job_count` slots, each filled by exactly one
        // live or finished record.
        if snap.live.len() + snap.finished.len() != snap.job_count {
            return Err(refuse(format!(
                "{} jobs admitted but {} live and {} finished records",
                snap.job_count,
                snap.live.len(),
                snap.finished.len()
            )));
        }
        if snap.drained > snap.finished.len() {
            return Err(refuse(format!(
                "{} outcomes drained but only {} jobs finished",
                snap.drained,
                snap.finished.len()
            )));
        }
        let unset = JobStateSnap::new(SimJob {
            id: 0,
            vc: 0,
            gpus: 0,
            submit: 0,
            duration: 0,
            priority: 0.0,
        });
        let mut states = vec![unset; snap.job_count];
        let mut filled = vec![false; snap.job_count];
        for &(idx, s) in snap.live.iter().chain(&snap.finished) {
            validate_job(spec, &s.job).map_err(|e| refuse(format!("job record refused: {e}")))?;
            match (states.get_mut(idx), filled.get_mut(idx)) {
                (Some(slot), Some(mark)) if !*mark => {
                    *slot = s;
                    *mark = true;
                }
                _ => {
                    return Err(refuse(format!(
                        "job index {idx} is recorded twice or past the {} admitted jobs",
                        snap.job_count
                    )))
                }
            }
        }
        // As many records as slots and none twice, so every slot is filled.
        // Queues, live finish entries and finished records list disjoint
        // sets of jobs (queued, running, finished), so one mark per job
        // finds any job listed twice.
        let mut listed = vec![false; states.len()];
        for (v, vc) in snap.vcs.iter().enumerate() {
            for &(_, idx) in &vc.queue {
                match (states.get(idx), listed.get_mut(idx)) {
                    (Some(s), Some(mark)) if s.job.vc as usize == v && !*mark => *mark = true,
                    _ => {
                        return Err(refuse(format!(
                            "VC {v} queues job index {idx}, which is not a job of the VC \
                             queued once"
                        )))
                    }
                }
            }
        }
        let mut running: Vec<Vec<usize>> = snap
            .vcs
            .iter()
            .map(|vc| vec![usize::MAX; vc.running_allocs.len()])
            .collect();
        let mut arrivals = Vec::new();
        for &(idx, s) in &snap.live {
            let queued = listed.get(idx).copied().unwrap_or(false);
            let started = s.first_start != UNSET;
            let placed = match (queued, s.end != UNSET, s.started_at != UNSET) {
                (true, false, false) => true,
                (false, false, true) => {
                    let slot = running
                        .get_mut(s.job.vc as usize)
                        .and_then(|slots| slots.get_mut(s.run_slot as usize));
                    match slot {
                        Some(slot) if started && *slot == usize::MAX => {
                            *slot = idx;
                            true
                        }
                        _ => false,
                    }
                }
                (false, false, false) => {
                    arrivals.push(idx);
                    !started
                }
                _ => false,
            };
            if !placed {
                return Err(refuse(format!(
                    "live job index {idx} is neither pending, queued once, nor running in a \
                     free slot of its VC"
                )));
            }
        }
        for &(idx, s) in &snap.finished {
            let queued = listed.get(idx).copied().unwrap_or(false);
            if queued || s.end == UNSET || s.first_start == UNSET {
                return Err(refuse(format!(
                    "finished record {idx} is not a finished job, or is also queued"
                )));
            }
        }
        arrivals.sort_unstable_by_key(|&idx| (states.get(idx).map_or(0, |s| s.job.submit), idx));
        let gpn = spec.gpus_per_node;
        let mut stats = ClusterStats::default();
        let mut vcs = Vec::with_capacity(snap.vcs.len());
        for (v, ((vc_snap, vc_spec), running)) in
            snap.vcs.iter().zip(&spec.vcs).zip(running).enumerate()
        {
            if running.contains(&usize::MAX) {
                return Err(refuse(format!(
                    "VC {v} has {} allocations but fewer running jobs",
                    running.len()
                )));
            }
            // Each node's free GPUs are its size minus what the running
            // gangs hold there; a gang must hold exactly its request.
            let mut free = vec![gpn; vc_spec.nodes as usize];
            for (&idx, alloc) in running.iter().zip(&vc_snap.running_allocs) {
                let mut total = 0u64;
                for &(node, gpus) in alloc.slices() {
                    let left = free.get_mut(node as usize).ok_or_else(|| {
                        refuse(format!(
                            "VC {v} job index {idx} holds GPUs on node {node} but the VC has {} \
                             nodes",
                            vc_spec.nodes
                        ))
                    })?;
                    if gpus == 0 || gpus > *left {
                        return Err(refuse(format!(
                            "VC {v} job index {idx} holds {gpus} GPUs on node {node}, which has \
                             {left} of {gpn} unheld"
                        )));
                    }
                    *left -= gpus;
                    total += u64::from(gpus);
                    if let Some(f) = fault.as_deref_mut() {
                        f.restore_busy(v, node, gpus);
                    }
                }
                let want = states.get(idx).map_or(0, |s| s.job.gpus);
                if total != u64::from(want) {
                    return Err(refuse(format!(
                        "VC {v} job index {idx} holds {total} GPUs but requested {want}"
                    )));
                }
            }
            let mut pool = NodePool::from_free_counts(gpn, &free)?;
            // Re-apply node up/down and drain state before aggregates are
            // computed: offline nodes keep their free counts but leave the
            // placement index, exactly as they did in the source kernel.
            if let Some(f) = fault.as_deref() {
                let base = f.vc_base[v];
                for local in 0..vc_spec.nodes {
                    let cell = &f.cells[(base + local) as usize];
                    if !cell.up || cell.draining {
                        pool.set_offline(local);
                    }
                }
            }
            if !is_heap(&vc_snap.queue) {
                return Err(refuse(format!(
                    "VC {v} queue array violates the heap property"
                )));
            }
            // Between events a queue head never fits its pool (every pool
            // change reschedules the VC), and arrivals rely on that.
            if let Some(&(_, head)) = vc_snap.queue.first() {
                if states.get(head).is_some_and(|s| pool.fits(s.job.gpus)) {
                    return Err(refuse(format!(
                        "VC {v} queue head (job index {head}) fits the free GPUs"
                    )));
                }
            }
            // True free counts (not `pool.free_gpus()`, which excludes
            // offline nodes): busy must mean "held by a running gang".
            stats.busy_gpus += pool.capacity() - free.iter().sum::<u32>();
            stats.busy_nodes += pool.busy_nodes();
            stats.total_nodes += pool.nodes();
            stats.capacity_gpus += pool.capacity();
            stats.queued_jobs += vc_snap.queue.len();
            stats.running_jobs += running.len();
            vcs.push(VcState {
                pool,
                queue: MinHeap::from_heap_vec(vc_snap.queue.clone()),
                running,
                running_allocs: vc_snap.running_allocs.clone(),
                held_head: false,
            });
        }
        // A live entry (the job's epoch, no end yet) finishes its job when
        // it fires; stale ones stay, since popping them still moves the
        // clock. An entry from a later epoch would come alive on restart.
        let mut live = 0;
        for &(t, idx, epoch) in &snap.finishes {
            let Some(s) = states.get(idx).filter(|s| epoch <= s.epoch) else {
                return Err(refuse(format!(
                    "a finish event targets job index {idx} at epoch {epoch}, which it has not \
                     reached"
                )));
            };
            if epoch == s.epoch && s.end == UNSET {
                let ends_at =
                    (s.started_at != UNSET).then(|| s.started_at.checked_add(s.remaining));
                match listed.get_mut(idx) {
                    Some(mark) if !*mark && ends_at == Some(Some(t)) => {
                        *mark = true;
                        live += 1;
                    }
                    _ => {
                        return Err(refuse(format!(
                            "a live finish event at {t} targets job index {idx}, which is not \
                             running to end at {t} or already has one"
                        )))
                    }
                }
            }
        }
        if live != stats.running_jobs {
            return Err(refuse(format!(
                "{live} live finish events for {} running jobs",
                stats.running_jobs
            )));
        }
        if !is_heap(&snap.finishes) {
            return Err(refuse(
                "finish heap array violates the heap property".into(),
            ));
        }
        Ok(Simulator {
            spec: spec.clone(),
            placement: snap.placement,
            backfill: snap.backfill,
            policy,
            observers: Vec::new(),
            states,
            vcs,
            stats,
            arrivals,
            next_arrival: 0,
            finishes: MinHeap::from_heap_vec(snap.finishes.clone()),
            horizon: snap.horizon,
            finish_order: snap.finished.iter().map(|&(idx, _)| idx).collect(),
            drained: snap.drained,
            trial_log: Vec::new(),
            scratch_victims: Vec::new(),
            scratch_ends: Vec::new(),
            scratch_rest: Vec::new(),
            fault,
            scratch_drains: Vec::new(),
            pulse: None,
            cancelled: false,
        })
    }

    /// Accept a batch of jobs. Validation is all-or-nothing: on error no
    /// job of the batch is admitted. Jobs may arrive in any order but not
    /// before the already-simulated horizon.
    pub fn push_jobs(&mut self, jobs: &[SimJob]) -> HeliosResult<()> {
        for job in jobs {
            validate_job(&self.spec, job)?;
            if job.submit < self.horizon {
                return Err(HeliosError::InvalidJob {
                    job_id: job.id,
                    reason: format!(
                        "arrives at {} but the simulation already advanced to {}",
                        job.submit, self.horizon
                    ),
                });
            }
        }
        // Drop the consumed arrival prefix before appending, then keep the
        // pending tail sorted by (submit, state index) — the historical
        // event-heap order for same-instant arrivals.
        self.arrivals.drain(..self.next_arrival);
        self.next_arrival = 0;
        for &job in jobs {
            let idx = self.states.len();
            self.states.push(JobStateSnap::new(job));
            self.arrivals.push(idx);
        }
        let states = &self.states;
        let key = |idx: usize| (states[idx].job.submit, idx);
        if self.arrivals.windows(2).any(|w| key(w[0]) > key(w[1])) {
            self.arrivals.sort_unstable_by_key(|&idx| key(idx));
        }
        Ok(())
    }

    /// Process the next event; returns its time, or `None` when no events
    /// remain.
    pub fn step(&mut self) -> Option<i64> {
        self.process_one()
    }

    /// Time of the next pending event, if any.
    fn next_event_time(&self) -> Option<i64> {
        let fin = self.finishes.peek().map(|&(t, _, _)| t);
        let arr = self
            .arrivals
            .get(self.next_arrival)
            .map(|&idx| self.states[idx].job.submit);
        let flt = self
            .fault
            .as_deref()
            .and_then(|f| f.events.peek().map(|&(t, _, _, _)| t));
        [fin, arr, flt].into_iter().flatten().min()
    }

    /// Pop the earliest event; finishes beat same-instant faults, which
    /// beat same-instant arrivals; ties among finishes resolve by (state
    /// idx, epoch), among arrivals by state idx — exactly the historical
    /// single-heap order when injection is off.
    fn pop_event(&mut self) -> Option<(i64, EventKind)> {
        // Failure clocks seed lazily at the first job event so MTBF draws
        // anchor to the trace's calendar, not to absolute zero.
        if self.fault.as_deref().is_some_and(|f| !f.seeded) {
            let fin = self.finishes.peek().map(|&(t, _, _)| t);
            let arr = self
                .arrivals
                .get(self.next_arrival)
                .map(|&idx| self.states[idx].job.submit);
            if let Some(t0) = [fin, arr].into_iter().flatten().min() {
                self.fault
                    .as_deref_mut()
                    .expect("checked above")
                    .seed_at(t0);
            }
        }
        let fin = self.finishes.peek().map(|&(t, _, _)| t);
        let arr = self
            .arrivals
            .get(self.next_arrival)
            .map(|&idx| self.states[idx].job.submit);
        let flt = self
            .fault
            .as_deref()
            .and_then(|f| f.events.peek().map(|&(t, _, _, _)| t));
        // Lowest priority first; `<=` lets earlier entries win ties.
        let mut pick = arr.map(|t| (t, 2u8));
        if let Some(t) = flt {
            if pick.is_none_or(|(bt, _)| t <= bt) {
                pick = Some((t, 1));
            }
        }
        if let Some(t) = fin {
            if pick.is_none_or(|(bt, _)| t <= bt) {
                pick = Some((t, 0));
            }
        }
        match pick? {
            (_, 0) => {
                let (t, idx, epoch) = self.finishes.pop().expect("peeked above");
                Some((t, EventKind::Finish { idx, epoch }))
            }
            (_, 1) => {
                let (t, node, kind, epoch) = self
                    .fault
                    .as_deref_mut()
                    .expect("fault event requires fault state")
                    .events
                    .pop()
                    .expect("peeked above");
                Some((t, EventKind::Fault { node, kind, epoch }))
            }
            _ => {
                let idx = self.arrivals[self.next_arrival];
                self.next_arrival += 1;
                Some((self.states[idx].job.submit, EventKind::Arrive { idx }))
            }
        }
    }

    /// Process every event up to and including `horizon`, then pin the
    /// simulated horizon there (later arrivals must come after it).
    pub fn run_until(&mut self, horizon: i64) {
        while let Some(t) = self.next_event_time() {
            if t > horizon {
                break;
            }
            self.process_one();
            if self.cancelled {
                // Cancelled mid-run: do not pin the horizon — the kernel
                // stays consistent at the last processed event, and the
                // supervisor decides whether to resume or restore.
                return;
            }
        }
        self.horizon = self.horizon.max(horizon);
    }

    /// Drain the event queue completely. With failure injection active the
    /// renewal process generates events forever, so "complete" means every
    /// admitted job has finished (killed jobs requeue and eventually run to
    /// completion between failures); without it the queue simply empties.
    pub fn run_to_completion(&mut self) {
        loop {
            if self.fault.is_some() && self.finish_order.len() == self.states.len() {
                break;
            }
            if self.process_one().is_none() {
                break;
            }
        }
    }

    /// Take the outcomes of every job finished since the last drain, in
    /// job-admission order.
    pub fn drain_outcomes(&mut self) -> Vec<JobOutcome> {
        let mut idxs = self
            .finish_order
            .get(self.drained..)
            .unwrap_or_default()
            .to_vec();
        self.drained = self.finish_order.len();
        idxs.sort_unstable();
        idxs.into_iter().map(|idx| self.outcome_of(idx)).collect()
    }

    fn outcome_of(&self, idx: usize) -> JobOutcome {
        let s = &self.states[idx];
        assert!(
            s.first_start != UNSET,
            "kernel invariant: a finished job must have started"
        );
        assert!(
            s.end != UNSET,
            "kernel invariant: a drained job must have finished"
        );
        JobOutcome {
            id: s.job.id,
            vc: s.job.vc,
            gpus: s.job.gpus,
            submit: s.job.submit,
            start: s.first_start,
            end: s.end,
            duration: s.job.duration.max(1),
            preemptions: s.preemptions,
        }
    }

    /// Place `g` GPUs on `vc`'s pool, maintaining the cluster aggregates
    /// (and, when injection is on, the per-node occupancy telemetry the
    /// failure predictor trains against).
    fn place_on(&mut self, vc: usize, g: u32, now: i64) -> Option<Allocation> {
        let pool = &mut self.vcs[vc].pool;
        let busy_before = pool.busy_nodes();
        let alloc = pool.try_place(g, self.placement)?;
        self.stats.busy_nodes += pool.busy_nodes() - busy_before;
        self.stats.busy_gpus += g;
        if let Some(f) = self.fault.as_deref_mut() {
            let base = f.vc_base[vc];
            for &(n, gp) in alloc.slices() {
                f.on_alloc(base + n, gp, now);
            }
        }
        Some(alloc)
    }

    /// Release an allocation on `vc`'s pool, maintaining the aggregates.
    fn release_on(&mut self, vc: usize, alloc: &Allocation, now: i64) {
        let pool = &mut self.vcs[vc].pool;
        let busy_before = pool.busy_nodes();
        pool.release(alloc);
        self.stats.busy_nodes -= busy_before - pool.busy_nodes();
        self.stats.busy_gpus -= alloc.gpus();
        if let Some(f) = self.fault.as_deref_mut() {
            let base = f.vc_base[vc];
            for &(n, gp) in alloc.slices() {
                f.on_release(base + n, gp, now);
            }
        }
    }

    /// Remove `idx` from its VC's running set in O(1) via its stored slot
    /// (swap-remove; the displaced tail job's slot is patched) and hand
    /// back the allocation it was running on.
    fn remove_running(&mut self, vc: usize, idx: usize) -> Allocation {
        let slot = self.states[idx].run_slot as usize;
        let vcs = &mut self.vcs[vc];
        debug_assert_eq!(vcs.running[slot], idx, "kernel invariant: run_slot in sync");
        let last = vcs
            .running
            .pop()
            .expect("kernel invariant: a running job's VC has running entries");
        let alloc = if last != idx {
            vcs.running[slot] = last;
            self.states[last].run_slot = slot as u32;
            vcs.running_allocs.swap_remove(slot)
        } else {
            vcs.running_allocs
                .pop()
                .expect("kernel invariant: running_allocs is slot-parallel")
        };
        self.stats.running_jobs -= 1;
        alloc
    }

    fn process_one(&mut self) -> Option<i64> {
        if let Some(p) = &mut self.pulse {
            p.tick += 1;
            p.count += 1;
            if p.tick >= p.every {
                p.tick = 0;
                if (p.hook)(p.count) {
                    // Cancel before popping: the pending event stays
                    // queued and the kernel state is untouched.
                    self.cancelled = true;
                    return None;
                }
            }
        }
        let (now, kind) = self.pop_event()?;
        self.horizon = self.horizon.max(now);
        // Observers see the pre-event state: time-integrated metrics
        // (occupancy) integrate the configuration that held until `now`.
        // Skipped entirely when nothing is listening.
        if !self.observers.is_empty() {
            let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
            for obs in &mut self.observers {
                obs.on_clock(now, &view);
            }
        }
        match kind {
            EventKind::Finish { idx, epoch } => {
                if self.states[idx].epoch != epoch || self.states[idx].end != UNSET {
                    return Some(now); // stale (preempted) or already done
                }
                let s = &mut self.states[idx];
                s.end = now;
                s.remaining = 0;
                let vc = s.job.vc as usize;
                let alloc = self.remove_running(vc, idx);
                self.release_on(vc, &alloc, now);
                self.finish_order.push(idx);
                let job = self.states[idx].job;
                let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
                self.policy.on_finish(&job, now, &view);
                if !self.observers.is_empty() {
                    let outcome = self.outcome_of(idx);
                    for obs in &mut self.observers {
                        obs.on_event(&SimEvent::Finish { job, outcome }, &view);
                    }
                }
                self.schedule_vc(vc, now);
            }
            EventKind::Arrive { idx } => {
                let vc = self.states[idx].job.vc as usize;
                let key = QueueKey(
                    self.policy.queue_key(&self.states[idx].view()),
                    self.states[idx].job.id,
                );
                self.vcs[vc].queue.push((key, idx));
                self.stats.queued_jobs += 1;
                let job = self.states[idx].job;
                let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
                self.policy.on_submit(&job, now, &view);
                for obs in &mut self.observers {
                    obs.on_event(&SimEvent::Submit { job, now }, &view);
                }
                // Every pool change reschedules its VC, so between events a
                // non-empty queue's head does not fit. A job queued behind
                // it changes neither the head nor the pool, and without
                // preemption or backfill nothing else can start.
                let behind_blocked_head = !self.backfill
                    && !self.policy.preemptive()
                    && self.vcs[vc].queue.peek().is_some_and(|&(_, h)| h != idx);
                if !behind_blocked_head {
                    self.schedule_vc(vc, now);
                }
            }
            EventKind::Fault { node, kind, epoch } => {
                let live = self
                    .fault
                    .as_deref()
                    .map(|f| f.cells[node as usize].epoch == epoch)
                    .expect("fault event requires fault state");
                if live {
                    if kind == FAULT_EV_FAIL {
                        self.fault_fail(node, now, true);
                    } else {
                        self.fault_repair(node, now);
                    }
                }
            }
        }
        // Give the policy a chance to (un)drain nodes after every event so
        // proactive wrappers act on the freshest view; a no-op for every
        // built-in policy and skipped entirely when injection is off.
        if self.fault.is_some() {
            let mut dirs = std::mem::take(&mut self.scratch_drains);
            dirs.clear();
            self.policy.drain_directives(&mut dirs);
            for &d in &dirs {
                self.apply_drain(d, now);
            }
            self.scratch_drains = dirs;
        }
        Some(now)
    }

    /// Bring `node` (global index) down at `now`: take it out of the
    /// placement index, kill every gang with a slice on it (requeueing
    /// per the configured semantics), maybe cascade to rack peers, and
    /// schedule the repair. `primary` gates the rack-burst draw so
    /// secondary failures never cascade further.
    fn fault_fail(&mut self, node: u32, now: i64, primary: bool) {
        let (vc, local, drain_since, fail_count) = {
            let f = self
                .fault
                .as_deref_mut()
                .expect("fault_fail requires fault state");
            let vc = f.node_vc[node as usize] as usize;
            let cell = &mut f.cells[node as usize];
            if !cell.up {
                return;
            }
            // Settle the busy integral at the failure instant, then mark
            // the node down; bumping the epoch stales any pending events.
            cell.busy_integral += cell.busy as f64 * (now - cell.last_t).max(0) as f64;
            cell.last_t = now;
            cell.up = false;
            cell.epoch += 1;
            cell.fail_count += 1;
            f.stats.failures += 1;
            let drain_since = if cell.draining {
                Some(cell.drain_since)
            } else {
                None
            };
            (vc, node - f.vc_base[vc], drain_since, cell.fail_count)
        };
        // Idempotent when the node was already drained out of the index.
        self.vcs[vc].pool.set_offline(local);
        // Kill every gang touching the node, in deterministic state order.
        let mut victims: Vec<usize> = self.vcs[vc]
            .running_allocs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.slices().iter().any(|&(n, _)| n == local))
            .map(|(slot, _)| self.vcs[vc].running[slot])
            .collect();
        victims.sort_unstable();
        let semantics = self
            .fault
            .as_deref()
            .expect("checked above")
            .config()
            .semantics;
        for idx in victims {
            self.kill_running(idx, vc, now, semantics, drain_since);
        }
        if !self.observers.is_empty() {
            let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
            for obs in &mut self.observers {
                obs.on_event(
                    &SimEvent::NodeFail {
                        vc: vc as u16,
                        node,
                        now,
                    },
                    &view,
                );
            }
        }
        // Correlated rack burst: one draw per primary failure; peers go
        // down at the same instant as secondaries.
        if primary {
            let f = self.fault.as_deref().expect("checked above");
            if f.burst_fires(node, fail_count) {
                let peers: Vec<u32> = f
                    .rack_peers(node)
                    .filter(|&m| m != node && f.cells[m as usize].up)
                    .collect();
                for m in peers {
                    self.fault_fail(m, now, false);
                }
            }
        }
        self.fault
            .as_deref_mut()
            .expect("checked above")
            .schedule_repair(node, now);
        self.schedule_vc(vc, now);
    }

    /// Evict running job `idx` because a node under it failed. Progress
    /// handling follows the configured semantics: kill-and-requeue loses
    /// the whole attempt; checkpoint-restart keeps work up to the last
    /// completed checkpoint interval (or the proactive drain checkpoint,
    /// whichever is later).
    fn kill_running(
        &mut self,
        idx: usize,
        vc: usize,
        now: i64,
        semantics: FaultSemantics,
        drain_since: Option<i64>,
    ) {
        let (job, lost) = {
            let s = &mut self.states[idx];
            debug_assert!(s.started_at != UNSET, "victim must be running");
            let elapsed = now - s.started_at;
            let mut kept = match semantics {
                FaultSemantics::KillRequeue => 0,
                FaultSemantics::CheckpointRestart { interval_secs } => {
                    (elapsed / interval_secs) * interval_secs
                }
            };
            if let FaultSemantics::CheckpointRestart { .. } = semantics {
                if let Some(d) = drain_since {
                    // A drained node checkpointed proactively at drain time.
                    kept = kept.max((d - s.started_at).clamp(0, elapsed));
                }
            }
            s.remaining -= kept;
            debug_assert!(s.remaining > 0, "finished jobs drain before faults");
            s.started_at = UNSET;
            s.epoch += 1; // stales the pending finish event
            s.preemptions += 1;
            (s.job, elapsed - kept)
        };
        let alloc = self.remove_running(vc, idx);
        self.release_on(vc, &alloc, now);
        {
            let f = self
                .fault
                .as_deref_mut()
                .expect("kill_running requires fault state");
            f.stats.killed_jobs += 1;
            f.stats.lost_gpu_secs += lost as f64 * f64::from(job.gpus);
        }
        let key = QueueKey(self.policy.queue_key(&self.states[idx].view()), job.id);
        self.vcs[vc].queue.push((key, idx));
        self.stats.queued_jobs += 1;
        let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
        self.policy.on_preempt(&job, now, &view);
        for obs in &mut self.observers {
            obs.on_event(&SimEvent::Preempt { job, now }, &view);
        }
    }

    /// Bring `node` back at `now`: reset its per-uptime telemetry, draw
    /// the next time-to-failure, and (unless it is held in drain) return
    /// it to the placement index and rescan the queue.
    fn fault_repair(&mut self, node: u32, now: i64) {
        let (vc, local, draining) = {
            let f = self
                .fault
                .as_deref_mut()
                .expect("fault_repair requires fault state");
            let vc = f.node_vc[node as usize] as usize;
            let cell = &mut f.cells[node as usize];
            if cell.up {
                return;
            }
            debug_assert_eq!(cell.busy, 0, "down nodes hold no allocations");
            cell.up = true;
            cell.up_since = now;
            cell.last_t = now;
            cell.busy_integral = 0.0;
            cell.alloc_events = 0;
            f.stats.repairs += 1;
            (vc, node - f.vc_base[vc], cell.draining)
        };
        self.fault
            .as_deref_mut()
            .expect("checked above")
            .schedule_failure(node, now);
        if !draining {
            self.vcs[vc].pool.set_online(local);
        }
        if !self.observers.is_empty() {
            let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
            for obs in &mut self.observers {
                obs.on_event(
                    &SimEvent::NodeRepair {
                        vc: vc as u16,
                        node,
                        now,
                    },
                    &view,
                );
            }
        }
        if !draining {
            self.schedule_vc(vc, now);
        }
    }

    /// Apply one policy drain directive. Draining only fences placement —
    /// running gangs keep going — so it is always safe; undraining returns
    /// a healthy node to the index immediately.
    fn apply_drain(&mut self, d: DrainDirective, now: i64) {
        let (vc, local, up) = {
            let Some(f) = self.fault.as_deref_mut() else {
                return;
            };
            let Some(cell) = f.cells.get_mut(d.node as usize) else {
                return;
            };
            if cell.draining == d.drain {
                return;
            }
            cell.draining = d.drain;
            cell.drain_since = if d.drain { now } else { UNSET };
            if d.drain {
                f.stats.drains += 1;
            } else {
                f.stats.undrains += 1;
            }
            let vc = f.node_vc[d.node as usize] as usize;
            (vc, d.node - f.vc_base[vc], f.cells[d.node as usize].up)
        };
        if !up {
            return; // down nodes are already out of the index
        }
        if d.drain {
            self.vcs[vc].pool.set_offline(local);
        } else {
            self.vcs[vc].pool.set_online(local);
            self.schedule_vc(vc, now);
        }
    }

    /// Start `idx` on `alloc` at `now` and schedule its finish event.
    fn start_job(&mut self, idx: usize, alloc: Allocation, now: i64) {
        let s = &mut self.states[idx];
        s.started_at = now;
        if s.first_start == UNSET {
            s.first_start = now;
        }
        s.epoch += 1;
        let epoch = s.epoch;
        let vc = s.job.vc as usize;
        let finish_at = now + s.remaining;
        let job = s.job;
        s.run_slot = self.vcs[vc].running.len() as u32;
        self.vcs[vc].running.push(idx);
        self.vcs[vc].running_allocs.push(alloc);
        self.stats.running_jobs += 1;
        self.finishes.push((finish_at, idx, epoch));
        let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
        self.policy.on_start(&job, now, &view);
        for obs in &mut self.observers {
            obs.on_event(&SimEvent::Start { job, now }, &view);
        }
    }

    /// Keep starting queue heads on `vc` until the head no longer fits
    /// (then preempt or backfill, per policy).
    fn schedule_vc(&mut self, vc: usize, now: i64) {
        loop {
            let Some(&(_, head)) = self.vcs[vc].queue.peek() else {
                return;
            };
            let g = self.states[head].job.gpus;
            if let Some(alloc) = self.place_on(vc, g, now) {
                self.vcs[vc].queue.pop();
                self.stats.queued_jobs -= 1;
                self.start_job(head, alloc, now);
                continue;
            }
            // Head blocked.
            if self.policy.preemptive() {
                if self.try_preempt_for(head, vc, now) {
                    continue;
                }
                return;
            }
            if self.backfill {
                self.backfill_vc(vc, now);
            }
            return;
        }
    }

    /// Preemption: free GPUs by evicting running jobs whose current
    /// [`SchedulingPolicy::preempt_rank`] is strictly greater than the
    /// blocked head's (largest rank first). Dry-runs the rank-sorted
    /// victims on an undo-logged pool trial, then evicts the needed prefix
    /// and starts the head. Returns true if the head could be placed.
    fn try_preempt_for(&mut self, head: usize, vc: usize, now: i64) -> bool {
        let head_rank = self.policy.preempt_rank(&self.states[head].view());
        // Victims: running jobs ranked strictly above the head, largest
        // rank first (ties broken by state index for determinism).
        let mut victims = std::mem::take(&mut self.scratch_victims);
        victims.clear();
        for i in 0..self.vcs[vc].running.len() {
            let idx = self.vcs[vc].running[i];
            let s = &self.states[idx];
            debug_assert!(
                s.started_at != UNSET,
                "kernel invariant: a running job must have a start time"
            );
            let elapsed = now - s.started_at;
            let remaining = s.remaining - elapsed;
            if remaining <= 0 {
                // The job is finishing at this very instant — its finish
                // event is still pending in the heap. Evicting it would
                // restart a done job with zero remaining time.
                continue;
            }
            let view = JobView {
                job: &s.job,
                remaining,
                preemptions: s.preemptions,
            };
            let rank = self.policy.preempt_rank(&view);
            if rank.total_cmp(&head_rank) == std::cmp::Ordering::Greater {
                victims.push((rank, idx));
            }
        }
        victims.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let g = self.states[head].job.gpus;
        // The caller's placement attempt just failed, so the head cannot
        // start without evictions: no victims means no preemption, with
        // no pool work at all.
        let mut needed_len = 0usize;
        let placed = if victims.is_empty() {
            false
        } else {
            let mut log = std::mem::take(&mut self.trial_log);
            let VcState {
                pool,
                running_allocs,
                ..
            } = &mut self.vcs[vc];
            let mut trial = pool.trial_in(&mut log);
            let mut placed = false;
            for &(_, idx) in victims.iter() {
                trial.release(&running_allocs[self.states[idx].run_slot as usize]);
                needed_len += 1;
                if trial.fits(g) {
                    placed = true;
                    break;
                }
            }
            drop(trial);
            self.trial_log = log;
            placed
        };
        if !placed {
            self.scratch_victims = victims;
            return false;
        }
        // The head is the queue top: `schedule_vc` peeked it and nothing
        // has touched the queue since. Extract it *before* the victims
        // re-queue (whose fresh keys could sort above it), replacing the
        // old full drain-and-reinsert hunt. It stays logically queued
        // (`held_head`) until it starts, so the queue-length views the
        // preempt hooks observe match the pre-rewrite kernel exactly.
        let head_entry = self.vcs[vc]
            .queue
            .pop()
            .expect("kernel invariant: the blocked head must still be queued");
        debug_assert_eq!(
            head_entry.1, head,
            "kernel invariant: head is the queue top"
        );
        self.vcs[vc].held_head = true;
        // Apply: preempt the needed victims for real.
        for &(_, idx) in victims.iter().take(needed_len) {
            let s = &mut self.states[idx];
            debug_assert!(
                s.started_at != UNSET,
                "kernel invariant: a preemption victim must be running"
            );
            let elapsed = now - s.started_at;
            s.started_at = UNSET;
            s.remaining -= elapsed;
            debug_assert!(s.remaining > 0);
            s.epoch += 1; // invalidate the in-flight finish event
            s.preemptions += 1;
            let job = s.job;
            let alloc = self.remove_running(vc, idx);
            self.release_on(vc, &alloc, now);
            let key = QueueKey(
                self.policy.queue_key(&self.states[idx].view()),
                self.states[idx].job.id,
            );
            self.vcs[vc].queue.push((key, idx));
            self.stats.queued_jobs += 1;
            let view = ClusterView::new(&self.vcs, &self.stats, self.fault.as_deref());
            self.policy.on_preempt(&job, now, &view);
            for obs in &mut self.observers {
                obs.on_event(&SimEvent::Preempt { job, now }, &view);
            }
        }
        self.scratch_victims = victims;
        self.vcs[vc].held_head = false;
        self.stats.queued_jobs -= 1;
        let alloc = self
            .place_on(vc, g, now)
            .expect("kernel invariant: the preemption dry-run guaranteed placement");
        self.start_job(head, alloc, now);
        true
    }

    /// EASY backfill: compute the blocked head's shadow start time from the
    /// running jobs' completion times, then start later-queued jobs that
    /// fit now and (by their ground-truth duration) finish before the
    /// shadow time.
    fn backfill_vc(&mut self, vc: usize, now: i64) {
        let Some(&(_, head)) = self.vcs[vc].queue.peek() else {
            return;
        };
        if self.vcs[vc].pool.free_gpus() == 0 {
            return; // nothing can backfill into a fully-busy VC
        }
        // Shadow time: release running jobs in end order on an undo-logged
        // trial until the head fits.
        let head_g = self.states[head].job.gpus;
        let mut ends = std::mem::take(&mut self.scratch_ends);
        ends.clear();
        ends.extend(self.vcs[vc].running.iter().map(|&idx| {
            let s = &self.states[idx];
            debug_assert!(
                s.started_at != UNSET,
                "kernel invariant: a running job must have a start time"
            );
            (s.started_at + s.remaining, idx)
        }));
        ends.sort_unstable();
        let mut shadow = i64::MAX;
        {
            let mut log = std::mem::take(&mut self.trial_log);
            let VcState {
                pool,
                running_allocs,
                ..
            } = &mut self.vcs[vc];
            let mut trial = pool.trial_in(&mut log);
            for &(end, idx) in ends.iter() {
                trial.release(&running_allocs[self.states[idx].run_slot as usize]);
                if trial.fits(head_g) {
                    shadow = end;
                    break;
                }
            }
            drop(trial);
            self.trial_log = log;
        }
        self.scratch_ends = ends;
        if shadow == i64::MAX {
            return; // head can never start: nothing safe to backfill
        }
        // Scan up to BACKFILL_SCAN queue positions behind the head (in
        // priority order) for safe candidates. The head is held aside —
        // its entry re-enters unchanged — and the scan stops early once
        // the pool has no free GPUs left to hand out.
        let head_entry = self.vcs[vc]
            .queue
            .pop()
            .expect("kernel invariant: the peeked head is still queued");
        let mut rest = std::mem::take(&mut self.scratch_rest);
        rest.clear();
        let mut scanned = 0;
        while scanned < BACKFILL_SCAN {
            let Some((key, idx)) = self.vcs[vc].queue.pop() else {
                break;
            };
            scanned += 1;
            let fits_time = now + self.states[idx].remaining <= shadow;
            if fits_time {
                if let Some(alloc) = self.place_on(vc, self.states[idx].job.gpus, now) {
                    self.stats.queued_jobs -= 1;
                    self.start_job(idx, alloc, now);
                    if self.vcs[vc].pool.free_gpus() == 0 {
                        break;
                    }
                    continue;
                }
            }
            rest.push((key, idx));
        }
        self.vcs[vc].queue.push(head_entry);
        for e in rest.drain(..) {
            self.vcs[vc].queue.push(e);
        }
        self.scratch_rest = rest;
    }
}

/// Maximum queue positions scanned for backfill candidates.
const BACKFILL_SCAN: usize = 64;

/// 4-ary heap property check (matching `MinHeap`'s arity) for the heap
/// arrays a snapshot restores verbatim — untrusted input, so the check
/// runs in release builds too, not just as a debug assertion.
fn is_heap<T: Ord>(data: &[T]) -> bool {
    (1..data.len()).all(|i| data[(i - 1) / 4] <= data[i])
}

/// Run one simulation to completion with an arbitrary policy object.
pub fn simulate_with(
    spec: &ClusterSpec,
    jobs: &[SimJob],
    policy: Box<dyn SchedulingPolicy + '_>,
    cfg: &KernelConfig,
) -> HeliosResult<SimResult> {
    let mut sim = Simulator::with_config(spec, policy, cfg);
    sim.push_jobs(jobs)?;
    sim.run_to_completion();
    let outcomes = sim.drain_outcomes();
    debug_assert_eq!(outcomes.len(), jobs.len());
    Ok(SimResult { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::OccupancyObserver;
    use crate::policy::TiresiasPolicy;
    use helios_trace::{ClusterSpec, GpuModel, VcSpec};

    fn spec(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            id: helios_trace::ClusterId::Venus,
            nodes,
            gpus_per_node: 8,
            cpu_threads_per_node: 48,
            ram_gb_per_node: 376,
            network: "IB",
            gpu_model: GpuModel::Volta,
            vcs: vec![VcSpec {
                id: 0,
                name: "vc000".into(),
                nodes,
            }],
        }
    }

    fn job(id: u64, gpus: u32, submit: i64, duration: i64) -> SimJob {
        SimJob {
            id,
            vc: 0,
            gpus,
            submit,
            duration,
            priority: duration as f64 * gpus as f64,
        }
    }

    fn run(policy: Policy, jobs: &[SimJob]) -> Vec<JobOutcome> {
        simulate_with(&spec(1), jobs, policy.build(), &KernelConfig::default())
            .unwrap()
            .outcomes
    }

    fn run_backfilled(jobs: &[SimJob]) -> Vec<JobOutcome> {
        let cfg = KernelConfig {
            backfill: true,
            ..KernelConfig::default()
        };
        simulate_with(&spec(1), jobs, Policy::Fifo.build(), &cfg)
            .unwrap()
            .outcomes
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let jobs = vec![job(0, 8, 0, 1_000), job(1, 8, 10, 10), job(2, 8, 20, 10)];
        let o = run(Policy::Fifo, &jobs);
        assert_eq!(o[0].start, 0);
        assert_eq!(o[1].start, 1_000);
        assert_eq!(o[2].start, 1_010);
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        // Long job arrives second but before the queue drains.
        let jobs = vec![
            job(0, 8, 0, 1_000),
            job(1, 8, 5, 5_000), // long
            job(2, 8, 10, 10),   // short, should jump ahead of job 1
        ];
        let o = run(Policy::Sjf, &jobs);
        assert_eq!(o[2].start, 1_000);
        assert_eq!(o[1].start, 1_010);
    }

    #[test]
    fn priority_policy_uses_scores() {
        let mut jobs = vec![job(0, 8, 0, 1_000), job(1, 8, 5, 10), job(2, 8, 10, 10)];
        // Force job 2 ahead of job 1 via priority.
        jobs[1].priority = 100.0;
        jobs[2].priority = 1.0;
        let o = run(Policy::Priority, &jobs);
        assert!(o[2].start < o[1].start);
    }

    #[test]
    fn srtf_preempts_long_running_job() {
        let jobs = vec![
            job(0, 8, 0, 10_000), // long, starts immediately
            job(1, 8, 100, 50),   // short: preempts job 0
        ];
        let o = run(Policy::Srtf, &jobs);
        assert_eq!(o[1].start, 100);
        assert_eq!(o[1].end, 150);
        // Job 0: ran 100s, preempted, resumes at 150, finishes at 10 050.
        assert_eq!(o[0].end, 10_050);
        assert_eq!(o[0].preemptions, 1);
        assert_eq!(o[0].queue_delay(), 50);
    }

    #[test]
    fn srtf_does_not_preempt_shorter_jobs() {
        let jobs = vec![
            job(0, 8, 0, 100),    // short runner
            job(1, 8, 10, 5_000), // long arrival must wait
        ];
        let o = run(Policy::Srtf, &jobs);
        assert_eq!(o[0].end, 100);
        assert_eq!(o[0].preemptions, 0);
        assert_eq!(o[1].start, 100);
    }

    #[test]
    fn gang_scheduling_no_partial_start() {
        // 2-node cluster; a 16-GPU job must wait for both nodes.
        let jobs = vec![
            SimJob {
                id: 0,
                vc: 0,
                gpus: 4,
                submit: 0,
                duration: 500,
                priority: 0.0,
            },
            SimJob {
                id: 1,
                vc: 0,
                gpus: 16,
                submit: 10,
                duration: 100,
                priority: 1.0,
            },
        ];
        let r = simulate_with(
            &spec(2),
            &jobs,
            Box::new(FifoPolicy),
            &KernelConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outcomes[1].start, 500, "16-GPU job needs 2 free nodes");
    }

    #[test]
    fn head_of_line_blocks_without_backfill() {
        let jobs = vec![
            job(0, 6, 0, 1_000),
            job(1, 4, 10, 10), // blocked head (needs 4, only 2 free)
            job(2, 2, 20, 10), // would fit, but FIFO blocks
        ];
        let o = run(Policy::Fifo, &jobs);
        assert_eq!(o[2].start, 1_000);
    }

    #[test]
    fn backfill_fills_the_hole() {
        let jobs = vec![
            job(0, 6, 0, 1_000),
            job(1, 4, 10, 2_000), // blocked head; shadow = 1000
            job(2, 2, 20, 100),   // fits now and ends (120) before shadow
        ];
        let o = run_backfilled(&jobs);
        assert_eq!(o[2].start, 20, "backfill should start job 2 immediately");
        // Head must not be delayed by the backfilled job.
        assert_eq!(o[1].start, 1_000);
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let jobs = vec![
            job(0, 6, 0, 1_000),
            job(1, 4, 10, 2_000),  // blocked head; shadow = 1000
            job(2, 2, 20, 50_000), // fits now but would overrun the shadow
        ];
        let o = run_backfilled(&jobs);
        assert_eq!(o[1].start, 1_000);
        assert!(o[2].start >= 1_000, "long job must not backfill");
    }

    #[test]
    fn occupancy_observer_tracks_busy_nodes() {
        let jobs = vec![job(0, 8, 0, 100), job(1, 8, 200, 100)];
        let mut occ = OccupancyObserver::new(100).unwrap();
        let mut sim = Simulator::new(&spec(1), Box::new(FifoPolicy));
        sim.observe(Box::new(&mut occ));
        sim.push_jobs(&jobs).unwrap();
        sim.run_to_completion();
        drop(sim);
        // Bin 0: 1 node busy; bin 1: idle; bin 2: busy again (the final
        // event closes the series at t=300).
        let series = occ.series();
        assert_eq!(occ.t0(), 0);
        assert!(series[0] > 0.9);
        assert!(series[1] < 0.1);
    }

    #[test]
    fn incremental_batches_match_one_shot() {
        let jobs = vec![
            job(0, 8, 0, 1_000),
            job(1, 8, 10, 10),
            job(2, 8, 1_500, 200),
            job(3, 4, 2_000, 50),
        ];
        let one_shot = run(Policy::Sjf, &jobs);

        let mut sim = Simulator::new(&spec(1), Box::new(SjfPolicy));
        sim.push_jobs(&jobs[..2]).unwrap();
        sim.run_until(1_200);
        let mut drained = sim.drain_outcomes();
        assert_eq!(drained.len(), 2, "first batch finished by t=1200");
        sim.push_jobs(&jobs[2..]).unwrap();
        sim.run_to_completion();
        drained.extend(sim.drain_outcomes());
        assert_eq!(drained, one_shot);
    }

    #[test]
    fn push_into_the_past_is_rejected() {
        let mut sim = Simulator::new(&spec(1), Box::new(FifoPolicy));
        sim.push_jobs(&[job(0, 8, 100, 10)]).unwrap();
        sim.run_until(500);
        let err = sim.push_jobs(&[job(1, 8, 400, 10)]).unwrap_err();
        assert!(matches!(err, HeliosError::InvalidJob { job_id: 1, .. }));
        // At the horizon is fine.
        sim.push_jobs(&[job(2, 8, 500, 10)]).unwrap();
        sim.run_to_completion();
        assert_eq!(sim.unfinished_jobs(), 0);
    }

    #[test]
    fn queued_jobs_lists_exactly_the_waiting_jobs() {
        // One 8-GPU node: job 0 runs, jobs 1 and 2 wait behind it.
        let jobs = vec![job(0, 8, 0, 1_000), job(1, 8, 10, 10), job(2, 4, 20, 10)];
        let mut sim = Simulator::new(&spec(1), Box::new(FifoPolicy));
        sim.push_jobs(&jobs).unwrap();
        sim.run_until(20);
        let mut queued: Vec<u64> = sim.queued_jobs(0).map(|j| j.id).collect();
        queued.sort_unstable();
        assert_eq!(queued, vec![1, 2]);
        assert_eq!(queued.len(), sim.cluster_view().vc_queue_len(0));
        // An unknown VC is empty, not a panic.
        assert_eq!(sim.queued_jobs(7).count(), 0);
        sim.run_to_completion();
        assert_eq!(sim.queued_jobs(0).count(), 0);
    }

    #[test]
    fn step_advances_one_event_at_a_time() {
        let jobs = vec![job(0, 8, 5, 100), job(1, 8, 50, 10)];
        let mut sim = Simulator::new(&spec(1), Box::new(FifoPolicy));
        sim.push_jobs(&jobs).unwrap();
        assert_eq!(sim.step(), Some(5)); // arrival 0 (starts immediately)
        assert_eq!(sim.step(), Some(50)); // arrival 1 (queues)
        assert_eq!(sim.now(), 50);
        assert_eq!(sim.unfinished_jobs(), 2);
        assert_eq!(sim.step(), Some(105)); // finish 0, start 1
        assert_eq!(sim.step(), Some(115)); // finish 1
        assert_eq!(sim.step(), None);
        assert_eq!(sim.drain_outcomes().len(), 2);
    }

    #[test]
    fn tiresias_fresh_jobs_preempt_old_ones() {
        // Job 0 accumulates far more than one quantum of GPU service, so a
        // fresh arrival (level 0) evicts it.
        let jobs = vec![
            job(0, 8, 0, 20_000), // by t=10_000: 80_000 GPU·s attained, level >= 1
            job(1, 8, 10_000, 100),
        ];
        let r = simulate_with(
            &spec(1),
            &jobs,
            Box::new(TiresiasPolicy::default()),
            &KernelConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outcomes[1].start, 10_000, "fresh job preempts");
        assert_eq!(r.outcomes[0].preemptions, 1);
        assert_eq!(r.outcomes[0].end, 20_100);
    }

    #[test]
    fn preempt_hooks_count_the_held_head_as_queued() {
        // During a preemption apply, the blocked head is extracted from
        // the queue heap but has not started — observers at the Preempt
        // event must still count it as queued (the historical kernel kept
        // it in the heap until it started). At t=10_000 the fresh job 1
        // evicts runner 0: the Preempt sample sees queue_len == 2 (held
        // head 1 + requeued victim 0).
        struct PreemptQueueLen(Vec<(usize, usize)>);
        impl SimObserver for PreemptQueueLen {
            fn on_event(&mut self, event: &SimEvent, cluster: &ClusterView<'_>) {
                if matches!(event, SimEvent::Preempt { .. }) {
                    self.0.push((cluster.queue_len(), cluster.vc_queue_len(0)));
                }
            }
        }
        let jobs = vec![job(0, 8, 0, 20_000), job(1, 8, 10_000, 100)];
        let mut obs = PreemptQueueLen(Vec::new());
        let mut sim = Simulator::new(&spec(1), Box::new(TiresiasPolicy::default()));
        sim.observe(Box::new(&mut obs));
        sim.push_jobs(&jobs).unwrap();
        sim.run_to_completion();
        drop(sim);
        assert_eq!(obs.0, vec![(2, 2)], "held head + requeued victim");
    }

    #[test]
    fn preemption_skips_victims_finishing_this_instant() {
        // J0 and J1 share the node; H (whole node) blocks at t=500. At
        // t=1000 J0's finish processes first and retries H: J1 — remaining
        // 0 as of now, its finish event pending at the same instant — must
        // not be picked as a preemption victim (it would restart with zero
        // remaining time).
        let jobs = vec![
            job(0, 4, 0, 1_000),
            job(1, 4, 0, 1_000),
            job(2, 8, 500, 100),
        ];
        let r = simulate_with(
            &spec(1),
            &jobs,
            Box::new(TiresiasPolicy::default()),
            &KernelConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outcomes[1].preemptions, 0, "no zero-remaining victim");
        assert_eq!(r.outcomes[1].end, 1_000);
        assert_eq!(r.outcomes[2].start, 1_000, "head starts once both end");
    }

    #[test]
    fn tiresias_same_level_is_fifo_without_preemption() {
        // Two short jobs in level 0: the runner is never evicted by a
        // same-level sibling.
        let jobs = vec![job(0, 8, 0, 300), job(1, 8, 10, 300)];
        let r = simulate_with(
            &spec(1),
            &jobs,
            Box::new(TiresiasPolicy::default()),
            &KernelConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outcomes[0].preemptions, 0);
        assert_eq!(r.outcomes[1].start, 300);
    }

    #[test]
    fn conservation_all_jobs_finish_once() {
        // Stress: many random-ish jobs; everyone terminates exactly once
        // and capacity is never exceeded (checked via an event sweep).
        let jobs: Vec<SimJob> = (0..500)
            .map(|i| {
                job(
                    i,
                    [1, 2, 4, 8, 16][(i % 5) as usize],
                    (i as i64 * 97) % 10_000,
                    1 + (i as i64 * 131) % 2_000,
                )
            })
            .collect();
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|j| j.submit);
        for policy in [Policy::Fifo, Policy::Sjf, Policy::Srtf, Policy::Priority] {
            let o = simulate_with(&spec(3), &sorted, policy.build(), &KernelConfig::default())
                .unwrap()
                .outcomes;
            assert_eq!(o.len(), sorted.len());
            let mut events: Vec<(i64, i64)> = Vec::new();
            for (out, j) in o.iter().zip(&sorted) {
                assert!(out.start >= j.submit, "{policy:?}");
                assert!(out.end >= out.start + j.duration, "{policy:?}");
                if policy != Policy::Srtf {
                    assert_eq!(out.end - out.start, j.duration, "{policy:?}");
                    events.push((out.start, j.gpus as i64));
                    events.push((out.end, -(j.gpus as i64)));
                }
            }
            if policy != Policy::Srtf {
                events.sort();
                let mut load = 0;
                for (_, d) in events {
                    load += d;
                    assert!(load <= 24, "{policy:?}: capacity exceeded ({load})");
                }
            }
        }
    }
}

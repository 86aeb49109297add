//! Live fleet telemetry: the snapshot of one hosted cluster a query
//! returns without touching its worker thread.

use helios_trace::{ClusterId, ClusterSpec};

/// Supervision state of one hosted cluster's worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerState {
    /// Serving normally.
    #[default]
    Healthy,
    /// A panic was caught; the supervisor is restoring the last good
    /// checkpoint and replaying the admission journal.
    Recovering,
    /// The worker stopped making kernel progress and ignored cooperative
    /// cancellation past the watchdog's hard deadline. The cluster is
    /// served in degraded mode — stale status, no admission, and no call
    /// ever blocks on it — until the fleet is relaunched or recovered.
    Hung,
    /// The restart budget is exhausted (or no retained generation
    /// decodes): the cluster is served in degraded mode — stale status,
    /// no admission — until the fleet is relaunched or recovered.
    Crashed,
}

/// Degraded-mode health of one hosted cluster, overlaid onto
/// [`ClusterStatus`] at query time. [`Fleet::statuses`] stays infallible
/// so an operator dashboard keeps rendering while a worker is down;
/// [`Fleet::status`] instead surfaces a crashed worker as the typed
/// [`HeliosError::WorkerCrashed`](helios_trace::HeliosError::WorkerCrashed).
///
/// [`Fleet::statuses`]: crate::Fleet::statuses
/// [`Fleet::status`]: crate::Fleet::status
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetHealth {
    /// Supervision state.
    pub state: WorkerState,
    /// Supervisor restarts performed since launch.
    pub restarts: u32,
    /// Index of the newest retained checkpoint generation.
    pub checkpoint_generation: u64,
    /// Virtual-clock age of the newest checkpoint in seconds
    /// (`now - checkpoint clock`, floored at 0; 0 before any activity).
    pub checkpoint_age_secs: i64,
    /// Jobs journaled since the newest checkpoint — the replay cost of a
    /// crash right now.
    pub journal_len: usize,
    /// Corrupt/undecodable generations skipped across all recoveries,
    /// including the disk recovery a worker of
    /// [`Fleet::recover`](crate::Fleet::recover) boots from.
    pub fallbacks: u32,
    /// Wall-clock time spent in recovery since launch, seconds.
    pub recovery_secs_total: f64,
    /// Checkpoint generations written since launch (including the launch
    /// generation, post-recovery re-baselines and the one each
    /// [`Fleet::snapshot`](crate::Fleet::snapshot) takes).
    pub checkpoint_writes: u64,
    /// Wall-clock time spent writing checkpoints (serialization +
    /// checksum + disk mirror), seconds; divide by
    /// [`checkpoint_writes`](Self::checkpoint_writes) for the mean write
    /// latency.
    pub checkpoint_write_secs_total: f64,
    /// Monotone kernel-event heartbeat: total events the worker has
    /// processed across its lifetime (survives restarts). A watchdog
    /// declares a stall when this stops advancing while work is pending.
    pub heartbeat_events: u64,
    /// Wall-clock age of the last heartbeat in seconds — how long ago the
    /// worker last proved liveness (0.0 before the first heartbeat).
    pub heartbeat_age_secs: f64,
    /// Jobs refused by adaptive admission control since launch
    /// ([`HeliosError::FleetShedding`](helios_trace::HeliosError::FleetShedding)).
    pub shed_jobs: u64,
    /// True while admission control is actively shedding (backlog between
    /// the high- and low-water hysteresis marks after crossing high).
    pub shedding: bool,
}

/// One virtual cluster's live state inside a [`ClusterStatus`].
#[derive(Debug, Clone, PartialEq)]
pub struct VcStatus {
    /// VC id (index into the cluster spec's VC list).
    pub vc: u16,
    /// Jobs waiting in this VC's scheduler queue.
    pub queued: usize,
    /// GPUs currently allocated in this VC.
    pub busy_gpus: u32,
    /// Total GPUs this VC owns.
    pub capacity_gpus: u32,
    /// Outstanding queued work in GPU·seconds: the sum over queued jobs
    /// of the QSSF priority score (predicted GPU time) when one was
    /// supplied, else the `gpus × duration` oracle proxy.
    pub queued_work: f64,
}

impl VcStatus {
    /// GPU utilization of this VC in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_gpus == 0 {
            0.0
        } else {
            self.busy_gpus as f64 / self.capacity_gpus as f64
        }
    }

    /// QSSF-style queue-drain ETA in seconds: outstanding queued
    /// GPU·seconds divided by the VC's GPU capacity — the time a newly
    /// submitted job should expect the backlog ahead of it to take if
    /// the VC runs flat out. A lower bound (placement fragmentation and
    /// gang scheduling only stretch it), which is exactly the bound the
    /// paper's QSSF service quotes to users.
    pub fn eta_secs(&self) -> f64 {
        if self.capacity_gpus == 0 {
            0.0
        } else {
            self.queued_work / self.capacity_gpus as f64
        }
    }
}

/// Live state of one hosted cluster. Workers publish a fresh value after
/// every command they process; [`Fleet::status`](crate::Fleet::status)
/// overlays the ingestion-side counters (`submitted`, `pending_ingest`)
/// from atomics at query time, so reads never wait on a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStatus {
    /// Which hosted cluster this is.
    pub cluster: ClusterId,
    /// The cluster's simulated clock (`i64::MIN` before any activity).
    pub now: i64,
    /// Jobs accepted by [`Fleet::submit`](crate::Fleet::submit) since
    /// launch (read from the live ingestion counter at query time, so it
    /// can run ahead of `admitted` by at most the in-flight shard
    /// contents).
    pub submitted: u64,
    /// Jobs sitting in ingestion shards, not yet admitted to the kernel
    /// (live at query time).
    pub pending_ingest: usize,
    /// Jobs the kernel has admitted (as of the last admission cycle).
    pub admitted: u64,
    /// Jobs that finished executing (as of the last admission cycle).
    pub finished: u64,
    /// Jobs waiting across all VC queues.
    pub queue_depth: usize,
    /// Jobs currently running across all VCs.
    pub running: usize,
    /// GPUs currently allocated across all VCs.
    pub busy_gpus: u32,
    /// Total GPUs in the cluster.
    pub capacity_gpus: u32,
    /// Nodes currently out of the placement index (down or draining);
    /// always 0 without failure injection.
    pub down_nodes: u32,
    /// Node failures injected so far (cumulative; 0 without injection).
    pub failures: u64,
    /// Per-VC breakdown, in VC order.
    pub vcs: Vec<VcStatus>,
    /// Admission cycle that published this snapshot (0 before the first
    /// pump). [`Fleet::status_within`](crate::Fleet::status_within)
    /// compares it against the cycles issued so far to tag staleness.
    pub cycle: u64,
    /// Supervision health (restart counts, checkpoint age), overlaid at
    /// query time like the ingestion counters.
    pub health: FleetHealth,
}

impl ClusterStatus {
    /// The all-idle status published before a worker's first command.
    pub(crate) fn empty(spec: &ClusterSpec, cluster: ClusterId) -> Self {
        ClusterStatus {
            cluster,
            now: i64::MIN,
            submitted: 0,
            pending_ingest: 0,
            admitted: 0,
            finished: 0,
            queue_depth: 0,
            running: 0,
            busy_gpus: 0,
            capacity_gpus: spec.total_gpus(),
            down_nodes: 0,
            failures: 0,
            vcs: spec
                .vcs
                .iter()
                .map(|vc| VcStatus {
                    vc: vc.id,
                    queued: 0,
                    busy_gpus: 0,
                    capacity_gpus: vc.nodes * spec.gpus_per_node,
                    queued_work: 0.0,
                })
                .collect(),
            cycle: 0,
            health: FleetHealth::default(),
        }
    }

    /// Cluster-wide GPU utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_gpus == 0 {
            0.0
        } else {
            self.busy_gpus as f64 / self.capacity_gpus as f64
        }
    }

    /// Queue-drain ETA for one VC ([`VcStatus::eta_secs`]); `None` for an
    /// unknown VC id.
    pub fn eta_secs(&self, vc: u16) -> Option<f64> {
        self.vcs.get(vc as usize).map(VcStatus::eta_secs)
    }
}

/// Staleness tag on a [`StatusReport`] returned by
/// [`Fleet::status_within`](crate::Fleet::status_within). The contract:
/// the call returns within the deadline with the freshest snapshot it
/// could get, and this tag says how fresh that was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusKind {
    /// The snapshot reflects every admission cycle issued so far.
    Fresh,
    /// The worker is healthy but the snapshot trails the issued cycles —
    /// a pump (or recovery) is in flight. `age_cycles` is how many
    /// issued-but-unpublished cycles it misses.
    Stale {
        /// Admission cycles issued but not yet reflected in the snapshot.
        age_cycles: u64,
    },
    /// The worker is not `Healthy` (recovering, hung, or crashed) or the
    /// snapshot lock could not be taken within the deadline: the snapshot
    /// is the last one the worker published before degrading.
    Degraded,
}

/// A deadline-bounded status read: the freshest [`ClusterStatus`]
/// available within the caller's deadline, tagged with its staleness.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// The snapshot (live ingestion counters and health overlaid, same as
    /// [`Fleet::status`](crate::Fleet::status)).
    pub status: ClusterStatus,
    /// How fresh the snapshot is.
    pub kind: StatusKind,
}

//! Fleet topology: which clusters to host, under which discipline, and
//! the fleet-wide resilience knobs (supervision budget, checkpoint ring,
//! chaos schedule).

use crate::chaos::ChaosConfig;
use crate::checkpoint::CheckpointConfig;
use helios_sim::{ByteReader, FaultConfig, KernelConfig, Placement, Policy};
use helios_trace::{ClusterId, HeliosError, HeliosResult};
use std::time::Duration;

/// The five cluster presets a default fleet hosts — the four Helios
/// datacenters of Table 1 plus the Philly comparison cluster.
pub const FLEET_PRESETS: [ClusterId; 5] = [
    ClusterId::Venus,
    ClusterId::Earth,
    ClusterId::Saturn,
    ClusterId::Uranus,
    ClusterId::Philly,
];

/// Default bound of each per-VC ingestion shard (jobs). Deep enough that
/// a steady producer never blocks, shallow enough that a stalled worker
/// surfaces as backpressure within one admission cycle.
pub const DEFAULT_SHARD_CAPACITY: usize = 4_096;

/// Largest per-VC ingestion shard bound (jobs) a fleet accepts, at launch
/// and in a restored frame. A shard's channel allocates all its slots up
/// front, so an unbounded capacity could abort the process.
pub const MAX_SHARD_CAPACITY: usize = 1 << 20;

/// Default supervisor restart budget per worker: panics beyond this
/// count mark the cluster [`Crashed`](crate::WorkerState::Crashed).
pub const DEFAULT_MAX_RESTARTS: u32 = 8;

/// Stable wire code of a cluster id, shared by the `HELFLEET` frame and
/// the on-disk checkpoint headers.
pub(crate) fn cluster_code(c: ClusterId) -> u8 {
    match c {
        ClusterId::Venus => 0,
        ClusterId::Earth => 1,
        ClusterId::Saturn => 2,
        ClusterId::Uranus => 3,
        ClusterId::Philly => 4,
    }
}

pub(crate) fn cluster_from(code: u8, r: &ByteReader<'_>) -> HeliosResult<ClusterId> {
    Ok(match code {
        0 => ClusterId::Venus,
        1 => ClusterId::Earth,
        2 => ClusterId::Saturn,
        3 => ClusterId::Uranus,
        4 => ClusterId::Philly,
        other => return Err(r.err(format!("unknown cluster code {other}"))),
    })
}

/// Stable wire code of a serializable policy, shared with the `HELFLEET`
/// frame.
pub(crate) fn policy_code(p: Policy) -> u8 {
    match p {
        Policy::Fifo => 0,
        Policy::Sjf => 1,
        Policy::Srtf => 2,
        Policy::Priority => 3,
    }
}

pub(crate) fn policy_from(code: u8, r: &ByteReader<'_>) -> HeliosResult<Policy> {
    Ok(match code {
        0 => Policy::Fifo,
        1 => Policy::Sjf,
        2 => Policy::Srtf,
        3 => Policy::Priority,
        other => return Err(r.err(format!("unknown policy code {other}"))),
    })
}

/// Watchdog supervision knobs: how long a worker may go without kernel
/// progress before the supervisor intervenes.
///
/// The watchdog runs on the *caller's* thread: while a fleet call waits
/// for a worker's reply it polls the worker's heartbeat atomics, and —
/// if the heartbeat goes flat for [`stall_deadline`](Self::stall_deadline)
/// — arms a cooperative cancellation token that the kernel checks every
/// [`check_events`](Self::check_events) processed events. A cancelled
/// worker routes through the normal checkpoint-restore path (counting
/// against the restart budget); one that ignores cancellation for a
/// further [`hang_deadline`](Self::hang_deadline) is marked
/// [`Hung`](crate::WorkerState::Hung) and abandoned so no call ever
/// blocks on it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Wall-clock heartbeat flatline that triggers cooperative
    /// cancellation.
    pub stall_deadline: Duration,
    /// Additional wall-clock grace after cancellation is armed; a worker
    /// still flat past this is declared hung.
    pub hang_deadline: Duration,
    /// Kernel events between cancellation-token checks (and heartbeat
    /// publishes) inside the event loop. Smaller = faster cancellation,
    /// more atomic traffic; `0` is clamped to 1.
    pub check_events: u32,
}

impl WatchdogConfig {
    /// Production-shaped defaults: 5 s stall deadline, 5 s further hang
    /// grace, heartbeat every 128 kernel events.
    pub fn new() -> Self {
        WatchdogConfig {
            stall_deadline: Duration::from_secs(5),
            hang_deadline: Duration::from_secs(5),
            check_events: 128,
        }
    }

    /// Override the stall deadline.
    pub fn stall_deadline(mut self, d: Duration) -> Self {
        self.stall_deadline = d;
        self
    }

    /// Override the hang grace period.
    pub fn hang_deadline(mut self, d: Duration) -> Self {
        self.hang_deadline = d;
        self
    }

    /// Override the heartbeat/cancellation check interval (events).
    pub fn check_events(mut self, every: u32) -> Self {
        self.check_events = every;
        self
    }

    pub(crate) fn validate(&self) -> HeliosResult<()> {
        if self.stall_deadline.is_zero() {
            return Err(HeliosError::invalid_config(
                "watchdog.stall_deadline",
                "must be > 0",
            ));
        }
        if self.hang_deadline.is_zero() {
            return Err(HeliosError::invalid_config(
                "watchdog.hang_deadline",
                "must be > 0",
            ));
        }
        Ok(())
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::new()
    }
}

/// Adaptive admission-control knobs: the hysteresis band on ingestion
/// backlog occupancy that switches [`Fleet::submit`](crate::Fleet::submit)
/// between FIFO-accept and per-VC fair shedding.
///
/// Occupancy is total pending ingestion jobs over total shard capacity.
/// Crossing [`high_water`](Self::high_water) engages shedding; it stays
/// engaged until occupancy falls back to [`low_water`](Self::low_water)
/// (hysteresis prevents flapping at the boundary). While engaged, a
/// submission is shed when its VC holds more than its fair share of the
/// backlog (deficit-weighted: heavy VCs shed first) or its own shard is
/// itself past the high-water mark; light VCs keep submitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// Backlog occupancy in `(0, 1]` that engages shedding.
    pub high_water: f64,
    /// Backlog occupancy in `[0, high_water)` that disengages it.
    pub low_water: f64,
}

impl ShedConfig {
    /// Production-shaped defaults: engage at 85% backlog occupancy,
    /// disengage at 50%.
    pub fn new() -> Self {
        ShedConfig {
            high_water: 0.85,
            low_water: 0.50,
        }
    }

    /// Override the engage threshold.
    pub fn high_water(mut self, occupancy: f64) -> Self {
        self.high_water = occupancy;
        self
    }

    /// Override the disengage threshold.
    pub fn low_water(mut self, occupancy: f64) -> Self {
        self.low_water = occupancy;
        self
    }

    pub(crate) fn validate(&self) -> HeliosResult<()> {
        if !(self.high_water > 0.0 && self.high_water <= 1.0) {
            return Err(HeliosError::invalid_config(
                "shed.high_water",
                format!("must be in (0, 1], got {}", self.high_water),
            ));
        }
        if !(self.low_water >= 0.0 && self.low_water < self.high_water) {
            return Err(HeliosError::invalid_config(
                "shed.low_water",
                format!(
                    "must be in [0, high_water), got {} (high_water {})",
                    self.low_water, self.high_water
                ),
            ));
        }
        Ok(())
    }
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig::new()
    }
}

/// One hosted cluster: the preset and its scheduling discipline. The
/// fleet restricts policies to the serializable [`Policy`] table so a
/// snapshot can name (and rebuild) the discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Which preset to host (specs come from `helios_trace::preset`).
    pub cluster: ClusterId,
    /// Queue discipline for this cluster's kernel.
    pub policy: Policy,
    /// Placement strategy (default consolidate, the paper's production
    /// setting).
    pub placement: Placement,
    /// EASY backfill knob (default off, matching the paper).
    pub backfill: bool,
    /// Optional failure injection for this cluster's kernel (default
    /// `None` = failure-free). Failure state rides inside the kernel
    /// snapshot, so a restored fleet replays the identical failure
    /// sequence.
    pub faults: Option<FaultConfig>,
}

impl ClusterConfig {
    /// Paper-default kernel knobs for `cluster` under `policy`.
    pub fn new(cluster: ClusterId, policy: Policy) -> Self {
        ClusterConfig {
            cluster,
            policy,
            placement: Placement::Consolidate,
            backfill: false,
            faults: None,
        }
    }

    /// Enable failure injection on this cluster's kernel.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    pub(crate) fn kernel(&self) -> KernelConfig {
        KernelConfig {
            placement: self.placement,
            backfill: self.backfill,
        }
    }
}

/// Topology of a [`Fleet`](crate::Fleet): the hosted clusters and the
/// ingestion shard bound shared by all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Hosted clusters, one worker thread each. Cluster ids must be
    /// unique — shard routing is keyed by [`ClusterId`].
    pub clusters: Vec<ClusterConfig>,
    /// Bound of every per-VC ingestion shard (jobs), in
    /// `1..=`[`MAX_SHARD_CAPACITY`]; see [`DEFAULT_SHARD_CAPACITY`].
    pub shard_capacity: usize,
    /// Auto-checkpointing knobs shared by every worker (cadence, ring
    /// bound, optional disk mirror).
    pub checkpoint: CheckpointConfig,
    /// Supervisor restart budget per worker; see [`DEFAULT_MAX_RESTARTS`].
    pub max_restarts: u32,
    /// Optional deterministic failure-injection schedule, applied to
    /// every worker (`None` in production topologies).
    pub chaos: Option<ChaosConfig>,
    /// Optional watchdog supervision (`None` — the default — keeps the
    /// legacy blocking behavior: calls wait indefinitely on a worker).
    pub watchdog: Option<WatchdogConfig>,
    /// Optional adaptive admission control (`None` — the default — keeps
    /// the legacy FIFO-accept behavior: only a full shard pushes back).
    pub shed: Option<ShedConfig>,
}

impl FleetConfig {
    /// An empty topology with the default shard bound; add clusters with
    /// [`FleetConfig::with_cluster`].
    pub fn new() -> Self {
        FleetConfig {
            clusters: Vec::new(),
            shard_capacity: DEFAULT_SHARD_CAPACITY,
            checkpoint: CheckpointConfig::default(),
            max_restarts: DEFAULT_MAX_RESTARTS,
            chaos: None,
            watchdog: None,
            shed: None,
        }
    }

    /// All five presets ([`FLEET_PRESETS`]) under one shared discipline —
    /// the "serve the whole paper testbed" topology.
    pub fn all_presets(policy: Policy) -> Self {
        FleetConfig {
            clusters: FLEET_PRESETS
                .iter()
                .map(|&c| ClusterConfig::new(c, policy))
                .collect(),
            ..Self::new()
        }
    }

    /// Add one hosted cluster.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// Override the per-VC ingestion shard bound.
    pub fn with_shard_capacity(mut self, capacity: usize) -> Self {
        self.shard_capacity = capacity;
        self
    }

    /// Override the auto-checkpointing knobs (cadence, ring bound,
    /// optional disk mirror) shared by every worker.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Override the per-worker supervisor restart budget. `0` disables
    /// restarts: the first caught panic marks the cluster crashed.
    pub fn with_max_restarts(mut self, budget: u32) -> Self {
        self.max_restarts = budget;
        self
    }

    /// Attach a deterministic chaos schedule to every worker.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enable watchdog supervision on every worker.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Enable adaptive admission control (per-VC fair shedding).
    pub fn with_shedding(mut self, shed: ShedConfig) -> Self {
        self.shed = Some(shed);
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::new()
    }
}

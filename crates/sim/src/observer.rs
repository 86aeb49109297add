//! Streaming simulation observers.
//!
//! Instead of baking metrics into the engine (the old `occupancy_bin`
//! field), callers register [`SimObserver`] objects on a
//! [`Simulator`](crate::Simulator). The kernel streams every lifecycle
//! event through them together with a live [`ClusterView`], so occupancy,
//! queue-length, and utilization series are computed on the fly — no
//! post-hoc pass over the outcome vector, no outcome vector resident at
//! all.
//!
//! ```
//! use helios_sim::{OccupancyObserver, SimJob, Simulator, SrtfPolicy};
//! use helios_trace::venus;
//!
//! let mut occ = OccupancyObserver::new(60)?;
//! let mut sim = Simulator::new(&venus(), Box::new(SrtfPolicy));
//! sim.observe(Box::new(&mut occ));
//! sim.push_jobs(&[SimJob { id: 0, vc: 0, gpus: 8, submit: 0, duration: 120, priority: 0.0 }])?;
//! sim.run_to_completion();
//! drop(sim);
//! assert_eq!(occ.series().len(), 2); // two one-minute bins, one node busy
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

use crate::engine::{ClusterStats, VcState};
use crate::fault::{FaultState, FaultStats, NODE_FEATURES};
use crate::job::{JobOutcome, SimJob};
use helios_trace::{HeliosError, HeliosResult};

/// Read-only window onto the live cluster state, handed to policies and
/// observers at every event.
///
/// Every query is O(1): the cluster-wide counts come from incrementally
/// maintained kernel aggregates (no per-event re-summation over VCs or
/// nodes), the per-VC counts from the pools' maintained aggregates.
pub struct ClusterView<'a> {
    vcs: &'a [VcState],
    stats: &'a ClusterStats,
    fault: Option<&'a FaultState>,
}

impl<'a> ClusterView<'a> {
    pub(crate) fn new(
        vcs: &'a [VcState],
        stats: &'a ClusterStats,
        fault: Option<&'a FaultState>,
    ) -> Self {
        ClusterView { vcs, stats, fault }
    }

    /// Number of virtual clusters.
    pub fn num_vcs(&self) -> usize {
        self.vcs.len()
    }

    /// Cluster-wide count of nodes with at least one busy GPU.
    pub fn busy_nodes(&self) -> u32 {
        self.stats.busy_nodes
    }

    /// Cluster-wide node count.
    pub fn total_nodes(&self) -> u32 {
        self.stats.total_nodes
    }

    /// Cluster-wide busy GPUs.
    pub fn busy_gpus(&self) -> u32 {
        self.stats.busy_gpus
    }

    /// Cluster-wide GPU capacity.
    pub fn capacity_gpus(&self) -> u32 {
        self.stats.capacity_gpus
    }

    /// Cluster-wide GPU utilization in `\[0, 1\]` (0 on an empty cluster).
    pub fn utilization(&self) -> f64 {
        if self.stats.capacity_gpus == 0 {
            0.0
        } else {
            self.stats.busy_gpus as f64 / self.stats.capacity_gpus as f64
        }
    }

    /// Busy GPUs in one VC.
    pub fn vc_busy_gpus(&self, vc: usize) -> u32 {
        let pool = &self.vcs[vc].pool;
        pool.capacity() - pool.free_gpus()
    }

    /// GPU capacity of one VC.
    pub fn vc_capacity_gpus(&self, vc: usize) -> u32 {
        self.vcs[vc].pool.capacity()
    }

    /// Queued (not running) jobs in one VC. A blocked head briefly held
    /// aside during a preemption apply still counts as queued.
    pub fn vc_queue_len(&self, vc: usize) -> usize {
        self.vcs[vc].queue.len() + usize::from(self.vcs[vc].held_head)
    }

    /// Queued jobs across all VCs.
    pub fn queue_len(&self) -> usize {
        self.stats.queued_jobs
    }

    /// Running jobs across all VCs.
    pub fn running_jobs(&self) -> usize {
        self.stats.running_jobs
    }

    /// Whether failure injection is active on this kernel.
    pub fn fault_active(&self) -> bool {
        self.fault.is_some()
    }

    /// Nodes under failure tracking (0 when injection is off). Global
    /// node indices `0..fault_nodes()` are valid arguments to
    /// [`ClusterView::node_features`] and `DrainDirective::node`.
    pub fn fault_nodes(&self) -> usize {
        self.fault.map_or(0, |f| f.nodes())
    }

    /// Running totals of the failure process (`None` when injection is
    /// off).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.map(|f| f.stats())
    }

    /// The failure-predictor feature row of one global node at `now` —
    /// see `helios_sim::NODE_FEATURE_NAMES` for the column meanings.
    /// `None` when injection is off or the node is out of range.
    pub fn node_features(&self, node: u32, now: i64) -> Option<[f64; NODE_FEATURES]> {
        self.fault?.features(node, now)
    }

    /// Whether a global node is currently up (`None` when injection is
    /// off or out of range).
    pub fn node_is_up(&self, node: u32) -> Option<bool> {
        self.fault?.node_up(node)
    }

    /// Whether a global node is currently draining (`None` when
    /// injection is off or out of range).
    pub fn node_is_draining(&self, node: u32) -> Option<bool> {
        self.fault?.node_draining(node)
    }

    /// Nodes currently out of placement service (failed or draining),
    /// summed over all VC pools.
    pub fn offline_nodes(&self) -> u32 {
        self.vcs.iter().map(|vc| vc.pool.offline_nodes()).sum()
    }
}

/// One kernel lifecycle event, streamed to observers as it happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A job entered its VC queue.
    Submit { job: SimJob, now: i64 },
    /// A job started (or resumed after preemption).
    Start { job: SimJob, now: i64 },
    /// A job finished; its full outcome is attached.
    Finish { job: SimJob, outcome: JobOutcome },
    /// A running job was preempted and re-queued (by a preemptive policy
    /// or by a node failure killing its gang).
    Preempt { job: SimJob, now: i64 },
    /// A node failed and left the pool (failure injection only). Gangs it
    /// hosted are reported through separate `Preempt` events.
    NodeFail { vc: u16, node: u32, now: i64 },
    /// A failed node was repaired and returned to the pool.
    NodeRepair { vc: u16, node: u32, now: i64 },
}

impl SimEvent {
    /// The job this event concerns (`None` for node-lifecycle events).
    pub fn job(&self) -> Option<&SimJob> {
        match self {
            SimEvent::Submit { job, .. }
            | SimEvent::Start { job, .. }
            | SimEvent::Finish { job, .. }
            | SimEvent::Preempt { job, .. } => Some(job),
            SimEvent::NodeFail { .. } | SimEvent::NodeRepair { .. } => None,
        }
    }

    /// Simulation time of the event.
    pub fn time(&self) -> i64 {
        match self {
            SimEvent::Submit { now, .. }
            | SimEvent::Start { now, .. }
            | SimEvent::Preempt { now, .. }
            | SimEvent::NodeFail { now, .. }
            | SimEvent::NodeRepair { now, .. } => *now,
            SimEvent::Finish { outcome, .. } => outcome.end,
        }
    }
}

/// Streaming metrics hook.
///
/// [`on_clock`](SimObserver::on_clock) fires once per kernel event *before*
/// the event mutates state (so time-integrated metrics see the state that
/// held over the elapsed interval); [`on_event`](SimObserver::on_event)
/// fires after each semantic event has been applied.
pub trait SimObserver {
    /// The simulation clock reached `now`; `cluster` is the state as of
    /// just before the event at `now` is applied. Called with
    /// non-decreasing `now` values.
    fn on_clock(&mut self, _now: i64, _cluster: &ClusterView<'_>) {}

    /// A lifecycle event was applied.
    fn on_event(&mut self, _event: &SimEvent, _cluster: &ClusterView<'_>) {}
}

/// Forwarding impl so a caller can lend an observer to the kernel
/// (`sim.observe(Box::new(&mut occ))`) and read its series afterwards.
impl<T: SimObserver + ?Sized> SimObserver for &mut T {
    fn on_clock(&mut self, now: i64, cluster: &ClusterView<'_>) {
        (**self).on_clock(now, cluster)
    }
    fn on_event(&mut self, event: &SimEvent, cluster: &ClusterView<'_>) {
        (**self).on_event(event, cluster)
    }
}

/// Piecewise-exact busy-node series, binned at a fixed width — the signal
/// behind the CES experiments (Figs. 14–15).
#[derive(Debug, Clone)]
pub struct OccupancyObserver {
    bin: i64,
    t0: Option<i64>,
    last_t: i64,
    acc: Vec<f64>,
}

impl OccupancyObserver {
    /// A tracker with `bin`-second bins; the series origin is the first
    /// event time the kernel reports. Non-positive bins are a config error.
    pub fn new(bin: i64) -> HeliosResult<Self> {
        if bin <= 0 {
            return Err(HeliosError::invalid_config(
                "occupancy bin",
                format!("must be > 0 seconds, got {bin}"),
            ));
        }
        Ok(OccupancyObserver {
            bin,
            t0: None,
            last_t: 0,
            acc: Vec::new(),
        })
    }

    /// Start of the series (first observed event time); 0 before any event.
    pub fn t0(&self) -> i64 {
        self.t0.unwrap_or(0)
    }

    /// Bin width (seconds).
    pub fn bin(&self) -> i64 {
        self.bin
    }

    /// Average busy nodes per bin, up to the last observed event.
    pub fn series(&self) -> Vec<f64> {
        self.acc.iter().map(|a| a / self.bin as f64).collect()
    }
}

impl SimObserver for OccupancyObserver {
    fn on_clock(&mut self, now: i64, cluster: &ClusterView<'_>) {
        let t0 = *self.t0.get_or_insert_with(|| {
            self.last_t = now;
            now
        });
        let busy = cluster.busy_nodes() as f64;
        let mut cur = self.last_t;
        while cur < now {
            let bin_idx = ((cur - t0) / self.bin) as usize;
            if self.acc.len() <= bin_idx {
                self.acc.resize(bin_idx + 1, 0.0);
            }
            let bin_end = t0 + (bin_idx as i64 + 1) * self.bin;
            let upto = bin_end.min(now);
            self.acc[bin_idx] += busy * (upto - cur) as f64;
            cur = upto;
        }
        self.last_t = now;
    }
}

/// Timeline of cluster-wide queue length, sampled after every event.
/// Consecutive samples at the same instant collapse to the last value.
#[derive(Debug, Clone, Default)]
pub struct QueueLengthObserver {
    samples: Vec<(i64, usize)>,
}

impl QueueLengthObserver {
    pub fn new() -> Self {
        Self::default()
    }

    /// `(time, queued jobs)` samples in event order.
    pub fn timeline(&self) -> &[(i64, usize)] {
        &self.samples
    }

    /// Largest queue length ever observed.
    pub fn peak(&self) -> usize {
        self.samples.iter().map(|&(_, q)| q).max().unwrap_or(0)
    }
}

impl SimObserver for QueueLengthObserver {
    fn on_event(&mut self, event: &SimEvent, cluster: &ClusterView<'_>) {
        let now = event.time();
        let q = cluster.queue_len();
        match self.samples.last_mut() {
            Some(last) if last.0 == now => last.1 = q,
            _ => self.samples.push((now, q)),
        }
    }
}

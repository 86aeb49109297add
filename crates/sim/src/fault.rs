//! Failure injection for the scheduling kernel.
//!
//! Production GPU clusters lose nodes: Liu et al. ("Prediction of GPU
//! Failures Under Deep Learning Workloads") measure frequent, bursty,
//! *predictable* node failures, and the Helios traces themselves record
//! failed job statuses. This module gives the simulator that dynamic as a
//! first-class event class:
//!
//! * **Per-node renewal processes** — each node draws its time-to-failure
//!   from a Weibull distribution (default shape 2.0, an aging hazard: old
//!   nodes fail more, which is what makes failures *predictable*) with the
//!   configured MTBF, seeded deterministically per `(seed, node, renewal)`
//!   so a snapshot/restore replays the identical failure sequence.
//! * **Correlated rack bursts** — with probability [`FaultConfig::burst_prob`]
//!   a primary failure takes down every other live node in its rack
//!   (racks are consecutive [`FaultConfig::rack_size`]-node groups).
//! * **Job semantics** — a failed node kills every gang touching it.
//!   Under [`FaultSemantics::KillRequeue`] the whole running segment is
//!   lost and the job requeues with its full remaining work; under
//!   [`FaultSemantics::CheckpointRestart`] progress survives up to the
//!   last checkpoint-interval boundary and only the tail is recomputed.
//! * **Repair timers** — failed nodes return to the pool after an
//!   exponentially distributed repair delay (mean
//!   [`FaultConfig::repair_secs`]).
//!
//! The engine consumes this through [`FaultState`]; policies observe it
//! through [`crate::ClusterView::node_features`] and steer it through
//! [`DrainDirective`]s (see `SchedulingPolicy::drain_directives`).
//!
//! ```
//! use helios_sim::FaultConfig;
//!
//! let cfg = FaultConfig::with_mtbf_hours(240.0).repair_hours(2.0).seed(7);
//! assert!(cfg.validate().is_ok());
//! assert!(FaultConfig::with_mtbf_hours(0.0).validate().is_err());
//! ```

use crate::heap::MinHeap;
use crate::snapshot::{ByteReader, ByteWriter};
use helios_trace::{ClusterSpec, HeliosError, HeliosResult};

/// Sentinel for "no timestamp" (mirrors the engine's `UNSET`).
const UNSET: i64 = i64::MIN;

/// What happens to a gang whose node fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSemantics {
    /// The running segment is lost entirely: the job requeues with its
    /// full remaining work and every GPU-second since its last start is
    /// counted as lost.
    ///
    /// **Termination caveat**: a job restarted from scratch only
    /// completes once it draws a failure-free window as long as its full
    /// duration across every node it spans. Keep the per-node MTBF well
    /// above the longest job duration times the widest node span (Helios
    /// traces run to 50 days), or the simulation — like the real cluster
    /// it models — recomputes forever. [`FaultSemantics::CheckpointRestart`] has no such
    /// regime: banked progress guarantees forward motion.
    KillRequeue,
    /// Periodic checkpoints every `interval_secs`: progress up to the
    /// last checkpoint boundary survives, only the tail past it is lost
    /// and recomputed. Nodes drained proactively checkpoint at drain
    /// time, so a later failure of a draining node loses nothing past
    /// that point.
    CheckpointRestart {
        /// Seconds between checkpoints (must be positive).
        interval_secs: i64,
    },
}

/// Configuration for failure injection. Construct with
/// [`FaultConfig::with_mtbf_hours`] and refine with the builder methods;
/// [`FaultConfig::validate`] (called by `Simulator::enable_faults`)
/// rejects non-physical settings as typed
/// [`HeliosError::InvalidConfig`] errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Mean time between failures per node, in seconds (> 0).
    pub mtbf_secs: f64,
    /// Mean node repair time in seconds (>= 0; exponential draw).
    pub repair_secs: f64,
    /// Weibull shape of the time-to-failure draw (> 0). The default 2.0
    /// gives an increasing hazard — node age predicts failure — while
    /// 1.0 degenerates to a memoryless exponential.
    pub shape: f64,
    /// Nodes per rack for correlated bursts (>= 1). Racks are consecutive
    /// groups of this many nodes in global node order.
    pub rack_size: u32,
    /// Probability in [0, 1] that a primary failure bursts into a
    /// whole-rack outage.
    pub burst_prob: f64,
    /// Seed for the deterministic failure stream.
    pub seed: u64,
    /// Job semantics on a failed node.
    pub semantics: FaultSemantics,
}

impl FaultConfig {
    /// A production-flavored default: the given per-node MTBF, 2 h mean
    /// repair, Weibull shape 2.0, 16-node racks with a 5 % burst
    /// probability, kill-and-requeue semantics.
    pub fn with_mtbf_hours(hours: f64) -> Self {
        FaultConfig {
            mtbf_secs: hours * 3600.0,
            repair_secs: 2.0 * 3600.0,
            shape: 2.0,
            rack_size: 16,
            burst_prob: 0.05,
            seed: 2020,
            semantics: FaultSemantics::KillRequeue,
        }
    }

    /// Set the mean repair time in hours.
    pub fn repair_hours(mut self, hours: f64) -> Self {
        self.repair_secs = hours * 3600.0;
        self
    }

    /// Set the Weibull shape of the time-to-failure draw.
    pub fn shape(mut self, shape: f64) -> Self {
        self.shape = shape;
        self
    }

    /// Set the rack size for correlated bursts.
    pub fn rack_size(mut self, nodes: u32) -> Self {
        self.rack_size = nodes;
        self
    }

    /// Set the whole-rack burst probability.
    pub fn burst_prob(mut self, p: f64) -> Self {
        self.burst_prob = p;
        self
    }

    /// Set the failure-stream seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switch to checkpoint/restart semantics with the given interval.
    pub fn checkpoint_hours(mut self, hours: f64) -> Self {
        self.semantics = FaultSemantics::CheckpointRestart {
            interval_secs: (hours * 3600.0) as i64,
        };
        self
    }

    /// Reject non-physical settings with typed errors (never panics).
    pub fn validate(&self) -> HeliosResult<()> {
        if !self.mtbf_secs.is_finite() || self.mtbf_secs <= 0.0 {
            return Err(HeliosError::invalid_config(
                "failure_mtbf",
                format!(
                    "mean time between failures must be a positive finite number of seconds, got {}",
                    self.mtbf_secs
                ),
            ));
        }
        if !self.repair_secs.is_finite() || self.repair_secs < 0.0 {
            return Err(HeliosError::invalid_config(
                "failure_repair",
                format!(
                    "mean repair time must be a non-negative finite number of seconds, got {}",
                    self.repair_secs
                ),
            ));
        }
        if !self.shape.is_finite() || self.shape <= 0.0 {
            return Err(HeliosError::invalid_config(
                "failure_shape",
                format!(
                    "Weibull shape must be positive and finite, got {}",
                    self.shape
                ),
            ));
        }
        if self.rack_size == 0 {
            return Err(HeliosError::invalid_config(
                "failure_rack",
                "rack size 0 does not describe any rack (need >= 1 node per rack)",
            ));
        }
        if !(0.0..=1.0).contains(&self.burst_prob) {
            return Err(HeliosError::invalid_config(
                "failure_burst",
                format!(
                    "burst probability must lie in [0, 1], got {}",
                    self.burst_prob
                ),
            ));
        }
        if let FaultSemantics::CheckpointRestart { interval_secs } = self.semantics {
            if interval_secs <= 0 {
                return Err(HeliosError::invalid_config(
                    "failure_checkpoint",
                    format!("checkpoint interval must be positive, got {interval_secs} s"),
                ));
            }
        }
        Ok(())
    }
}

/// Running totals of the failure process, exposed through
/// `Simulator::fault_stats` and `ClusterView::fault_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Node failures injected (primaries + burst secondaries).
    pub failures: u64,
    /// Node repairs completed.
    pub repairs: u64,
    /// Gang kills caused by node failures.
    pub killed_jobs: u64,
    /// Drain directives that took a node out of placement.
    pub drains: u64,
    /// Drain directives that returned a node to placement.
    pub undrains: u64,
    /// GPU-seconds of work lost to kills (the recompute bill; the
    /// goodput metric subtracts exactly this from raw progress).
    pub lost_gpu_secs: f64,
}

/// One instruction from a policy's drain planner to the kernel: take the
/// (global) node out of placement, or return it. Draining never kills
/// running gangs — they finish (or fail) naturally; the node just stops
/// receiving new placements, and under checkpoint/restart semantics the
/// drain moment acts as a proactive checkpoint for the gangs on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainDirective {
    /// Global node index (VC-cumulative order, as used by
    /// `ClusterView::node_features`).
    pub node: u32,
    /// `true` to start draining, `false` to return the node to service.
    pub drain: bool,
}

/// Number of per-node features in [`FaultState::features`] /
/// `ClusterView::node_features`.
pub const NODE_FEATURES: usize = 5;

/// Names of the per-node feature columns, aligned with the arrays
/// returned by `ClusterView::node_features`.
pub const NODE_FEATURE_NAMES: [&str; NODE_FEATURES] = [
    "uptime_hours",
    "prior_failures",
    "rolling_util",
    "occupancy_churn_per_hour",
    "busy_gpu_fraction",
];

/// Fault-event kinds inside the engine's event heap.
pub(crate) const FAULT_EV_FAIL: u8 = 0;
pub(crate) const FAULT_EV_REPAIR: u8 = 1;

/// `(time, global node, kind, epoch)` — tuple `Ord` gives deterministic
/// time-then-node pop order; `epoch` invalidates events scheduled before
/// a burst preempted a node's renewal clock.
pub(crate) type FaultEvent = (i64, u32, u8, u32);

/// Per-node dynamic state: availability, renewal bookkeeping, and the
/// telemetry cells behind the predictor features.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCell {
    pub(crate) up: bool,
    pub(crate) draining: bool,
    /// Bumped whenever pending fault events for this node become stale.
    pub(crate) epoch: u32,
    /// Renewal draws consumed from this node's failure stream.
    pub(crate) fail_seq: u32,
    /// When the current uptime segment began.
    pub(crate) up_since: i64,
    /// Lifetime failure count (the "prior failures" feature).
    pub(crate) fail_count: u32,
    /// Placement + release events in the current uptime segment (churn).
    pub(crate) alloc_events: u32,
    /// Busy GPUs right now.
    pub(crate) busy: u32,
    /// ∫ busy dt over the current uptime segment, up to `last_t`.
    pub(crate) busy_integral: f64,
    pub(crate) last_t: i64,
    /// When draining began (`UNSET` when not draining); doubles as the
    /// proactive-checkpoint timestamp under checkpoint/restart.
    pub(crate) drain_since: i64,
}

impl NodeCell {
    fn fresh(t: i64) -> Self {
        NodeCell {
            up: true,
            draining: false,
            epoch: 0,
            fail_seq: 0,
            up_since: t,
            fail_count: 0,
            alloc_events: 0,
            busy: 0,
            busy_integral: 0.0,
            last_t: t,
            drain_since: UNSET,
        }
    }
}

/// The kernel-side failure machinery: per-node cells, the pending
/// fault-event heap, and the deterministic sampling streams.
#[derive(Debug)]
pub struct FaultState {
    pub(crate) cfg: FaultConfig,
    /// Whether the per-node renewal clocks have been seeded (done lazily
    /// at the first job event so failure times anchor to the trace's
    /// calendar, not to t = 0).
    pub(crate) seeded: bool,
    /// The seeding instant.
    pub(crate) t0: i64,
    /// Global node index of each VC's first node.
    pub(crate) vc_base: Vec<u32>,
    /// Owning VC of each global node.
    pub(crate) node_vc: Vec<u16>,
    pub(crate) cells: Vec<NodeCell>,
    pub(crate) events: MinHeap<FaultEvent>,
    pub(crate) stats: FaultStats,
    pub(crate) gpus_per_node: u32,
    /// Precomputed Weibull scale: mtbf / Γ(1 + 1/shape).
    weibull_scale: f64,
}

impl FaultState {
    pub(crate) fn new(cfg: FaultConfig, spec: &ClusterSpec) -> Self {
        let mut vc_base = Vec::with_capacity(spec.vcs.len());
        let mut node_vc = Vec::new();
        let mut base = 0u32;
        for (vi, vc) in spec.vcs.iter().enumerate() {
            vc_base.push(base);
            node_vc.extend(std::iter::repeat_n(vi as u16, vc.nodes as usize));
            base += vc.nodes;
        }
        let cells = vec![NodeCell::fresh(0); node_vc.len()];
        FaultState {
            weibull_scale: weibull_scale(cfg.mtbf_secs, cfg.shape),
            cfg,
            seeded: false,
            t0: 0,
            vc_base,
            node_vc,
            cells,
            events: MinHeap::new(),
            stats: FaultStats::default(),
            gpus_per_node: spec.gpus_per_node,
        }
    }

    /// Total nodes under failure tracking (all VCs).
    pub fn nodes(&self) -> usize {
        self.cells.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Running totals.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether a global node is currently up (repaired / never failed).
    pub fn node_up(&self, node: u32) -> Option<bool> {
        self.cells.get(node as usize).map(|c| c.up)
    }

    /// Whether a global node is currently draining.
    pub fn node_draining(&self, node: u32) -> Option<bool> {
        self.cells.get(node as usize).map(|c| c.draining)
    }

    /// Seed every node's first failure at `t0` (first job event).
    pub(crate) fn seed_at(&mut self, t0: i64) {
        self.seeded = true;
        self.t0 = t0;
        for g in 0..self.cells.len() as u32 {
            self.cells[g as usize].up_since = t0;
            self.cells[g as usize].last_t = t0;
            self.schedule_failure(g, t0);
        }
    }

    /// Draw and enqueue the next failure of node `g` from `now`.
    pub(crate) fn schedule_failure(&mut self, g: u32, now: i64) {
        let cell = &mut self.cells[g as usize];
        let k = cell.fail_seq;
        cell.fail_seq += 1;
        let u = self.unit_draw(g, k, 0x5f41_1b6c);
        let ttf = (self.weibull_scale * (-u.ln()).powf(1.0 / self.cfg.shape)).max(1.0);
        let at = now.saturating_add(ttf as i64);
        self.events
            .push((at, g, FAULT_EV_FAIL, self.cells[g as usize].epoch));
    }

    /// Draw and enqueue the repair of node `g` from `now`.
    pub(crate) fn schedule_repair(&mut self, g: u32, now: i64) {
        let k = self.cells[g as usize].fail_count;
        let u = self.unit_draw(g, k, 0x9d2c_5680);
        let delay = (self.cfg.repair_secs * -u.ln()).max(1.0);
        let at = now.saturating_add(delay as i64);
        self.events
            .push((at, g, FAULT_EV_REPAIR, self.cells[g as usize].epoch));
    }

    /// Whether a primary failure of node `g` (its `k`-th) bursts into a
    /// rack outage.
    pub(crate) fn burst_fires(&self, g: u32, k: u32) -> bool {
        self.cfg.burst_prob > 0.0 && self.unit_draw(g, k, 0x1656_67b1) < self.cfg.burst_prob
    }

    /// The global nodes sharing `g`'s rack (ascending, excluding `g`).
    pub(crate) fn rack_peers(&self, g: u32) -> std::ops::Range<u32> {
        let rack = g / self.cfg.rack_size;
        let lo = rack * self.cfg.rack_size;
        let hi = ((rack + 1) * self.cfg.rack_size).min(self.cells.len() as u32);
        lo..hi
    }

    /// Telemetry hook: GPUs allocated on global node `g` at `now`.
    pub(crate) fn on_alloc(&mut self, g: u32, gpus: u32, now: i64) {
        let c = &mut self.cells[g as usize];
        c.busy_integral += c.busy as f64 * (now - c.last_t).max(0) as f64;
        c.last_t = now;
        c.busy += gpus;
        c.alloc_events += 1;
    }

    /// Telemetry hook: GPUs released on global node `g` at `now`.
    pub(crate) fn on_release(&mut self, g: u32, gpus: u32, now: i64) {
        let c = &mut self.cells[g as usize];
        c.busy_integral += c.busy as f64 * (now - c.last_t).max(0) as f64;
        c.last_t = now;
        c.busy = c.busy.saturating_sub(gpus);
        c.alloc_events += 1;
    }

    /// The predictor feature row of global node `g` at `now` (see
    /// [`NODE_FEATURE_NAMES`]). `None` for out-of-range nodes.
    pub fn features(&self, g: u32, now: i64) -> Option<[f64; NODE_FEATURES]> {
        let c = self.cells.get(g as usize)?;
        let age_secs = (now - c.up_since).max(0) as f64;
        let hours = age_secs / 3600.0;
        let gpn = self.gpus_per_node.max(1) as f64;
        let live = c.busy_integral + c.busy as f64 * (now - c.last_t).max(0) as f64;
        let util = if age_secs > 0.0 {
            live / (age_secs * gpn)
        } else {
            0.0
        };
        let churn = c.alloc_events as f64 / hours.max(1.0 / 60.0);
        Some([hours, c.fail_count as f64, util, churn, c.busy as f64 / gpn])
    }

    /// One uniform draw in (0, 1] from the `(seed, node, k, salt)` cell
    /// of the deterministic stream.
    fn unit_draw(&self, node: u32, k: u32, salt: u64) -> f64 {
        let h = splitmix64(splitmix64(splitmix64(self.cfg.seed ^ salt) ^ node as u64) ^ k as u64);
        (((h >> 11) as f64) + 1.0) / (1u64 << 53) as f64
    }

    pub(crate) fn to_snap(&self) -> FaultSnap {
        FaultSnap {
            cfg: self.cfg,
            seeded: self.seeded,
            t0: self.t0,
            nodes: self
                .cells
                .iter()
                .map(|c| FaultNodeSnap {
                    up: c.up,
                    draining: c.draining,
                    epoch: c.epoch,
                    fail_seq: c.fail_seq,
                    up_since: c.up_since,
                    fail_count: c.fail_count,
                    alloc_events: c.alloc_events,
                    busy_integral: c.busy_integral,
                    last_t: c.last_t,
                    drain_since: c.drain_since,
                })
                .collect(),
            events: self.events.as_slice().to_vec(),
            stats: self.stats,
        }
    }

    /// Restore's half of the busy telemetry: a running gang holds `gpus`
    /// on local node `node` of VC `vc`. Every placement and release goes
    /// through the kernel's `place_on` / `release_on`, so the sum over the
    /// allocations is the count the source kernel kept.
    pub(crate) fn restore_busy(&mut self, vc: usize, node: u32, gpus: u32) {
        let g = self.vc_base[vc] + node;
        self.cells[g as usize].busy += gpus;
    }

    /// The failure state a [`FaultSnap`] describes, with every node's busy
    /// count at zero until [`FaultState::restore_busy`] adds the running
    /// allocations back.
    pub(crate) fn from_snap(snap: &FaultSnap, spec: &ClusterSpec) -> HeliosResult<Self> {
        snap.cfg.validate()?;
        let mut state = FaultState::new(snap.cfg, spec);
        if snap.nodes.len() != state.cells.len() {
            return Err(HeliosError::snapshot(
                "restoring failure state",
                format!(
                    "snapshot records {} nodes but the cluster has {}",
                    snap.nodes.len(),
                    state.cells.len()
                ),
            ));
        }
        for (c, n) in state.cells.iter_mut().zip(&snap.nodes) {
            *c = NodeCell {
                up: n.up,
                draining: n.draining,
                epoch: n.epoch,
                fail_seq: n.fail_seq,
                up_since: n.up_since,
                fail_count: n.fail_count,
                alloc_events: n.alloc_events,
                // Not on the wire: `Simulator::restore` adds back what the
                // running allocations hold (`restore_busy`).
                busy: 0,
                busy_integral: n.busy_integral,
                last_t: n.last_t,
                drain_since: n.drain_since,
            };
        }
        let total = state.cells.len() as u32;
        for &(_, g, kind, _) in &snap.events {
            if g >= total || kind > FAULT_EV_REPAIR {
                return Err(HeliosError::snapshot(
                    "restoring failure state",
                    format!("fault event references node {g} kind {kind} out of range"),
                ));
            }
        }
        if !is_heap(&snap.events) {
            return Err(HeliosError::snapshot(
                "restoring failure state",
                "fault event array violates the heap property",
            ));
        }
        state.events = MinHeap::from_heap_vec(snap.events.clone());
        state.seeded = snap.seeded;
        state.t0 = snap.t0;
        state.stats = snap.stats;
        Ok(state)
    }
}

/// 4-ary heap-property check matching `MinHeap`'s layout.
fn is_heap<T: Ord>(data: &[T]) -> bool {
    (1..data.len()).all(|i| data[(i - 1) / 4] <= data[i])
}

/// SplitMix64 — the deterministic counter-mode generator behind every
/// failure/repair/burst draw (no global RNG state to snapshot).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Weibull scale λ such that the mean of Weibull(λ, k) equals `mtbf`:
/// λ = mtbf / Γ(1 + 1/k).
fn weibull_scale(mtbf: f64, shape: f64) -> f64 {
    mtbf / ln_gamma(1.0 + 1.0 / shape).exp()
}

/// Lanczos (g = 7, n = 9) log-gamma, accurate to ~1e-13 over the x > 0.5
/// range this module uses.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Version tag of the failure-state wire section inside `SimSnapshot`
/// blobs (bumped independently of `SNAPSHOT_VERSION`). Version 2 leaves
/// out each node's busy GPUs, which restore derives from the running
/// allocations; version 1 is refused by number.
pub const FAULT_CODEC_VERSION: u32 = 2;

/// Serializable twin of one per-node fault cell, without the busy GPUs
/// the running allocations imply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultNodeSnap {
    pub up: bool,
    pub draining: bool,
    pub epoch: u32,
    pub fail_seq: u32,
    pub up_since: i64,
    pub fail_count: u32,
    pub alloc_events: u32,
    pub busy_integral: f64,
    pub last_t: i64,
    pub drain_since: i64,
}

/// Serializable failure section of a `SimSnapshot`: configuration,
/// per-node cells, the pending event heap (verbatim, so the restored
/// kernel pops the identical sequence), and the running stats.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSnap {
    pub cfg: FaultConfig,
    pub seeded: bool,
    pub t0: i64,
    pub nodes: Vec<FaultNodeSnap>,
    pub events: Vec<FaultEvent>,
    pub stats: FaultStats,
}

impl FaultSnap {
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u32(FAULT_CODEC_VERSION);
        w.f64(self.cfg.mtbf_secs);
        w.f64(self.cfg.repair_secs);
        w.f64(self.cfg.shape);
        w.u32(self.cfg.rack_size);
        w.f64(self.cfg.burst_prob);
        w.u64(self.cfg.seed);
        match self.cfg.semantics {
            FaultSemantics::KillRequeue => {
                w.u8(0);
                w.i64(0);
            }
            FaultSemantics::CheckpointRestart { interval_secs } => {
                w.u8(1);
                w.i64(interval_secs);
            }
        }
        w.u8(self.seeded as u8);
        w.i64(self.t0);
        w.u64(self.nodes.len() as u64);
        for n in &self.nodes {
            w.u8(n.up as u8);
            w.u8(n.draining as u8);
            w.u32(n.epoch);
            w.u32(n.fail_seq);
            w.i64(n.up_since);
            w.u32(n.fail_count);
            w.u32(n.alloc_events);
            w.f64(n.busy_integral);
            w.i64(n.last_t);
            w.i64(n.drain_since);
        }
        w.u64(self.events.len() as u64);
        for &(t, g, kind, epoch) in &self.events {
            w.i64(t);
            w.u32(g);
            w.u8(kind);
            w.u32(epoch);
        }
        w.u64(self.stats.failures);
        w.u64(self.stats.repairs);
        w.u64(self.stats.killed_jobs);
        w.u64(self.stats.drains);
        w.u64(self.stats.undrains);
        w.f64(self.stats.lost_gpu_secs);
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> HeliosResult<FaultSnap> {
        let version = r.u32()?;
        if version != FAULT_CODEC_VERSION {
            return Err(HeliosError::snapshot(
                "decoding failure state",
                format!(
                    "unknown failure-codec version {version} (this build reads version {FAULT_CODEC_VERSION})"
                ),
            ));
        }
        let mtbf_secs = r.f64()?;
        let repair_secs = r.f64()?;
        let shape = r.f64()?;
        let rack_size = r.u32()?;
        let burst_prob = r.f64()?;
        let seed = r.u64()?;
        let sem_code = r.u8()?;
        let interval = r.i64()?;
        let semantics = match sem_code {
            0 => FaultSemantics::KillRequeue,
            1 => FaultSemantics::CheckpointRestart {
                interval_secs: interval,
            },
            other => {
                return Err(HeliosError::snapshot(
                    "decoding failure state",
                    format!("unknown failure semantics code {other}"),
                ))
            }
        };
        let seeded = r.u8()? != 0;
        let t0 = r.i64()?;
        let node_count = r.len(50)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(FaultNodeSnap {
                up: r.u8()? != 0,
                draining: r.u8()? != 0,
                epoch: r.u32()?,
                fail_seq: r.u32()?,
                up_since: r.i64()?,
                fail_count: r.u32()?,
                alloc_events: r.u32()?,
                busy_integral: r.f64()?,
                last_t: r.i64()?,
                drain_since: r.i64()?,
            });
        }
        let ev_count = r.len(17)?;
        let mut events = Vec::with_capacity(ev_count);
        for _ in 0..ev_count {
            events.push((r.i64()?, r.u32()?, r.u8()?, r.u32()?));
        }
        let stats = FaultStats {
            failures: r.u64()?,
            repairs: r.u64()?,
            killed_jobs: r.u64()?,
            drains: r.u64()?,
            undrains: r.u64()?,
            lost_gpu_secs: r.f64()?,
        };
        Ok(FaultSnap {
            cfg: FaultConfig {
                mtbf_secs,
                repair_secs,
                shape,
                rack_size,
                burst_prob,
                seed,
                semantics,
            },
            seeded,
            t0,
            nodes,
            events,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::venus;

    #[test]
    fn validation_rejects_each_bad_knob() {
        assert!(FaultConfig::with_mtbf_hours(100.0).validate().is_ok());
        for bad in [
            FaultConfig::with_mtbf_hours(0.0),
            FaultConfig::with_mtbf_hours(-3.0),
            FaultConfig::with_mtbf_hours(100.0).repair_hours(-1.0),
            FaultConfig::with_mtbf_hours(100.0).shape(0.0),
            FaultConfig::with_mtbf_hours(100.0).rack_size(0),
            FaultConfig::with_mtbf_hours(100.0).burst_prob(1.5),
            FaultConfig::with_mtbf_hours(100.0).burst_prob(-0.1),
            FaultConfig::with_mtbf_hours(100.0).checkpoint_hours(0.0),
        ] {
            let err = bad.validate().expect_err("must reject");
            assert!(
                matches!(err, HeliosError::InvalidConfig { .. }),
                "wrong variant: {err}"
            );
        }
    }

    #[test]
    fn weibull_scale_matches_exponential_at_shape_one() {
        // Γ(2) = 1, so shape 1 degenerates to scale = mtbf.
        assert!((weibull_scale(3600.0, 1.0) - 3600.0).abs() < 1e-6);
        // Γ(1.5) = √π/2 ≈ 0.8862.
        let s = weibull_scale(1000.0, 2.0);
        assert!((s - 1000.0 / 0.886_226_925_452_758).abs() < 1e-6, "{s}");
    }

    #[test]
    fn draws_are_deterministic_and_distinct() {
        let spec = venus();
        let f = FaultState::new(FaultConfig::with_mtbf_hours(100.0), &spec);
        let a = f.unit_draw(0, 0, 1);
        let b = f.unit_draw(0, 0, 1);
        assert_eq!(a, b, "same cell, same draw");
        assert_ne!(f.unit_draw(0, 0, 1), f.unit_draw(1, 0, 1));
        assert_ne!(f.unit_draw(0, 0, 1), f.unit_draw(0, 1, 1));
        assert!(a > 0.0 && a <= 1.0);
    }

    #[test]
    fn mean_ttf_tracks_mtbf() {
        // Empirical mean of the Weibull draws over many nodes should
        // land near the configured MTBF (law of large numbers).
        let spec = venus();
        let mut f = FaultState::new(FaultConfig::with_mtbf_hours(100.0), &spec);
        f.seed_at(0);
        let mut sum = 0.0;
        let n = f.events.len();
        for &(t, _, _, _) in f.events.as_slice() {
            sum += t as f64;
        }
        let mean_hours = sum / n as f64 / 3600.0;
        assert!(
            (mean_hours - 100.0).abs() < 15.0,
            "mean TTF {mean_hours} h should be near 100 h over {n} nodes"
        );
    }

    #[test]
    fn snap_round_trips_through_bytes() {
        let spec = venus();
        let mut f = FaultState::new(
            FaultConfig::with_mtbf_hours(48.0)
                .checkpoint_hours(1.0)
                .seed(11),
            &spec,
        );
        f.seed_at(1_000);
        f.on_alloc(3, 8, 2_000);
        f.stats.failures = 2;
        let snap = f.to_snap();
        let mut w = ByteWriter::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "fault snap test");
        let back = FaultSnap::decode(&mut r).unwrap();
        assert_eq!(snap, back);
        let mut restored = FaultState::from_snap(&back, &spec).unwrap();
        // Busy GPUs are not on the wire: the kernel's restore adds back
        // what the running allocations hold.
        assert_eq!(restored.cells[3].busy, 0);
        let vc = restored.node_vc[3] as usize;
        let local = 3 - restored.vc_base[vc];
        restored.restore_busy(vc, local, 8);
        assert_eq!(restored.cells[3].busy, 8);
        assert_eq!(restored.cells[3].alloc_events, 1);
        assert_eq!(restored.events.as_slice(), f.events.as_slice());
    }

    #[test]
    fn unknown_codec_version_is_a_typed_error() {
        let spec = venus();
        let snap = FaultState::new(FaultConfig::with_mtbf_hours(48.0), &spec).to_snap();
        let mut w = ByteWriter::new();
        snap.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] = 0xEE; // clobber the codec version
        let mut r = ByteReader::new(&bytes, "fault snap test");
        let err = FaultSnap::decode(&mut r).expect_err("must reject");
        assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
    }
}

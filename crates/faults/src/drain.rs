//! Proactive drain scheduling: a policy wrapper that fences
//! predicted-bad nodes off from new placements.
//!
//! [`DrainPolicy`] composes with **any**
//! [`SchedulingPolicy`]: every queue/
//! preemption decision is forwarded to the wrapped inner policy
//! untouched, while the wrapper periodically scores every up node with a
//! [`RiskModel`] and emits drain/undrain directives through the kernel's
//! per-event [`drain_directives`](helios_sim::SchedulingPolicy::drain_directives)
//! poll. Draining never kills a running gang — it only blocks new
//! placements — so a wrong prediction costs capacity, not work. Under
//! checkpoint-restart semantics a drained node also checkpoints
//! proactively at drain time, bounding the work a correctly-predicted
//! failure destroys.

use crate::predictor::FailurePredictor;
use helios_sim::fault::DrainDirective;
use helios_sim::observer::ClusterView;
use helios_sim::policy::{JobView, SchedulingPolicy};
use helios_sim::SimJob;
use helios_trace::{HeliosError, HeliosResult};

/// How the wrapper scores a node's failure risk.
pub enum RiskModel {
    /// A trained GBDT failure predictor; risk is its calibrated score.
    Predictor(FailurePredictor),
    /// A transparent baseline: risk = uptime_hours / `hours`, so a node
    /// passes the (1.0) threshold once it has been up `hours` hours.
    /// Useful for aging (Weibull shape > 1) failure models when no
    /// trained predictor is at hand.
    UptimeThreshold {
        /// Uptime at which a node is considered due for failure.
        hours: f64,
    },
}

/// Drain-wrapper knobs.
#[derive(Debug, Clone, Copy)]
pub struct DrainConfig {
    /// Drain a node once its risk reaches this value.
    pub risk_threshold: f64,
    /// Re-score the fleet at most every this many simulated seconds.
    pub rescan_secs: i64,
    /// Never hold more than this fraction of the fleet in drain at once
    /// (the riskiest nodes win).
    pub max_drain_frac: f64,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            risk_threshold: 1.0,
            rescan_secs: 1800,
            max_drain_frac: 0.08,
        }
    }
}

impl DrainConfig {
    /// Reject non-physical settings with typed errors (never panics);
    /// called by every [`DrainPolicy`] constructor.
    pub fn validate(&self) -> HeliosResult<()> {
        if !self.risk_threshold.is_finite() || self.risk_threshold <= 0.0 {
            return Err(HeliosError::invalid_config(
                "drain_threshold",
                format!(
                    "risk threshold must be positive and finite, got {}",
                    self.risk_threshold
                ),
            ));
        }
        if self.rescan_secs <= 0 {
            return Err(HeliosError::invalid_config(
                "drain_rescan",
                format!("rescan cadence must be positive, got {}", self.rescan_secs),
            ));
        }
        if !(0.0..=1.0).contains(&self.max_drain_frac) {
            return Err(HeliosError::invalid_config(
                "drain_max_frac",
                format!(
                    "max drain fraction must lie in [0, 1], got {}",
                    self.max_drain_frac
                ),
            ));
        }
        Ok(())
    }
}

/// Policy wrapper adding proactive drains on top of any scheduling
/// discipline. Display name is `DRAIN+<inner>`.
pub struct DrainPolicy {
    inner: Box<dyn SchedulingPolicy>,
    model: RiskModel,
    cfg: DrainConfig,
    name: String,
    next_scan: i64,
    drained: Vec<bool>,
    pending: Vec<DrainDirective>,
    scratch: Vec<(f64, u32)>,
}

impl DrainPolicy {
    /// Wrap `inner` with a trained failure predictor; the drain threshold
    /// defaults to the predictor's own F1-optimal decision threshold.
    pub fn with_predictor(
        inner: Box<dyn SchedulingPolicy>,
        predictor: FailurePredictor,
        mut cfg: DrainConfig,
    ) -> HeliosResult<DrainPolicy> {
        cfg.risk_threshold = predictor.threshold;
        Self::new(inner, RiskModel::Predictor(predictor), cfg)
    }

    /// Wrap `inner` with the uptime-threshold baseline: drain nodes once
    /// they have been up `hours` hours.
    pub fn uptime(
        inner: Box<dyn SchedulingPolicy>,
        hours: f64,
        cfg: DrainConfig,
    ) -> HeliosResult<DrainPolicy> {
        if !hours.is_finite() || hours <= 0.0 {
            return Err(HeliosError::invalid_config(
                "drain_uptime_hours",
                format!("uptime threshold must be positive finite hours, got {hours}"),
            ));
        }
        Self::new(inner, RiskModel::UptimeThreshold { hours }, cfg)
    }

    fn new(
        inner: Box<dyn SchedulingPolicy>,
        model: RiskModel,
        cfg: DrainConfig,
    ) -> HeliosResult<DrainPolicy> {
        cfg.validate()?;
        let name = format!("DRAIN+{}", inner.name());
        Ok(DrainPolicy {
            inner,
            model,
            cfg,
            name,
            next_scan: i64::MIN,
            drained: Vec::new(),
            pending: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// The wrapped policy's display name.
    pub fn inner_name(&self) -> &str {
        self.inner.name()
    }

    fn risk_of(&self, features: &[f64]) -> f64 {
        match &self.model {
            RiskModel::Predictor(p) => p.risk(features),
            RiskModel::UptimeThreshold { hours } => features[0] / hours,
        }
    }

    /// Re-score the fleet if the rescan cadence elapsed, and queue the
    /// drain-set diff as pending directives. Runs inside the job hooks
    /// (the only policy callbacks that carry a [`ClusterView`]); the
    /// kernel polls [`SchedulingPolicy::drain_directives`] after every
    /// event, so pending directives apply before the next decision.
    fn scan(&mut self, now: i64, cluster: &ClusterView<'_>) {
        if !cluster.fault_active() || now < self.next_scan {
            return;
        }
        self.next_scan = now.saturating_add(self.cfg.rescan_secs);
        let n = cluster.fault_nodes();
        if self.drained.len() != n {
            self.drained.resize(n, false);
        }
        let mut risky = std::mem::take(&mut self.scratch);
        risky.clear();
        for node in 0..n as u32 {
            if cluster.node_is_up(node) != Some(true) {
                continue; // down nodes are the kernel's problem
            }
            let Some(features) = cluster.node_features(node, now) else {
                continue;
            };
            let risk = self.risk_of(&features);
            if risk >= self.cfg.risk_threshold {
                risky.push((risk, node));
            }
        }
        // Riskiest first; ties break on node index for determinism.
        risky.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let cap = ((n as f64) * self.cfg.max_drain_frac).floor() as usize;
        risky.truncate(cap);
        // Diff the desired set against the current one.
        let mut desired = vec![false; n];
        for &(_, node) in &risky {
            desired[node as usize] = true;
        }
        for (node, (cur, &want)) in self.drained.iter_mut().zip(&desired).enumerate() {
            if *cur != want {
                *cur = want;
                self.pending.push(DrainDirective {
                    node: node as u32,
                    drain: want,
                });
            }
        }
        risky.clear();
        self.scratch = risky;
    }
}

impl SchedulingPolicy for DrainPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        self.inner.queue_key(job)
    }

    fn preemptive(&self) -> bool {
        self.inner.preemptive()
    }

    fn preempt_rank(&mut self, job: &JobView<'_>) -> f64 {
        self.inner.preempt_rank(job)
    }

    fn on_submit(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        self.inner.on_submit(job, now, cluster);
        self.scan(now, cluster);
    }

    fn on_start(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        self.inner.on_start(job, now, cluster);
        self.scan(now, cluster);
    }

    fn on_finish(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        self.inner.on_finish(job, now, cluster);
        self.scan(now, cluster);
    }

    fn on_preempt(&mut self, job: &SimJob, now: i64, cluster: &ClusterView<'_>) {
        self.inner.on_preempt(job, now, cluster);
        self.scan(now, cluster);
    }

    fn drain_directives(&mut self, out: &mut Vec<DrainDirective>) {
        out.append(&mut self.pending);
        self.inner.drain_directives(out);
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        // The kernel pulls directives after every event, so `pending` is
        // empty at any snapshot boundary.
        debug_assert!(self.pending.is_empty());
        out.extend_from_slice(&self.next_scan.to_le_bytes());
        out.extend_from_slice(&(self.drained.len() as u32).to_le_bytes());
        out.extend(self.drained.iter().map(|&d| d as u8));
        self.inner.save_state(out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> HeliosResult<()> {
        let err = || {
            HeliosError::snapshot(
                "restoring drain-policy state",
                "truncated or malformed drain wrapper section",
            )
        };
        if bytes.len() < 12 {
            return Err(err());
        }
        let next_scan = i64::from_le_bytes(bytes[..8].try_into().expect("checked length"));
        let n = u32::from_le_bytes(bytes[8..12].try_into().expect("checked length")) as usize;
        let rest = &bytes[12..];
        if rest.len() < n {
            return Err(err());
        }
        self.next_scan = next_scan;
        self.drained = rest[..n].iter().map(|&b| b != 0).collect();
        self.pending.clear();
        self.inner.load_state(&rest[n..])
    }
}

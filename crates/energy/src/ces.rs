//! The Cluster Energy Saving control loop (Algorithm 2) and the vanilla-DRS
//! baseline it improves on (§4.3).
//!
//! State machine over the binned node series: `active` nodes are powered
//! on; `JobArrivalCheck` wakes nodes when demand exceeds the active pool;
//! `PeriodicCheck` powers nodes down when both the recent history and the
//! forecast agree that demand is falling (both trends past their
//! thresholds), always keeping a buffer of σ nodes.

use crate::series::NodeSeries;

/// Algorithm 2 knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CesConfig {
    /// Buffer nodes σ kept on beyond current demand.
    pub buffer_nodes: f64,
    /// History window for `RecentNodesTrend` (bins).
    pub hist_window: usize,
    /// Forecast lead used by `FutureNodesTrend` (bins; must equal the
    /// forecaster's horizon).
    pub future_window: usize,
    /// Threshold ξH on the recent decrease (nodes).
    pub xi_hist: f64,
    /// Threshold ξP on the forecast decrease (nodes).
    pub xi_future: f64,
    /// Node reboot time in seconds (the paper assumes ~5 minutes).
    pub reboot_secs: i64,
}

impl Default for CesConfig {
    fn default() -> Self {
        CesConfig {
            buffer_nodes: 3.0,
            hist_window: 6,    // 1 h of 10-min bins
            future_window: 18, // 3 h of 10-min bins
            xi_hist: 1.0,
            xi_future: 1.0,
            reboot_secs: 300,
        }
    }
}

/// Which power-down policy drives the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrsPolicy {
    /// Algorithm 2: sleep only when history *and* forecast agree.
    PredictionGuided,
    /// Vanilla DRS: sleep down to `running + σ` at every check.
    Vanilla,
}

/// Result of one control-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct CesOutcome {
    /// Active (powered-on) nodes per bin.
    pub active: Vec<f64>,
    /// Mirror of the input running series.
    pub running: Vec<f64>,
    /// Bins where a wake-up was triggered.
    pub wakeup_bins: Vec<usize>,
    /// Total nodes woken across all wake-ups.
    pub woken_nodes: f64,
    /// Node-seconds spent powered off.
    pub drs_node_seconds: f64,
    /// Jobs whose arrival hit a reboot window (queue-delay impact).
    pub affected_jobs: f64,
    /// Cluster size.
    pub total_nodes: u32,
    /// Bin width (seconds).
    pub bin: i64,
}

impl CesOutcome {
    /// Average number of powered-off (DRS) nodes.
    pub fn avg_drs_nodes(&self) -> f64 {
        let n = self.active.len().max(1) as f64;
        self.active
            .iter()
            .map(|a| self.total_nodes as f64 - a)
            .sum::<f64>()
            / n
    }

    /// Wake-up events per day.
    pub fn daily_wakeups(&self) -> f64 {
        let days = (self.active.len() as f64 * self.bin as f64) / 86_400.0;
        self.wakeup_bins.len() as f64 / days.max(1e-9)
    }

    /// Average nodes woken per wake-up event.
    pub fn avg_woken_per_wakeup(&self) -> f64 {
        if self.wakeup_bins.is_empty() {
            0.0
        } else {
            self.woken_nodes / self.wakeup_bins.len() as f64
        }
    }

    /// Node utilization with DRS active: running / active (Table 5 row
    /// "Node utilization (CES)").
    pub fn utilization_with_drs(&self) -> f64 {
        let run: f64 = self.running.iter().sum();
        let act: f64 = self.active.iter().sum();
        run / act.max(1e-9)
    }

    /// Baseline node utilization: running / total.
    pub fn baseline_utilization(&self) -> f64 {
        let run: f64 = self.running.iter().sum();
        run / (self.total_nodes as f64 * self.active.len() as f64)
    }
}

/// Run the control loop.
///
/// * `series` — observed running-node counts (and arrivals) per bin;
/// * `forecast` — aligned forecast: `forecast[t]` predicts
///   `running[t + future_window]` using data up to `t` (ignored by
///   [`DrsPolicy::Vanilla`]). Bins beyond `forecast.len()` fall back to
///   persistence.
pub fn run_control_loop(
    series: &NodeSeries,
    forecast: &[f64],
    policy: DrsPolicy,
    cfg: &CesConfig,
) -> CesOutcome {
    let total = series.total_nodes as f64;
    let n = series.len();
    let mut active = total; // start fully powered
    let mut active_series = Vec::with_capacity(n);
    let mut wakeup_bins = Vec::new();
    let mut woken_nodes = 0.0;
    let mut drs_node_seconds = 0.0;
    let mut affected_jobs = 0.0;

    for t in 0..n {
        let running = series.running[t];
        // --- JobArrivalCheck: demand exceeds the active pool -> wake up.
        if running > active {
            let wake = (running - active + cfg.buffer_nodes).min(total - active);
            if wake > 0.0 {
                active += wake;
                woken_nodes += wake;
                wakeup_bins.push(t);
                // Jobs arriving in this bin wait for the reboot.
                let reboot_frac = (cfg.reboot_secs as f64 / series.bin as f64).min(1.0);
                affected_jobs += series.arrivals[t] * reboot_frac;
            }
        }
        // --- PeriodicCheck: power down when demand is falling.
        let should_sleep = match policy {
            DrsPolicy::Vanilla => true,
            DrsPolicy::PredictionGuided => {
                if t < cfg.hist_window {
                    false
                } else {
                    let recent_trend = series.running[t - cfg.hist_window] - running;
                    let predicted = forecast.get(t).copied().unwrap_or(running);
                    let future_trend = running - predicted;
                    recent_trend >= cfg.xi_hist && future_trend >= cfg.xi_future
                }
            }
        };
        if should_sleep {
            let target = (running + cfg.buffer_nodes).min(total);
            if target < active {
                active = target;
            }
        }
        drs_node_seconds += (total - active) * series.bin as f64;
        active_series.push(active);
    }

    CesOutcome {
        active: active_series,
        running: series.running.clone(),
        wakeup_bins,
        woken_nodes,
        drs_node_seconds,
        affected_jobs,
        total_nodes: series.total_nodes,
        bin: series.bin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(running: Vec<f64>, total: u32) -> NodeSeries {
        let arrivals = vec![10.0; running.len()];
        NodeSeries {
            t0: 0,
            bin: 600,
            running,
            total_nodes: total,
            arrivals,
        }
    }

    fn flat_forecast(s: &NodeSeries, horizon: usize) -> Vec<f64> {
        // Perfect forecast: the actual future values.
        (0..s.len())
            .map(|t| s.running.get(t + horizon).copied().unwrap_or(s.running[t]))
            .collect()
    }

    #[test]
    fn vanilla_sleeps_immediately() {
        let s = series(vec![50.0; 100], 100);
        let out = run_control_loop(&s, &[], DrsPolicy::Vanilla, &CesConfig::default());
        // Active drops to running + sigma right away.
        assert!((out.active[0] - 53.0).abs() < 1e-9);
        assert!(out.avg_drs_nodes() > 45.0);
    }

    #[test]
    fn prediction_guided_requires_both_trends() {
        // Rising demand: never sleep.
        let rising: Vec<f64> = (0..100).map(|t| 10.0 + t as f64).collect();
        let s = series(rising, 200);
        let f = flat_forecast(&s, 18);
        let out = run_control_loop(&s, &f, DrsPolicy::PredictionGuided, &CesConfig::default());
        assert_eq!(out.active, vec![200.0; 100], "must stay fully powered");
        assert_eq!(out.wakeup_bins.len(), 0);
    }

    #[test]
    fn prediction_guided_sleeps_on_agreeing_decline() {
        // Demand falls steadily: both trends positive -> sleep kicks in.
        let falling: Vec<f64> = (0..100).map(|t| 150.0 - t as f64).collect();
        let s = series(falling, 200);
        let f = flat_forecast(&s, 18);
        let out = run_control_loop(&s, &f, DrsPolicy::PredictionGuided, &CesConfig::default());
        assert!(out.avg_drs_nodes() > 30.0, "{}", out.avg_drs_nodes());
        // Falling demand never triggers wake-ups.
        assert!(out.wakeup_bins.is_empty());
    }

    #[test]
    fn wakeups_on_demand_spike() {
        let mut running = vec![20.0; 50];
        running.extend(vec![80.0; 50]);
        let s = series(running, 100);
        let out = run_control_loop(&s, &[], DrsPolicy::Vanilla, &CesConfig::default());
        assert!(!out.wakeup_bins.is_empty());
        assert!(out.woken_nodes >= 60.0);
        assert!(out.affected_jobs > 0.0);
        // Demand always met after wake-up.
        for (a, r) in out.active.iter().zip(&s.running) {
            assert!(a >= r, "active {a} < running {r}");
        }
    }

    #[test]
    fn prediction_avoids_oscillation_wakeups() {
        // Oscillating demand: vanilla thrashes, prediction-guided (which
        // sees the rebound coming) holds capacity.
        let running: Vec<f64> = (0..288)
            .map(|t| 60.0 + 30.0 * ((t as f64) * std::f64::consts::TAU / 144.0).sin())
            .collect();
        let s = series(running, 120);
        let f = flat_forecast(&s, 18);
        let vanilla = run_control_loop(&s, &f, DrsPolicy::Vanilla, &CesConfig::default());
        let guided = run_control_loop(&s, &f, DrsPolicy::PredictionGuided, &CesConfig::default());
        assert!(
            guided.wakeup_bins.len() < vanilla.wakeup_bins.len(),
            "guided {} vs vanilla {}",
            guided.wakeup_bins.len(),
            vanilla.wakeup_bins.len()
        );
    }

    #[test]
    fn utilization_improves_with_drs() {
        let s = series(vec![40.0; 200], 100);
        let out = run_control_loop(&s, &[], DrsPolicy::Vanilla, &CesConfig::default());
        assert!(out.baseline_utilization() < 0.45);
        assert!(out.utilization_with_drs() > 0.85);
    }
}

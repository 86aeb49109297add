//! The Cluster Energy Saving service (§4.3): GBDT node-demand forecasting
//! over the occupancy series, driving the prediction-guided DRS control
//! loop of `helios-energy`.

use helios_energy::{run_control_loop, CesConfig, CesOutcome, DrsPolicy, NodeSeries};
use helios_predict::features::series::{build_series_dataset, features_at, SeriesFeatureConfig};
use helios_predict::gbdt::{Gbdt, GbdtParams};
use helios_predict::metrics::smape;
use helios_trace::{HeliosError, HeliosResult, Trace};

/// CES service configuration.
#[derive(Debug, Clone)]
pub struct CesServiceConfig {
    /// DRS control knobs (Algorithm 2).
    pub control: CesConfig,
    /// Feature extraction over the node series.
    pub features: SeriesFeatureConfig,
    /// Forecaster hyper-parameters.
    pub gbdt: GbdtParams,
}

impl Default for CesServiceConfig {
    fn default() -> Self {
        let features = SeriesFeatureConfig::default_10min();
        CesServiceConfig {
            control: CesConfig {
                future_window: features.horizon,
                ..Default::default()
            },
            features,
            gbdt: GbdtParams {
                num_trees: 150,
                learning_rate: 0.08,
                max_depth: 5,
                min_leaf: 20,
                lambda: 1.0,
                subsample: 0.9,
                colsample: 0.9,
                max_bins: 64,
                early_stopping: 0,
                seed: 23,
            },
        }
    }
}

impl CesServiceConfig {
    /// These settings with the DRS thresholds scaled to a cluster of
    /// `nodes` nodes. The defaults target the paper's 130–320-node
    /// clusters, so the buffer and both trend thresholds are multiplied by
    /// `k = nodes / 140` (clamped to `[0.05, 3]`), with floors of one
    /// buffer node and a quarter-node threshold.
    pub fn scaled_to(mut self, nodes: u32) -> Self {
        let k = (nodes as f64 / 140.0).clamp(0.05, 3.0);
        self.control.buffer_nodes = (self.control.buffer_nodes * k).max(1.0);
        self.control.xi_hist = (self.control.xi_hist * k).max(0.25);
        self.control.xi_future = (self.control.xi_future * k).max(0.25);
        self
    }
}

/// Evaluation artifacts for one cluster (the data behind Fig. 14/15 and a
/// Table 5 column).
#[derive(Debug, Clone)]
pub struct CesEvaluation {
    /// Forecast SMAPE over the evaluation window, percent.
    pub smape: f64,
    /// Outcome under the prediction-guided policy (Algorithm 2).
    pub guided: CesOutcome,
    /// Outcome under vanilla DRS.
    pub vanilla: CesOutcome,
    /// The evaluation sub-series.
    pub series: NodeSeries,
    /// Aligned forecast (`forecast[t]` predicts `running[t + horizon]`).
    pub forecast: Vec<f64>,
}

/// The CES service: a trained node-demand forecaster.
pub struct CesService {
    cfg: CesServiceConfig,
    model: Option<Gbdt>,
}

impl CesService {
    /// Create an untrained service.
    pub fn new(cfg: CesServiceConfig) -> Self {
        CesService { cfg, model: None }
    }

    /// Train the forecaster on the node series bins `[0, train_end_bin)`.
    /// A series too short to yield one training row is an error.
    pub fn train(
        &mut self,
        series: &NodeSeries,
        cal: &helios_trace::Calendar,
        train_end_bin: usize,
    ) -> HeliosResult<()> {
        let train = &series.running[..train_end_bin.min(series.len())];
        let (cols, targets, _) =
            build_series_dataset(train, series.t0, series.bin, cal, &self.cfg.features);
        if targets.is_empty() {
            return Err(HeliosError::empty_input(
                "node-series training rows",
                format!(
                    "series of {} bins is too short for the feature window (min {})",
                    train.len(),
                    self.cfg.features.min_index() + self.cfg.features.horizon
                ),
            ));
        }
        self.model = Some(Gbdt::fit(&cols, &targets, &self.cfg.gbdt, None));
        Ok(())
    }

    /// Forecast `running[t + horizon]` for every bin `t` in
    /// `[from_bin, to_bin)` using only values up to `t` (causal direct
    /// forecasting).
    pub fn forecast(
        &self,
        series: &NodeSeries,
        cal: &helios_trace::Calendar,
        from_bin: usize,
        to_bin: usize,
    ) -> HeliosResult<Vec<f64>> {
        let model = self
            .model
            .as_ref()
            .ok_or(HeliosError::NotTrained { service: "ces" })?;
        Ok((from_bin..to_bin)
            .map(|t| {
                let row = features_at(
                    &series.running,
                    t,
                    series.t0,
                    series.bin,
                    cal,
                    &self.cfg.features,
                );
                model.predict_row(&row).max(0.0)
            })
            .collect())
    }

    /// Full paper evaluation on one cluster trace: train the forecaster on
    /// everything before `eval_start` (seconds), then run prediction-guided
    /// and vanilla DRS over `[eval_start, eval_end)` (Fig. 14: a 3-week
    /// September window with "the previous records all used for training").
    pub fn evaluate(
        &mut self,
        trace: &Trace,
        series: &NodeSeries,
        eval_start: i64,
        eval_end: i64,
    ) -> HeliosResult<CesEvaluation> {
        if eval_start >= eval_end {
            return Err(HeliosError::invalid_config(
                "evaluation window",
                format!("eval_start {eval_start} must precede eval_end {eval_end}"),
            ));
        }
        let bin = series.bin;
        let start_bin = ((eval_start - series.t0) / bin).max(0) as usize;
        let end_bin = (((eval_end - series.t0) / bin) as usize).min(series.len());
        if start_bin + self.cfg.features.min_index() >= end_bin {
            return Err(HeliosError::empty_input(
                "evaluation bins",
                format!(
                    "window [{eval_start}, {eval_end}) leaves no bins after the \
                     feature warm-up ({} bins)",
                    self.cfg.features.min_index()
                ),
            ));
        }

        self.train(series, &trace.calendar, start_bin)?;
        let forecast = self.forecast(series, &trace.calendar, start_bin, end_bin)?;

        // Forecast quality: forecast[t] vs running[t + horizon].
        let h = self.cfg.features.horizon;
        let mut actual = Vec::new();
        let mut predicted = Vec::new();
        for (k, t) in (start_bin..end_bin).enumerate() {
            if t + h < series.len() {
                actual.push(series.running[t + h]);
                predicted.push(forecast[k]);
            }
        }
        let quality = smape(&actual, &predicted);

        let window = series.window(start_bin, end_bin);
        let guided = run_control_loop(
            &window,
            &forecast,
            DrsPolicy::PredictionGuided,
            &self.cfg.control,
        );
        let vanilla = run_control_loop(&window, &forecast, DrsPolicy::Vanilla, &self.cfg.control);
        Ok(CesEvaluation {
            smape: quality,
            guided,
            vanilla,
            series: window,
            forecast,
        })
    }

    /// True once trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_energy::node_series_from_trace;
    use helios_sim::Placement;
    use helios_trace::{earth_profile, generate, GeneratorConfig};

    fn setup() -> (Trace, NodeSeries) {
        let t = generate(
            &earth_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 13,
            },
        )
        .unwrap();
        let s = node_series_from_trace(&t, 600, Placement::Consolidate).unwrap();
        (t, s)
    }

    /// Control thresholds scaled to the tiny test cluster (~20 nodes); the
    /// defaults target the 130-260-node paper clusters.
    fn test_cfg() -> CesServiceConfig {
        let mut cfg = CesServiceConfig::default();
        cfg.control.buffer_nodes = 1.0;
        cfg.control.xi_hist = 0.25;
        cfg.control.xi_future = 0.25;
        cfg
    }

    #[test]
    fn forecaster_tracks_the_series() {
        // On the tiny (~20-node, heavily quantized) test cluster the
        // forecast must stay in the low-single-digit SMAPE regime the paper
        // reports (~3.6% on the full Earth series, §4.3.2). The
        // model-vs-baseline comparison lives in the pred-ces experiment at
        // repro scale.
        let (t, s) = setup();
        let mut svc = CesService::new(test_cfg());
        let eval_start = t.calendar.month_end(3);
        let eval_end = t.calendar.month_end(4);
        let eval = svc.evaluate(&t, &s, eval_start, eval_end).unwrap();
        assert!(eval.smape < 12.0, "GBDT SMAPE {}", eval.smape);
        assert_eq!(eval.forecast.len(), eval.series.len());
    }

    #[test]
    fn guided_wakes_less_than_vanilla() {
        let (t, s) = setup();
        let mut svc = CesService::new(test_cfg());
        let eval_start = t.calendar.month_end(3);
        let eval_end = t.calendar.month_end(4);
        let eval = svc.evaluate(&t, &s, eval_start, eval_end).unwrap();
        // Table 5's headline: prediction-guided DRS needs far fewer
        // wake-ups than vanilla DRS while still saving energy.
        assert!(
            eval.guided.daily_wakeups() < eval.vanilla.daily_wakeups(),
            "guided {} vs vanilla {}",
            eval.guided.daily_wakeups(),
            eval.vanilla.daily_wakeups()
        );
        assert!(eval.guided.avg_drs_nodes() > 0.0);
        // Utilization improves over the baseline.
        assert!(eval.guided.utilization_with_drs() > eval.guided.baseline_utilization());
    }

    #[test]
    fn demand_always_met_after_wakeups() {
        let (t, s) = setup();
        let mut svc = CesService::new(test_cfg());
        let eval = svc
            .evaluate(&t, &s, t.calendar.month_end(3), t.calendar.month_end(4))
            .unwrap();
        for (a, r) in eval.guided.active.iter().zip(&eval.guided.running) {
            assert!(a + 1e-9 >= *r, "active {a} < running {r}");
        }
    }

    #[test]
    fn thresholds_scale_with_cluster_size() {
        let thresholds = |cfg: &CesServiceConfig| {
            (
                cfg.control.buffer_nodes,
                cfg.control.xi_hist,
                cfg.control.xi_future,
            )
        };
        let default = CesServiceConfig::default();
        // k = 1 at 140 nodes: the defaults pass through unchanged.
        assert_eq!(
            thresholds(&default.clone().scaled_to(140)),
            thresholds(&default)
        );
        // Upper clamp: k stops at 3 however large the cluster.
        for nodes in [420, 10_000] {
            assert_eq!(
                thresholds(&default.clone().scaled_to(nodes)),
                (9.0, 3.0, 3.0)
            );
        }
        // Lower clamp: k stops at 0.05 (7 nodes); the defaults then sit on
        // their floors, so larger thresholds show the clamp itself.
        assert_eq!(thresholds(&default.clone().scaled_to(1)), (1.0, 0.25, 0.25));
        let mut large = CesServiceConfig::default();
        large.control.buffer_nodes = 100.0;
        large.control.xi_hist = 40.0;
        large.control.xi_future = 60.0;
        for nodes in [0, 1, 7] {
            assert_eq!(
                thresholds(&large.clone().scaled_to(nodes)),
                (100.0 * 0.05, 40.0 * 0.05, 60.0 * 0.05)
            );
        }
        // Only the three thresholds move.
        let scaled = default.clone().scaled_to(1_000);
        assert_eq!(scaled.control.hist_window, default.control.hist_window);
        assert_eq!(scaled.control.future_window, default.control.future_window);
        assert_eq!(scaled.control.reboot_secs, default.control.reboot_secs);
    }
}

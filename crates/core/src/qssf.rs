//! The Quasi-Shortest-Service-First scheduling service (§4.2, Algorithm 1).
//!
//! Priority of a new job J:
//! `P = N * (lambda * P_R + (1 - lambda) * P_M)` where `P_R` is the rolling
//! historical estimate (three fallback tiers), `P_M` the GBDT estimate over
//! encoded job attributes, and `N` the requested GPU count — i.e. expected
//! *GPU time*, so large short jobs don't starve fleets of small ones.
//! Jobs are then scheduled lowest-P-first without preemption.

use helios_predict::features::job::{build_training_matrix, FeatureExtractor};
use helios_predict::gbdt::{Gbdt, GbdtParams};
use helios_predict::rolling::RollingEstimator;
use helios_predict::text::strip_run_suffix;
use helios_sim::SimJob;
use helios_trace::{HeliosError, HeliosResult, JobRecord, NameId, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// QSSF configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QssfConfig {
    /// Merge coefficient λ between rolling and model estimates
    /// (Algorithm 1 line 20).
    pub lambda: f64,
    /// GBDT hyper-parameters for P_M.
    pub gbdt: GbdtParams,
}

impl Default for QssfConfig {
    fn default() -> Self {
        QssfConfig {
            lambda: 0.5,
            gbdt: GbdtParams {
                num_trees: 120,
                learning_rate: 0.12,
                max_depth: 7,
                min_leaf: 40,
                lambda: 1.0,
                subsample: 0.8,
                colsample: 0.9,
                max_bins: 128,
                early_stopping: 0,
                seed: 17,
            },
        }
    }
}

/// The QSSF service: a trained duration model plus online rolling state.
/// `Clone` snapshots the full state (model + rolling statistics), so a
/// trained service can be replayed over an evaluation window without
/// mutating the original.
#[derive(Clone)]
pub struct QssfService {
    cfg: QssfConfig,
    extractor: FeatureExtractor,
    rolling: RollingEstimator,
    model: Option<Gbdt>,
    /// Stripped name stem per interned template name — the rolling
    /// estimator's key depends only on the template (the display name's
    /// run suffix is stripped), so it is computed once per template
    /// instead of allocating a display string per job.
    stems: HashMap<NameId, String>,
}

impl QssfService {
    /// Create an untrained service.
    pub fn new(cfg: QssfConfig) -> Self {
        QssfService {
            cfg,
            extractor: FeatureExtractor::new(),
            rolling: RollingEstimator::default(),
            model: None,
            stems: HashMap::new(),
        }
    }

    /// The job's rolling-estimator stem (`strip_run_suffix` of its display
    /// name, which equals the stripped base name), cached per template.
    fn stem<'a>(stems: &'a mut HashMap<NameId, String>, job: &JobRecord, trace: &Trace) -> &'a str {
        stems.entry(job.name).or_insert_with(|| {
            // display_name = "{base}_{run}" with a numeric run suffix, so
            // stripping the display equals stripping the base.
            strip_run_suffix(trace.names.base(job.name)).to_string()
        })
    }

    /// Train from the jobs of `trace` submitted in `[t_lo, t_hi)`:
    /// fits the GBDT on encoded attributes → ln(duration), and warms the
    /// rolling estimator and feature state with the same history. An empty
    /// training window is an error, not a panic.
    pub fn train(&mut self, trace: &Trace, t_lo: i64, t_hi: i64) -> HeliosResult<()> {
        if t_lo >= t_hi {
            return Err(HeliosError::invalid_config(
                "train window",
                format!("t_lo {t_lo} must precede t_hi {t_hi}"),
            ));
        }
        let (cols, targets, extractor) = build_training_matrix(trace, t_lo, t_hi);
        if targets.is_empty() {
            return Err(HeliosError::empty_input(
                "training jobs",
                format!("no GPU jobs submitted in [{t_lo}, {t_hi})"),
            ));
        }
        self.model = Some(Gbdt::fit(&cols, &targets, &self.cfg.gbdt, None));
        self.extractor = extractor;
        // Warm the rolling estimator with every job that *ended* before the
        // end of the training window.
        self.rolling = RollingEstimator::default();
        for j in trace.gpu_jobs() {
            if j.end() <= t_hi {
                let stem = Self::stem(&mut self.stems, j, trace);
                self.rolling
                    .observe_stem(j.user, stem, j.gpus, j.duration as f64);
            }
        }
        Ok(())
    }

    /// Predicted duration (seconds) for an incoming job — the merged
    /// estimate `lambda * P_R + (1 - lambda) * P_M`.
    pub fn predict_duration(&mut self, job: &JobRecord, trace: &Trace) -> f64 {
        let stem = Self::stem(&mut self.stems, job, trace);
        let p_r = self.rolling.estimate_stem(job.user, stem, job.gpus);
        let p_m = match &self.model {
            Some(m) => {
                let row = self.extractor.extract(job, &trace.names, &trace.calendar);
                m.predict_row(&row).exp()
            }
            None => p_r,
        };
        (self.cfg.lambda * p_r + (1.0 - self.cfg.lambda) * p_m).max(1.0)
    }

    /// Algorithm 1's priority value: expected GPU time `N * duration`.
    pub fn priority(&mut self, job: &JobRecord, trace: &Trace) -> f64 {
        job.gpus as f64 * self.predict_duration(job, trace)
    }

    /// Record a finished job (updates rolling state and feature statistics —
    /// the Model Update Engine's per-termination data collection).
    pub fn observe(&mut self, job: &JobRecord, trace: &Trace) {
        let stem = Self::stem(&mut self.stems, job, trace);
        self.rolling
            .observe_stem(job.user, stem, job.gpus, job.duration as f64);
        self.extractor.observe(job, &trace.names);
    }

    /// Causally assign priorities to every schedulable GPU job submitted in
    /// `[t_lo, t_hi)`, returning simulator jobs ready for the `Priority`
    /// policy. Each GPU job submitted in the window is observed once the
    /// replay clock (the next submission) passes its end. GPU jobs
    /// submitted before `t_lo` are never observed here, so one that
    /// finishes inside the window stays unseen, although an online service
    /// would see it finish; [`train`](Self::train) only warms the rolling
    /// state with jobs that ended by its own window's end.
    pub fn assign_priorities(&mut self, trace: &Trace, t_lo: i64, t_hi: i64) -> Vec<SimJob> {
        let mut out = Vec::new();
        let mut pending: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
        for (idx, job) in trace.jobs.iter().enumerate() {
            if !job.is_gpu() || job.submit < t_lo {
                continue;
            }
            if job.submit >= t_hi {
                break;
            }
            while let Some(&Reverse((end, j))) = pending.peek() {
                if end > job.submit {
                    break;
                }
                pending.pop();
                let done = trace.jobs[j];
                self.observe(&done, trace);
            }
            if job.gpus <= trace.spec.vc_gpus(job.vc) {
                let priority = self.priority(job, trace);
                out.push(SimJob {
                    id: job.id,
                    vc: job.vc,
                    gpus: job.gpus,
                    submit: job.submit,
                    duration: job.duration.max(1),
                    priority,
                });
            }
            pending.push(Reverse((job.end(), idx)));
        }
        out
    }

    /// True once a model has been trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }
}

/// Synthetic priorities for traces lacking the attributes QSSF needs — the
/// paper's Philly evaluation assumes "priority values generated randomly
/// with a similar error distribution as Helios estimation" (§4.2.3). We
/// perturb the true GPU time by a log-normal error of the given sigma.
pub fn noisy_oracle_priorities(
    trace: &Trace,
    t_lo: i64,
    t_hi: i64,
    sigma: f64,
    seed: u64,
) -> Vec<SimJob> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    let mut jobs = helios_sim::jobs_from_trace(trace, t_lo, t_hi);
    for j in &mut jobs {
        let noise = (helios_trace::dist::standard_normal(&mut rng) * sigma).exp();
        j.priority = j.duration as f64 * j.gpus as f64 * noise;
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_predict::metrics;
    use helios_trace::{generate, venus_profile, GeneratorConfig};

    fn trace() -> Trace {
        generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 9,
            },
        )
        .unwrap()
    }

    #[test]
    fn trains_and_scores() {
        let t = trace();
        let mut svc = QssfService::new(QssfConfig::default());
        let split = t.calendar.month_end(3);
        svc.train(&t, 0, split).unwrap();
        assert!(svc.is_trained());
        let job = t.gpu_jobs().find(|j| j.submit >= split).unwrap();
        let p = svc.priority(job, &t);
        assert!(p >= job.gpus as f64, "priority {p} below 1s of GPU time");
    }

    #[test]
    fn predictions_beat_constant_baseline() {
        // The merged estimator must out-predict "always the global mean" on
        // held-out September jobs (in log space).
        let t = trace();
        let split = t.calendar.month_end(4); // train Apr-Aug
        let mut svc = QssfService::new(QssfConfig::default());
        svc.train(&t, 0, split).unwrap();
        let sims = svc.assign_priorities(&t, split, t.calendar.total_seconds());
        assert!(sims.len() > 500);
        let actual_log: Vec<f64> = sims.iter().map(|s| (s.duration as f64).ln()).collect();
        let pred_log: Vec<f64> = sims
            .iter()
            .map(|s| (s.priority / s.gpus as f64).max(1.0).ln())
            .collect();
        let mean = actual_log.iter().sum::<f64>() / actual_log.len() as f64;
        let const_pred = vec![mean; actual_log.len()];
        let model_rmse = metrics::rmse(&actual_log, &pred_log);
        let const_rmse = metrics::rmse(&actual_log, &const_pred);
        assert!(
            model_rmse < 0.8 * const_rmse,
            "model {model_rmse} vs constant {const_rmse}"
        );
    }

    #[test]
    fn lambda_extremes_change_estimates() {
        let t = trace();
        let split = t.calendar.month_end(3);
        let mut pure_rolling = QssfService::new(QssfConfig {
            lambda: 1.0,
            ..Default::default()
        });
        let mut pure_model = QssfService::new(QssfConfig {
            lambda: 0.0,
            ..Default::default()
        });
        pure_rolling.train(&t, 0, split).unwrap();
        pure_model.train(&t, 0, split).unwrap();
        let job = t.gpu_jobs().find(|j| j.submit >= split).unwrap();
        let a = pure_rolling.predict_duration(job, &t);
        let b = pure_model.predict_duration(job, &t);
        // Different estimators: values differ (they agree only by chance).
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() > 1e-9);
    }

    #[test]
    fn noisy_oracle_matches_job_set() {
        let t = trace();
        let (lo, hi) = t.calendar.month_range(5);
        let exact = helios_sim::jobs_from_trace(&t, lo, hi);
        let noisy = noisy_oracle_priorities(&t, lo, hi, 0.6, 3);
        assert_eq!(exact.len(), noisy.len());
        // Priorities correlate with true GPU time but are perturbed.
        let mut same = 0;
        for (e, n) in exact.iter().zip(&noisy) {
            assert_eq!(e.id, n.id);
            if (n.priority - e.duration as f64 * e.gpus as f64).abs() < 1e-9 {
                same += 1;
            }
        }
        assert!(same < exact.len() / 10, "noise must perturb priorities");
    }
}

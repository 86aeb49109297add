//! The unified façade: a fallible builder pipeline over the whole paper —
//! trace generation → characterization → prediction services → scheduling
//! → reporting (§4, Fig. 10) — with parallel multi-cluster × multi-seed
//! fan-out over rayon.
//!
//! ```no_run
//! use helios::prelude::*;
//!
//! # fn main() -> helios::error::Result<()> {
//! let report = Helios::cluster(Preset::Venus)
//!     .scale(0.1)
//!     .seed(42)
//!     .build()?
//!     .generate()?
//!     .characterize()?
//!     .train_qssf()?
//!     .schedule(SchedulePolicy::Fifo)?
//!     .schedule(SchedulePolicy::Qssf)?
//!     .report()?;
//! println!("{}", report.render());
//!
//! // Five clusters in parallel, one call, one report each.
//! let reports = Helios::all_clusters().scale(0.05).reports()?;
//! assert_eq!(reports.len(), 5);
//!
//! // Clusters x seeds: one session per pair, fanned out over rayon.
//! let sweep = Helios::helios_clusters()
//!     .scale(0.05)
//!     .seeds([1, 2, 3])
//!     .run(|session| session.generate()?.schedule(SchedulePolicy::Fifo)?.report())?;
//! assert_eq!(sweep.len(), 12);
//! # Ok(())
//! # }
//! ```

use crate::error::{HeliosError, Result};
use helios_analysis::report::{fmt_count, fmt_secs, TextTable};
use helios_analysis::{jobs, users};
use helios_core::{CesEvaluation, CesService, CesServiceConfig, QssfConfig, QssfService};
use helios_energy::EnergyAwarePolicy;
use helios_energy::{annualize, energy_saved_kwh, node_series_from_trace};
use helios_faults::{
    goodput, train_failure_predictor, DrainConfig, DrainPolicy, FailurePredictor, Goodput,
    PredictorConfig,
};
use helios_sim::{
    jobs_from_trace, schedule_stats, FaultConfig, FaultStats, FifoPolicy, JobOutcome, Placement,
    PriorityPolicy, ScheduleStats, SchedulingPolicy, SimObserver, Simulator, SjfPolicy, SrtfPolicy,
    TiresiasPolicy,
};
use helios_trace::{
    generate, profile_for, ClusterId, GeneratorConfig, Trace, WorkloadProfile, SECS_PER_DAY,
};

/// The clusters of the paper (Table 1 plus the Philly comparison cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    Venus,
    Earth,
    Saturn,
    Uranus,
    Philly,
}

impl Preset {
    /// The four Helios clusters plus Philly, Table 1 order.
    pub const ALL: [Preset; 5] = [
        Preset::Venus,
        Preset::Earth,
        Preset::Saturn,
        Preset::Uranus,
        Preset::Philly,
    ];

    /// The four Helios clusters (no Philly).
    pub const HELIOS: [Preset; 4] = [Preset::Venus, Preset::Earth, Preset::Saturn, Preset::Uranus];

    /// Display name ("Venus", ...).
    pub fn name(self) -> &'static str {
        self.cluster_id().name()
    }

    /// The trace-substrate cluster id.
    pub fn cluster_id(self) -> ClusterId {
        match self {
            Preset::Venus => ClusterId::Venus,
            Preset::Earth => ClusterId::Earth,
            Preset::Saturn => ClusterId::Saturn,
            Preset::Uranus => ClusterId::Uranus,
            Preset::Philly => ClusterId::Philly,
        }
    }

    /// Calibrated workload profile for this cluster.
    pub fn profile(self) -> WorkloadProfile {
        profile_for(self.cluster_id())
    }

    /// Parse a cluster name (case-insensitive).
    pub fn parse(name: &str) -> Result<Preset> {
        Preset::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| HeliosError::UnknownName {
                kind: "cluster",
                name: name.to_string(),
                expected: Preset::ALL
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", "),
            })
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Built-in scheduling policies exposed by the façade — constructors over
/// the pluggable `SchedulingPolicy` objects the kernel runs on (user
/// policies go through [`Session::schedule_with`]). `Qssf` is the paper's
/// contribution and requires [`Session::train_qssf`] first; Fifo/Sjf/Srtf
/// are the Fig. 11 baselines; `Tiresias` and `EnergyAware` are the
/// follow-up-survey disciplines shipped on top of the open kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Production FIFO baseline.
    Fifo,
    /// Oracle Shortest-Job-First.
    Sjf,
    /// Oracle preemptive Shortest-Remaining-Time-First.
    Srtf,
    /// Quasi-Shortest-Service-First on predicted GPU time (Algorithm 1).
    Qssf,
    /// Tiresias-style discretized least-attained-service (preemptive,
    /// duration-agnostic).
    Tiresias,
    /// CES-gated energy-aware ordering (FIFO when quiet, cheapest-energy
    /// first when busy).
    EnergyAware,
}

impl SchedulePolicy {
    /// Display label ("FIFO", "QSSF", ...).
    pub const fn label(self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "FIFO",
            SchedulePolicy::Sjf => "SJF",
            SchedulePolicy::Srtf => "SRTF",
            SchedulePolicy::Qssf => "QSSF",
            SchedulePolicy::Tiresias => "TIRESIAS",
            SchedulePolicy::EnergyAware => "ENERGY",
        }
    }

    /// Construct the policy object implementing this discipline.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            SchedulePolicy::Fifo => Box::new(FifoPolicy),
            SchedulePolicy::Sjf => Box::new(SjfPolicy),
            SchedulePolicy::Srtf => Box::new(SrtfPolicy),
            SchedulePolicy::Qssf => Box::new(PriorityPolicy::named("QSSF")),
            SchedulePolicy::Tiresias => Box::new(TiresiasPolicy::default()),
            SchedulePolicy::EnergyAware => Box::new(EnergyAwarePolicy::default()),
        }
    }
}

/// Entry point of the façade. Every pipeline starts here.
pub struct Helios;

impl Helios {
    /// Configure a session on one cluster.
    pub fn cluster(preset: Preset) -> SessionBuilder {
        SessionBuilder::new(preset)
    }

    /// Configure a parallel fan-out across all five clusters
    /// (Venus, Earth, Saturn, Uranus, Philly).
    pub fn all_clusters() -> FleetBuilder {
        FleetBuilder::new(Preset::ALL.to_vec())
    }

    /// Configure a parallel fan-out across the four Helios clusters.
    pub fn helios_clusters() -> FleetBuilder {
        FleetBuilder::new(Preset::HELIOS.to_vec())
    }

    /// Configure a fan-out over an explicit cluster list.
    pub fn clusters(presets: impl IntoIterator<Item = Preset>) -> FleetBuilder {
        FleetBuilder::new(presets.into_iter().collect())
    }
}

/// The trace every builder starts from: a tenth of the paper-size
/// cluster, seed 2020.
const DEFAULT_GENERATOR: GeneratorConfig = GeneratorConfig {
    scale: 0.1,
    seed: 2020,
};

/// Builder for a single-cluster [`Session`].
pub struct SessionBuilder {
    preset: Preset,
    generator: GeneratorConfig,
}

impl SessionBuilder {
    fn new(preset: Preset) -> Self {
        SessionBuilder {
            preset,
            generator: DEFAULT_GENERATOR,
        }
    }

    /// Trace scale in (0, 1]; 1.0 reproduces the paper-size cluster
    /// (default 0.1).
    pub fn scale(mut self, scale: f64) -> Self {
        self.generator.scale = scale;
        self
    }

    /// Master RNG seed (default 2020).
    pub fn seed(mut self, seed: u64) -> Self {
        self.generator.seed = seed;
        self
    }

    /// Validate the configuration and produce a [`Session`]. No work
    /// happens yet; [`Session::generate`] materializes the trace.
    pub fn build(self) -> Result<Session> {
        self.generator.validate()?;
        Ok(Session::new(self.preset, self.generator))
    }
}

/// One cluster's end-to-end pipeline state. Stages chain through
/// `Result<&mut Session>`, so a pipeline reads as
/// `session.generate()?.characterize()?.train_qssf()?...`. `Clone` forks
/// the full state (trace, trained services, recorded outcomes), so
/// divergent what-if chains can share one generated trace.
#[derive(Clone)]
pub struct Session {
    preset: Preset,
    generator: GeneratorConfig,
    failures: Option<FaultConfig>,
    trace: Option<Trace>,
    characterization: Option<Characterization>,
    qssf: Option<QssfService>,
    ces_eval: Option<CesEvaluation>,
    failure_model: Option<FailurePredictor>,
    schedules: Vec<ScheduleOutcome>,
}

/// Characterization highlights (§3), computed by [`Session::characterize`].
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Table 2-style summary.
    pub summary: jobs::TraceSummary,
    /// Peak hourly GPU-job submissions (Fig. 2b).
    pub peak_hourly_submissions: f64,
    /// Trough hourly GPU-job submissions (Fig. 2b).
    pub trough_hourly_submissions: f64,
    /// Share of GPU jobs requesting a single GPU (Fig. 6a).
    pub single_gpu_share: f64,
    /// Share of GPU *time* held by single-GPU jobs (Fig. 6b).
    pub single_gpu_time_share: f64,
    /// GPU-job final-status shares [completed, canceled, failed] as
    /// fractions in \[0, 1\] (Fig. 7a).
    pub gpu_status_shares: [f64; 3],
    /// GPU-time share of the top 5% of users (Fig. 8).
    pub top5_user_gpu_share: f64,
}

/// One scheduling run's outcome, kept with its per-job detail so reports
/// can compute cross-policy ratios. Runs are identified by `label` (the
/// policy object's name); `policy` is additionally set for the built-in
/// constructors so callers can match on the enum.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The policy object's display name ("FIFO", "QSSF", a custom name...).
    pub label: String,
    /// The built-in constructor, when the run came from
    /// [`Session::schedule`]; `None` for [`Session::schedule_with`] runs.
    pub policy: Option<SchedulePolicy>,
    pub stats: ScheduleStats,
    pub outcomes: Vec<JobOutcome>,
    /// Useful vs. failure-destroyed GPU time (ratio 1.0 when the session
    /// runs failure-free).
    pub goodput: Goodput,
    /// The failure process totals of this run (`None` without injection).
    pub fault_stats: Option<FaultStats>,
}

impl Session {
    fn new(preset: Preset, generator: GeneratorConfig) -> Session {
        Session {
            preset,
            generator,
            failures: None,
            trace: None,
            characterization: None,
            qssf: None,
            ces_eval: None,
            failure_model: None,
            schedules: Vec::new(),
        }
    }

    /// The cluster preset this session runs on.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// The generated trace (after [`Session::generate`]).
    pub fn trace(&self) -> Result<&Trace> {
        self.trace.as_ref().ok_or(HeliosError::MissingStage {
            stage: "trace access",
            requires: "generate",
        })
    }

    /// Characterization results (after [`Session::characterize`]).
    pub fn characterization(&self) -> Option<&Characterization> {
        self.characterization.as_ref()
    }

    /// CES evaluation (after [`Session::train_ces`]).
    pub fn ces_evaluation(&self) -> Option<&CesEvaluation> {
        self.ces_eval.as_ref()
    }

    /// Scheduling outcomes recorded so far, in execution order.
    pub fn schedule_outcomes(&self) -> &[ScheduleOutcome] {
        &self.schedules
    }

    /// The evaluation window: the calendar's final month (September for
    /// Helios clusters, December for Philly). History before it is the
    /// training window.
    pub fn eval_window(&self) -> Result<(i64, i64)> {
        let trace = self.trace()?;
        Ok(trace.calendar.month_range(trace.calendar.num_months() - 1))
    }

    /// Stage 1: synthesize the cluster trace.
    pub fn generate(&mut self) -> Result<&mut Session> {
        let trace = generate(&self.preset.profile(), &self.generator)
            .map_err(|e| e.for_cluster(self.preset.name()))?;
        self.trace = Some(trace);
        Ok(self)
    }

    /// Stage 2: compute the §3 characterization highlights in one fused
    /// traversal of the trace (see `helios_analysis::fused`).
    pub fn characterize(&mut self) -> Result<&mut Session> {
        let trace = self.trace.as_ref().ok_or(HeliosError::MissingStage {
            stage: "characterize",
            requires: "generate",
        })?;
        let f = helios_analysis::characterize(trace);
        let hourly = &f.daily.hourly_submissions;
        let (gpu_curve, _) = users::consumption_curves(&f.users);
        self.characterization = Some(Characterization {
            peak_hourly_submissions: hourly.iter().cloned().fold(0.0, f64::max),
            trough_hourly_submissions: hourly.iter().cloned().fold(f64::MAX, f64::min),
            single_gpu_share: f.job_size_cdf().fraction_at(1.0),
            single_gpu_time_share: f.job_size_time_cdf().fraction_at(1.0),
            // `gpu_status` is in percent; normalize to fractions so every
            // Characterization share field uses the same unit.
            gpu_status_shares: f.gpu_status.map(|p| p / 100.0),
            top5_user_gpu_share: users::top_share(&gpu_curve, 0.05),
            summary: f.summary,
        });
        Ok(self)
    }

    /// Stage 3a: train the QSSF duration predictor
    /// ([`QssfConfig::default`]) on everything before the evaluation
    /// window (the paper trains on April–August and schedules September).
    pub fn train_qssf(&mut self) -> Result<&mut Session> {
        let (lo, _) = self.eval_window()?;
        let trace = self.trace.as_ref().expect("eval_window checked generate");
        let mut svc = QssfService::new(QssfConfig::default());
        svc.train(trace, 0, lo)
            .map_err(|e| e.for_cluster(self.preset.name()))?;
        self.qssf = Some(svc);
        Ok(self)
    }

    /// Stage 3b: train the CES node-demand forecaster
    /// ([`CesServiceConfig::default`], scaled to the cluster) and run the
    /// paper's DRS evaluation over the consolidated node series (first
    /// three weeks of the evaluation window, Fig. 14/15, Table 5).
    pub fn train_ces(&mut self) -> Result<&mut Session> {
        let (lo, hi) = self.eval_window()?;
        let trace = self.trace.as_ref().expect("eval_window checked generate");
        let tag = |e: HeliosError| e.for_cluster(self.preset.name());
        let series = node_series_from_trace(trace, 600, Placement::Consolidate).map_err(tag)?;
        let mut svc = CesService::new(CesServiceConfig::default().scaled_to(trace.spec.nodes));
        let eval_end = (lo + 21 * SECS_PER_DAY).min(hi);
        let eval = svc.evaluate(trace, &series, lo, eval_end).map_err(tag)?;
        self.ces_eval = Some(eval);
        Ok(self)
    }

    /// Switch failure injection on (or off with `None`) for every
    /// scheduling run of this session — see [`helios_sim::FaultConfig`]
    /// for the model. Validates the configuration eagerly.
    pub fn with_failures(&mut self, cfg: Option<FaultConfig>) -> Result<&mut Session> {
        if let Some(f) = &cfg {
            f.validate()?;
        }
        self.failures = cfg;
        Ok(self)
    }

    /// The trained failure predictor (after
    /// [`Session::train_failure_model`]).
    pub fn failure_model(&self) -> Option<&FailurePredictor> {
        self.failure_model.as_ref()
    }

    /// Stage 3c: train the per-node GPU-failure predictor. Simulates the
    /// evaluation window under the session's failure model (FIFO
    /// discipline), samples per-node telemetry, and fits a GBDT to
    /// P(failure within the horizon) with a time-ordered train/eval
    /// split. Requires [`Session::generate`] and an active
    /// [`Session::with_failures`] configuration.
    pub fn train_failure_model(&mut self, cfg: &PredictorConfig) -> Result<&mut Session> {
        let (lo, hi) = self.eval_window()?;
        let trace = self.trace.as_ref().expect("eval_window checked generate");
        let faults = self.failures.ok_or(HeliosError::MissingStage {
            stage: "train_failure_model",
            requires: "with_failures",
        })?;
        let jobs = jobs_from_trace(trace, lo, hi);
        let model = train_failure_predictor(&trace.spec, &jobs, &faults, cfg)
            .map_err(|e| e.for_cluster(self.preset.name()))?;
        self.failure_model = Some(model);
        Ok(self)
    }

    /// Stage 4, failure-aware form: run a built-in policy wrapped in the
    /// proactive [`DrainPolicy`]. Uses the trained failure predictor when
    /// [`Session::train_failure_model`] ran, otherwise an uptime-threshold
    /// baseline calibrated to the failure model's MTBF. The run is
    /// recorded under `DRAIN+<label>`.
    pub fn schedule_drained(&mut self, inner: SchedulePolicy) -> Result<&mut Session> {
        let faults = self.failures.ok_or(HeliosError::MissingStage {
            stage: "schedule_drained",
            requires: "with_failures",
        })?;
        let cfg = DrainConfig::default();
        let policy = match self.failure_model.clone() {
            Some(model) => DrainPolicy::with_predictor(inner.build(), model, cfg)?,
            None => {
                let mtbf_hours = faults.mtbf_secs / 3600.0;
                DrainPolicy::uptime(inner.build(), mtbf_hours, cfg)?
            }
        };
        self.run_schedule(None, Box::new(policy), Vec::new())
    }

    /// Stage 4: run one built-in scheduling policy over the evaluation
    /// window and record its outcome. [`SchedulePolicy::Qssf`] requires
    /// [`Session::train_qssf`] first.
    pub fn schedule(&mut self, policy: SchedulePolicy) -> Result<&mut Session> {
        self.run_schedule(Some(policy), policy.build(), Vec::new())
    }

    /// Stage 4, open-kernel form: run a user-defined [`SchedulingPolicy`]
    /// trait object over the evaluation window, streaming every kernel
    /// lifecycle event of the run through `observers` (pass `Vec::new()`
    /// for none). Lend borrowed observers (`Box::new(&mut occ)`) to read
    /// their series after the call returns. The run is recorded under the
    /// policy's [`name`](SchedulingPolicy::name); re-running the same name
    /// replaces the previous outcome. Jobs carry their QSSF-agnostic
    /// defaults (`priority` = submission time) — priority-driven custom
    /// policies should key off job attributes or their own state.
    pub fn schedule_with<'o>(
        &mut self,
        policy: Box<dyn SchedulingPolicy + 'o>,
        observers: Vec<Box<dyn SimObserver + 'o>>,
    ) -> Result<&mut Session> {
        self.run_schedule(None, policy, observers)
    }

    fn run_schedule<'o>(
        &mut self,
        builtin: Option<SchedulePolicy>,
        policy: Box<dyn SchedulingPolicy + 'o>,
        observers: Vec<Box<dyn SimObserver + 'o>>,
    ) -> Result<&mut Session> {
        let (lo, hi) = self.eval_window()?;
        let trace = self.trace.as_ref().expect("eval_window checked generate");
        let jobs = match builtin {
            Some(SchedulePolicy::Qssf) => {
                let svc = self.qssf.as_ref().ok_or(HeliosError::MissingStage {
                    stage: "schedule(Qssf)",
                    requires: "train_qssf",
                })?;
                // Score on a snapshot: `assign_priorities` replays the eval
                // window causally (observing each job as it finishes), so
                // working on a clone keeps the trained service pristine and
                // makes re-running the same policy idempotent.
                svc.clone().assign_priorities(trace, lo, hi)
            }
            _ => jobs_from_trace(trace, lo, hi),
        };
        if jobs.is_empty() {
            return Err(HeliosError::empty_input(
                "schedulable jobs",
                format!(
                    "no GPU jobs submitted in [{lo}, {hi}) on {}",
                    self.preset.name()
                ),
            ));
        }
        let label = policy.name().to_string();
        let mut sim = Simulator::new(&trace.spec, policy);
        if let Some(faults) = &self.failures {
            sim.enable_faults(faults)
                .map_err(|e| e.for_cluster(self.preset.name()))?;
        }
        for obs in observers {
            sim.observe(obs);
        }
        sim.push_jobs(&jobs)
            .map_err(|e| e.for_cluster(self.preset.name()))?;
        sim.run_to_completion();
        let outcomes = sim.drain_outcomes();
        let fault_stats = sim.fault_stats();
        drop(sim);
        let stats = schedule_stats(&outcomes);
        let run_goodput = goodput(&outcomes, fault_stats);
        // Re-running a policy replaces its previous outcome.
        self.schedules.retain(|s| s.label != label);
        self.schedules.push(ScheduleOutcome {
            label,
            policy: builtin,
            stats,
            outcomes,
            goodput: run_goodput,
            fault_stats,
        });
        Ok(self)
    }

    /// Run the four Fig. 11 policies in one call (QSSF only if trained).
    pub fn schedule_all(&mut self) -> Result<&mut Session> {
        self.schedule(SchedulePolicy::Fifo)?;
        self.schedule(SchedulePolicy::Sjf)?;
        self.schedule(SchedulePolicy::Srtf)?;
        if self.qssf.is_some() {
            self.schedule(SchedulePolicy::Qssf)?;
        }
        Ok(self)
    }

    /// Final stage: assemble everything computed so far into a
    /// [`SessionReport`]. Requires at least [`Session::generate`].
    pub fn report(&self) -> Result<SessionReport> {
        let trace = self.trace.as_ref().ok_or(HeliosError::MissingStage {
            stage: "report",
            requires: "generate",
        })?;
        let schedules: Vec<ScheduleSummary> = self
            .schedules
            .iter()
            .map(|s| ScheduleSummary {
                label: s.label.clone(),
                avg_jct: s.stats.avg_jct,
                avg_queue_delay: s.stats.avg_queue_delay,
                queued_jobs: s.stats.queued_jobs,
                goodput: s.goodput.ratio(),
                lost_gpu_hours: s.goodput.lost_gpu_hours,
            })
            .collect();
        let qssf_vs_fifo = {
            let find = |p: SchedulePolicy| self.schedules.iter().find(|s| s.policy == Some(p));
            match (find(SchedulePolicy::Fifo), find(SchedulePolicy::Qssf)) {
                (Some(f), Some(q)) => Some(PolicyGain {
                    jct: f.stats.avg_jct / q.stats.avg_jct.max(1.0),
                    queue_delay: f.stats.avg_queue_delay / q.stats.avg_queue_delay.max(1.0),
                }),
                _ => None,
            }
        };
        let ces = self.ces_eval.as_ref().map(|e| {
            let window = e.series.len() as f64 * e.series.bin as f64;
            CesSummary {
                smape: e.smape,
                avg_drs_nodes: e.guided.avg_drs_nodes(),
                daily_wakeups: e.guided.daily_wakeups(),
                vanilla_daily_wakeups: e.vanilla.daily_wakeups(),
                baseline_utilization: e.guided.baseline_utilization(),
                utilization_with_ces: e.guided.utilization_with_drs(),
                annual_kwh_saved: annualize(energy_saved_kwh(e.guided.drs_node_seconds), window),
            }
        });
        Ok(SessionReport {
            cluster: self.preset.name().to_string(),
            scale: self.generator.scale,
            seed: self.generator.seed,
            nodes: trace.spec.nodes,
            gpus: trace.total_gpus(),
            jobs: trace.jobs.len() as u64,
            gpu_jobs: trace.gpu_jobs().count() as u64,
            users: trace.num_users() as u64,
            characterization: self.characterization.clone(),
            schedules,
            qssf_vs_fifo,
            ces,
        })
    }
}

/// One policy row of a report, identified by the policy object's name.
#[derive(Debug, Clone)]
pub struct ScheduleSummary {
    pub label: String,
    pub avg_jct: f64,
    pub avg_queue_delay: f64,
    pub queued_jobs: u64,
    /// Fraction of consumed GPU time that reached completed jobs
    /// (exactly 1.0 for a failure-free run).
    pub goodput: f64,
    /// GPU·hours destroyed by node failures during the run.
    pub lost_gpu_hours: f64,
}

/// QSSF improvement over FIFO (Table 3 headline).
#[derive(Debug, Clone, Copy)]
pub struct PolicyGain {
    /// FIFO avg JCT / QSSF avg JCT.
    pub jct: f64,
    /// FIFO avg queue delay / QSSF avg queue delay.
    pub queue_delay: f64,
}

/// CES results (Table 5 column).
#[derive(Debug, Clone, Copy)]
pub struct CesSummary {
    pub smape: f64,
    pub avg_drs_nodes: f64,
    pub daily_wakeups: f64,
    pub vanilla_daily_wakeups: f64,
    pub baseline_utilization: f64,
    pub utilization_with_ces: f64,
    pub annual_kwh_saved: f64,
}

/// Everything one session produced, renderable as aligned text.
#[derive(Debug, Clone)]
pub struct SessionReport {
    pub cluster: String,
    pub scale: f64,
    pub seed: u64,
    pub nodes: u32,
    pub gpus: u32,
    pub jobs: u64,
    pub gpu_jobs: u64,
    pub users: u64,
    pub characterization: Option<Characterization>,
    pub schedules: Vec<ScheduleSummary>,
    pub qssf_vs_fifo: Option<PolicyGain>,
    pub ces: Option<CesSummary>,
}

impl SessionReport {
    /// Aligned plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (scale {}, seed {}): {} nodes / {} GPUs, {} jobs ({} GPU), {} users\n",
            self.cluster,
            self.scale,
            self.seed,
            self.nodes,
            fmt_count(self.gpus as u64),
            fmt_count(self.jobs),
            fmt_count(self.gpu_jobs),
            self.users,
        );
        if let Some(c) = &self.characterization {
            out.push_str(&format!(
                "characterization: avg {:.2} GPUs/job, avg duration {}, \
                 single-GPU {:.0}% of jobs / {:.0}% of GPU time,\n\
                 \x20 statuses {:.0}/{:.0}/{:.0} (done/cancel/fail), \
                 top-5% users hold {:.0}% of GPU time, submissions {:.0}-{:.0}/h\n",
                c.summary.avg_gpus,
                fmt_secs(c.summary.avg_duration_s),
                100.0 * c.single_gpu_share,
                100.0 * c.single_gpu_time_share,
                100.0 * c.gpu_status_shares[0],
                100.0 * c.gpu_status_shares[1],
                100.0 * c.gpu_status_shares[2],
                100.0 * c.top5_user_gpu_share,
                c.trough_hourly_submissions,
                c.peak_hourly_submissions,
            ));
        }
        if !self.schedules.is_empty() {
            let faulty = self.schedules.iter().any(|s| s.goodput < 1.0);
            let mut head = vec!["policy", "avg JCT", "avg queue", "queued jobs"];
            if faulty {
                head.push("goodput");
            }
            let mut t = TextTable::new(head);
            for s in &self.schedules {
                let mut row = vec![
                    s.label.clone(),
                    fmt_secs(s.avg_jct),
                    fmt_secs(s.avg_queue_delay),
                    fmt_count(s.queued_jobs),
                ];
                if faulty {
                    row.push(format!("{:.1}%", 100.0 * s.goodput));
                }
                t.row(row);
            }
            out.push_str(&t.render());
        }
        if let Some(g) = &self.qssf_vs_fifo {
            out.push_str(&format!(
                "QSSF vs FIFO: JCT x{:.1}, queue delay x{:.1}\n",
                g.jct, g.queue_delay
            ));
        }
        if let Some(c) = &self.ces {
            out.push_str(&format!(
                "CES: SMAPE {:.2}%, {:.1} DRS nodes, {:.1} wake-ups/day (vanilla {:.1}), \
                 utilization {:.1}% -> {:.1}%, {:.0} kWh/yr saved\n",
                c.smape,
                c.avg_drs_nodes,
                c.daily_wakeups,
                c.vanilla_daily_wakeups,
                100.0 * c.baseline_utilization,
                100.0 * c.utilization_with_ces,
                c.annual_kwh_saved,
            ));
        }
        out
    }
}

/// Builder for a parallel multi-cluster (× multi-seed) fan-out.
pub struct FleetBuilder {
    presets: Vec<Preset>,
    seeds: Vec<u64>,
    generator: GeneratorConfig,
}

impl FleetBuilder {
    fn new(presets: Vec<Preset>) -> Self {
        FleetBuilder {
            presets,
            seeds: Vec::new(),
            generator: DEFAULT_GENERATOR,
        }
    }

    /// Trace scale in (0, 1] for every session (default 0.1).
    pub fn scale(mut self, scale: f64) -> Self {
        self.generator.scale = scale;
        self
    }

    /// Master RNG seed for every session (default 2020).
    pub fn seed(mut self, seed: u64) -> Self {
        self.generator.seed = seed;
        self
    }

    /// Sweep several generator seeds: the fan-out produces one session
    /// per (cluster, seed) pair, preset-major (`Venus@s1, Venus@s2, …,
    /// Earth@s1, …`). Without this, the single [`Self::seed`] is used.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Build one configured (empty) session per (cluster, seed) pair.
    pub fn build(self) -> Result<Vec<Session>> {
        if self.presets.is_empty() {
            return Err(HeliosError::empty_input(
                "clusters",
                "fan-out over zero presets",
            ));
        }
        self.generator.validate()?;
        let seeds = if self.seeds.is_empty() {
            vec![self.generator.seed]
        } else {
            self.seeds
        };
        let mut sessions = Vec::with_capacity(self.presets.len() * seeds.len());
        for preset in self.presets {
            for &seed in &seeds {
                let generator = GeneratorConfig {
                    seed,
                    ..self.generator
                };
                sessions.push(Session::new(preset, generator));
            }
        }
        Ok(sessions)
    }

    /// Run `f` on every (cluster, seed) session concurrently — the
    /// fan-out goes through rayon (`par_iter_mut`, one session per
    /// thread) — returning results in preset-major, seed-minor order.
    /// The first error wins and is tagged with its cluster name.
    pub fn run<T, F>(self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Session) -> Result<T> + Send + Sync,
    {
        use rayon::prelude::*;
        let mut sessions = self.build()?;
        let results: Vec<Result<T>> = sessions
            .par_iter_mut()
            .with_min_len(1)
            .map(|session| {
                let name = session.preset().name();
                f(session).map_err(|e| match e {
                    // Already tagged by an inner stage.
                    tagged @ HeliosError::Cluster { .. } => tagged,
                    other => other.for_cluster(name),
                })
            })
            .collect();
        results.into_iter().collect()
    }

    /// The standard paper pipeline on every cluster in parallel:
    /// generate → characterize → train QSSF → schedule FIFO/SJF/SRTF/QSSF
    /// → report. One call, one report per cluster.
    pub fn reports(self) -> Result<Vec<SessionReport>> {
        self.run(|session| {
            session
                .generate()?
                .characterize()?
                .train_qssf()?
                .schedule_all()?
                .report()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_invalid_scale() {
        for scale in [0.0, -0.5, 2.0, f64::NAN] {
            let err = Helios::cluster(Preset::Venus).scale(scale).build();
            assert!(
                matches!(err, Err(HeliosError::InvalidConfig { field: "scale", .. })),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn stages_require_generate() {
        let mut s = Helios::cluster(Preset::Venus).build().unwrap();
        assert!(matches!(
            s.characterize(),
            Err(HeliosError::MissingStage {
                requires: "generate",
                ..
            })
        ));
        assert!(s.report().is_err());
        assert!(s.trace().is_err());
    }

    #[test]
    fn qssf_schedule_requires_training() {
        let mut s = Helios::cluster(Preset::Venus)
            .scale(0.02)
            .seed(1)
            .build()
            .unwrap();
        s.generate().unwrap();
        let err = s.schedule(SchedulePolicy::Qssf);
        assert!(matches!(
            err,
            Err(HeliosError::MissingStage {
                requires: "train_qssf",
                ..
            })
        ));
        // Baselines work without training.
        s.schedule(SchedulePolicy::Fifo).unwrap();
        assert_eq!(s.schedule_outcomes().len(), 1);
    }

    #[test]
    fn preset_parsing() {
        assert_eq!(Preset::parse("venus").unwrap(), Preset::Venus);
        assert_eq!(Preset::parse("Philly").unwrap(), Preset::Philly);
        assert!(matches!(
            Preset::parse("pluto"),
            Err(HeliosError::UnknownName {
                kind: "cluster",
                ..
            })
        ));
    }

    #[test]
    fn empty_fleet_is_an_error() {
        assert!(Helios::clusters([]).build().is_err());
    }
}

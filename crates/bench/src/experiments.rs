//! Per-experiment implementations. Each function regenerates one paper
//! artifact (table or figure) as plain text (the rows/series the paper
//! reports) plus a JSON value for machine consumption; every simulation an
//! experiment runs also leaves one [`ResultRecord`] in the [`Context`].

use helios::SchedulePolicy;
use helios_analysis::cdf::Cdf;
use helios_analysis::report::{fmt_count, fmt_secs, TextTable};
use helios_analysis::{clusters, jobs, users, vc};
use helios_core::{
    noisy_oracle_priorities, CesEvaluation, CesService, CesServiceConfig, QssfConfig, QssfService,
};
use helios_energy::{annualize, energy_saved_kwh, node_series_from_trace};
use helios_faults::{goodput, train_failure_predictor, DrainConfig, DrainPolicy, PredictorConfig};
use helios_predict::features::series::SeriesFeatureConfig;
use helios_predict::metrics::smape;
use helios_predict::{
    seasonal_naive, Arima, FourierForecaster, FourierParams, LstmForecaster, LstmParams,
};
use helios_sim::{
    group_delay_ratios, jobs_from_trace, outcome_digest, per_vc_queue_delay, schedule_stats,
    simulate_with, FaultConfig, FifoPolicy, JobOutcome, KernelConfig, Placement, Policy,
    SchedulingPolicy, SimJob, Simulator,
};
use helios_trace::{
    generate_helios, generate_philly, GeneratorConfig, HeliosError, Trace, SECS_PER_DAY,
};
use rayon::prelude::*;
use serde_json::json;
use std::collections::BTreeMap;
use std::time::Duration;

/// One experiment's rendered output.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    pub id: String,
    pub text: String,
    pub data: serde_json::Value,
}

/// What one simulation of an experiment produced, never how long it
/// took: the unit of the `repro --pin` result files.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Id of the experiment that ran the simulation.
    pub experiment: String,
    pub cluster: String,
    /// The policy object's name (`DRAIN+<inner>` when drain-wrapped).
    pub policy: String,
    /// Jobs with an outcome.
    pub jobs: usize,
    /// [`outcome_digest`] of the outcomes.
    pub digest: String,
    /// Outcome numbers by name: failures, goodput, restarts, sheds, ...
    pub metrics: BTreeMap<&'static str, serde_json::Value>,
}

impl ResultRecord {
    fn new(experiment: &str, cluster: &str, policy: &str, outcomes: &[JobOutcome]) -> Self {
        ResultRecord {
            experiment: experiment.to_string(),
            cluster: cluster.to_string(),
            policy: policy.to_string(),
            jobs: outcomes.len(),
            digest: outcome_digest(outcomes),
            metrics: BTreeMap::new(),
        }
    }

    fn metric(mut self, name: &'static str, value: impl Into<serde_json::Value>) -> Self {
        self.metrics.insert(name, value.into());
        self
    }

    pub fn to_json(&self) -> serde_json::Value {
        let mut metrics = serde_json::Map::new();
        for (name, value) in &self.metrics {
            metrics.insert(name.to_string(), value.clone());
        }
        json!({
            "experiment": self.experiment.clone(),
            "cluster": self.cluster.clone(),
            "policy": self.policy.clone(),
            "jobs": self.jobs,
            "digest": self.digest.clone(),
            "metrics": metrics,
        })
    }
}

/// Cached scheduler comparison for one cluster.
pub struct SchedulerRun {
    pub cluster: String,
    /// Policy label -> outcomes, keyed in label order so report
    /// iteration is digest-stable.
    pub outcomes: BTreeMap<&'static str, Vec<JobOutcome>>,
    /// One record per policy run, in the order the policies ran.
    pub records: Vec<ResultRecord>,
}

impl SchedulerRun {
    /// Collect `(label, policy name, outcomes)` runs in run order.
    fn new(
        cluster: String,
        experiment: &str,
        runs: Vec<(&'static str, String, Vec<JobOutcome>)>,
    ) -> Self {
        let mut out = SchedulerRun {
            cluster,
            outcomes: BTreeMap::new(),
            records: Vec::new(),
        };
        for (label, name, outcomes) in runs {
            let record = ResultRecord::new(experiment, &out.cluster, &name, &outcomes);
            out.records.push(record);
            out.outcomes.insert(label, outcomes);
        }
        out
    }
}

/// Shared, lazily-computed experiment state.
pub struct Context {
    pub cfg: GeneratorConfig,
    /// Policy labels the scheduler experiments run, in [`POLICIES`] order.
    policies: Vec<&'static str>,
    helios: Option<Vec<Trace>>,
    philly: Option<Trace>,
    sched: Option<Vec<SchedulerRun>>,
    sched_philly: Option<SchedulerRun>,
    ces: Option<Vec<(String, CesEvaluation)>>,
    ces_philly: Option<(String, CesEvaluation)>,
    /// Fault model every scheduler simulation runs under (`repro
    /// --failures <mtbf-hours>`); `None` = failure-free, the default.
    faults: Option<FaultConfig>,
    /// Wrap every selected policy in the proactive-drain layer (`repro
    /// --policy drain:<inner>`).
    drain: bool,
    /// The experiment [`run`] is executing; it names new records.
    experiment: String,
    /// Every simulation's record, in run order.
    records: Vec<ResultRecord>,
}

impl Context {
    /// Create a context; `scale` shrinks clusters and job counts together.
    /// The configuration is validated here, once, so the lazy generation
    /// below cannot fail on user input. Scheduler experiments default to
    /// the paper's four policies; see [`Context::set_policy_choice`].
    pub fn new(scale: f64, seed: u64) -> Result<Self, HeliosError> {
        let cfg = GeneratorConfig { scale, seed };
        cfg.validate()?;
        Ok(Context {
            cfg,
            policies: PAPER_POLICIES.to_vec(),
            helios: None,
            philly: None,
            sched: None,
            sched_philly: None,
            ces: None,
            ces_philly: None,
            faults: None,
            drain: false,
            experiment: String::new(),
            records: Vec::new(),
        })
    }

    /// Enable failure injection for every scheduler simulation this
    /// context runs (`repro --failures <mtbf-hours>`): seeded per-node
    /// Weibull MTBF renewal with the production-flavored defaults of
    /// [`FaultConfig::with_mtbf_hours`], under checkpoint-restart
    /// semantics (2 h intervals). Checkpointing is what makes any MTBF
    /// safe here: Helios traces carry 50-day jobs, and kill-and-requeue
    /// against an MTBF shorter than the longest job would recompute
    /// forever (see [`helios_sim::FaultSemantics`]). The `failure-soak`
    /// experiment also adopts this model. Non-physical MTBFs are a typed
    /// [`HeliosError::InvalidConfig`] error, never a panic.
    pub fn set_failures(&mut self, mtbf_hours: f64) -> Result<(), HeliosError> {
        let cfg = FaultConfig::with_mtbf_hours(mtbf_hours).checkpoint_hours(2.0);
        cfg.validate()?;
        self.faults = Some(cfg);
        // Scheduler caches are fault-model-dependent.
        self.sched = None;
        self.sched_philly = None;
        Ok(())
    }

    /// The fault model scheduler simulations run under (`None` =
    /// failure-free).
    pub fn failures(&self) -> Option<&FaultConfig> {
        self.faults.as_ref()
    }

    /// Restrict (or extend) the scheduler experiments to one policy — or
    /// `"all"` for every shipped policy including Tiresias. Accepts the
    /// `repro --policy` values: `fifo|sjf|srtf|qssf|tiresias|all`
    /// (case-insensitive; the valid set is [`POLICIES`]). A `drain:`
    /// prefix (e.g. `drain:fifo`) wraps every selected policy in the
    /// proactive-drain layer ([`DrainPolicy`]), which marks
    /// high-failure-risk nodes draining before they fail.
    pub fn set_policy_choice(&mut self, choice: &str) -> Result<(), HeliosError> {
        let (choice, drain) = match choice.split_once(':') {
            Some((prefix, inner)) if prefix.eq_ignore_ascii_case("drain") => (inner, true),
            _ => (choice, false),
        };
        self.drain = drain;
        self.policies = if choice.eq_ignore_ascii_case("all") {
            POLICIES.to_vec()
        } else if let Some(policy) = shipped(choice) {
            vec![policy.label()]
        } else {
            return Err(HeliosError::UnknownName {
                kind: "policy",
                name: choice.to_string(),
                expected: {
                    let mut names: Vec<String> =
                        POLICIES.iter().map(|l| l.to_ascii_lowercase()).collect();
                    names.push("all".into());
                    names.push("drain:<any of these>".into());
                    names.join(", ")
                },
            });
        };
        // Scheduler caches are policy-dependent.
        self.sched = None;
        self.sched_philly = None;
        Ok(())
    }

    /// The policy labels scheduler experiments currently run.
    pub fn policy_labels(&self) -> &[&'static str] {
        &self.policies
    }

    /// The four Helios traces (generated once).
    pub fn helios(&mut self) -> &[Trace] {
        if self.helios.is_none() {
            eprintln!(
                "[ctx] generating Helios traces (scale {})...",
                self.cfg.scale
            );
            self.helios =
                Some(generate_helios(&self.cfg).expect("config validated in Context::new"));
        }
        self.helios.as_ref().unwrap()
    }

    /// The Philly trace.
    pub fn philly(&mut self) -> &Trace {
        if self.philly.is_none() {
            eprintln!(
                "[ctx] generating Philly trace (scale {})...",
                self.cfg.scale
            );
            self.philly =
                Some(generate_philly(&self.cfg).expect("config validated in Context::new"));
        }
        self.philly.as_ref().unwrap()
    }

    /// September scheduler comparisons on all four Helios clusters over
    /// the selected policies (QSSF trained on April–August). Clusters ×
    /// policies fan out over rayon — one simulation per thread.
    pub fn scheduler_runs(&mut self) -> &[SchedulerRun] {
        if self.sched.is_none() {
            self.helios();
            let policies = self.policies.clone();
            let traces = self.helios.as_ref().unwrap();
            eprintln!(
                "[ctx] scheduling experiments on {} clusters x {} policies (parallel)...",
                traces.len(),
                policies.len()
            );
            let faults = self.faults;
            let drain = self.drain;
            let experiment = &self.experiment;
            let runs: Vec<SchedulerRun> = traces
                .par_iter()
                .with_min_len(1)
                .map(|t| run_schedulers_with(t, &policies, faults.as_ref(), drain, experiment))
                .collect();
            self.records
                .extend(runs.iter().flat_map(|r| r.records.iter().cloned()));
            self.sched = Some(runs);
        }
        self.sched.as_ref().unwrap()
    }

    /// Philly scheduler comparison (October–November; noisy-oracle
    /// priorities, the paper's §4.2.3 assumption). Policies fan out over
    /// rayon.
    pub fn scheduler_run_philly(&mut self) -> &SchedulerRun {
        if self.sched_philly.is_none() {
            let seed = self.cfg.seed;
            let policies = self.policies.clone();
            let faults = self.faults;
            let drain = self.drain;
            let t = self.philly();
            eprintln!("[ctx] scheduling experiments on Philly (parallel)...");
            let (lo, hi) = (t.calendar.month_start(0), t.calendar.month_end(1));
            let base = jobs_from_trace(t, lo, hi);
            let kcfg = KernelConfig::default();
            let results: Vec<(&'static str, String, Vec<JobOutcome>)> = policies
                .par_iter()
                .with_min_len(1)
                .map(|&label| {
                    let policy = shipped(label).expect("label validated by set_policy_choice");
                    let jobs: Vec<SimJob>;
                    let jobs_ref: &[SimJob] = if policy == SchedulePolicy::Qssf {
                        // QSSF with randomized priorities matching
                        // Helios-like estimation error.
                        jobs = noisy_oracle_priorities(t, lo, hi, 0.8, seed ^ 0xF1);
                        &jobs
                    } else {
                        &base
                    };
                    let policy = maybe_drain(policy.build(), faults.as_ref(), drain);
                    let (name, outcomes) =
                        simulate_policy(&t.spec, jobs_ref, policy, &kcfg, faults.as_ref());
                    (label, name, outcomes)
                })
                .collect();
            let run = SchedulerRun::new("Philly".into(), &self.experiment, results);
            self.records.extend(run.records.iter().cloned());
            self.sched_philly = Some(run);
        }
        self.sched_philly.as_ref().unwrap()
    }

    /// The record of every simulation the experiments ran so far, in run
    /// order — the payload of `repro --pin`.
    pub fn records(&self) -> &[ResultRecord] {
        &self.records
    }

    /// CES evaluations: September 1–21 on each Helios cluster, one
    /// cluster per rayon thread.
    pub fn ces_runs(&mut self) -> &[(String, CesEvaluation)] {
        if self.ces.is_none() {
            self.helios();
            let traces = self.helios.as_ref().unwrap();
            eprintln!(
                "[ctx] CES evaluation on {} clusters (parallel)...",
                traces.len()
            );
            let out: Vec<(String, CesEvaluation)> = traces
                .par_iter()
                .with_min_len(1)
                .map(|t| {
                    let series = node_series_from_trace(t, 600, Placement::Consolidate)
                        .expect("series replay on a valid trace");
                    let eval_start = t.calendar.month_start(5);
                    let eval_end = eval_start + 21 * SECS_PER_DAY;
                    let mut svc =
                        CesService::new(CesServiceConfig::default().scaled_to(t.spec.nodes));
                    (
                        t.spec.id.name().to_string(),
                        svc.evaluate(t, &series, eval_start, eval_end)
                            .expect("evaluation window within calendar"),
                    )
                })
                .collect();
            self.ces = Some(out);
        }
        self.ces.as_ref().unwrap()
    }

    /// CES evaluation on Philly: December 1–14 (scatter placement — Philly
    /// spread small jobs across nodes).
    pub fn ces_run_philly(&mut self) -> &(String, CesEvaluation) {
        if self.ces_philly.is_none() {
            let t = self.philly();
            eprintln!("[ctx] CES evaluation on Philly...");
            let series = node_series_from_trace(t, 600, Placement::Scatter)
                .expect("series replay on a valid trace");
            let eval_start = t.calendar.month_start(2);
            let eval_end = eval_start + 14 * SECS_PER_DAY;
            let mut svc = CesService::new(CesServiceConfig::default().scaled_to(t.spec.nodes));
            let eval = svc
                .evaluate(t, &series, eval_start, eval_end)
                .expect("evaluation window within calendar");
            self.ces_philly = Some(("Philly".into(), eval));
        }
        self.ces_philly.as_ref().unwrap()
    }
}

/// Every shipped scheduler-experiment policy, canonical column order. The
/// façade's [`SchedulePolicy`] builds each policy object; QSSF's comes
/// with priorities from its trained service (or the noisy oracle on
/// Philly).
const SHIPPED: [SchedulePolicy; 5] = [
    SchedulePolicy::Fifo,
    SchedulePolicy::Sjf,
    SchedulePolicy::Qssf,
    SchedulePolicy::Srtf,
    SchedulePolicy::Tiresias,
];

/// The shipped policy behind a label (case-insensitive).
fn shipped(label: &str) -> Option<SchedulePolicy> {
    SHIPPED
        .into_iter()
        .find(|p| p.label().eq_ignore_ascii_case(label))
}

/// Wrap a policy in the proactive-drain layer when `--policy drain:<inner>`
/// selected it. Without a trained predictor the wrapper runs the
/// uptime-threshold risk model at the configured MTBF — under the
/// aging-hazard Weibull default, "older than the mean time between
/// failures" is the natural drain trigger (a generous 30-day horizon when
/// no fault model is configured, where draining never fires in practice).
fn maybe_drain(
    inner: Box<dyn SchedulingPolicy>,
    faults: Option<&FaultConfig>,
    drain: bool,
) -> Box<dyn SchedulingPolicy> {
    if !drain {
        return inner;
    }
    let hours = faults.map_or(24.0 * 30.0, |f| f.mtbf_secs / 3600.0);
    Box::new(
        DrainPolicy::uptime(inner, hours, DrainConfig::default())
            .expect("positive uptime threshold"),
    )
}

/// Simulate one policy over one job set, under failure injection when a
/// fault model is given. Returns the policy's name (drain-wrapped runs
/// report the wrapper's `DRAIN+<inner>`) and the outcomes.
fn simulate_policy(
    spec: &helios_trace::ClusterSpec,
    jobs: &[SimJob],
    policy: Box<dyn SchedulingPolicy>,
    kcfg: &KernelConfig,
    faults: Option<&FaultConfig>,
) -> (String, Vec<JobOutcome>) {
    let name = policy.name().to_string();
    let outcomes = match faults {
        None => {
            simulate_with(spec, jobs, policy, kcfg)
                .expect("sim inputs pre-filtered")
                .outcomes
        }
        Some(f) => {
            let mut sim = Simulator::with_config(spec, policy, kcfg);
            sim.enable_faults(f)
                .expect("fault config validated upstream");
            sim.push_jobs(jobs).expect("sim inputs pre-filtered");
            sim.run_to_completion();
            sim.drain_outcomes()
        }
    };
    (name, outcomes)
}

/// Run the selected scheduling policies on one cluster's September jobs
/// through the pluggable kernel, one policy per rayon thread, with an
/// optional fault model (failure injection in every kernel) and optional
/// proactive-drain wrapping of each policy. `experiment` names the
/// records.
pub fn run_schedulers_with(
    trace: &Trace,
    policies: &[&'static str],
    faults: Option<&FaultConfig>,
    drain: bool,
    experiment: &str,
) -> SchedulerRun {
    let cal = &trace.calendar;
    let (lo, hi) = cal.month_range(5); // September
    let base = jobs_from_trace(trace, lo, hi);
    let kcfg = KernelConfig::default();
    let results: Vec<(&'static str, String, Vec<JobOutcome>)> = policies
        .par_iter()
        .with_min_len(1)
        .map(|&label| {
            let policy = shipped(label).expect("label validated by set_policy_choice");
            let scored;
            let jobs: &[SimJob] = if policy == SchedulePolicy::Qssf {
                // QSSF: train on April–August, score September causally.
                let mut qssf = QssfService::new(QssfConfig::default());
                qssf.train(trace, 0, lo).expect("training window non-empty");
                scored = qssf.assign_priorities(trace, lo, hi);
                &scored
            } else {
                &base
            };
            let policy = maybe_drain(policy.build(), faults, drain);
            let (name, outcomes) = simulate_policy(&trace.spec, jobs, policy, &kcfg, faults);
            (label, name, outcomes)
        })
        .collect();
    SchedulerRun::new(trace.spec.id.name().to_string(), experiment, results)
}

/// Labels of every shipped scheduler-experiment policy, canonical column
/// order.
pub const POLICIES: [&str; 5] = [
    SHIPPED[0].label(),
    SHIPPED[1].label(),
    SHIPPED[2].label(),
    SHIPPED[3].label(),
    SHIPPED[4].label(),
];

/// The paper's Fig. 11 / Table 3 policy set (the default): every shipped
/// policy except the follow-up Tiresias discipline.
pub const PAPER_POLICIES: [&str; 4] = ["FIFO", "SJF", "QSSF", "SRTF"];

// ---------------------------------------------------------------------------
// Characterization experiments (§3)
// ---------------------------------------------------------------------------

fn table1(ctx: &mut Context) -> ExperimentOutput {
    let traces = ctx.helios();
    let mut table = TextTable::new(vec!["", "Venus", "Earth", "Saturn", "Uranus", "Total"]);
    let row = |name: &str,
               f: &dyn Fn(&Trace) -> String,
               total: String,
               t: &mut TextTable,
               traces: &[Trace]| {
        let mut cells = vec![name.to_string()];
        cells.extend(traces.iter().map(f));
        cells.push(total);
        t.row(cells);
    };
    let sum_nodes: u32 = traces.iter().map(|t| t.spec.nodes).sum();
    let sum_gpus: u32 = traces.iter().map(|t| t.total_gpus()).sum();
    let sum_vcs: usize = traces.iter().map(|t| t.spec.num_vcs()).sum();
    let sum_jobs: u64 = traces.iter().map(|t| t.jobs.len() as u64).sum();
    row(
        "GPU model",
        &|t| t.spec.gpu_model.label().into(),
        "-".into(),
        &mut table,
        traces,
    );
    row(
        "Network",
        &|t| t.spec.network.into(),
        "-".into(),
        &mut table,
        traces,
    );
    row(
        "# of VCs",
        &|t| t.spec.num_vcs().to_string(),
        sum_vcs.to_string(),
        &mut table,
        traces,
    );
    row(
        "# of Nodes",
        &|t| t.spec.nodes.to_string(),
        sum_nodes.to_string(),
        &mut table,
        traces,
    );
    row(
        "# of GPUs",
        &|t| fmt_count(t.total_gpus() as u64),
        fmt_count(sum_gpus as u64),
        &mut table,
        traces,
    );
    row(
        "# of Jobs",
        &|t| fmt_count(t.jobs.len() as u64),
        fmt_count(sum_jobs),
        &mut table,
        traces,
    );
    let data = json!({
        "nodes": traces.iter().map(|t| t.spec.nodes).collect::<Vec<_>>(),
        "gpus": traces.iter().map(|t| t.total_gpus()).collect::<Vec<_>>(),
        "jobs": traces.iter().map(|t| t.jobs.len()).collect::<Vec<_>>(),
    });
    ExperimentOutput {
        id: "table1".into(),
        text: format!(
            "Table 1: cluster configurations (scale {})\n{}",
            ctx.cfg.scale,
            table.render()
        ),
        data,
    }
}

fn table2(ctx: &mut Context) -> ExperimentOutput {
    let helios_refs: Vec<&Trace> = ctx.helios().iter().collect();
    let h = jobs::summarize(&helios_refs);
    let p = jobs::summarize(&[ctx.philly()]);
    let mut table = TextTable::new(vec!["", "Helios", "Philly"]);
    table.row(vec![
        "# of clusters".to_string(),
        h.clusters.to_string(),
        p.clusters.to_string(),
    ]);
    table.row(vec![
        "# of VCs".to_string(),
        h.vcs.to_string(),
        p.vcs.to_string(),
    ]);
    table.row(vec![
        "# of Jobs".to_string(),
        fmt_count(h.jobs),
        fmt_count(p.jobs),
    ]);
    table.row(vec![
        "# of GPU Jobs".to_string(),
        fmt_count(h.gpu_jobs),
        fmt_count(p.gpu_jobs),
    ]);
    table.row(vec![
        "# of CPU Jobs".to_string(),
        fmt_count(h.cpu_jobs),
        fmt_count(p.cpu_jobs),
    ]);
    table.row(vec![
        "Duration (days)".to_string(),
        h.duration_days.to_string(),
        p.duration_days.to_string(),
    ]);
    table.row(vec![
        "Average # of GPUs".to_string(),
        format!("{:.2}", h.avg_gpus),
        format!("{:.2}", p.avg_gpus),
    ]);
    table.row(vec![
        "Maximum # of GPUs".to_string(),
        h.max_gpus.to_string(),
        p.max_gpus.to_string(),
    ]);
    table.row(vec![
        "Average Duration".to_string(),
        format!("{:.0}s", h.avg_duration_s),
        format!("{:.0}s", p.avg_duration_s),
    ]);
    table.row(vec![
        "Maximum Duration".to_string(),
        fmt_secs(h.max_duration_s as f64),
        fmt_secs(p.max_duration_s as f64),
    ]);
    ExperimentOutput {
        id: "table2".into(),
        text: format!(
            "Table 2: Helios vs Philly (paper: 3.72 vs 1.75 GPUs, 6652s vs 28329s)\n{}",
            table.render()
        ),
        data: json!({
            "helios": json!({"jobs": h.jobs, "avg_gpus": h.avg_gpus, "avg_duration": h.avg_duration_s}),
            "philly": json!({"jobs": p.jobs, "avg_gpus": p.avg_gpus, "avg_duration": p.avg_duration_s}),
        }),
    }
}

fn fig1(ctx: &mut Context) -> ExperimentOutput {
    let grid = Cdf::log_grid(1.0, 1.0e7, 15);
    let helios_durs: Vec<f64> = ctx
        .helios()
        .iter()
        .flat_map(|t| t.gpu_jobs().map(|j| j.duration as f64).collect::<Vec<_>>())
        .collect();
    let h_cdf = Cdf::new(helios_durs);
    let p_cdf = jobs::gpu_duration_cdf(ctx.philly());
    let mut table = TextTable::new(vec!["duration", "Helios CDF%", "Philly CDF%"]);
    for &x in &grid {
        table.row(vec![
            fmt_secs(x),
            format!("{:.1}", 100.0 * h_cdf.fraction_at(x)),
            format!("{:.1}", 100.0 * p_cdf.fraction_at(x)),
        ]);
    }
    let helios_refs: Vec<&Trace> = ctx.helios().iter().collect();
    let h_status = jobs::gpu_time_by_status(&helios_refs);
    let p_status = jobs::gpu_time_by_status(&[ctx.philly()]);
    let mut t2 = TextTable::new(vec!["GPU time %", "completed", "canceled", "failed"]);
    t2.row(vec![
        "Helios".to_string(),
        format!("{:.1}", h_status[0]),
        format!("{:.1}", h_status[1]),
        format!("{:.1}", h_status[2]),
    ]);
    t2.row(vec![
        "Philly".to_string(),
        format!("{:.1}", p_status[0]),
        format!("{:.1}", p_status[1]),
        format!("{:.1}", p_status[2]),
    ]);
    ExperimentOutput {
        id: "fig1".into(),
        text: format!(
            "Fig 1(a): GPU-job duration CDFs (Philly stochastically longer)\n{}\nFig 1(b): GPU time by final status (paper Helios 51.3/39.4/9.3, Philly 31.3/32.6/36.1)\n{}",
            table.render(),
            t2.render()
        ),
        data: json!({"helios_status": h_status, "philly_status": p_status}),
    }
}

fn fig2(ctx: &mut Context) -> ExperimentOutput {
    let patterns: Vec<clusters::DailyPattern> =
        ctx.helios().iter().map(clusters::daily_pattern).collect();
    let mut t1 = TextTable::new(vec!["hour", "Venus%", "Earth%", "Saturn%", "Uranus%"]);
    let mut t2 = TextTable::new(vec!["hour", "Venus", "Earth", "Saturn", "Uranus"]);
    for h in 0..24 {
        t1.row(vec![
            h.to_string(),
            format!("{:.1}", patterns[0].hourly_utilization[h]),
            format!("{:.1}", patterns[1].hourly_utilization[h]),
            format!("{:.1}", patterns[2].hourly_utilization[h]),
            format!("{:.1}", patterns[3].hourly_utilization[h]),
        ]);
        t2.row(vec![
            h.to_string(),
            format!("{:.1}", patterns[0].hourly_submissions[h]),
            format!("{:.1}", patterns[1].hourly_submissions[h]),
            format!("{:.1}", patterns[2].hourly_submissions[h]),
            format!("{:.1}", patterns[3].hourly_submissions[h]),
        ]);
    }
    let stds: Vec<String> = patterns
        .iter()
        .map(|p| format!("{}={:.1}%", p.cluster, p.utilization_std_dev))
        .collect();
    ExperimentOutput {
        id: "fig2".into(),
        text: format!(
            "Fig 2(a): hourly average utilization (paper band 65-90%, mild night dip)\n{}\nFig 2(b): hourly average GPU-job submissions (night/lunch/dinner troughs)\n{}\nHourly utilization std-dev: {}\n",
            t1.render(),
            t2.render(),
            stds.join(", ")
        ),
        data: json!({
            "utilization": patterns.iter().map(|p| p.hourly_utilization.clone()).collect::<Vec<_>>(),
            "submissions": patterns.iter().map(|p| p.hourly_submissions.clone()).collect::<Vec<_>>(),
        }),
    }
}

fn fig3(ctx: &mut Context) -> ExperimentOutput {
    let trends: Vec<clusters::MonthlyTrend> =
        ctx.helios().iter().map(clusters::monthly_trend).collect();
    let mut text = String::from("Fig 3: monthly trends (single-GPU fluctuates, multi-GPU stable; multi-GPU dominates utilization)\n");
    for tr in &trends {
        let mut t = TextTable::new(vec![
            "month",
            "1-GPU jobs",
            "multi jobs",
            "util%",
            "1-GPU util%",
            "multi util%",
        ]);
        for m in 0..tr.months.len() {
            t.row(vec![
                tr.months[m].clone(),
                fmt_count(tr.single_gpu_jobs[m]),
                fmt_count(tr.multi_gpu_jobs[m]),
                format!("{:.1}", tr.utilization[m]),
                format!("{:.1}", tr.single_gpu_utilization[m]),
                format!("{:.1}", tr.multi_gpu_utilization[m]),
            ]);
        }
        text.push_str(&format!(
            "\n{} (monthly avg-GPU-request std-dev {:.2}, paper 2.9):\n{}",
            tr.cluster,
            tr.monthly_avg_gpu_std_dev,
            t.render()
        ));
    }
    ExperimentOutput {
        id: "fig3".into(),
        text,
        data: json!(trends
            .iter()
            .map(|t| json!({
                "cluster": t.cluster.clone(),
                "single": t.single_gpu_jobs.clone(),
                "multi": t.multi_gpu_jobs.clone(),
                "util": t.utilization.clone(),
            }))
            .collect::<Vec<_>>()),
    }
}

fn fig4(ctx: &mut Context) -> ExperimentOutput {
    // Earth, May (month index 1), top-10 VCs — exactly the paper's window.
    let earth = &ctx.helios()[1];
    let behaviors = vc::vc_behaviors(earth, 1, 10);
    let (norm_dur, norm_qd) = vc::normalized_delay_series(&behaviors);
    let mut t = TextTable::new(vec![
        "VC",
        "GPUs",
        "util q1%",
        "med%",
        "q3%",
        "avg GPUs/job",
        "norm dur",
        "norm queue",
    ]);
    for (i, b) in behaviors.iter().enumerate() {
        t.row(vec![
            b.name.clone(),
            b.gpus.to_string(),
            format!("{:.1}", b.utilization.q1),
            format!("{:.1}", b.utilization.median),
            format!("{:.1}", b.utilization.q3),
            format!("{:.1}", b.avg_gpu_request),
            format!("{:.2}", norm_dur[i]),
            format!("{:.2}", norm_qd[i]),
        ]);
    }
    let util: Vec<f64> = behaviors.iter().map(|b| b.utilization.median).collect();
    let demand: Vec<f64> = behaviors.iter().map(|b| b.avg_gpu_request).collect();
    let r_util_demand = vc::pearson(&util, &demand);
    let r_dur_qd = vc::pearson(&norm_dur, &norm_qd);
    ExperimentOutput {
        id: "fig4".into(),
        text: format!(
            "Fig 4: top-10 VCs in Earth, May (paper: util correlates with GPU demand; queuing tracks duration)\n{}\ncorr(util, demand) = {:.2}   corr(duration, queuing) = {:.2}\n",
            t.render(), r_util_demand, r_dur_qd
        ),
        data: json!({"r_util_demand": r_util_demand, "r_dur_qd": r_dur_qd}),
    }
}

fn fig5(ctx: &mut Context) -> ExperimentOutput {
    let grid = Cdf::log_grid(1.0, 1.0e6, 13);
    let mut t1 = TextTable::new(vec!["duration", "Venus%", "Earth%", "Saturn%", "Uranus%"]);
    let mut t2 = TextTable::new(vec!["duration", "Venus%", "Earth%", "Saturn%", "Uranus%"]);
    let gpu: Vec<Cdf> = ctx.helios().iter().map(jobs::gpu_duration_cdf).collect();
    let cpu: Vec<Cdf> = ctx.helios().iter().map(jobs::cpu_duration_cdf).collect();
    for &x in &grid {
        t1.row(
            vec![fmt_secs(x)]
                .into_iter()
                .chain(
                    gpu.iter()
                        .map(|c| format!("{:.1}", 100.0 * c.fraction_at(x))),
                )
                .collect::<Vec<_>>(),
        );
        t2.row(
            vec![fmt_secs(x)]
                .into_iter()
                .chain(
                    cpu.iter()
                        .map(|c| format!("{:.1}", 100.0 * c.fraction_at(x))),
                )
                .collect::<Vec<_>>(),
        );
    }
    let medians: Vec<String> = gpu
        .iter()
        .zip(ctx.helios())
        .map(|(c, t)| format!("{}={:.0}s", t.spec.id, c.median()))
        .collect();
    ExperimentOutput {
        id: "fig5".into(),
        text: format!(
            "Fig 5(a): GPU-job duration CDFs (paper median ~206s)\n{}\nFig 5(b): CPU-job duration CDFs (>50% under 2s)\n{}\nGPU medians: {}\n",
            t1.render(), t2.render(), medians.join(", ")
        ),
        data: json!({"gpu_medians": gpu.iter().map(|c| c.median()).collect::<Vec<_>>()}),
    }
}

fn fig6(ctx: &mut Context) -> ExperimentOutput {
    let sizes = [1.0, 4.0, 8.0, 16.0, 32.0, 64.0, 2048.0];
    let mut t1 = TextTable::new(vec!["<=GPUs", "Venus%", "Earth%", "Saturn%", "Uranus%"]);
    let mut t2 = TextTable::new(vec!["<=GPUs", "Venus%", "Earth%", "Saturn%", "Uranus%"]);
    let pairs: Vec<_> = ctx.helios().iter().map(jobs::job_size_cdfs).collect();
    for &s in &sizes {
        t1.row(
            std::iter::once(format!("{s}"))
                .chain(
                    pairs
                        .iter()
                        .map(|(c, _)| format!("{:.1}", 100.0 * c.fraction_at(s))),
                )
                .collect::<Vec<_>>(),
        );
        t2.row(
            std::iter::once(format!("{s}"))
                .chain(
                    pairs
                        .iter()
                        .map(|(_, w)| format!("{:.1}", 100.0 * w.fraction_at(s))),
                )
                .collect::<Vec<_>>(),
        );
    }
    ExperimentOutput {
        id: "fig6".into(),
        text: format!(
            "Fig 6(a): job-size CDF by #jobs (>50% single-GPU; 90% in Earth)\n{}\nFig 6(b): job-size CDF by GPU time (>=8-GPU jobs own ~60%)\n{}",
            t1.render(), t2.render()
        ),
        data: json!({
            "single_share": pairs.iter().map(|(c, _)| c.fraction_at(1.0)).collect::<Vec<_>>(),
            "single_time_share": pairs.iter().map(|(_, w)| w.fraction_at(1.0)).collect::<Vec<_>>(),
        }),
    }
}

fn fig7(ctx: &mut Context) -> ExperimentOutput {
    let refs: Vec<&Trace> = ctx.helios().iter().collect();
    let (cpu, gpu) = jobs::status_by_job_class(&refs);
    let by_demand = jobs::status_by_gpu_demand(&refs);
    let mut t1 = TextTable::new(vec!["job type", "completed%", "canceled%", "failed%"]);
    t1.row(vec![
        "CPU".to_string(),
        format!("{:.1}", cpu[0]),
        format!("{:.1}", cpu[1]),
        format!("{:.1}", cpu[2]),
    ]);
    t1.row(vec![
        "GPU".to_string(),
        format!("{:.1}", gpu[0]),
        format!("{:.1}", gpu[1]),
        format!("{:.1}", gpu[2]),
    ]);
    let mut t2 = TextTable::new(vec!["GPU demand", "completed%", "canceled%", "failed%"]);
    for (i, label) in jobs::DEMAND_BUCKETS.iter().enumerate() {
        t2.row(vec![
            label.to_string(),
            format!("{:.1}", by_demand[i][0]),
            format!("{:.1}", by_demand[i][1]),
            format!("{:.1}", by_demand[i][2]),
        ]);
    }
    ExperimentOutput {
        id: "fig7".into(),
        text: format!(
            "Fig 7(a): final statuses (paper: CPU 90.9/3.0/6.1, GPU 62.4/22.1/15.5)\n{}\nFig 7(b): statuses by GPU demand (completion falls with size)\n{}",
            t1.render(), t2.render()
        ),
        data: json!({"cpu": cpu, "gpu": gpu, "by_demand": by_demand}),
    }
}

fn fig8(ctx: &mut Context) -> ExperimentOutput {
    let fractions = [0.01, 0.05, 0.10, 0.25, 0.50, 1.0];
    let mut t = TextTable::new(vec![
        "top users",
        "GPU-time% (V/E/S/U)",
        "CPU-time% (V/E/S/U)",
    ]);
    let stats: Vec<Vec<users::UserStats>> =
        ctx.helios().iter().map(users::per_user_stats).collect();
    let curves: Vec<_> = stats.iter().map(|s| users::consumption_curves(s)).collect();
    for &f in &fractions {
        let gpu: Vec<String> = curves
            .iter()
            .map(|(g, _)| format!("{:.0}", 100.0 * users::top_share(g, f)))
            .collect();
        let cpu: Vec<String> = curves
            .iter()
            .map(|(_, c)| format!("{:.0}", 100.0 * users::top_share(c, f)))
            .collect();
        t.row(vec![
            format!("{:.0}%", f * 100.0),
            gpu.join("/"),
            cpu.join("/"),
        ]);
    }
    let top5_gpu: Vec<f64> = curves
        .iter()
        .map(|(g, _)| users::top_share(g, 0.05))
        .collect();
    ExperimentOutput {
        id: "fig8".into(),
        text: format!(
            "Fig 8: resource concentration across users (paper: top-5% hold 45-60% GPU time, >90% CPU time)\n{}",
            t.render()
        ),
        data: json!({"top5_gpu_share": top5_gpu}),
    }
}

fn fig9(ctx: &mut Context) -> ExperimentOutput {
    let stats: Vec<Vec<users::UserStats>> =
        ctx.helios().iter().map(users::per_user_stats).collect();
    let mut t = TextTable::new(vec!["top users", "queue-delay% (V/E/S/U)"]);
    for f in [0.01, 0.05, 0.10, 0.25, 0.50] {
        let qs: Vec<String> = stats
            .iter()
            .map(|s| {
                format!(
                    "{:.0}",
                    100.0 * users::top_share(&users::queuing_curve(s), f)
                )
            })
            .collect();
        t.row(vec![format!("{:.0}%", f * 100.0), qs.join("/")]);
    }
    let mut t2 = TextTable::new(vec!["completion rate", "users (V/E/S/U)"]);
    let hists: Vec<Vec<u64>> = stats
        .iter()
        .map(|s| users::completion_rate_histogram(s, 10))
        .collect();
    for b in 0..10 {
        let us: Vec<String> = hists.iter().map(|h| h[b].to_string()).collect();
        t2.row(vec![format!("{}-{}%", b * 10, (b + 1) * 10), us.join("/")]);
    }
    ExperimentOutput {
        id: "fig9".into(),
        text: format!(
            "Fig 9(a): queueing concentration (a few 'marquee users' bear most waiting)\n{}\nFig 9(b): per-user GPU-job completion-rate histogram (generally low)\n{}",
            t.render(), t2.render()
        ),
        data: json!({"hists": hists}),
    }
}

// ---------------------------------------------------------------------------
// QSSF scheduling experiments (§4.2)
// ---------------------------------------------------------------------------

fn fig11(ctx: &mut Context) -> ExperimentOutput {
    let grid = Cdf::log_grid(1.0, 3.0e6, 12);
    let policies = ctx.policies.clone();
    let mut text = String::from(
        "Fig 11: JCT CDFs per cluster and policy (September; QSSF ~ SJF/SRTF >> FIFO)\n",
    );
    let mut data = serde_json::Map::new();
    for run in ctx.scheduler_runs() {
        let mut header = vec!["JCT".to_string()];
        header.extend(policies.iter().map(|p| format!("{p}%")));
        let mut t = TextTable::new(header);
        let cdfs: Vec<Cdf> = policies
            .iter()
            .map(|p| Cdf::new(helios_sim::jct_samples(&run.outcomes[p])))
            .collect();
        for &x in &grid {
            t.row(
                std::iter::once(fmt_secs(x))
                    .chain(
                        cdfs.iter()
                            .map(|c| format!("{:.1}", 100.0 * c.fraction_at(x))),
                    )
                    .collect::<Vec<_>>(),
            );
        }
        text.push_str(&format!("\n{}:\n{}", run.cluster, t.render()));
        data.insert(
            run.cluster.clone(),
            json!(cdfs.iter().map(|c| c.median()).collect::<Vec<_>>()),
        );
    }
    ExperimentOutput {
        id: "fig11".into(),
        text,
        data: serde_json::Value::Object(data),
    }
}

fn per_vc_table(
    run: &SchedulerRun,
    trace: Option<&Trace>,
    top_k: usize,
    policies: &[&'static str],
) -> (String, serde_json::Value) {
    // Top-k VCs by the reference policy's (FIFO when present) average
    // queue delay.
    let reference = policies
        .iter()
        .find(|&&p| p == "FIFO")
        .or_else(|| policies.first())
        .expect("at least one policy selected");
    let ref_delay = per_vc_queue_delay(&run.outcomes[reference]);
    let mut vcs: Vec<(u16, f64)> = ref_delay.iter().map(|(&v, &d)| (v, d)).collect();
    vcs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    vcs.truncate(top_k);
    let per_policy: BTreeMap<&str, BTreeMap<u16, f64>> = policies
        .iter()
        .map(|&p| (p, per_vc_queue_delay(&run.outcomes[p])))
        .collect();
    let mut header = vec!["VC"];
    header.extend(policies);
    let mut t = TextTable::new(header);
    for &(vc, _) in &vcs {
        let name = trace
            .map(|tr| tr.spec.vcs[vc as usize].name.clone())
            .unwrap_or_else(|| format!("vc{vc}"));
        t.row(
            std::iter::once(name)
                .chain(
                    policies
                        .iter()
                        .map(|&p| fmt_secs(per_policy[p].get(&vc).copied().unwrap_or(0.0))),
                )
                .collect::<Vec<_>>(),
        );
    }
    // Whole-cluster row.
    t.row(
        std::iter::once("all".to_string())
            .chain(
                policies
                    .iter()
                    .map(|&p| fmt_secs(schedule_stats(&run.outcomes[p]).avg_queue_delay)),
            )
            .collect::<Vec<_>>(),
    );
    let data = json!(vcs
        .iter()
        .map(|(v, d)| json!({"vc": v, "reference_delay": d}))
        .collect::<Vec<_>>());
    (t.render(), data)
}

fn fig12(ctx: &mut Context) -> ExperimentOutput {
    ctx.scheduler_runs();
    let policies = ctx.policies.clone();
    let trace_saturn = ctx.helios.as_ref().unwrap()[2].clone();
    let run = &ctx.sched.as_ref().unwrap()[2]; // Saturn
    let (text, data) = per_vc_table(run, Some(&trace_saturn), 10, &policies);
    ExperimentOutput {
        id: "fig12".into(),
        text: format!(
            "Fig 12: average queue delay of the top-10 VCs in Saturn (QSSF ~ SJF)\n{text}"
        ),
        data,
    }
}

fn fig13(ctx: &mut Context) -> ExperimentOutput {
    let policies = ctx.policies.clone();
    let run = ctx.scheduler_run_philly();
    let (text, data) = per_vc_table(run, None, 10, &policies);
    ExperimentOutput {
        id: "fig13".into(),
        text: format!(
            "Fig 13: average queue delay of the top-10 VCs in Philly (noisy-oracle QSSF)\n{text}"
        ),
        data,
    }
}

fn table3(ctx: &mut Context) -> ExperimentOutput {
    ctx.scheduler_runs();
    ctx.scheduler_run_philly();
    let policies = ctx.policies.clone();
    let runs: Vec<&SchedulerRun> = ctx
        .sched
        .as_ref()
        .unwrap()
        .iter()
        .chain(std::iter::once(ctx.sched_philly.as_ref().unwrap()))
        .collect();
    let mut text = String::from("Table 3: scheduler comparison (paper: QSSF ~ SJF, 1.5-6.5x JCT and 4.8-20.2x queue-delay gains over FIFO)\n");
    let mut data = serde_json::Map::new();
    for metric in [
        "Average JCT (s)",
        "Average Queuing Time (s)",
        "# of Queuing Jobs",
    ] {
        let mut t = TextTable::new(vec![
            "policy", "Venus", "Earth", "Saturn", "Uranus", "Philly",
        ]);
        for &p in &policies {
            let cells: Vec<String> = runs
                .iter()
                .map(|r| {
                    let s = schedule_stats(&r.outcomes[p]);
                    match metric {
                        "Average JCT (s)" => format!("{:.0}", s.avg_jct),
                        "Average Queuing Time (s)" => format!("{:.0}", s.avg_queue_delay),
                        _ => fmt_count(s.queued_jobs),
                    }
                })
                .collect();
            t.row(
                std::iter::once(p.to_string())
                    .chain(cells)
                    .collect::<Vec<_>>(),
            );
        }
        text.push_str(&format!("\n{metric}:\n{}", t.render()));
    }
    // Headline improvements (needs both FIFO and QSSF in the selection).
    if policies.contains(&"FIFO") && policies.contains(&"QSSF") {
        let mut improvements = Vec::new();
        for r in &runs {
            let fifo = schedule_stats(&r.outcomes["FIFO"]);
            let qssf = schedule_stats(&r.outcomes["QSSF"]);
            improvements.push(format!(
                "{}: JCT x{:.1}, queue x{:.1}",
                r.cluster,
                fifo.avg_jct / qssf.avg_jct.max(1.0),
                fifo.avg_queue_delay / qssf.avg_queue_delay.max(1.0)
            ));
            data.insert(
                r.cluster.clone(),
                json!({
                    "jct_gain": fifo.avg_jct / qssf.avg_jct.max(1.0),
                    "queue_gain": fifo.avg_queue_delay / qssf.avg_queue_delay.max(1.0),
                }),
            );
        }
        text.push_str(&format!("\nQSSF vs FIFO: {}\n", improvements.join("; ")));
    }
    ExperimentOutput {
        id: "table3".into(),
        text,
        data: serde_json::Value::Object(data),
    }
}

fn table4(ctx: &mut Context) -> ExperimentOutput {
    ctx.scheduler_runs();
    ctx.scheduler_run_philly();
    if !ctx.policies.contains(&"FIFO") || !ctx.policies.contains(&"QSSF") {
        return ExperimentOutput {
            id: "table4".into(),
            text: "Table 4 needs both FIFO and QSSF; rerun with --policy all (or no --policy)\n"
                .into(),
            data: json!(null),
        };
    }
    let runs: Vec<&SchedulerRun> = ctx
        .sched
        .as_ref()
        .unwrap()
        .iter()
        .chain(std::iter::once(ctx.sched_philly.as_ref().unwrap()))
        .collect();
    let mut t = TextTable::new(vec![
        "group", "Venus", "Earth", "Saturn", "Uranus", "Philly",
    ]);
    let mut ratios_all = Vec::new();
    for g in 0..3 {
        let cells: Vec<String> = runs
            .iter()
            .map(|r| {
                let ratios = group_delay_ratios(&r.outcomes["FIFO"], &r.outcomes["QSSF"]);
                format!("{:.2}", ratios[g])
            })
            .collect();
        ratios_all.push(cells.clone());
        t.row(
            std::iter::once(helios_sim::DURATION_GROUPS[g].to_string())
                .chain(cells)
                .collect::<Vec<_>>(),
        );
    }
    ExperimentOutput {
        id: "table4".into(),
        text: format!(
            "Table 4: FIFO/QSSF queue-delay ratio by duration group (paper: short 9.2-33.5x, long 1.7-4.8x; all groups gain)\n{}",
            t.render()
        ),
        data: json!(ratios_all),
    }
}

// ---------------------------------------------------------------------------
// CES experiments (§4.3)
// ---------------------------------------------------------------------------

fn node_state_figure(name: &str, eval: &CesEvaluation, days: usize) -> String {
    // Daily-resolution summary of the Fig 14/15 series.
    let bins_per_day = (86_400 / eval.series.bin) as usize;
    let mut t = TextTable::new(vec!["day", "running", "prediction", "active(CES)", "total"]);
    for d in 0..days {
        let lo = d * bins_per_day;
        let hi = ((d + 1) * bins_per_day).min(eval.series.len());
        if lo >= hi {
            break;
        }
        let avg = |v: &[f64]| v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        // Forecast[t] targets t+h; align by shifting back h bins.
        let h = 18usize;
        let pred_lo = lo.saturating_sub(h);
        let pred_hi = hi
            .saturating_sub(h)
            .max(pred_lo + 1)
            .min(eval.forecast.len());
        let pred = if pred_lo < pred_hi {
            eval.forecast[pred_lo..pred_hi].iter().sum::<f64>() / (pred_hi - pred_lo) as f64
        } else {
            f64::NAN
        };
        t.row(vec![
            (d + 1).to_string(),
            format!("{:.1}", avg(&eval.series.running)),
            format!("{:.1}", pred),
            format!("{:.1}", avg(&eval.guided.active)),
            eval.series.total_nodes.to_string(),
        ]);
    }
    format!("{name}:\n{}", t.render())
}

fn fig14(ctx: &mut Context) -> ExperimentOutput {
    let (name, eval) = &ctx.ces_runs()[1]; // Earth
    let text = format!(
        "Fig 14: node states in Earth, Sep 1-21 (running vs prediction vs CES-active vs total)\n{}\nforecast SMAPE {:.2}% (paper ~3.6%)\n",
        node_state_figure(name, eval, 21),
        eval.smape
    );
    ExperimentOutput {
        id: "fig14".into(),
        text,
        data: json!({"smape": eval.smape, "avg_drs": eval.guided.avg_drs_nodes()}),
    }
}

fn fig15(ctx: &mut Context) -> ExperimentOutput {
    let (name, eval) = ctx.ces_run_philly().clone();
    let text = format!(
        "Fig 15: node states in Philly, Dec 1-14\n{}\nforecast SMAPE {:.2}%\n",
        node_state_figure(&name, &eval, 14),
        eval.smape
    );
    ExperimentOutput {
        id: "fig15".into(),
        text,
        data: json!({"smape": eval.smape, "avg_drs": eval.guided.avg_drs_nodes()}),
    }
}

fn table5(ctx: &mut Context) -> ExperimentOutput {
    ctx.ces_runs();
    ctx.ces_run_philly();
    let evals: Vec<&(String, CesEvaluation)> = ctx
        .ces
        .as_ref()
        .unwrap()
        .iter()
        .chain(std::iter::once(ctx.ces_philly.as_ref().unwrap()))
        .collect();
    let mut t = TextTable::new(vec!["", "Venus", "Earth", "Saturn", "Uranus", "Philly"]);
    let row = |label: &str, f: &dyn Fn(&CesEvaluation) -> String, t: &mut TextTable| {
        t.row(
            std::iter::once(label.to_string())
                .chain(evals.iter().map(|(_, e)| f(e)))
                .collect::<Vec<_>>(),
        );
    };
    row(
        "Average # of DRS nodes",
        &|e| format!("{:.1}", e.guided.avg_drs_nodes()),
        &mut t,
    );
    row(
        "Daily wake-ups",
        &|e| format!("{:.1}", e.guided.daily_wakeups()),
        &mut t,
    );
    row(
        "Woken nodes per wake-up",
        &|e| format!("{:.1}", e.guided.avg_woken_per_wakeup()),
        &mut t,
    );
    row(
        "Node utilization (orig) %",
        &|e| format!("{:.1}", 100.0 * e.guided.baseline_utilization()),
        &mut t,
    );
    row(
        "Node utilization (CES) %",
        &|e| format!("{:.1}", 100.0 * e.guided.utilization_with_drs()),
        &mut t,
    );
    row(
        "Vanilla daily wake-ups",
        &|e| format!("{:.1}", e.vanilla.daily_wakeups()),
        &mut t,
    );
    row(
        "Affected jobs (approx)",
        &|e| format!("{:.0}", e.guided.affected_jobs),
        &mut t,
    );
    row("Forecast SMAPE %", &|e| format!("{:.2}", e.smape), &mut t);

    // Energy headline across the four Helios clusters.
    let helios_saved: f64 = evals[..4]
        .iter()
        .map(|(_, e)| {
            let window = e.series.len() as f64 * e.series.bin as f64;
            annualize(energy_saved_kwh(e.guided.drs_node_seconds), window)
        })
        .sum();
    let text = format!(
        "Table 5: CES performance (paper: +3.5..13 pts utilization, 1.1-2.6 daily wakeups vs ~34 vanilla)\n{}\nAnnualized Helios savings: {:.2} million kWh (paper: >1.65M kWh at full scale)\n",
        t.render(),
        helios_saved / 1.0e6
    );
    ExperimentOutput {
        id: "table5".into(),
        text,
        data: json!({"annual_kwh": helios_saved}),
    }
}

// ---------------------------------------------------------------------------
// Predictor quality & ablations
// ---------------------------------------------------------------------------

fn pred_qssf(ctx: &mut Context) -> ExperimentOutput {
    use helios_predict::features::job::{build_training_matrix, FEATURE_NAMES, NUM_FEATURES};
    use helios_predict::gbdt::Gbdt;
    let mut text = String::from("QSSF duration-prediction quality (train Apr-Aug, test Sep; log-space RMSE vs constant baseline)\n");
    let mut t = TextTable::new(vec![
        "cluster",
        "jobs",
        "model RMSE",
        "rolling-only RMSE",
        "constant RMSE",
    ]);
    let mut data = serde_json::Map::new();
    let traces: Vec<Trace> = ctx.helios().to_vec();
    for trace in &traces {
        let (lo, hi) = trace.calendar.month_range(5);
        let mut merged = QssfService::new(QssfConfig::default());
        merged
            .train(trace, 0, lo)
            .expect("training window non-empty");
        let scored = merged.assign_priorities(trace, lo, hi);
        let mut rolling_only = QssfService::new(QssfConfig {
            lambda: 1.0,
            ..Default::default()
        });
        rolling_only
            .train(trace, 0, lo)
            .expect("training window non-empty");
        let scored_r = rolling_only.assign_priorities(trace, lo, hi);
        let actual: Vec<f64> = scored.iter().map(|s| (s.duration as f64).ln()).collect();
        let to_log = |sims: &[SimJob]| -> Vec<f64> {
            sims.iter()
                .map(|s| (s.priority / s.gpus as f64).max(1.0).ln())
                .collect()
        };
        let mean = actual.iter().sum::<f64>() / actual.len() as f64;
        let rm = helios_predict::metrics::rmse(&actual, &to_log(&scored));
        let rr = helios_predict::metrics::rmse(&actual, &to_log(&scored_r));
        let rc = helios_predict::metrics::rmse(&actual, &vec![mean; actual.len()]);
        t.row(vec![
            trace.spec.id.name().to_string(),
            fmt_count(scored.len() as u64),
            format!("{rm:.3}"),
            format!("{rr:.3}"),
            format!("{rc:.3}"),
        ]);
        data.insert(
            trace.spec.id.name().into(),
            json!({"model": rm, "constant": rc}),
        );
    }
    text.push_str(&t.render());

    // Which attributes carry the signal (split-frequency importance on
    // Venus): the paper's premise is that name/user history dominates.
    let venus = &traces[0];
    let (cols, targets, _) = build_training_matrix(venus, 0, venus.calendar.month_end(4));
    let model = Gbdt::fit(&cols, &targets, &QssfConfig::default().gbdt, None);
    let mut imp: Vec<(usize, f64)> = model
        .feature_importance(NUM_FEATURES)
        .into_iter()
        .enumerate()
        .collect();
    imp.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    text.push_str("\nTop GBDT features (Venus):\n");
    for (f, w) in imp.iter().take(6) {
        text.push_str(&format!("  {:<20} {:.1}%\n", FEATURE_NAMES[*f], 100.0 * w));
    }
    ExperimentOutput {
        id: "pred-qssf".into(),
        text,
        data: serde_json::Value::Object(data),
    }
}

fn pred_ces(ctx: &mut Context) -> ExperimentOutput {
    // Earth node series; compare GBDT vs ARIMA vs Fourier(Prophet) vs LSTM
    // vs seasonal naive at a 3h horizon.
    let earth = ctx.helios()[1].clone();
    let series = node_series_from_trace(&earth, 600, Placement::Consolidate)
        .expect("series replay on a valid trace");
    let cal = &earth.calendar;
    let cfg = SeriesFeatureConfig::default_10min();
    let h = cfg.horizon;
    let split = (series.len() * 4) / 5;
    let values = &series.running;

    // Actual targets over the test region.
    let test_idx: Vec<usize> = (split..series.len() - h).collect();
    let actual: Vec<f64> = test_idx.iter().map(|&i| values[i + h]).collect();

    // GBDT (the CES service forecaster).
    let mut svc = CesService::new(CesServiceConfig::default().scaled_to(earth.spec.nodes));
    svc.train(&series, cal, split)
        .expect("training series long enough");
    let gbdt_pred = svc
        .forecast(&series, cal, split, series.len() - h)
        .expect("model trained above");

    // ARIMA(12, 1) refit once on the training prefix; rolling 1-origin
    // forecasts.
    let arima = Arima::fit(&values[..split], 12, 1);
    let arima_pred: Vec<f64> = test_idx
        .iter()
        .map(|&i| *arima.forecast(&values[..=i], h).last().unwrap())
        .collect();

    // Fourier/Prophet-style.
    let fourier = FourierForecaster::fit(
        &values[..split],
        series.t0,
        series.bin,
        cal,
        FourierParams::default(),
    );
    let fourier_pred: Vec<f64> = test_idx
        .iter()
        .map(|&i| fourier.predict_at(series.t0 + series.bin * (i + h) as i64, cal))
        .collect();

    // LSTM.
    let lstm = LstmForecaster::fit(
        &values[..split],
        LstmParams {
            hidden: 16,
            seq_len: 72,
            horizon: h,
            epochs: 12,
            learning_rate: 0.01,
            max_windows: 1_200,
            seed: 5,
        },
    );
    let lstm_pred = lstm.forecast_at(values, &test_idx);

    // Seasonal naive (same time yesterday).
    let period = (86_400 / series.bin) as usize;
    let naive_pred: Vec<f64> = test_idx
        .iter()
        .map(|&i| seasonal_naive(&values[..=i], period, h)[h - 1])
        .collect();

    let mut t = TextTable::new(vec!["model", "SMAPE %"]);
    let entries = [
        ("GBDT (ours)", smape(&actual, &gbdt_pred)),
        ("ARIMA(12,1)", smape(&actual, &arima_pred)),
        ("Fourier/Prophet", smape(&actual, &fourier_pred)),
        ("LSTM", smape(&actual, &lstm_pred)),
        ("Seasonal naive", smape(&actual, &naive_pred)),
    ];
    for (name, v) in &entries {
        t.row(vec![name.to_string(), format!("{v:.2}")]);
    }
    ExperimentOutput {
        id: "pred-ces".into(),
        text: format!(
            "CES forecaster comparison on Earth node series, 3h horizon (paper: GBDT best, ~3.6% SMAPE)\n{}",
            t.render()
        ),
        data: json!(entries.iter().map(|(n, v)| json!({"model": n, "smape": v})).collect::<Vec<_>>()),
    }
}

fn ablation_lambda(ctx: &mut Context) -> ExperimentOutput {
    // Sweep the Algorithm-1 merge coefficient on Venus.
    let venus = ctx.helios()[0].clone();
    let (lo, hi) = venus.calendar.month_range(5);
    let mut t = TextTable::new(vec!["lambda", "avg JCT (s)", "avg queue (s)"]);
    let mut best = (f64::NAN, f64::INFINITY);
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut svc = QssfService::new(QssfConfig {
            lambda,
            ..Default::default()
        });
        svc.train(&venus, 0, lo).expect("training window non-empty");
        let scored = svc.assign_priorities(&venus, lo, hi);
        let stats = schedule_stats(
            &simulate_with(
                &venus.spec,
                &scored,
                Policy::Priority.build(),
                &KernelConfig::default(),
            )
            .expect("sim inputs pre-filtered")
            .outcomes,
        );
        if stats.avg_jct < best.1 {
            best = (lambda, stats.avg_jct);
        }
        t.row(vec![
            format!("{lambda:.2}"),
            format!("{:.0}", stats.avg_jct),
            format!("{:.0}", stats.avg_queue_delay),
        ]);
    }
    ExperimentOutput {
        id: "ablation-lambda".into(),
        text: format!(
            "Ablation: Algorithm-1 merge coefficient lambda on Venus (best {:.2})\n{}",
            best.0,
            t.render()
        ),
        data: json!({"best_lambda": best.0}),
    }
}

fn ablation_backfill(ctx: &mut Context) -> ExperimentOutput {
    // QSSF with and without EASY backfill on Venus (paper future work).
    let venus = ctx.helios()[0].clone();
    let (lo, hi) = venus.calendar.month_range(5);
    let mut svc = QssfService::new(QssfConfig::default());
    svc.train(&venus, 0, lo).expect("training window non-empty");
    let scored = svc.assign_priorities(&venus, lo, hi);
    let mut t = TextTable::new(vec!["config", "avg JCT (s)", "avg queue (s)", "# queued"]);
    let mut data = serde_json::Map::new();
    for (label, backfill) in [("QSSF", false), ("QSSF+backfill", true)] {
        let cfg = KernelConfig {
            placement: Placement::Consolidate,
            backfill,
        };
        let stats = schedule_stats(
            &simulate_with(&venus.spec, &scored, Policy::Priority.build(), &cfg)
                .expect("sim inputs pre-filtered")
                .outcomes,
        );
        t.row(vec![
            label.to_string(),
            format!("{:.0}", stats.avg_jct),
            format!("{:.0}", stats.avg_queue_delay),
            fmt_count(stats.queued_jobs),
        ]);
        data.insert(label.into(), json!(stats.avg_jct));
    }
    ExperimentOutput {
        id: "ablation-backfill".into(),
        text: format!(
            "Ablation: EASY backfill on top of QSSF (Venus, September)\n{}",
            t.render()
        ),
        data: serde_json::Value::Object(data),
    }
}

/// `fleet-soak`: the scheduler-as-a-service soak. All five presets are
/// hosted concurrently by one [`helios_fleet::Fleet`]; 100k jobs stream
/// through the sharded per-VC ingestion queues in waves while live
/// status queries are answered between admission cycles. Each cluster's
/// outcome digest is the determinism pin.
fn fleet_soak(ctx: &mut Context) -> Result<ExperimentOutput, HeliosError> {
    use helios_fleet::{Fleet, FleetConfig};

    const WAVES: usize = 40;
    const JOBS_PER_CLUSTER_PER_WAVE: usize = 500; // 5 clusters x 40 x 500 = 100k
    const WAVE_SECS: i64 = 360;
    const POLICY: Policy = Policy::Fifo;

    eprintln!(
        "[ctx] fleet soak: 5 concurrent clusters, {} streamed jobs each...",
        WAVES * JOBS_PER_CLUSTER_PER_WAVE
    );
    let fleet = Fleet::launch(&FleetConfig::all_presets(POLICY))?;
    let clusters = fleet.clusters();
    let mut nvcs = Vec::with_capacity(clusters.len());
    for &c in &clusters {
        nvcs.push(fleet.status(c)?.vcs.len());
    }

    let mut queries = 0u64;
    let mut next_id = 0u64;
    for wave in 0..WAVES {
        let floor = wave as i64 * WAVE_SECS;
        for (ci, &cluster) in clusters.iter().enumerate() {
            for k in 0..JOBS_PER_CLUSTER_PER_WAVE {
                let job = SimJob {
                    id: next_id,
                    vc: ((k + wave) % nvcs[ci]) as u16,
                    gpus: 1 + (k as u32 % 2),
                    submit: floor,
                    duration: 60 + (k as i64 % 11) * 30,
                    priority: 0.0,
                };
                match fleet.submit(cluster, job) {
                    Ok(()) => {}
                    Err(HeliosError::FleetOverflow { .. }) => {
                        // Backpressure: run one admission cycle, retry.
                        fleet.advance_cluster(cluster, floor)?;
                        fleet.submit(cluster, job)?;
                    }
                    Err(e) => return Err(e),
                }
                next_id += 1;
            }
        }
        fleet.advance((wave as i64 + 1) * WAVE_SECS)?;
        // Live reads between admission cycles — the query-path half of
        // the soak.
        for &cluster in &clusters {
            let status = fleet.status(cluster)?;
            queries += 1;
            if status.pending_ingest != 0 {
                return Err(HeliosError::invalid_config(
                    "fleet_soak",
                    "an admission cycle left jobs in the ingestion shards",
                ));
            }
        }
    }
    let per_cluster = fleet.shutdown()?;
    let submitted = next_id;

    let policy = format!("{POLICY:?}").to_uppercase();
    let mut table = TextTable::new(vec!["cluster", "jobs", "outcome digest"]);
    let mut rows_json = Vec::new();
    for (cluster, mut outcomes) in per_cluster {
        outcomes.sort_by_key(|o| o.id);
        if outcomes.len() != submitted as usize / clusters.len() {
            return Err(HeliosError::invalid_config(
                "fleet_soak",
                format!(
                    "{}: {} outcomes for {} submissions",
                    cluster.name(),
                    outcomes.len(),
                    submitted as usize / clusters.len()
                ),
            ));
        }
        let record = ResultRecord::new(&ctx.experiment, cluster.name(), &policy, &outcomes);
        table.row(vec![
            record.cluster.clone(),
            fmt_count(record.jobs as u64),
            record.digest.clone(),
        ]);
        rows_json.push(record.to_json());
        ctx.records.push(record);
    }

    let text = format!(
        "Fleet soak: {} jobs streamed across {} concurrent clusters, \
         {} live status queries between admission cycles\n{}",
        submitted,
        clusters.len(),
        queries,
        table.render()
    );
    let data = json!({
        "submitted": submitted,
        "clusters": clusters.len(),
        "queries": queries,
        "per_cluster": rows_json,
    });
    Ok(ExperimentOutput {
        id: "fleet-soak".into(),
        text,
        data,
    })
}

/// `fleet-chaos`: the self-healing soak. Two presets (Venus/FIFO and
/// Saturn/SRTF) are hosted by one fleet with per-cycle auto-checkpointing
/// while a deterministic chaos schedule panics each worker three times
/// mid-stream and corrupts a checkpoint generation, so one recovery is
/// forced through the corrupt-newest fall-back path. An identical
/// chaos-free twin fleet runs the same job stream; the experiment fails
/// (typed error, never a panic) unless every cluster's recovered outcome
/// digest matches its uninterrupted twin bit for bit. Each cluster's
/// record carries its restarts, fallbacks and checkpoint writes.
fn fleet_chaos(ctx: &mut Context) -> Result<ExperimentOutput, HeliosError> {
    use helios_fleet::{ChaosConfig, CheckpointConfig, ClusterConfig, Fleet, FleetConfig};
    use helios_trace::ClusterId;

    const WAVES: usize = 10;
    const JOBS_PER_CLUSTER_PER_WAVE: usize = 400;
    const WAVE_SECS: i64 = 600;
    /// Injected panic points, in per-worker kernel-event counts. Each
    /// wave is 400 jobs and every job contributes exactly three events
    /// on these uncontended presets (submit/start/finish; durations are
    /// all shorter than a wave), so cycle `k` ends at `1200·k` events:
    /// the first point fires in admission cycle 2 — while the corrupted
    /// generation 1 is the newest checkpoint, forcing a fall-back to
    /// generation 0 — and the other two fire in cycles 5 and 8 as plain
    /// restore-and-replay restarts.
    const PANIC_EVENTS: [u64; 3] = [1_250, 5_000, 9_500];
    /// The auto-checkpoint generation the chaos schedule bit-flips
    /// (post-recovery re-baselines are never corrupted, so a clean
    /// generation always remains in the ring).
    const CORRUPT_GENERATION: u64 = 1;

    let hosted = [
        (ClusterId::Venus, Policy::Fifo),
        (ClusterId::Saturn, Policy::Srtf),
    ];
    eprintln!(
        "[ctx] fleet chaos: {} clusters, {} streamed jobs each, {} injected panics per worker...",
        hosted.len(),
        WAVES * JOBS_PER_CLUSTER_PER_WAVE,
        PANIC_EVENTS.len(),
    );

    let topology = |chaos: Option<ChaosConfig>| {
        let mut cfg = FleetConfig::new()
            .with_checkpoint(CheckpointConfig::default().every_cycles(1).generations(4));
        for &(cluster, policy) in &hosted {
            cfg = cfg.with_cluster(ClusterConfig::new(cluster, policy));
        }
        match chaos {
            Some(c) => cfg.with_chaos(c),
            None => cfg,
        }
    };
    // The same deterministic stream both fleets consume: submit a wave,
    // run one admission cycle to its horizon, repeat.
    let stream = |fleet: &Fleet| -> Result<(), HeliosError> {
        let clusters = fleet.clusters();
        let mut nvcs = Vec::with_capacity(clusters.len());
        for &c in &clusters {
            nvcs.push(fleet.status(c)?.vcs.len().max(1));
        }
        let mut next_id = 0u64;
        for wave in 0..WAVES {
            let floor = wave as i64 * WAVE_SECS;
            for (ci, &cluster) in clusters.iter().enumerate() {
                for k in 0..JOBS_PER_CLUSTER_PER_WAVE {
                    let job = SimJob {
                        id: next_id,
                        vc: ((k + wave) % nvcs[ci]) as u16,
                        gpus: 1 + (k as u32 % 2),
                        submit: floor,
                        duration: 30 + (k as i64 % 7) * 60,
                        priority: 0.0,
                    };
                    match fleet.submit(cluster, job) {
                        Ok(()) => {}
                        Err(HeliosError::FleetOverflow { .. }) => {
                            fleet.advance_cluster(cluster, floor)?;
                            fleet.submit(cluster, job)?;
                        }
                        Err(e) => return Err(e),
                    }
                    next_id += 1;
                }
            }
            fleet.advance((wave as i64 + 1) * WAVE_SECS)?;
        }
        Ok(())
    };
    let sorted = |per_cluster: Vec<(ClusterId, Vec<JobOutcome>)>| {
        per_cluster
            .into_iter()
            .map(|(cluster, mut outcomes)| {
                outcomes.sort_by_key(|o| o.id);
                (cluster, outcomes)
            })
            .collect::<Vec<_>>()
    };

    let mut chaos = ChaosConfig::seeded(ctx.cfg.seed).corrupt_generation(CORRUPT_GENERATION);
    for &at in &PANIC_EVENTS {
        chaos = chaos.panic_at(at);
    }
    let fleet = Fleet::launch(&topology(Some(chaos)))?;
    stream(&fleet)?;
    let health: Vec<_> = fleet
        .statuses()
        .into_iter()
        .map(|s| (s.cluster, s.health))
        .collect();
    let chaos_outcomes = sorted(fleet.shutdown()?);

    let twin = Fleet::launch(&topology(None))?;
    stream(&twin)?;
    let twin_outcomes = sorted(twin.shutdown()?);

    let mut table = TextTable::new(vec![
        "cluster",
        "policy",
        "jobs",
        "restarts",
        "fallbacks",
        "ckpts",
        "digest",
    ]);
    let mut rows_json = Vec::new();
    for (i, &(cluster, policy)) in hosted.iter().enumerate() {
        let (hc, h) = health[i];
        let (cc, outcomes) = &chaos_outcomes[i];
        let (tc, twin) = &twin_outcomes[i];
        if hc != cluster || *cc != cluster || *tc != cluster {
            return Err(HeliosError::invalid_config(
                "fleet_chaos",
                "shutdown outcome order does not match the hosted topology",
            ));
        }
        if h.restarts < PANIC_EVENTS.len() as u32 {
            return Err(HeliosError::invalid_config(
                "fleet_chaos",
                format!(
                    "{}: only {} of {} injected panics forced a restart",
                    cluster.name(),
                    h.restarts,
                    PANIC_EVENTS.len()
                ),
            ));
        }
        if h.fallbacks == 0 {
            return Err(HeliosError::invalid_config(
                "fleet_chaos",
                format!(
                    "{}: the corrupted generation never forced a fall-back",
                    cluster.name()
                ),
            ));
        }
        let (digest, twin_digest) = (outcome_digest(outcomes), outcome_digest(twin));
        if digest != twin_digest {
            return Err(HeliosError::invalid_config(
                "fleet_chaos",
                format!(
                    "{}: recovered digest {} != uninterrupted {}",
                    cluster.name(),
                    digest,
                    twin_digest
                ),
            ));
        }
        let policy = format!("{policy:?}").to_uppercase();
        let record = ResultRecord::new(&ctx.experiment, cluster.name(), &policy, outcomes)
            .metric("restarts", h.restarts)
            .metric("fallbacks", h.fallbacks)
            .metric("checkpoint_writes", h.checkpoint_writes);
        table.row(vec![
            record.cluster.clone(),
            record.policy.clone(),
            fmt_count(record.jobs as u64),
            h.restarts.to_string(),
            h.fallbacks.to_string(),
            h.checkpoint_writes.to_string(),
            record.digest.clone(),
        ]);
        rows_json.push(record.to_json());
        ctx.records.push(record);
    }

    let text = format!(
        "Fleet chaos: {} injected panics + 1 corrupted checkpoint generation per worker \
         across {} clusters; every recovered outcome digest matched its uninterrupted \
         twin\n{}",
        PANIC_EVENTS.len(),
        hosted.len(),
        table.render()
    );
    let data = json!({
        "clusters": hosted.len(),
        "panics_per_worker": PANIC_EVENTS.len(),
        "corrupt_generation": CORRUPT_GENERATION,
        "per_cluster": rows_json,
    });
    Ok(ExperimentOutput {
        id: "fleet-chaos".into(),
        text,
        data,
    })
}

/// `fleet-overload`: the adaptive admission-control soak. Venus/FIFO and
/// Saturn/SRTF each absorb a sustained 2× ingestion overload with a
/// deliberately heavy VC (60% of the stream) while a sampler thread
/// hammers the deadline-bounded status path. The experiment checks four
/// properties: shedding is VC-fair (only the heavy VC is ever shed, with
/// a usable retry hint), status reads never block and stay bounded-stale
/// (p99 staleness at most two cycles), the whole stream still completes
/// (shed submissions are retried after a drain cycle), and a
/// shedding-disabled twin driven through the legacy FleetOverflow path
/// produces a bit-identical outcome digest. Each cluster's record carries
/// its shed and twin-overflow counts.
fn fleet_overload(ctx: &mut Context) -> Result<ExperimentOutput, HeliosError> {
    use helios_fleet::{ClusterConfig, Fleet, FleetConfig, ShedConfig, StatusKind, WatchdogConfig};
    use helios_trace::ClusterId;
    use std::sync::atomic::{AtomicBool, Ordering};

    const WAVES: usize = 6;
    const WAVE_SECS: i64 = 600;
    /// Per-VC ingestion shard bound — small enough that the overload is
    /// real at bench scale.
    const CAP: usize = 64;
    /// Offered jobs per admission cycle over total ingestion capacity.
    const OVERLOAD: usize = 2;
    /// Engage shedding at 5% backlog occupancy: with 60% of the stream
    /// aimed at one VC, the heavy shard crosses its fair share well
    /// before it overflows, so refusals are admission control (typed
    /// FleetShedding), not backpressure (FleetOverflow).
    const HIGH_WATER: f64 = 0.05;
    const LOW_WATER: f64 = 0.02;

    let hosted = [
        (ClusterId::Venus, Policy::Fifo),
        (ClusterId::Saturn, Policy::Srtf),
    ];
    eprintln!(
        "[ctx] fleet overload: {} clusters, {OVERLOAD}x offered load, {WAVES} waves...",
        hosted.len(),
    );

    /// Slot `k`'s VC: 60% of the stream lands on VC 0 (the heavy VC),
    /// the rest round-robins over the light VCs.
    fn slot_vc(k: usize, nvcs: usize) -> u16 {
        if k % 5 < 3 {
            0
        } else {
            (1 + k % (nvcs - 1)) as u16
        }
    }

    // Drive one fleet through the full overload stream: submit each
    // wave's jobs in id order, resolving every refusal (shed or
    // overflow) with one admission cycle at the wave floor and a
    // resubmit, so both twins admit the identical job set at identical
    // virtual times. Returns (shed on heavy VC, shed on light VCs,
    // overflows) as observed at the submission site.
    let stream = |fleet: &Fleet, cluster: ClusterId| -> Result<(u64, u64, u64), HeliosError> {
        let nvcs = fleet.status(cluster)?.vcs.len().max(2);
        let per_wave = OVERLOAD * CAP * nvcs;
        let (mut shed_heavy, mut shed_light, mut overflows) = (0u64, 0u64, 0u64);
        let mut next_id = 0u64;
        for wave in 0..WAVES {
            let floor = wave as i64 * WAVE_SECS;
            for k in 0..per_wave {
                let job = SimJob {
                    id: next_id,
                    vc: slot_vc(k, nvcs),
                    gpus: 1,
                    submit: floor,
                    duration: 30 + (k as i64 % 7) * 60,
                    priority: 0.0,
                };
                loop {
                    match fleet.submit(cluster, job) {
                        Ok(()) => break,
                        Err(HeliosError::FleetShedding {
                            vc,
                            retry_after_cycles,
                            ..
                        }) => {
                            if retry_after_cycles == 0 {
                                return Err(HeliosError::invalid_config(
                                    "fleet_overload",
                                    "FleetShedding carried a zero retry hint",
                                ));
                            }
                            if vc == 0 {
                                shed_heavy += 1;
                            } else {
                                shed_light += 1;
                            }
                            fleet.advance_cluster(cluster, floor)?;
                        }
                        Err(HeliosError::FleetOverflow { .. }) => {
                            overflows += 1;
                            fleet.advance_cluster(cluster, floor)?;
                        }
                        Err(e) => return Err(e),
                    }
                }
                next_id += 1;
            }
            fleet.advance_cluster(cluster, (wave as i64 + 1) * WAVE_SECS)?;
        }
        Ok((shed_heavy, shed_light, overflows))
    };
    let config = |cluster, policy, shed: bool| {
        let mut cfg = FleetConfig::new()
            .with_cluster(ClusterConfig::new(cluster, policy))
            .with_shard_capacity(CAP);
        if shed {
            cfg = cfg
                .with_shedding(
                    ShedConfig::new()
                        .high_water(HIGH_WATER)
                        .low_water(LOW_WATER),
                )
                .with_watchdog(WatchdogConfig::new());
        }
        cfg
    };
    let outcomes_of = |fleet: Fleet| -> Result<Vec<JobOutcome>, HeliosError> {
        let (_, mut outcomes) = fleet
            .shutdown()?
            .pop()
            .ok_or_else(|| HeliosError::invalid_config("fleet_overload", "no hosted cluster"))?;
        outcomes.sort_by_key(|o| o.id);
        Ok(outcomes)
    };

    let mut table = TextTable::new(vec![
        "cluster", "policy", "jobs", "shed", "heavy", "light", "twin ovf", "digest",
    ]);
    let mut rows_json = Vec::new();
    for &(cluster, policy) in &hosted {
        let fleet = Fleet::launch(&config(cluster, policy, true))?;
        let stop = AtomicBool::new(false);
        let (streamed, mut ages) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut ages = Vec::new();
                // sync: acquires the Release store below that ends the sampling run
                while !stop.load(Ordering::Acquire) {
                    if let Ok(report) = fleet.status_within(cluster, Duration::from_millis(2)) {
                        match report.kind {
                            StatusKind::Fresh => ages.push(0),
                            StatusKind::Stale { age_cycles } => ages.push(age_cycles),
                            StatusKind::Degraded => {}
                        }
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                ages
            });
            let streamed = stream(&fleet, cluster);
            // sync: releases to the sampler thread's Acquire poll loop
            stop.store(true, Ordering::Release);
            (
                streamed,
                sampler.join().expect("status sampler must not panic"),
            )
        });
        // The shed run's own overflow count is incidental (shedding
        // fires first by construction); only the twin's matters.
        let (shed_heavy, shed_light, _overflows) = streamed?;
        let health = fleet.statuses()[0].health;
        let outcomes = outcomes_of(fleet)?;

        let twin = Fleet::launch(&config(cluster, policy, false))?;
        let (twin_sh, twin_sl, twin_overflows) = stream(&twin, cluster)?;
        let twin_outcomes = outcomes_of(twin)?;

        if shed_heavy == 0 || health.shed_jobs == 0 {
            return Err(HeliosError::invalid_config(
                "fleet_overload",
                format!("{}: the overload never engaged shedding", cluster.name()),
            ));
        }
        if shed_light > 0 {
            return Err(HeliosError::invalid_config(
                "fleet_overload",
                format!(
                    "{}: {} light-VC submissions were shed (fairness violated)",
                    cluster.name(),
                    shed_light
                ),
            ));
        }
        if twin_sh + twin_sl != 0 || twin_overflows == 0 {
            return Err(HeliosError::invalid_config(
                "fleet_overload",
                format!(
                    "{}: shedding-disabled twin did not reproduce the legacy overflow path",
                    cluster.name()
                ),
            ));
        }
        let (digest, twin_digest) = (outcome_digest(&outcomes), outcome_digest(&twin_outcomes));
        if outcomes.len() != twin_outcomes.len() || digest != twin_digest {
            return Err(HeliosError::invalid_config(
                "fleet_overload",
                format!(
                    "{}: shed digest {} ({} jobs) != overflow twin {} ({} jobs)",
                    cluster.name(),
                    digest,
                    outcomes.len(),
                    twin_digest,
                    twin_outcomes.len()
                ),
            ));
        }
        ages.sort_unstable();
        let p99 = ages
            .get(((ages.len().saturating_sub(1)) as f64 * 0.99) as usize)
            .copied()
            .unwrap_or(0);
        // With one driver thread there is never more than one admission
        // cycle in flight, so staleness beyond a couple of cycles means
        // the freshness accounting itself regressed.
        if p99 > 2 {
            return Err(HeliosError::invalid_config(
                "fleet_overload",
                format!("{}: p99 status staleness {p99} cycles", cluster.name()),
            ));
        }

        let policy = format!("{policy:?}").to_uppercase();
        let record = ResultRecord::new(&ctx.experiment, cluster.name(), &policy, &outcomes)
            .metric("shed_jobs", health.shed_jobs)
            .metric("shed_heavy_vc", shed_heavy)
            .metric("shed_light_vcs", shed_light)
            .metric("twin_overflows", twin_overflows);
        table.row(vec![
            record.cluster.clone(),
            record.policy.clone(),
            fmt_count(record.jobs as u64),
            health.shed_jobs.to_string(),
            shed_heavy.to_string(),
            shed_light.to_string(),
            twin_overflows.to_string(),
            record.digest.clone(),
        ]);
        rows_json.push(record.to_json());
        ctx.records.push(record);
    }

    let text = format!(
        "Fleet overload: {OVERLOAD}x offered load with a 60% heavy VC across {} clusters; \
         only the heavy VC was shed, every shed submission was eventually admitted, and \
         the shedding-disabled twin reproduced the digest bit for bit\n{}",
        hosted.len(),
        table.render()
    );
    let data = json!({
        "clusters": hosted.len(),
        "overload_factor": OVERLOAD,
        "waves": WAVES,
        "shard_capacity": CAP,
        "high_water": HIGH_WATER,
        "low_water": LOW_WATER,
        "per_cluster": rows_json,
    });
    Ok(ExperimentOutput {
        id: "fleet-overload".into(),
        text,
        data,
    })
}

/// `failure-soak`: the failure-injection soak. On two Helios presets
/// (Venus and Saturn), train the GPU-failure predictor on April–August
/// telemetry from the fault model itself, then run September twice under
/// identical injection — the inner policy bare, and wrapped in the
/// proactive-drain layer driven by that predictor. Each run's record
/// carries its failures, kills, goodput, work lost to kills and the
/// predictor's precision/recall.
fn failure_soak(ctx: &mut Context) -> Result<ExperimentOutput, HeliosError> {
    /// Preset indices into [`Context::helios`]: Venus, Saturn.
    const SOAK_CLUSTERS: [usize; 2] = [0, 2];
    /// Default per-node MTBF when `--failures` was not given. Aggressive
    /// (a failure every three days per node) so a one-month window
    /// carries enough failures for the goodput comparison to resolve;
    /// checkpoint-restart semantics keep 50-day jobs terminating under
    /// that pressure (kill-requeue at this MTBF would recompute forever).
    const DEFAULT_MTBF_HOURS: f64 = 72.0;

    let faults = ctx
        .faults
        .unwrap_or_else(|| FaultConfig::with_mtbf_hours(DEFAULT_MTBF_HOURS).checkpoint_hours(2.0));
    faults.validate()?;
    let pcfg = PredictorConfig::default();
    ctx.helios();
    let traces = ctx.helios.as_ref().unwrap();
    eprintln!(
        "[ctx] failure soak on {} clusters (MTBF {:.0}h, horizon {:.0}h, parallel)...",
        SOAK_CLUSTERS.len(),
        faults.mtbf_secs / 3600.0,
        pcfg.horizon_hours,
    );

    type SoakRow = (String, FailurePredictorQuality, Vec<SoakRun>);
    struct FailurePredictorQuality {
        precision: f64,
        recall: f64,
        base_rate: f64,
    }
    /// One injected run: its record plus the numbers the table prints.
    struct SoakRun {
        record: ResultRecord,
        stats: helios_sim::FaultStats,
        goodput: helios_faults::Goodput,
    }
    let kcfg = KernelConfig::default();
    let experiment = &ctx.experiment;
    let rows: Vec<Result<SoakRow, HeliosError>> = SOAK_CLUSTERS
        .par_iter()
        .map(|&i| {
            let t = &traces[i];
            let cluster = t.spec.id.name().to_string();
            let (lo, hi) = t.calendar.month_range(5); // September
            let jobs = jobs_from_trace(t, lo, hi);
            // Train on pre-evaluation traffic only (the QSSF convention):
            // the predictor sees April–August failures, never September.
            let train_jobs = jobs_from_trace(t, 0, lo);
            let predictor = train_failure_predictor(&t.spec, &train_jobs, &faults, &pcfg)?;
            let quality = FailurePredictorQuality {
                precision: predictor.precision,
                recall: predictor.recall,
                base_rate: predictor.base_rate,
            };

            let mut runs = Vec::with_capacity(2);
            for drained in [false, true] {
                let inner: Box<dyn SchedulingPolicy> = Box::new(FifoPolicy);
                let policy: Box<dyn SchedulingPolicy> = if drained {
                    // Cordon only the riskiest 3% of nodes: draining costs
                    // capacity (longer makespan = more failure exposure), so
                    // at the predictor's F1-optimal threshold a wider cap
                    // over-drains and gives the avoided kills back.
                    let dcfg = DrainConfig {
                        max_drain_frac: 0.03,
                        ..DrainConfig::default()
                    };
                    Box::new(DrainPolicy::with_predictor(inner, predictor.clone(), dcfg)?)
                } else {
                    inner
                };
                let policy_name = policy.name().to_string();
                let mut sim = Simulator::with_config(&t.spec, policy, &kcfg);
                sim.enable_faults(&faults)?;
                sim.push_jobs(&jobs)?;
                sim.run_to_completion();
                let mut outcomes = sim.drain_outcomes();
                let stats = sim.fault_stats().expect("faults enabled above");
                outcomes.sort_by_key(|o| o.id);
                let g = goodput(&outcomes, Some(stats));
                let record = ResultRecord::new(experiment, &cluster, &policy_name, &outcomes)
                    .metric("failures", stats.failures)
                    .metric("killed_jobs", stats.killed_jobs)
                    .metric("goodput", g.ratio())
                    .metric("lost_gpu_hours", g.lost_gpu_hours)
                    .metric("precision", predictor.precision)
                    .metric("recall", predictor.recall);
                runs.push(SoakRun {
                    record,
                    stats,
                    goodput: g,
                });
            }
            Ok((cluster, quality, runs))
        })
        .collect();

    let mut table = TextTable::new(vec![
        "cluster",
        "policy",
        "failures",
        "kills",
        "lost GPUh",
        "goodput",
        "digest",
    ]);
    let mut rows_json = Vec::new();
    let mut wins = 0usize;
    let mut pairs = 0usize;
    for row in rows {
        let (cluster, quality, runs) = row?;
        let (base, drain) = (&runs[0], &runs[1]);
        pairs += 1;
        if drain.goodput.ratio() > base.goodput.ratio() {
            wins += 1;
        }
        for r in &runs {
            table.row(vec![
                r.record.cluster.clone(),
                r.record.policy.clone(),
                fmt_count(r.stats.failures),
                fmt_count(r.stats.killed_jobs),
                format!("{:.0}", r.goodput.lost_gpu_hours),
                format!("{:.3}%", r.goodput.ratio() * 100.0),
                r.record.digest.clone(),
            ]);
        }
        rows_json.push(json!({
            "cluster": cluster,
            "predictor": json!({
                "precision": quality.precision,
                "recall": quality.recall,
                "base_rate": quality.base_rate,
                "horizon_hours": pcfg.horizon_hours,
            }),
            "baseline": base.record.to_json(),
            "drain": drain.record.to_json(),
            "drain_goodput_gain": drain.goodput.ratio() - base.goodput.ratio(),
        }));
        ctx.records.extend(runs.into_iter().map(|r| r.record));
    }

    let text = format!(
        "Failure soak: per-node MTBF {:.0}h (Weibull shape {:.1}, {:.0}% rack bursts), \
         predictor horizon {:.0}h; proactive drain improved goodput on {}/{} clusters\n{}",
        faults.mtbf_secs / 3600.0,
        faults.shape,
        faults.burst_prob * 100.0,
        pcfg.horizon_hours,
        wins,
        pairs,
        table.render()
    );
    let data = json!({
        "mtbf_hours": faults.mtbf_secs / 3600.0,
        "repair_hours": faults.repair_secs / 3600.0,
        "shape": faults.shape,
        "burst_prob": faults.burst_prob,
        "horizon_hours": pcfg.horizon_hours,
        "drain_wins": wins,
        "clusters": pairs,
        "per_cluster": rows_json,
    });
    Ok(ExperimentOutput {
        id: "failure-soak".into(),
        text,
        data,
    })
}

/// Experiments beyond the paper's artifacts: the forecaster comparison,
/// ablations, and the fleet and failure soaks. Run by `all` after
/// [`ALL_EXPERIMENTS`], and listed by the `repro` binary — one source of
/// truth so the lists cannot drift.
pub const EXTRA_EXPERIMENTS: [&str; 7] = [
    "pred-ces",
    "ablation-lambda",
    "ablation-backfill",
    "fleet-soak",
    "fleet-chaos",
    "fleet-overload",
    "failure-soak",
];

/// The paper's artifacts, in the order the paper presents them, then the
/// QSSF predictor's quality.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "fig13",
    "table3",
    "table4",
    "fig14",
    "fig15",
    "table5",
    "pred-qssf",
];

/// Run one experiment (or `all`). Unknown ids are an error, not a panic,
/// so the `repro` binary can exit non-zero cleanly.
pub fn run(id: &str, ctx: &mut Context) -> Result<Vec<ExperimentOutput>, HeliosError> {
    if id != "all" {
        ctx.experiment = id.to_string();
    }
    Ok(match id {
        "table1" => vec![table1(ctx)],
        "table2" => vec![table2(ctx)],
        "fig1" => vec![fig1(ctx)],
        "fig2" => vec![fig2(ctx)],
        "fig3" => vec![fig3(ctx)],
        "fig4" => vec![fig4(ctx)],
        "fig5" => vec![fig5(ctx)],
        "fig6" => vec![fig6(ctx)],
        "fig7" => vec![fig7(ctx)],
        "fig8" => vec![fig8(ctx)],
        "fig9" => vec![fig9(ctx)],
        "fig11" => vec![fig11(ctx)],
        "fig12" => vec![fig12(ctx)],
        "fig13" => vec![fig13(ctx)],
        "table3" => vec![table3(ctx)],
        "table4" => vec![table4(ctx)],
        "fig14" => vec![fig14(ctx)],
        "fig15" => vec![fig15(ctx)],
        "table5" => vec![table5(ctx)],
        "pred-qssf" => vec![pred_qssf(ctx)],
        "pred-ces" => vec![pred_ces(ctx)],
        "ablation-lambda" => vec![ablation_lambda(ctx)],
        "ablation-backfill" => vec![ablation_backfill(ctx)],
        "fleet-soak" => vec![fleet_soak(ctx)?],
        "fleet-chaos" => vec![fleet_chaos(ctx)?],
        "fleet-overload" => vec![fleet_overload(ctx)?],
        "failure-soak" => vec![failure_soak(ctx)?],
        "all" => {
            let mut out = Vec::new();
            for id in ALL_EXPERIMENTS.iter().chain(&EXTRA_EXPERIMENTS) {
                out.extend(run(id, ctx)?);
            }
            out
        }
        other => {
            return Err(HeliosError::UnknownName {
                kind: "experiment",
                name: other.to_string(),
                expected: {
                    let mut ids: Vec<&str> = ALL_EXPERIMENTS.to_vec();
                    ids.extend(EXTRA_EXPERIMENTS);
                    ids.push("all");
                    ids.join(", ")
                },
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_lists_are_consistent_with_the_table() {
        // Every selectable label must resolve to a kernel policy of the
        // same name.
        for label in POLICIES {
            let policy = shipped(label).unwrap_or_else(|| panic!("{label} not shipped"));
            assert_eq!(policy.label(), label);
            assert_eq!(policy.build().name(), label);
        }
        for label in PAPER_POLICIES {
            assert!(POLICIES.contains(&label), "{label} not a shipped policy");
        }
    }

    #[test]
    fn policy_choice_selection_and_rejection() {
        let mut ctx = Context::new(0.05, 1).unwrap();
        assert_eq!(ctx.policy_labels(), PAPER_POLICIES);
        ctx.set_policy_choice("tiresias").unwrap();
        assert_eq!(ctx.policy_labels(), ["TIRESIAS"]);
        ctx.set_policy_choice("ALL").unwrap();
        assert_eq!(ctx.policy_labels(), POLICIES);
        let err = ctx.set_policy_choice("bogus").unwrap_err();
        assert!(matches!(
            err,
            HeliosError::UnknownName { kind: "policy", .. }
        ));
    }
}

//! `pipeline`: the paper's whole method on its largest cluster. One Saturn
//! `Session` runs generate → characterize → train_qssf → train_ces →
//! schedule(FIFO) → schedule(QSSF) → report, one stage after another, with
//! one caller. `Gbdt::fit` does most of the work; the kernel is a few
//! percent and the fleet is absent.
//!
//! A traced run also repeats the stages' parts on the same inputs through
//! the layers' own entry points (`build_training_matrix`, `Gbdt::fit`,
//! `RollingEstimator`, `assign_priorities`, `node_series_from_trace`,
//! `CesService::evaluate`), since a `Session` stage is opaque to a caller.

use crate::{stats, Cx};
use helios::core::{CesService, CesServiceConfig, QssfConfig, QssfService};
use helios::energy::node_series_from_trace;
use helios::predict::features::job::build_training_matrix;
use helios::predict::rolling::RollingEstimator;
use helios::predict::text::strip_run_suffix;
use helios::predict::Gbdt;
use helios::sim::{jobs_from_trace, Placement};
use helios::trace::{HeliosResult, NameId, Trace, SECS_PER_DAY};
use helios::{Helios, Preset, SchedulePolicy, Session};
use std::collections::HashMap;

/// FNV-1a over every generated job's identity, shape and timing.
fn fingerprint(trace: &Trace) -> (usize, String) {
    let mut h = stats::Fnv::new();
    for j in &trace.jobs {
        for v in [
            j.id,
            j.submit as u64,
            j.duration as u64,
            u64::from(j.gpus),
            u64::from(j.vc),
            u64::from(j.user),
        ] {
            h.mix(v);
        }
    }
    (trace.jobs.len(), h.hex())
}

pub fn run(cx: &mut Cx) -> HeliosResult<()> {
    let (scale, seed) = (cx.scale, cx.seed);
    let session = || {
        Helios::cluster(Preset::Saturn)
            .scale(scale)
            .seed(seed)
            .build()
    };
    // Set-up builds the session and generates the trace once, which every
    // timed pass must then regenerate bit for bit.
    let expected = cx.setup(|cx| {
        let mut s = session()?;
        cx.call("trace.generate", || s.generate().map(|_| ()))?;
        Ok(fingerprint(s.trace()?))
    })?;

    let mut regenerated = true;
    let mut conserved = true;
    let mut last: Option<Session> = None;
    cx.measure(|cx| {
        last = None;
        let mut s = session()?;
        // One clock segment per stage.
        cx.start();
        let span = cx.tracer.enter("pipeline.pass");
        cx.call("trace.generate", || s.generate().map(|_| ()))?;
        cx.lap();
        cx.call("analysis.characterize", || s.characterize().map(|_| ()))?;
        cx.lap();
        cx.call("core.train_qssf", || s.train_qssf().map(|_| ()))?;
        cx.lap();
        cx.call("core.train_ces", || s.train_ces().map(|_| ()))?;
        cx.lap();
        cx.call("sim.schedule_fifo", || {
            s.schedule(SchedulePolicy::Fifo).map(|_| ())
        })?;
        cx.lap();
        cx.call("sim.schedule_qssf", || {
            s.schedule(SchedulePolicy::Qssf).map(|_| ())
        })?;
        cx.lap();
        let report = cx.call("session.report", || s.report())?;
        cx.tracer.exit(span);
        cx.stop();

        let trace = s.trace()?;
        regenerated &= fingerprint(trace) == expected;
        let (lo, hi) = s.eval_window()?;
        let window_jobs = jobs_from_trace(trace, lo, hi).len();
        conserved &= s.schedule_outcomes().len() == 2
            && s.schedule_outcomes()
                .iter()
                .all(|o| o.outcomes.len() == window_jobs);
        cx.jobs_per_pass = report.jobs as f64;
        cx.values.insert("trace.jobs", report.jobs as f64);
        cx.values.insert("sim.jobs", 2.0 * window_jobs as f64);
        if let Some(g) = report.qssf_vs_fifo {
            cx.values.insert("core.qssf_jct_gain", g.jct);
        }
        if let Some(c) = report.ces {
            let gain = 100.0 * (c.utilization_with_ces - c.baseline_utilization);
            cx.values.insert("energy.ces_util_gain_pp", gain);
        }
        last = Some(s);
        Ok(())
    })?;

    let gain = cx.values.get("core.qssf_jct_gain").copied();
    let util = cx.values.get("energy.ces_util_gain_pp").copied();
    println!(
        "pipeline: {} jobs; QSSF vs FIFO average JCT x{:.3}; CES utilization gain {:.2} pp",
        expected.0,
        gain.unwrap_or(f64::NAN),
        util.unwrap_or(f64::NAN)
    );
    cx.check(
        "pipeline: every pass regenerates the set-up trace",
        regenerated,
    );
    cx.check(
        "pipeline: FIFO and QSSF each finish every September job",
        conserved,
    );
    cx.check(
        "pipeline: the report carries the QSSF and CES results",
        gain.is_some() && util.is_some(),
    );
    if cx.traced() {
        let s = last.expect("measure runs at least one pass");
        decompose(cx, &s)?;
        cx.check_coverage("pipeline.pass");
    }
    Ok(())
}

/// Time the parts of `train_qssf`, `schedule(QSSF)` and `train_ces` on the
/// session's own inputs, and check that the parts of `QssfService::train`
/// account for it.
fn decompose(cx: &mut Cx, s: &Session) -> HeliosResult<()> {
    let trace = s.trace()?;
    let (lo, hi) = s.eval_window()?;
    let cfg = QssfConfig::default();
    // `QssfService::train` is these three parts: the feature matrix, the
    // GBDT fit, and warming the rolling estimator with every job that
    // ended in the training window (one name stem per template).
    let (rows, trees) = {
        let (cols, targets, _) = cx.call("predict.training_matrix", || {
            Ok(build_training_matrix(trace, 0, lo))
        })?;
        let model = cx.call("predict.gbdt_fit", || {
            Ok(Gbdt::fit(&cols, &targets, &cfg.gbdt, None))
        })?;
        (targets.len(), model.num_trees())
    };
    cx.values.insert("predict.training_rows", rows as f64);
    cx.values.insert("predict.gbdt_trees", trees as f64);
    cx.call("predict.rolling_warm", || {
        let mut rolling = RollingEstimator::default();
        let mut stems: HashMap<NameId, String> = HashMap::new();
        for j in trace.gpu_jobs().filter(|j| j.end() <= lo) {
            let stem = stems
                .entry(j.name)
                .or_insert_with(|| strip_run_suffix(trace.names.base(j.name)).to_string());
            rolling.observe_stem(j.user, stem, j.gpus, j.duration as f64);
        }
        Ok(rolling)
    })?;
    let mut svc = QssfService::new(cfg);
    cx.call("core.qssf_service_train", || svc.train(trace, 0, lo))?;
    let scored = cx.call("core.assign_priorities", || {
        Ok(svc.clone().assign_priorities(trace, lo, hi))
    })?;
    cx.values.insert("core.scored_jobs", scored.len() as f64);
    drop(svc);

    let parts: f64 = [
        "predict.training_matrix",
        "predict.gbdt_fit",
        "predict.rolling_warm",
    ]
    .iter()
    .map(|name| cx.tracer.secs_per_pass(name))
    .sum();
    // The whole is timed twice, in the traced pass and here; noise only
    // adds time, so the faster of the two is the better estimate.
    let whole = cx
        .tracer
        .secs_per_pass("core.qssf_service_train")
        .min(cx.tracer.secs_per_pass("core.train_qssf"));
    cx.coverage(
        "QssfService::train by its three parts",
        parts / whole.max(f64::MIN_POSITIVE),
    );

    // The CES stage: the session scales the control thresholds to the
    // cluster size the same way.
    let series = cx.call("energy.node_series", || {
        node_series_from_trace(trace, 600, Placement::Consolidate)
    })?;
    let mut ces = CesServiceConfig::default();
    let k = (trace.spec.nodes as f64 / 140.0).clamp(0.05, 3.0);
    ces.control.buffer_nodes = (ces.control.buffer_nodes * k).max(1.0);
    ces.control.xi_hist = (ces.control.xi_hist * k).max(0.25);
    ces.control.xi_future = (ces.control.xi_future * k).max(0.25);
    let end = (lo + 21 * SECS_PER_DAY).min(hi);
    cx.call("core.ces_evaluate", || {
        CesService::new(ces).evaluate(trace, &series, lo, end)
    })?;
    Ok(())
}

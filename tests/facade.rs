//! Integration tests for the `Helios` builder/session façade: the
//! acceptance surface of the unified API — end-to-end pipelines on
//! multiple cluster presets, parallel fan-out, and the guarantee that
//! invalid user input surfaces as typed [`HeliosError`]s, never panics.

use helios::prelude::*;

/// End-to-end small-scale session on two presets: generate →
/// characterize → train QSSF → schedule → report, asserting the paper's
/// headline (QSSF beats FIFO on average JCT) on each cluster.
#[test]
fn end_to_end_session_qssf_beats_fifo_on_two_presets() {
    for preset in [Preset::Venus, Preset::Saturn] {
        let mut session = Helios::cluster(preset)
            .scale(0.05)
            .seed(77)
            .build()
            .unwrap();
        let report = session
            .generate()
            .unwrap()
            .characterize()
            .unwrap()
            .train_qssf()
            .unwrap()
            .schedule(SchedulePolicy::Fifo)
            .unwrap()
            .schedule(SchedulePolicy::Qssf)
            .unwrap()
            .report()
            .unwrap();

        assert_eq!(report.cluster, preset.name());
        assert!(
            report.gpu_jobs > 1_000,
            "{preset}: {} GPU jobs",
            report.gpu_jobs
        );

        let stats = |p: SchedulePolicy| {
            report
                .schedules
                .iter()
                .find(|s| s.label == p.label())
                .unwrap_or_else(|| panic!("{preset}: missing {p:?}"))
        };
        let fifo = stats(SchedulePolicy::Fifo);
        let qssf = stats(SchedulePolicy::Qssf);
        assert!(
            qssf.avg_jct < fifo.avg_jct,
            "{preset}: QSSF avg JCT {} must beat FIFO {}",
            qssf.avg_jct,
            fifo.avg_jct
        );
        let gain = report.qssf_vs_fifo.expect("both policies scheduled");
        assert!(gain.jct > 1.0, "{preset}: JCT gain {}", gain.jct);

        // Characterization rode along.
        let c = report.characterization.as_ref().expect("characterized");
        assert!(c.summary.gpu_jobs > 0);
        assert!((0.0..=1.0).contains(&c.single_gpu_share));

        // The rendered report mentions both policies.
        let text = report.render();
        assert!(text.contains("FIFO") && text.contains("QSSF"), "{text}");
    }
}

/// `Helios::all_clusters()` runs Venus/Earth/Saturn/Uranus/Philly across
/// threads and returns one report per cluster, in Table 1 order, from a
/// single call.
#[test]
fn all_clusters_parallel_session_returns_five_reports() {
    let reports = Helios::all_clusters()
        .scale(0.02)
        .seed(5)
        .run(|session| session.generate()?.schedule(SchedulePolicy::Fifo)?.report())
        .unwrap();
    let names: Vec<&str> = reports.iter().map(|r| r.cluster.as_str()).collect();
    assert_eq!(names, ["Venus", "Earth", "Saturn", "Uranus", "Philly"]);
    for r in &reports {
        assert!(r.jobs > 0, "{}: empty trace", r.cluster);
        assert_eq!(r.schedules.len(), 1);
    }
}

/// `FleetBuilder::seeds` sweeps clusters × seeds in one rayon fan-out:
/// one session per (preset, seed) pair, preset-major, each report
/// stamped with its seed.
#[test]
fn fleet_seed_sweep_fans_out_preset_major() {
    let reports = Helios::clusters([Preset::Venus, Preset::Earth])
        .scale(0.02)
        .seeds([3, 4, 5])
        .run(|session| session.generate()?.report())
        .unwrap();
    assert_eq!(reports.len(), 6);
    let order: Vec<(&str, u64)> = reports
        .iter()
        .map(|r| (r.cluster.as_str(), r.seed))
        .collect();
    assert_eq!(
        order,
        [
            ("Venus", 3),
            ("Venus", 4),
            ("Venus", 5),
            ("Earth", 3),
            ("Earth", 4),
            ("Earth", 5),
        ]
    );
    for r in &reports {
        assert!(r.jobs > 0, "{}@{}: empty trace", r.cluster, r.seed);
    }
}

/// The CES stage produces a Table 5-shaped summary through the façade.
#[test]
fn ces_stage_reports_energy_summary() {
    let mut session = Helios::cluster(Preset::Venus)
        .scale(0.05)
        .seed(13)
        .build()
        .unwrap();
    session.generate().unwrap().train_ces().unwrap();
    let report = session.report().unwrap();
    let ces = report.ces.expect("train_ces ran");
    assert!(ces.smape < 25.0, "forecast SMAPE {}", ces.smape);
    assert!(ces.utilization_with_ces >= ces.baseline_utilization);
    assert!(ces.annual_kwh_saved >= 0.0);
    assert!(ces.daily_wakeups <= ces.vanilla_daily_wakeups + 1e-9);
}

/// A session's stages run the library defaults: its CES evaluation and its
/// FIFO and QSSF outcomes equal the services and the kernel called
/// directly with their default configurations, and a second session on
/// the same cluster and seed reproduces its characterization.
#[test]
fn stages_run_the_library_defaults() {
    use helios::core::{CesService, CesServiceConfig, QssfConfig, QssfService};
    use helios::energy::node_series_from_trace;
    use helios::sim::{jobs_from_trace, simulate_with, KernelConfig};
    use helios::trace::SECS_PER_DAY;

    let build = || {
        Helios::cluster(Preset::Venus)
            .scale(0.04)
            .seed(11)
            .build()
            .unwrap()
    };
    let mut session = build();
    session
        .generate()
        .unwrap()
        .characterize()
        .unwrap()
        .train_qssf()
        .unwrap()
        .train_ces()
        .unwrap()
        .schedule(SchedulePolicy::Fifo)
        .unwrap()
        .schedule(SchedulePolicy::Qssf)
        .unwrap();
    let trace = session.trace().unwrap();
    let (lo, hi) = session.eval_window().unwrap();

    // CES: the default service scaled to the cluster, over the
    // consolidated node series, on the first three weeks of the window.
    let series = node_series_from_trace(trace, 600, Placement::Consolidate).unwrap();
    let mut ces = CesService::new(CesServiceConfig::default().scaled_to(trace.spec.nodes));
    let want = ces
        .evaluate(trace, &series, lo, (lo + 21 * SECS_PER_DAY).min(hi))
        .unwrap();
    let got = session.ces_evaluation().unwrap();
    assert_eq!(got.smape, want.smape);
    assert_eq!(got.forecast, want.forecast);
    assert_eq!(got.guided.drs_node_seconds, want.guided.drs_node_seconds);

    // FIFO and QSSF: the default kernel over the window's jobs, QSSF's
    // scored by the default service trained on everything before it.
    let kernel = |jobs: &[SimJob], policy: SchedulePolicy| {
        simulate_with(&trace.spec, jobs, policy.build(), &KernelConfig::default())
            .unwrap()
            .outcomes
    };
    let mut qssf = QssfService::new(QssfConfig::default());
    qssf.train(trace, 0, lo).unwrap();
    let scored = qssf.assign_priorities(trace, lo, hi);
    let runs = session.schedule_outcomes();
    assert_eq!(runs[0].label, "FIFO");
    assert_eq!(
        runs[0].outcomes,
        kernel(&jobs_from_trace(trace, lo, hi), SchedulePolicy::Fifo)
    );
    assert_eq!(runs[1].label, "QSSF");
    assert_eq!(runs[1].outcomes, kernel(&scored, SchedulePolicy::Qssf));

    // Characterization is a function of the cluster and seed alone.
    let mut again = build();
    again.generate().unwrap().characterize().unwrap();
    let (a, b) = (
        session.characterization().unwrap(),
        again.characterization().unwrap(),
    );
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.gpu_status_shares, b.gpu_status_shares);
    assert_eq!(a.single_gpu_share, b.single_gpu_share);
    assert_eq!(a.single_gpu_time_share, b.single_gpu_time_share);
    assert_eq!(a.top5_user_gpu_share, b.top5_user_gpu_share);
    assert_eq!(a.peak_hourly_submissions, b.peak_hourly_submissions);
    assert_eq!(a.trough_hourly_submissions, b.trough_hourly_submissions);
}

// ---------------------------------------------------------------------------
// Invalid input surfaces as typed errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn invalid_scale_is_a_config_error() {
    for scale in [0.0, -3.0, 1.0001, f64::NAN, f64::INFINITY] {
        let result = Helios::cluster(Preset::Earth).scale(scale).build();
        assert!(
            matches!(
                result,
                Err(HeliosError::InvalidConfig { field: "scale", .. })
            ),
            "scale {scale} must be rejected",
        );
    }
}

#[test]
fn empty_job_set_is_an_empty_input_error() {
    // Train QSSF on an empty window: errors, does not panic.
    use helios::core::{QssfConfig, QssfService};
    let trace = helios::trace::generate(
        &helios::trace::venus_profile(),
        &GeneratorConfig {
            scale: 0.02,
            seed: 3,
        },
    )
    .unwrap();
    let mut svc = QssfService::new(QssfConfig::default());
    // A window before any submission has no jobs.
    let err = svc.train(&trace, -1_000, -1).unwrap_err();
    assert!(
        matches!(
            err,
            HeliosError::EmptyInput {
                what: "training jobs",
                ..
            }
        ),
        "{err}"
    );
    // Inverted window is a config error.
    assert!(matches!(
        svc.train(&trace, 100, 50),
        Err(HeliosError::InvalidConfig { .. })
    ));
}

#[test]
fn unschedulable_job_is_an_invalid_job_error() {
    use helios::sim::{simulate_with, KernelConfig, SimJob};
    let spec = helios::trace::venus();
    let giant = SimJob {
        id: 7,
        vc: 0,
        gpus: u32::MAX,
        submit: 0,
        duration: 10,
        priority: 1.0,
    };
    let err = simulate_with(
        &spec,
        &[giant],
        Policy::Fifo.build(),
        &KernelConfig::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, HeliosError::InvalidJob { job_id: 7, .. }),
        "{err}"
    );

    let bad_vc = SimJob {
        id: 8,
        vc: u16::MAX,
        gpus: 1,
        submit: 0,
        duration: 10,
        priority: 1.0,
    };
    assert!(simulate_with(
        &spec,
        &[bad_vc],
        Policy::Fifo.build(),
        &KernelConfig::default()
    )
    .is_err());
}

#[test]
fn fleet_errors_are_tagged_with_the_cluster() {
    // Force a failure inside the fan-out; the error names the cluster.
    let err = Helios::clusters([Preset::Venus])
        .scale(0.02)
        .run(|session| {
            session.generate()?;
            // Asking for QSSF without training fails inside the worker.
            session.schedule(SchedulePolicy::Qssf)?;
            session.report()
        })
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("Venus"), "{text}");
    assert!(text.contains("train_qssf"), "{text}");
}

/// Re-running a policy replaces its outcome with an identical one: QSSF
/// scoring works on a snapshot of the trained service, so the causal
/// eval-window replay does not leak observations between runs.
#[test]
fn rescheduling_qssf_is_idempotent() {
    let mut session = Helios::cluster(Preset::Venus)
        .scale(0.02)
        .seed(7)
        .build()
        .unwrap();
    session.generate().unwrap().train_qssf().unwrap();
    session.schedule(SchedulePolicy::Qssf).unwrap();
    let first = session.schedule_outcomes()[0].stats.avg_jct;
    session.schedule(SchedulePolicy::Qssf).unwrap();
    assert_eq!(
        session.schedule_outcomes().len(),
        1,
        "replaced, not appended"
    );
    let second = session.schedule_outcomes()[0].stats.avg_jct;
    assert_eq!(first, second, "re-running QSSF must reproduce the outcome");
}

#[test]
fn report_before_generate_is_a_missing_stage_error() {
    let session = Helios::cluster(Preset::Uranus).build().unwrap();
    assert!(matches!(
        session.report(),
        Err(HeliosError::MissingStage {
            stage: "report",
            requires: "generate"
        })
    ));
}

/// `Session::schedule_with` runs a user-defined `SchedulingPolicy` trait
/// object through the full pipeline, records it under its own label, and
/// streams the run through registered observers.
#[test]
fn schedule_with_accepts_custom_policy_objects_and_observers() {
    use helios::sim::OccupancyObserver;

    struct LongestFirst;
    impl SchedulingPolicy for LongestFirst {
        fn name(&self) -> &str {
            "LONGEST-FIRST"
        }
        fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
            -(job.job.duration as f64)
        }
    }

    let mut session = Helios::cluster(Preset::Venus)
        .scale(0.02)
        .seed(3)
        .build()
        .unwrap();
    session.generate().unwrap();
    let mut occ = OccupancyObserver::new(3_600).unwrap();
    session
        .schedule(SchedulePolicy::Fifo)
        .unwrap()
        .schedule_with(Box::new(LongestFirst), vec![Box::new(&mut occ)])
        .unwrap();

    let outcomes = session.schedule_outcomes();
    let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
    assert_eq!(labels, vec!["FIFO", "LONGEST-FIRST"]);
    assert_eq!(outcomes[0].policy, Some(SchedulePolicy::Fifo));
    assert_eq!(outcomes[1].policy, None, "custom run has no builtin tag");
    assert_eq!(
        outcomes[0].outcomes.len(),
        outcomes[1].outcomes.len(),
        "both policies schedule the same job set"
    );
    assert!(!occ.series().is_empty(), "observer streamed the run");
    // A longest-first oracle must do no better than FIFO on avg JCT.
    assert!(outcomes[1].stats.avg_jct >= outcomes[0].stats.avg_jct * 0.99);
    // The custom label shows up in the rendered report.
    let report = session.report().unwrap();
    assert!(report.render().contains("LONGEST-FIRST"));
}

/// The two policies shipped on the open kernel (Tiresias LAS and the
/// CES-gated energy policy) run as built-in constructors.
#[test]
fn tiresias_and_energy_builtins_schedule() {
    let mut session = Helios::cluster(Preset::Venus)
        .scale(0.02)
        .seed(11)
        .build()
        .unwrap();
    session.generate().unwrap();
    session
        .schedule(SchedulePolicy::Tiresias)
        .unwrap()
        .schedule(SchedulePolicy::EnergyAware)
        .unwrap();
    let outcomes = session.schedule_outcomes();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].label, "TIRESIAS");
    assert_eq!(outcomes[1].label, "ENERGY");
    for o in outcomes {
        assert!(o.stats.jobs > 0, "{}: scheduled nothing", o.label);
        assert!(o.stats.avg_jct > 0.0);
    }
}

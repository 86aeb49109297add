//! Failure-injection and degenerate-input tests across the workspace:
//! behaviours that only show up at the boundaries (empty windows, saturated
//! pools, one-job clusters, malformed CSV).

use helios_sim::{simulate_with, KernelConfig, Placement, Policy, SimJob};
use helios_trace::{
    generate, venus_profile, ClusterId, ClusterSpec, GeneratorConfig, GpuModel, VcSpec,
};

fn tiny_spec() -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Venus,
        nodes: 1,
        gpus_per_node: 8,
        cpu_threads_per_node: 48,
        ram_gb_per_node: 376,
        network: "IB",
        gpu_model: GpuModel::Volta,
        vcs: vec![VcSpec {
            id: 0,
            name: "vc000".into(),
            nodes: 1,
        }],
    }
}

#[test]
fn simulator_handles_empty_job_list() {
    let r = simulate_with(
        &tiny_spec(),
        &[],
        Policy::Fifo.build(),
        &KernelConfig::default(),
    )
    .unwrap();
    assert!(r.outcomes.is_empty());
    // Observers on an empty run stay empty too.
    let mut occ = helios_sim::OccupancyObserver::new(60).unwrap();
    let mut sim = helios_sim::Simulator::new(&tiny_spec(), Box::new(helios_sim::FifoPolicy));
    sim.observe(Box::new(&mut occ));
    sim.run_to_completion();
    drop(sim);
    assert!(occ.series().is_empty());
}

#[test]
fn simulator_handles_single_job() {
    let jobs = vec![SimJob {
        id: 0,
        vc: 0,
        gpus: 8,
        submit: 1_000,
        duration: 42,
        priority: 0.0,
    }];
    for policy in [Policy::Fifo, Policy::Sjf, Policy::Srtf, Policy::Priority] {
        let r = simulate_with(
            &tiny_spec(),
            &jobs,
            policy.build(),
            &KernelConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outcomes[0].start, 1_000, "{policy:?}");
        assert_eq!(r.outcomes[0].end, 1_042, "{policy:?}");
        assert_eq!(r.outcomes[0].queue_delay(), 0, "{policy:?}");
    }
}

#[test]
fn simulator_mass_simultaneous_arrivals() {
    // 100 whole-node jobs arriving at the same instant serialize cleanly.
    let jobs: Vec<SimJob> = (0..100)
        .map(|i| SimJob {
            id: i,
            vc: 0,
            gpus: 8,
            submit: 0,
            duration: 10,
            priority: i as f64,
        })
        .collect();
    let r = simulate_with(
        &tiny_spec(),
        &jobs,
        Policy::Priority.build(),
        &KernelConfig::default(),
    )
    .unwrap();
    let mut starts: Vec<i64> = r.outcomes.iter().map(|o| o.start).collect();
    starts.sort_unstable();
    for (k, s) in starts.iter().enumerate() {
        assert_eq!(*s, 10 * k as i64);
    }
}

#[test]
fn srtf_preemption_storm_terminates() {
    // Strictly decreasing durations arriving back-to-back: every arrival
    // preempts the current runner; all jobs must still finish exactly once.
    let jobs: Vec<SimJob> = (0..50)
        .map(|i| SimJob {
            id: i,
            vc: 0,
            gpus: 8,
            submit: i as i64,
            duration: 10_000 - 100 * i as i64,
            priority: 0.0,
        })
        .collect();
    let r = simulate_with(
        &tiny_spec(),
        &jobs,
        Policy::Srtf.build(),
        &KernelConfig::default(),
    )
    .unwrap();
    assert_eq!(r.outcomes.len(), 50);
    for (o, j) in r.outcomes.iter().zip(&jobs) {
        assert!(o.end >= o.start + j.duration);
    }
    // The last (shortest) arrival finishes first.
    let last = &r.outcomes[49];
    assert!(r.outcomes[..49].iter().all(|o| o.end > last.end - 1));
}

#[test]
fn backfill_with_empty_queue_is_noop() {
    let jobs = vec![SimJob {
        id: 0,
        vc: 0,
        gpus: 8,
        submit: 0,
        duration: 100,
        priority: 0.0,
    }];
    let cfg = KernelConfig {
        placement: Placement::Consolidate,
        backfill: true,
    };
    let r = simulate_with(&tiny_spec(), &jobs, Policy::Fifo.build(), &cfg).unwrap();
    assert_eq!(r.outcomes[0].start, 0);
}

#[test]
fn csv_reader_rejects_truncated_rows() {
    use helios_trace::io::{read_csv, CSV_HEADER};
    let body = format!("{CSV_HEADER}\n1,2,3\n");
    assert!(read_csv(body.as_bytes()).is_err());
    // Empty body (header only) is fine.
    let (jobs, _) = read_csv(format!("{CSV_HEADER}\n").as_bytes()).unwrap();
    assert!(jobs.is_empty());
}

#[test]
fn generator_rejects_invalid_scale() {
    // Invalid configuration surfaces as a typed error, not a panic.
    for scale in [0.0, -1.0, 1.5, f64::NAN] {
        let result = generate(&venus_profile(), &GeneratorConfig { scale, seed: 1 });
        assert!(
            matches!(
                result,
                Err(helios_trace::HeliosError::InvalidConfig { field: "scale", .. })
            ),
            "scale {scale} must be rejected"
        );
    }
}

#[test]
fn analysis_handles_gpu_only_window() {
    // A trace window with zero CPU jobs must not break the status split.
    let t = generate(
        &venus_profile(),
        &GeneratorConfig {
            scale: 0.02,
            seed: 5,
        },
    )
    .unwrap();
    let gpu_only: Vec<helios_trace::JobRecord> = t.gpu_jobs().cloned().collect();
    let mut t2 = t.clone();
    t2.jobs = gpu_only;
    let (cpu, gpu) = helios_analysis::jobs::status_by_job_class(&[&t2]);
    assert_eq!(cpu, [0.0; 3]);
    assert!((gpu.iter().sum::<f64>() - 100.0).abs() < 1e-9);
}

#[test]
fn rolling_estimator_is_robust_to_unicode_names() {
    use helios_predict::RollingEstimator;
    let mut e = RollingEstimator::default();
    e.observe(1, "训练_模型_1", 4, 500.0);
    let est = e.estimate(1, "训练_模型_2", 4);
    assert!(est > 0.0);
}

#[test]
fn ces_control_loop_with_flat_zero_demand() {
    use helios_energy::{run_control_loop, CesConfig, DrsPolicy, NodeSeries};
    let s = NodeSeries {
        t0: 0,
        bin: 600,
        running: vec![0.0; 100],
        total_nodes: 50,
        arrivals: vec![0.0; 100],
    };
    let out = run_control_loop(
        &s,
        &vec![0.0; 100],
        DrsPolicy::Vanilla,
        &CesConfig::default(),
    );
    // Everything except the buffer sleeps; no wake-ups ever.
    assert!(out.avg_drs_nodes() > 45.0);
    assert!(out.wakeup_bins.is_empty());
    assert_eq!(out.affected_jobs, 0.0);
}

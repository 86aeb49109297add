//! Cross-crate integration tests: the full paper pipeline at reduced scale —
//! generation → characterization → prediction → scheduling → energy saving.

use helios_core::{CesService, CesServiceConfig, QssfConfig, QssfService};
use helios_energy::node_series_from_trace;
use helios_sim::{
    jobs_from_trace, outcome_digest, schedule_stats, simulate_with, FaultConfig, FifoPolicy,
    KernelConfig, Placement, Policy, SchedulingPolicy, Simulator, SjfPolicy, SrtfPolicy,
    TiresiasPolicy,
};
use helios_trace::{
    generate, generate_helios, venus_profile, GeneratorConfig, Trace, SECS_PER_DAY,
};

fn trace() -> Trace {
    generate(
        &venus_profile(),
        &GeneratorConfig {
            scale: 0.06,
            seed: 77,
        },
    )
    .unwrap()
}

#[test]
fn qssf_beats_fifo_and_tracks_sjf() {
    // The paper's headline (Table 3): QSSF >> FIFO and ~ SJF.
    let t = trace();
    let (lo, hi) = t.calendar.month_range(5);
    let base = jobs_from_trace(&t, lo, hi);
    let fifo = schedule_stats(
        &simulate_with(
            &t.spec,
            &base,
            Policy::Fifo.build(),
            &KernelConfig::default(),
        )
        .unwrap()
        .outcomes,
    );
    let sjf = schedule_stats(
        &simulate_with(
            &t.spec,
            &base,
            Policy::Sjf.build(),
            &KernelConfig::default(),
        )
        .unwrap()
        .outcomes,
    );
    let srtf = schedule_stats(
        &simulate_with(
            &t.spec,
            &base,
            Policy::Srtf.build(),
            &KernelConfig::default(),
        )
        .unwrap()
        .outcomes,
    );

    let mut svc = QssfService::new(QssfConfig::default());
    svc.train(&t, 0, lo).unwrap();
    let scored = svc.assign_priorities(&t, lo, hi);
    let qssf = schedule_stats(
        &simulate_with(
            &t.spec,
            &scored,
            Policy::Priority.build(),
            &KernelConfig::default(),
        )
        .unwrap()
        .outcomes,
    );

    assert!(
        qssf.avg_jct < 0.6 * fifo.avg_jct,
        "QSSF {} vs FIFO {}",
        qssf.avg_jct,
        fifo.avg_jct
    );
    assert!(
        qssf.avg_queue_delay < 0.5 * fifo.avg_queue_delay,
        "QSSF {} vs FIFO {}",
        qssf.avg_queue_delay,
        fifo.avg_queue_delay
    );
    // QSSF is within a factor ~2.5 of the non-preemptive oracle.
    assert!(
        qssf.avg_jct < 2.5 * sjf.avg_jct,
        "QSSF {} vs SJF {}",
        qssf.avg_jct,
        sjf.avg_jct
    );
    // The preemptive oracle is the lower bound.
    assert!(srtf.avg_jct <= sjf.avg_jct * 1.05);
}

#[test]
fn short_jobs_gain_most_but_long_jobs_still_gain() {
    // Table 4 ordering.
    let t = trace();
    let (lo, hi) = t.calendar.month_range(5);
    let base = jobs_from_trace(&t, lo, hi);
    let fifo = simulate_with(
        &t.spec,
        &base,
        Policy::Fifo.build(),
        &KernelConfig::default(),
    )
    .unwrap()
    .outcomes;
    let mut svc = QssfService::new(QssfConfig::default());
    svc.train(&t, 0, lo).unwrap();
    let scored = svc.assign_priorities(&t, lo, hi);
    let qssf = simulate_with(
        &t.spec,
        &scored,
        Policy::Priority.build(),
        &KernelConfig::default(),
    )
    .unwrap()
    .outcomes;
    let ratios = helios_sim::group_delay_ratios(&fifo, &qssf);
    assert!(
        ratios[0] > ratios[2],
        "short-term gain {} must exceed long-term gain {}",
        ratios[0],
        ratios[2]
    );
    assert!(ratios[0] > 2.0, "short-term ratio {}", ratios[0]);
    assert!(
        ratios[2] > 0.8,
        "long jobs must not be sacrificed: {}",
        ratios[2]
    );
}

#[test]
fn ces_pipeline_improves_utilization_with_few_wakeups() {
    // Table 5's shape on one cluster.
    let t = trace();
    let series = node_series_from_trace(&t, 600, Placement::Consolidate).unwrap();
    let mut cfg = CesServiceConfig::default();
    cfg.control.buffer_nodes = 1.0;
    cfg.control.xi_hist = 0.25;
    cfg.control.xi_future = 0.25;
    let mut svc = CesService::new(cfg);
    let start = t.calendar.month_start(5);
    let eval = svc
        .evaluate(&t, &series, start, start + 21 * SECS_PER_DAY)
        .unwrap();

    assert!(eval.smape < 15.0, "forecast SMAPE {}", eval.smape);
    let baseline = eval.guided.baseline_utilization();
    let with_ces = eval.guided.utilization_with_drs();
    assert!(
        with_ces > baseline,
        "CES utilization {with_ces} must beat baseline {baseline}"
    );
    assert!(
        eval.guided.daily_wakeups() <= eval.vanilla.daily_wakeups(),
        "guided {} vs vanilla {} wakeups/day",
        eval.guided.daily_wakeups(),
        eval.vanilla.daily_wakeups()
    );
    // Demand is always met.
    for (a, r) in eval.guided.active.iter().zip(&eval.guided.running) {
        assert!(a + 1e-9 >= *r);
    }
}

#[test]
fn trace_roundtrips_through_csv() {
    let t = trace();
    let mut buf = Vec::new();
    helios_trace::io::write_csv(&mut buf, &t.jobs[..5_000], &t.names).unwrap();
    let (jobs, names) = helios_trace::io::read_csv(buf.as_slice()).unwrap();
    assert_eq!(jobs.len(), 5_000);
    for (a, b) in t.jobs[..5_000].iter().zip(&jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.status, b.status);
        assert_eq!(t.names.base(a.name), names.base(b.name));
    }
}

/// The records of a committed result pin (`repro --pin`), each as
/// `(key, raw value)` pairs with its metrics flattened in. The vendored
/// `serde_json` only writes JSON, so the records are scanned out of the
/// pretty-printed text: one `key: value` per line, every record starting
/// at its `experiment` key.
fn digest_records(file: &str) -> Vec<Vec<(String, String)>> {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed at the repo root");
    let mut records: Vec<Vec<(String, String)>> = Vec::new();
    for line in text.lines() {
        let Some((k, v)) = line.trim().trim_end_matches(',').split_once(": ") else {
            continue;
        };
        let unquote = |t: &str| t.trim_matches('"').to_string();
        if k == "\"experiment\"" {
            records.push(Vec::new());
        }
        if let Some(record) = records.last_mut() {
            record.push((unquote(k), unquote(v)));
        }
    }
    records
}

fn field<'r>(record: &'r [(String, String)], key: &str) -> &'r str {
    record
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("record without `{key}`: {record:?}"))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "four scale-1.0 clusters; run in release (`cargo test --release`)"
)]
fn scale_one_runs_reproduce_committed_bench_digests() {
    // perfbench's `sched` grid at its pinned point (scale 1.0, seed 2020):
    // each Helios cluster's September jobs under FIFO, SJF, SRTF and
    // Tiresias, plus fault-injected FIFO on Venus and Saturn, against the
    // digests and counts committed in BENCH_sched.json and
    // BENCH_faults.json.
    type Ctor = fn() -> Box<dyn SchedulingPolicy>;
    let policies: [(&str, Ctor); 4] = [
        ("FIFO", || Box::new(FifoPolicy)),
        ("SJF", || Box::new(SjfPolicy)),
        ("SRTF", || Box::new(SrtfPolicy)),
        ("TIRESIAS", || Box::new(TiresiasPolicy::default())),
    ];
    let sched = digest_records("BENCH_sched.json");
    let faults = digest_records("BENCH_faults.json");
    let traces = generate_helios(&GeneratorConfig {
        scale: 1.0,
        seed: 2020,
    })
    .unwrap();
    let (mut checked, mut fault_checked) = (0, 0);
    for trace in &traces {
        let cluster = trace.spec.id.name();
        let (lo, hi) = trace.calendar.month_range(5);
        let jobs = jobs_from_trace(trace, lo, hi);
        for (policy, make) in policies {
            let want = sched
                .iter()
                .find(|r| field(r, "cluster") == cluster && field(r, "policy") == policy)
                .map(|r| field(r, "digest"))
                .expect("BENCH_sched.json pins every cluster and policy");
            let outcomes = simulate_with(&trace.spec, &jobs, make(), &KernelConfig::default())
                .unwrap()
                .outcomes;
            assert_eq!(outcome_digest(&outcomes), want, "{cluster} {policy}");
            checked += 1;
        }
        let Some(pin) = faults
            .iter()
            .find(|r| field(r, "cluster") == cluster && field(r, "policy") == "FIFO")
        else {
            continue;
        };
        let mut sim = Simulator::new(&trace.spec, Box::new(FifoPolicy));
        sim.enable_faults(&FaultConfig::with_mtbf_hours(72.0).checkpoint_hours(2.0))
            .unwrap();
        sim.push_jobs(&jobs).unwrap();
        sim.run_to_completion();
        let mut outcomes = sim.drain_outcomes();
        outcomes.sort_by_key(|o| o.id);
        let stats = sim.fault_stats().unwrap();
        assert_eq!(outcome_digest(&outcomes), field(pin, "digest"), "{cluster}");
        assert_eq!(
            stats.failures.to_string(),
            field(pin, "failures"),
            "{cluster}"
        );
        assert_eq!(
            stats.killed_jobs.to_string(),
            field(pin, "killed_jobs"),
            "{cluster}"
        );
        fault_checked += 1;
    }
    assert_eq!((checked, fault_checked), (16, 2));
}

//! Cross-crate integration tests: the full paper pipeline at reduced scale —
//! generation → characterization → prediction → scheduling → energy saving.

use helios_core::{CesService, CesServiceConfig, QssfConfig, QssfService};
use helios_energy::node_series_from_trace;
use helios_sim::{jobs_from_trace, schedule_stats, simulate, Placement, Policy, SimConfig};
use helios_trace::{generate, venus_profile, GeneratorConfig, Trace, SECS_PER_DAY};

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
        &simulate(&t.spec, &base, &SimConfig::new(Policy::Fifo))
            .unwrap()
            .outcomes,
    );
    let sjf = schedule_stats(
        &simulate(&t.spec, &base, &SimConfig::new(Policy::Sjf))
            .unwrap()
            .outcomes,
    );
    let srtf = schedule_stats(
        &simulate(&t.spec, &base, &SimConfig::new(Policy::Srtf))
            .unwrap()
            .outcomes,
    );

    let mut svc = QssfService::new(QssfConfig::default());
    svc.train(&t, 0, lo).unwrap();
    let scored = svc.assign_priorities(&t, lo, hi);
    let qssf = schedule_stats(
        &simulate(&t.spec, &scored, &SimConfig::new(Policy::Priority))
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
    let fifo = simulate(&t.spec, &base, &SimConfig::new(Policy::Fifo))
        .unwrap()
        .outcomes;
    let mut svc = QssfService::new(QssfConfig::default());
    svc.train(&t, 0, lo).unwrap();
    let scored = svc.assign_priorities(&t, lo, hi);
    let qssf = simulate(&t.spec, &scored, &SimConfig::new(Policy::Priority))
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

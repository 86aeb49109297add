//! Snapshot/restore equivalence: checkpointing a kernel mid-run, dropping
//! it, and resuming from the serialized bytes must reproduce the
//! uninterrupted run's outcomes **byte-identically** — same digest over
//! `(id, start, end, preemptions)` as the committed result pins. The state
//! restore derives rather than reads (arrival cursor, running lists, free
//! GPUs, each node's busy GPUs, undrained completions) must equal the
//! source kernel's at the cut.

use helios_energy::EnergyAwarePolicy;
use helios_sim::{
    jobs_from_trace, outcome_digest, FaultConfig, Policy, QueueKey, SchedulingPolicy, SimJob,
    SimSnapshot, Simulator, SrtfPolicy, TiresiasPolicy, SNAPSHOT_VERSION,
};
use helios_trace::{generate, preset, profile_for, ClusterId, GeneratorConfig, HeliosError};

/// The derived state as the kernel's public reads show it: busy GPUs and
/// nodes, running and queued jobs, pending events and unfinished jobs,
/// then each VC's busy GPUs and queue length.
fn derived_state(sim: &Simulator<'_>) -> (Vec<usize>, Vec<(u32, usize)>) {
    let view = sim.cluster_view();
    let totals = vec![
        view.busy_gpus() as usize,
        view.busy_nodes() as usize,
        view.running_jobs(),
        view.queue_len(),
        sim.pending_events(),
        sim.unfinished_jobs(),
    ];
    let per_vc = (0..view.num_vcs())
        .map(|vc| (view.vc_busy_gpus(vc), view.vc_queue_len(vc)))
        .collect();
    (totals, per_vc)
}

/// The kernel's own encoding of its full state into `out`, reusing its
/// allocation: the live frame, then one log frame of every finished
/// record — the bytes [`SimSnapshot::to_bytes`] writes.
fn encode_full(sim: &Simulator<'_>, out: &mut Vec<u8>) {
    sim.live_frame_into(out);
    sim.log_frame_into(0, out);
}

/// Uninterrupted baseline vs. checkpoint-at-`cut`, serialize, restore
/// from the bytes (checking the restored kernel against the source),
/// drop the source, resume. Returns (baseline digest, resumed digest).
fn run_both(
    cluster: ClusterId,
    seed: u64,
    scale: f64,
    make_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
) -> (String, String) {
    let trace = generate(&profile_for(cluster), &GeneratorConfig { scale, seed }).unwrap();
    let (lo, hi) = trace.calendar.month_range(5);
    let jobs = jobs_from_trace(&trace, lo, hi);
    assert!(!jobs.is_empty(), "empty September window at scale {scale}");

    let mut baseline = Simulator::new(&trace.spec, make_policy());
    baseline.push_jobs(&jobs).unwrap();
    baseline.run_to_completion();
    let base_outcomes = baseline.drain_outcomes();

    let mut first = Simulator::new(&trace.spec, make_policy());
    first.push_jobs(&jobs).unwrap();
    let cut = lo + (hi - lo) / 2;
    first.run_until(cut);
    // Drain what finished before the cut: outcomes already surrendered
    // must not reappear after restore, and vice versa.
    let mut resumed_outcomes = first.drain_outcomes();
    let mut bytes = Vec::new();
    encode_full(&first, &mut bytes);

    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    let mut second = Simulator::restore(&trace.spec, make_policy(), &snap).unwrap();
    assert_eq!(second.now(), cut);
    let mut again = Vec::new();
    encode_full(&second, &mut again);
    assert!(again == bytes, "the restored kernel re-encodes differently");
    assert_eq!(derived_state(&second), derived_state(&first));
    drop(first);
    second.run_to_completion();
    resumed_outcomes.extend(second.drain_outcomes());
    resumed_outcomes.sort_by_key(|o| o.id);

    let mut base_sorted = base_outcomes;
    base_sorted.sort_by_key(|o| o.id);
    assert_eq!(base_sorted.len(), resumed_outcomes.len());
    (
        outcome_digest(&base_sorted),
        outcome_digest(&resumed_outcomes),
    )
}

#[test]
fn scale_01_digests_survive_checkpoint_three_seeds_two_presets() {
    // The acceptance matrix: 3 seeds x 2 presets at scale 0.1.
    for cluster in [ClusterId::Venus, ClusterId::Saturn] {
        for seed in [2020u64, 2021, 2022] {
            let (base, resumed) = run_both(cluster, seed, 0.1, || Policy::Fifo.build());
            assert_eq!(
                base, resumed,
                "digest diverged after restore ({cluster:?}, seed {seed})"
            );
        }
    }
}

#[test]
fn preemptive_state_survives_checkpoint() {
    // SRTF carries remaining-time ordering and mid-flight preemption
    // state (epochs, stale finish events) across the checkpoint;
    // Tiresias adds discretized-LAS level state.
    let (base, resumed) = run_both(ClusterId::Venus, 7, 0.05, || Box::new(SrtfPolicy));
    assert_eq!(base, resumed, "SRTF diverged after restore");
    let (base, resumed) = run_both(ClusterId::Venus, 8, 0.05, || {
        Box::new(TiresiasPolicy::default())
    });
    assert_eq!(base, resumed, "Tiresias diverged after restore");
}

#[test]
fn stateful_policy_state_round_trips_through_snapshot() {
    // The energy-aware policy's hook-fed utilization gate is dynamic
    // policy state: it must travel through save_state/load_state for the
    // resumed run to take identical FIFO-vs-energy ordering decisions.
    let (base, resumed) = run_both(ClusterId::Venus, 9, 0.05, || {
        Box::new(EnergyAwarePolicy::default())
    });
    assert_eq!(base, resumed, "energy-aware policy diverged after restore");
}

#[test]
fn restore_rejects_mismatched_cluster_and_policy() {
    let trace = generate(
        &profile_for(ClusterId::Venus),
        &GeneratorConfig {
            scale: 0.05,
            seed: 1,
        },
    )
    .unwrap();
    let (lo, hi) = trace.calendar.month_range(5);
    let jobs = jobs_from_trace(&trace, lo, hi);
    let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
    sim.push_jobs(&jobs).unwrap();
    sim.run_until(lo + (hi - lo) / 2);
    let snap = sim.snapshot();

    // Wrong cluster: the spec fingerprint catches it.
    let err = Simulator::restore(&preset(ClusterId::Earth), Policy::Fifo.build(), &snap)
        .err()
        .expect("cross-cluster restore must fail");
    assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");

    // Wrong policy: the recorded discipline name catches it.
    let err = Simulator::restore(&trace.spec, Policy::Sjf.build(), &snap)
        .err()
        .expect("cross-policy restore must fail");
    assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
}

#[test]
fn restore_refuses_unrunnable_allocations_and_queue_heads() {
    // One 8-GPU gang running on a Venus VC. Each corruption below would
    // panic inside the pool once the gang finished, so restore refuses it.
    let spec = preset(ClusterId::Venus);
    let job = SimJob {
        id: 1,
        vc: 0,
        gpus: 8,
        submit: 0,
        duration: 600,
        priority: 0.0,
    };
    let mut sim = Simulator::new(&spec, Policy::Fifo.build());
    sim.push_jobs(&[job]).unwrap();
    sim.run_until(0);
    let snap = sim.snapshot();
    assert_eq!(snap.vcs[0].running_allocs, [[(0, 8)].into_iter().collect()]);
    let idle = spec.vcs[0].nodes - 1;
    let mut twin = Simulator::restore(&spec, Policy::Fifo.build(), &snap).unwrap();
    twin.run_to_completion();
    assert_eq!(twin.drain_outcomes().len(), 1);

    let corrupt = |slices: &[(u32, u32)]| {
        let mut bad = snap.clone();
        bad.vcs[0].running_allocs[0] = slices.iter().copied().collect();
        bad
    };
    let moved = |vc: u16| {
        let mut bad = snap.clone();
        bad.live[0].1.job.vc = vc;
        bad
    };
    let cases: [(&str, SimSnapshot); 6] = [
        ("node outside the VC", corrupt(&[(9999, 8)])),
        ("an empty slice", corrupt(&[(0, 8), (idle, 0)])),
        ("fewer GPUs than requested", corrupt(&[(0, 4)])),
        ("more GPUs than requested", corrupt(&[(0, 8), (idle, 1)])),
        ("a job on a VC outside the cluster", moved(999)),
        ("a job running under another VC", moved(1)),
    ];
    for (what, bad) in cases {
        let refused = |snap: &SimSnapshot| {
            matches!(
                Simulator::restore(&spec, Policy::Fifo.build(), snap),
                Err(HeliosError::Snapshot { .. })
            )
        };
        assert!(refused(&bad), "{what}");
        let decoded = SimSnapshot::from_bytes(&bad.to_bytes()).unwrap();
        assert!(refused(&decoded), "{what}, through HSIMSNAP bytes");
    }

    // A queue head that fits the free GPUs is a state the kernel never
    // leaves between events: a gang holding all but one node blocks a
    // two-node job, which would fit were it a one-node job.
    let gpn = spec.gpus_per_node;
    let hog = SimJob {
        gpus: spec.vc_gpus(0) - gpn,
        ..job
    };
    let blocked = SimJob {
        id: 2,
        gpus: 2 * gpn,
        ..job
    };
    let mut sim = Simulator::new(&spec, Policy::Fifo.build());
    sim.push_jobs(&[hog, blocked]).unwrap();
    sim.run_until(0);
    let snap = sim.snapshot();
    assert_eq!(snap.vcs[0].queue.len(), 1);
    assert!(Simulator::restore(&spec, Policy::Fifo.build(), &snap).is_ok());
    let mut fits = snap.clone();
    fits.live[1].1.job.gpus = gpn;
    let mut elsewhere = snap.clone();
    elsewhere.live[1].1.job.vc = 1;
    // A live finish event (current epoch, no end) for the queued job: it
    // would fire first and remove a job that holds no running slot.
    let mut finishes_queued = snap.clone();
    finishes_queued
        .finishes
        .insert(0, (100, 1, snap.live[1].1.epoch));
    // Each job is in exactly one place: the queued job's record in the
    // finished log, a record both live and finished, outcomes drained
    // past the finished records, the running gang also queued, and the
    // queued job queued twice are each refused.
    let mut completes_queued = snap.clone();
    let queued = completes_queued.live.remove(1);
    completes_queued.finished.push(queued);
    let mut recorded_twice = snap.clone();
    recorded_twice.finished.push(recorded_twice.live[1]);
    recorded_twice.job_count += 1;
    let mut drained_past = snap.clone();
    drained_past.drained = 1;
    let mut queues_running = snap.clone();
    queues_running.vcs[0]
        .queue
        .insert(0, (QueueKey(f64::NEG_INFINITY, hog.id), 0));
    let mut queued_twice = snap.clone();
    let entry = queued_twice.vcs[0].queue[0];
    queued_twice.vcs[0].queue.push(entry);
    // The gang's one live finish entry fires when it will end, and no
    // entry carries an epoch its job has not reached: one would come alive
    // when the queued job starts, at 600, and end it at 900.
    assert_eq!(snap.finishes, [(600, 0, snap.live[0].1.epoch)]);
    let mut finishes_early = snap.clone();
    finishes_early.finishes[0].0 = 599;
    let mut finishes_later_epoch = snap.clone();
    finishes_later_epoch
        .finishes
        .push((900, 1, snap.live[1].1.epoch + 1));
    for bad in [
        fits,
        elsewhere,
        finishes_queued,
        completes_queued,
        recorded_twice,
        drained_past,
        queues_running,
        queued_twice,
        finishes_early,
        finishes_later_epoch,
    ] {
        for bad in [
            bad.clone(),
            SimSnapshot::from_bytes(&bad.to_bytes()).unwrap(),
        ] {
            let err = Simulator::restore(&spec, Policy::Fifo.build(), &bad)
                .err()
                .expect("refused");
            assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
        }
    }
}

#[test]
fn snapshot_into_a_recycled_longer_buffer_equals_to_bytes() {
    // The checkpoint path encodes each generation into the buffer of an
    // evicted one: whatever that buffer held before must not leak into
    // the blob.
    let trace = generate(
        &profile_for(ClusterId::Venus),
        &GeneratorConfig {
            scale: 0.05,
            seed: 3,
        },
    )
    .unwrap();
    let (lo, hi) = trace.calendar.month_range(5);
    let jobs = jobs_from_trace(&trace, lo, hi);
    let mid = lo + (hi - lo) / 2;
    let kernel = |jobs: &[_], faults: bool| {
        let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
        if faults {
            sim.enable_faults(&FaultConfig::with_mtbf_hours(24.0))
                .unwrap();
        }
        sim.push_jobs(jobs).unwrap();
        sim.run_until(mid);
        sim
    };
    let full = kernel(&jobs, false);
    let mut buf = Vec::new();
    for faults in [false, true] {
        encode_full(&full, &mut buf);
        assert_eq!(buf, full.snapshot().to_bytes());
        let longer = buf.len();
        let shorter = kernel(&jobs[..jobs.len() / 2], faults);
        encode_full(&shorter, &mut buf);
        let want = shorter.snapshot().to_bytes();
        assert!(want.len() < longer, "the buffer held a longer blob");
        assert_eq!(buf, want, "faults: {faults}");
        assert_eq!(buf[8..12], SNAPSHOT_VERSION.to_le_bytes());
        let snap = SimSnapshot::from_bytes(&buf).unwrap();
        assert_eq!(snap.fault.is_some(), faults);
    }
}

#[test]
fn restore_derives_busy_gpus_from_the_running_allocations() {
    // Failure injection on, one 8-GPU gang on node 0: FAULTSNAP carries no
    // busy counts, and the restored kernel's per-node telemetry (the
    // predictor and drain-policy features) equals the source's anyway.
    let spec = preset(ClusterId::Venus);
    let mut sim = Simulator::new(&spec, Policy::Fifo.build());
    sim.enable_faults(&FaultConfig::with_mtbf_hours(2000.0))
        .unwrap();
    let gang = SimJob {
        id: 1,
        vc: 0,
        gpus: 8,
        submit: 0,
        duration: 600,
        priority: 0.0,
    };
    sim.push_jobs(&[gang]).unwrap();
    sim.run_until(100);
    let snap = SimSnapshot::from_bytes(&sim.snapshot().to_bytes()).unwrap();
    assert_eq!(snap.vcs[0].running_allocs, [[(0, 8)].into_iter().collect()]);
    let twin = Simulator::restore(&spec, Policy::Fifo.build(), &snap).unwrap();
    let (now, source, restored) = (sim.now(), sim.cluster_view(), twin.cluster_view());
    assert_eq!(source.node_features(0, now).map(|f| f[4]), Some(1.0));
    for node in 0..source.total_nodes() {
        assert_eq!(
            restored.node_features(node, now),
            source.node_features(node, now),
            "node {node}"
        );
    }
}

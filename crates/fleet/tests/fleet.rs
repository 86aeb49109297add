//! Integration tests for the fleet service layer: concurrent-producer
//! ordering, backpressure semantics, live queries under load, and
//! whole-fleet snapshot/restore equivalence.

use helios_fleet::{
    ClusterConfig, Fleet, FleetConfig, FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION,
    MAX_SHARD_CAPACITY,
};
use helios_sim::{
    jobs_from_trace, outcome_digest, xxh64, ByteWriter, JobOutcome, Policy, SimJob, Simulator,
};
use helios_trace::{generate, preset, ClusterId, GeneratorConfig, HeliosError};
use std::sync::atomic::{AtomicUsize, Ordering};

fn sorted_digest(mut outcomes: Vec<JobOutcome>) -> (usize, String) {
    outcomes.sort_by_key(|o| o.id);
    (outcomes.len(), outcome_digest(&outcomes))
}

#[test]
fn concurrent_producers_keep_same_vc_submission_order() {
    // The admission-batching contract: jobs a producer streams into one
    // VC shard start in submission order, no matter how many other
    // producers and admission cycles race it. Each producer owns one VC
    // and submits full-VC jobs (so the VC serializes them); monotone ids
    // per producer make FIFO order observable in the outcomes.
    const PRODUCERS: usize = 3;
    const JOBS_PER_PRODUCER: u64 = 80;

    let fleet = Fleet::launch(
        &FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo)),
    )
    .unwrap();
    let status = fleet.status(ClusterId::Venus).unwrap();
    assert!(status.vcs.len() >= PRODUCERS, "Venus has too few VCs");
    let vc_caps: Vec<u32> = status.vcs.iter().map(|v| v.capacity_gpus).collect();

    let live = AtomicUsize::new(PRODUCERS);
    std::thread::scope(|scope| {
        for (p, &gpus) in vc_caps.iter().enumerate().take(PRODUCERS) {
            let fleet = &fleet;
            let live = &live;
            scope.spawn(move || {
                for k in 0..JOBS_PER_PRODUCER {
                    let job = SimJob {
                        id: p as u64 * 1_000_000 + k,
                        vc: p as u16,
                        gpus,
                        submit: 0,
                        duration: 5,
                        priority: 0.0,
                    };
                    // Bounded shards mean a slow pump surfaces as
                    // FleetOverflow; the documented remedy is to retry
                    // after the next admission cycle.
                    loop {
                        match fleet.submit(ClusterId::Venus, job) {
                            Ok(()) => break,
                            Err(HeliosError::FleetOverflow { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                }
                live.fetch_sub(1, Ordering::AcqRel);
            });
        }

        // Pump admission cycles while the producers race, answering live
        // queries between cycles.
        let mut horizon = 0;
        while live.load(Ordering::Acquire) > 0 {
            horizon += 5;
            fleet.advance(horizon).unwrap();
            let s = fleet.status(ClusterId::Venus).unwrap();
            assert!(s.submitted >= s.admitted);
            assert!(s.utilization() <= 1.0);
        }
    });
    fleet.advance(10_000_000).unwrap();

    let status = fleet.status(ClusterId::Venus).unwrap();
    assert_eq!(status.submitted, (PRODUCERS as u64) * JOBS_PER_PRODUCER);
    assert_eq!(status.admitted, status.submitted, "shards fully drained");
    assert_eq!(status.finished, status.submitted, "all jobs completed");
    assert_eq!(status.pending_ingest, 0);

    let mut outcomes = fleet.shutdown().unwrap();
    let (_, venus_outcomes) = outcomes.pop().unwrap();
    for p in 0..PRODUCERS {
        let mut mine: Vec<&JobOutcome> =
            venus_outcomes.iter().filter(|o| o.vc == p as u16).collect();
        assert_eq!(mine.len(), JOBS_PER_PRODUCER as usize);
        mine.sort_by_key(|o| o.id);
        for pair in mine.windows(2) {
            assert!(
                pair[0].start <= pair[1].start,
                "VC {p}: job {} (start {}) overtook job {} (start {})",
                pair[1].id,
                pair[1].start,
                pair[0].id,
                pair[0].start,
            );
        }
    }
}

#[test]
fn backpressure_and_validation_are_typed() {
    let fleet = Fleet::launch(
        &FleetConfig::new()
            .with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_shard_capacity(4),
    )
    .unwrap();
    let job = |id: u64| SimJob {
        id,
        vc: 0,
        gpus: 1,
        submit: 0,
        duration: 10,
        priority: 0.0,
    };

    // Fill the VC-0 shard to its bound...
    for id in 0..4 {
        fleet.submit(ClusterId::Venus, job(id)).unwrap();
    }
    // ...the next submission is backpressure, typed and attributed.
    let err = fleet.submit(ClusterId::Venus, job(4)).unwrap_err();
    match err {
        HeliosError::FleetOverflow {
            cluster,
            vc,
            capacity,
        } => {
            assert_eq!(cluster, "Venus");
            assert_eq!(vc, 0);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected FleetOverflow, got {other}"),
    }
    // An admission cycle drains the shard; the retry goes through.
    fleet.advance(1).unwrap();
    fleet.submit(ClusterId::Venus, job(4)).unwrap();

    // Unknown VC: rejected at the door, tagged with the cluster.
    let mut bad = job(5);
    bad.vc = 9_999;
    let err = fleet.submit(ClusterId::Venus, bad).unwrap_err();
    assert!(
        matches!(err, HeliosError::Cluster { .. }),
        "unknown VC should be a cluster-tagged validation error, got {err}"
    );

    // Unhosted cluster: a name lookup error listing what is hosted.
    let err = fleet.submit(ClusterId::Philly, job(6)).unwrap_err();
    assert!(
        matches!(
            err,
            HeliosError::UnknownName {
                kind: "cluster",
                ..
            }
        ),
        "{err}"
    );

    // Duplicate topology is rejected at launch.
    let dup = FleetConfig::new()
        .with_cluster(ClusterConfig::new(ClusterId::Earth, Policy::Fifo))
        .with_cluster(ClusterConfig::new(ClusterId::Earth, Policy::Sjf));
    assert!(Fleet::launch(&dup).is_err());
}

#[test]
fn fleet_snapshot_restore_matches_uninterrupted_run() {
    // Two clusters under different disciplines (one preemptive), fed
    // trace workload in three waves: a pre-checkpoint batch, a small
    // in-shard batch that the snapshot must admit and capture, and a
    // post-checkpoint batch replayed identically into the original and
    // the restored fleet. Downstream outcomes must be byte-identical,
    // and both must match a plain uninterrupted kernel run.
    let hosted = [
        (ClusterId::Venus, Policy::Fifo),
        (ClusterId::Saturn, Policy::Srtf),
    ];
    let mut config = FleetConfig::new();
    for &(cluster, policy) in &hosted {
        config = config.with_cluster(ClusterConfig::new(cluster, policy));
    }

    let mut batches = Vec::new();
    let mut cut = 0;
    for &(cluster, _) in &hosted {
        let trace = generate(
            &helios_trace::profile_for(cluster),
            &GeneratorConfig {
                scale: 0.05,
                seed: 42,
            },
        )
        .unwrap();
        let (lo, hi) = trace.calendar.month_range(5);
        cut = lo + (hi - lo) / 3;
        let jobs = jobs_from_trace(&trace, lo, hi);
        assert!(jobs.len() > 20, "window too small for a meaningful test");
        batches.push((cluster, jobs));
    }

    // Wave 1: everything up to the cut, then advance to the cut.
    let fleet_a = Fleet::launch(&config).unwrap();
    for (cluster, jobs) in &batches {
        for job in jobs.iter().filter(|j| j.submit <= cut) {
            fleet_a.submit(*cluster, *job).unwrap();
        }
    }
    fleet_a.advance(cut).unwrap();
    let mut drained_a = Vec::new();
    for &(cluster, _) in &hosted {
        drained_a.push((cluster, fleet_a.drain(cluster).unwrap()));
    }

    // Wave 2: a few post-cut jobs left sitting in the ingestion shards —
    // the checkpoint must admit and capture them.
    const IN_SHARD: usize = 5;
    for (cluster, jobs) in &batches {
        for job in jobs.iter().filter(|j| j.submit > cut).take(IN_SHARD) {
            fleet_a.submit(*cluster, *job).unwrap();
        }
    }
    let frame = fleet_a.snapshot().unwrap();

    // Wave 3 into the original fleet, then run it out.
    for (cluster, jobs) in &batches {
        for job in jobs.iter().filter(|j| j.submit > cut).skip(IN_SHARD) {
            fleet_a.submit(*cluster, *job).unwrap();
        }
    }
    let rest_a = fleet_a.shutdown().unwrap();

    // Same wave 3 into the restored fleet.
    let fleet_b = Fleet::restore(&frame).unwrap();
    for &(cluster, _) in &hosted {
        let s = fleet_b.status(cluster).unwrap();
        assert_eq!(s.now, cut, "restored clock must resume at the cut");
        assert_eq!(s.pending_ingest, 0, "restored shards start empty");
    }
    for (cluster, jobs) in &batches {
        for job in jobs.iter().filter(|j| j.submit > cut).skip(IN_SHARD) {
            fleet_b.submit(*cluster, *job).unwrap();
        }
    }
    let rest_b = fleet_b.shutdown().unwrap();

    for (i, &(cluster, policy)) in hosted.iter().enumerate() {
        let full_a: Vec<JobOutcome> = drained_a[i]
            .1
            .iter()
            .chain(rest_a[i].1.iter())
            .copied()
            .collect();
        let full_b: Vec<JobOutcome> = drained_a[i]
            .1
            .iter()
            .chain(rest_b[i].1.iter())
            .copied()
            .collect();
        let (n_a, digest_a) = sorted_digest(full_a);
        let (n_b, digest_b) = sorted_digest(full_b);
        assert_eq!(n_a, batches[i].1.len(), "{cluster:?}: outcomes lost");
        assert_eq!(n_a, n_b, "{cluster:?}: restored run lost outcomes");
        assert_eq!(
            digest_a, digest_b,
            "{cluster:?}: restored fleet diverged from the original"
        );

        // And the service layer itself must not distort scheduling: a
        // plain kernel fed the same jobs in one batch agrees bit for bit.
        let mut sim = Simulator::new(&preset(cluster), policy.build());
        sim.push_jobs(&batches[i].1).unwrap();
        sim.run_to_completion();
        let (n_k, digest_k) = sorted_digest(sim.drain_outcomes());
        assert_eq!(n_k, n_a);
        assert_eq!(
            digest_k, digest_a,
            "{cluster:?}: fleet outcomes diverge from a plain kernel run"
        );
    }
}

#[test]
fn fleet_frame_rejects_garbage() {
    let fleet = Fleet::launch(
        &FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Earth, Policy::Fifo)),
    )
    .unwrap();
    let frame = fleet.snapshot().unwrap();
    drop(fleet);

    assert!(Fleet::restore(&frame).is_ok());
    for cut in [0, 7, frame.len() / 2, frame.len() - 1] {
        let err = Fleet::restore(&frame[..cut]).unwrap_err();
        assert!(
            matches!(err, HeliosError::Snapshot { .. }),
            "cut at {cut}: {err}"
        );
    }
    let mut wrong_magic = frame.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(Fleet::restore(&wrong_magic).is_err());
    let mut trailing = frame;
    trailing.push(0);
    assert!(Fleet::restore(&trailing).is_err());
}

#[test]
fn fleet_frame_encoding_is_pinned() {
    // The guard fingerprint counts codec calls, not their order, so
    // swapping two fields would pass it; this pin would not. An idle Earth
    // fleet ships its second generation (launch, then the snapshot's).
    let fleet = Fleet::launch(
        &FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Earth, Policy::Fifo)),
    )
    .unwrap();
    let frame = fleet.snapshot().unwrap();
    assert_eq!(
        fleet
            .status(ClusterId::Earth)
            .unwrap()
            .health
            .checkpoint_generation,
        1
    );
    assert_eq!(frame[8..12], FLEET_SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(xxh64(&frame), 0xf399_270f_5947_34e6);
}

#[test]
fn out_of_range_shard_capacity_is_refused_at_launch() {
    // Each shard's channel allocates every slot up front, so a capacity
    // like 2^40 would abort the process; validation must refuse it (and
    // 0) before any worker spawns.
    for capacity in [0, MAX_SHARD_CAPACITY + 1, 1 << 40] {
        let config = FleetConfig::new()
            .with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_shard_capacity(capacity);
        let err = Fleet::launch(&config).unwrap_err();
        assert!(
            matches!(
                err,
                HeliosError::InvalidConfig {
                    field: "shard_capacity",
                    ..
                }
            ),
            "{capacity}: {err}"
        );
    }
}

#[test]
fn out_of_range_shard_capacity_is_refused_at_restore() {
    // A sealed frame (valid checksum) whose shard capacity is 0 or above
    // the maximum: the decoder must refuse it before spawning a worker.
    // The capacity is the frame's first field, so nothing after it is read.
    for capacity in [0, MAX_SHARD_CAPACITY as u64 + 1, 1 << 40, u64::MAX] {
        let mut w = ByteWriter::new();
        w.frame(&FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION, |w| {
            w.u64(capacity);
            w.u64(0); // cluster count
        });
        let err = Fleet::restore(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
        assert!(err.to_string().contains("shard_capacity"), "{err}");
    }
}

#[test]
fn soak_smoke_streams_jobs_across_all_presets() {
    // A miniature of the repro soak: every preset hosted concurrently,
    // jobs streamed in waves over every VC, live queries answered
    // between admission cycles, everything drained at shutdown.
    let fleet = Fleet::launch(&FleetConfig::all_presets(Policy::Fifo)).unwrap();
    let clusters = fleet.clusters();
    assert_eq!(clusters.len(), 5);

    let mut submitted_total = 0u64;
    let mut next_id = 0u64;
    for wave in 0..8 {
        for &cluster in &clusters {
            let nvcs = fleet.status(cluster).unwrap().vcs.len();
            for k in 0..50 {
                let job = SimJob {
                    id: next_id,
                    vc: ((k + wave) % nvcs) as u16,
                    gpus: 1 + (k as u32 % 2),
                    submit: wave as i64 * 600,
                    duration: 30 + (k as i64 % 7) * 60,
                    priority: 0.0,
                };
                fleet.submit(cluster, job).unwrap();
                next_id += 1;
                submitted_total += 1;
            }
        }
        fleet.advance((wave + 1) as i64 * 600).unwrap();
        for &cluster in &clusters {
            let s = fleet.status(cluster).unwrap();
            assert_eq!(s.pending_ingest, 0, "advance drains every shard");
            assert!(s.utilization() <= 1.0);
            for vc in &s.vcs {
                assert!(vc.eta_secs().is_finite() && vc.eta_secs() >= 0.0);
            }
        }
    }

    let outcomes = fleet.shutdown().unwrap();
    let drained: usize = outcomes.iter().map(|(_, o)| o.len()).sum();
    assert_eq!(drained as u64, submitted_total, "every job drained");
}

/// Outstanding work of one queued job as the fleet defines it: the
/// supplied priority score when positive, else `gpus × duration`.
fn expected_work(job: &SimJob) -> f64 {
    if job.priority > 0.0 {
        job.priority
    } else {
        job.gpus as f64 * job.duration.max(1) as f64
    }
}

/// `n` jobs on `vc`, all submitted at `submit`, in mixed gang sizes and
/// durations; every other job carries an integral priority score, the
/// rest fall back to the oracle proxy (integral sums stay exact in any
/// summation order).
fn backlog(vc: u16, n: u64, submit: i64) -> Vec<SimJob> {
    (0..n)
        .map(|k| {
            let gpus = [1, 2, 4, 8][k as usize % 4];
            let duration = 1_800 + (k as i64 % 5) * 900;
            SimJob {
                id: k,
                vc,
                gpus,
                submit,
                duration,
                priority: if k % 2 == 0 {
                    (3 * gpus as i64 * duration / 2) as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[test]
fn restored_empty_vcs_report_positive_zero_work() {
    // `-0.0` passes a `>= 0.0` check but prints as a negative ETA, so the
    // sign bit itself is pinned.
    let config =
        FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo));
    let fleet = Fleet::launch(&config).unwrap();
    for job in backlog(0, 40, 0) {
        fleet.submit(ClusterId::Venus, job).unwrap();
    }
    fleet.advance(600).unwrap();
    let restored = Fleet::restore(&fleet.snapshot().unwrap()).unwrap();
    for f in [&fleet, &restored] {
        let status = f.status(ClusterId::Venus).unwrap();
        let empty: Vec<_> = status.vcs.iter().filter(|v| v.queued == 0).collect();
        assert!(empty.len() > 1, "only VC 0 received jobs");
        for vc in empty {
            assert_eq!(vc.queued_work.to_bits(), 0.0f64.to_bits(), "VC {}", vc.vc);
            assert_eq!(vc.eta_secs().to_bits(), 0.0f64.to_bits(), "VC {}", vc.vc);
        }
    }
    fleet.shutdown().unwrap();
    restored.shutdown().unwrap();
}

#[test]
fn queued_work_matches_the_kernel_queue() {
    // Overfill one VC at t=0, advance the fleet, and compare its published
    // queued work with the backlog a plain FIFO kernel leaves at the same
    // horizon: under FIFO a job is queued at `horizon` iff it started
    // after it.
    let config =
        FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo));
    let fleet = Fleet::launch(&config).unwrap();
    let vc = 0u16;
    let capacity = fleet.status(ClusterId::Venus).unwrap().vcs[vc as usize].capacity_gpus;
    let jobs = backlog(vc, 2 * capacity as u64, 0);
    for job in &jobs {
        fleet.submit(ClusterId::Venus, *job).unwrap();
    }
    let horizon = 2_000;
    fleet.advance(horizon).unwrap();
    let status = fleet.status(ClusterId::Venus).unwrap();
    let published = &status.vcs[vc as usize];
    fleet.shutdown().unwrap();

    let mut sim = Simulator::new(&preset(ClusterId::Venus), Policy::Fifo.build());
    sim.push_jobs(&jobs).unwrap();
    sim.run_to_completion();
    let started: std::collections::HashMap<u64, i64> = sim
        .drain_outcomes()
        .iter()
        .map(|o| (o.id, o.start))
        .collect();
    let waiting: Vec<&SimJob> = jobs.iter().filter(|j| started[&j.id] > horizon).collect();
    let expected: f64 = waiting.iter().map(|j| expected_work(j)).sum();

    assert!(!waiting.is_empty(), "the backlog must outlast the horizon");
    assert_eq!(published.queued, waiting.len());
    assert_eq!(published.queued_work, expected);
    assert_eq!(
        published.eta_secs(),
        expected / published.capacity_gpus as f64
    );
}

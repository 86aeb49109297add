//! Fleet self-healing properties, driven by the deterministic chaos
//! harness: supervised workers recover from injected panics with
//! byte-identical outcome streams, a corrupt newest checkpoint
//! generation falls back to the previous one, decoder fuzzing never
//! panics, `submit_with_retry` rides out stalled admission cycles,
//! `Fleet::recover` rebuilds a fleet from the on-disk checkpoint ring
//! after whole-process death, and a `Fleet::snapshot` is a checkpoint
//! generation that both `Fleet::restore` and `Fleet::recover` resume.

use helios_fleet::{
    ChaosConfig, CheckpointConfig, ClusterConfig, Fleet, FleetConfig, FleetHealth, RetryConfig,
    WorkerState, FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION,
};
use helios_sim::{outcome_digest, ByteWriter, JobOutcome, Policy, SimJob, SimSnapshot, Simulator};
use helios_trace::{preset, ClusterId, HeliosError};
use std::time::Duration;

fn sorted_digest(mut outcomes: Vec<JobOutcome>) -> (usize, String) {
    outcomes.sort_by_key(|o| o.id);
    (outcomes.len(), outcome_digest(&outcomes))
}

/// The deterministic synthetic job for slot `k` of wave `w` — the same
/// stream every fleet in a comparison pair sees.
fn wave_job(id: u64, w: u64, k: u64, nvcs: usize) -> SimJob {
    SimJob {
        id,
        vc: ((k + w) % nvcs as u64) as u16,
        gpus: 1 + (k % 2) as u32,
        submit: w as i64 * 600,
        duration: 30 + (k % 7) as i64 * 60,
        priority: 0.0,
    }
}

/// Stream `waves × per_wave` jobs into a single-cluster fleet, draining
/// after every advance (so crash replays must suppress already-delivered
/// outcomes), then shut down. Returns the full outcome stream and the
/// final pre-shutdown health.
fn run_streamed(
    fleet: &Fleet,
    cluster: ClusterId,
    waves: std::ops::Range<u64>,
    per_wave: u64,
) -> Vec<JobOutcome> {
    let nvcs = fleet.statuses()[0].vcs.len();
    let mut outcomes = Vec::new();
    for w in waves {
        for k in 0..per_wave {
            fleet
                .submit(cluster, wave_job(w * per_wave + k, w, k, nvcs))
                .expect("synthetic job is valid");
        }
        fleet.advance((w as i64 + 1) * 600).expect("advance");
        outcomes.extend(fleet.drain(cluster).expect("drain"));
    }
    outcomes
}

fn single_cluster_config(cluster: ClusterId, policy: Policy) -> FleetConfig {
    FleetConfig::new()
        .with_cluster(ClusterConfig::new(cluster, policy))
        .with_checkpoint(CheckpointConfig::default().every_cycles(1).generations(4))
}

#[test]
fn chaos_recovery_digests_match_uninterrupted_run() {
    // The tentpole acceptance property: with >= 1 injected worker panic
    // and >= 1 corrupted newest checkpoint generation mid-stream, the
    // recovered fleet's outcome stream is byte-identical to an
    // uninterrupted twin's — across 3 chaos seeds x 2 presets.
    const WAVES: u64 = 4;
    const PER_WAVE: u64 = 40;
    for seed in [1u64, 2, 3] {
        for (cluster, policy) in [
            (ClusterId::Venus, Policy::Fifo),
            (ClusterId::Saturn, Policy::Srtf),
        ] {
            let calm = Fleet::launch(&single_cluster_config(cluster, policy)).unwrap();
            let mut baseline = run_streamed(&calm, cluster, 0..WAVES, PER_WAVE);
            baseline.extend(calm.shutdown().unwrap().pop().unwrap().1);

            // Panic 1 lands inside cycle 1 or 2; panic 2 lands in cycle
            // 2+ after corrupted generations exist, so at least one
            // recovery must fall back past damaged blobs. Periodic
            // generations 2 and 3 are corrupted the moment they are
            // written (post-recovery re-baselines are never damaged, so
            // recovery always has a clean generation within the ring).
            let chaos = ChaosConfig::seeded(seed)
                .panic_at(70 + seed * 10)
                .panic_at(200 + seed * 15)
                .corrupt_generation(2)
                .corrupt_generation(3);
            let stormy =
                Fleet::launch(&single_cluster_config(cluster, policy).with_chaos(chaos)).unwrap();
            let mut recovered = run_streamed(&stormy, cluster, 0..WAVES, PER_WAVE);
            let health = stormy.statuses()[0].health;
            recovered.extend(stormy.shutdown().unwrap().pop().unwrap().1);

            assert!(
                health.restarts >= 1,
                "seed {seed} {cluster:?}: no chaos panic was caught (restarts 0)"
            );
            assert!(
                health.fallbacks >= 1,
                "seed {seed} {cluster:?}: no recovery fell back past a corrupt generation"
            );
            assert_eq!(health.state, WorkerState::Healthy);
            let (n_base, d_base) = sorted_digest(baseline);
            let (n_rec, d_rec) = sorted_digest(recovered);
            assert_eq!(n_base, (WAVES * PER_WAVE) as usize);
            assert_eq!(
                n_rec, n_base,
                "seed {seed} {cluster:?}: outcomes lost or duplicated"
            );
            assert_eq!(
                d_rec, d_base,
                "seed {seed} {cluster:?}: recovered stream diverged from the uninterrupted run"
            );
        }
    }
}

#[test]
fn corrupt_newest_generation_falls_back_to_previous() {
    // Deterministic narrow case: wave 1 produces at most 90 kernel
    // events (30 jobs x submit/start/finish), so the panic scheduled at
    // event 100 fires during cycle 2 — when the newest generation is the
    // corrupted periodic checkpoint 1 — and recovery must fall back to
    // the launch generation.
    const PER_WAVE: u64 = 30;
    let cluster = ClusterId::Venus;
    let calm = Fleet::launch(&single_cluster_config(cluster, Policy::Fifo)).unwrap();
    let mut baseline = run_streamed(&calm, cluster, 0..3, PER_WAVE);
    baseline.extend(calm.shutdown().unwrap().pop().unwrap().1);

    let chaos = ChaosConfig::seeded(11).panic_at(100).corrupt_generation(1);
    let stormy =
        Fleet::launch(&single_cluster_config(cluster, Policy::Fifo).with_chaos(chaos)).unwrap();
    let mut recovered = run_streamed(&stormy, cluster, 0..3, PER_WAVE);
    let health = stormy.statuses()[0].health;
    recovered.extend(stormy.shutdown().unwrap().pop().unwrap().1);

    assert_eq!(health.restarts, 1, "exactly one scheduled panic");
    assert_eq!(
        health.fallbacks, 1,
        "recovery must skip the corrupted newest generation exactly once"
    );
    assert_eq!(health.state, WorkerState::Healthy);
    assert!(
        health.checkpoint_writes >= 4,
        "launch + periodic + re-baseline generations"
    );
    assert_eq!(sorted_digest(recovered), sorted_digest(baseline));
}

#[test]
fn exhausted_restart_budget_is_a_typed_crash_and_statuses_stay_infallible() {
    // max_restarts = 0: the first caught panic is terminal. Every
    // fallible call answers with the typed WorkerCrashed error, while
    // `statuses()` keeps serving the degraded-mode view.
    let config = single_cluster_config(ClusterId::Earth, Policy::Fifo)
        .with_max_restarts(0)
        .with_chaos(ChaosConfig::seeded(5).panic_at(1));
    let fleet = Fleet::launch(&config).unwrap();
    let nvcs = fleet.statuses()[0].vcs.len();
    fleet
        .submit(ClusterId::Earth, wave_job(0, 0, 0, nvcs))
        .unwrap();

    let err = fleet.advance(600).unwrap_err();
    match &err {
        HeliosError::WorkerCrashed { cluster, restarts } => {
            assert_eq!(cluster, "Earth");
            assert_eq!(*restarts, 0, "budget 0 means no restart was attempted");
        }
        other => panic!("expected WorkerCrashed, got {other}"),
    }

    // Fallible surfaces all report the same typed condition...
    assert!(matches!(
        fleet.status(ClusterId::Earth),
        Err(HeliosError::WorkerCrashed { .. })
    ));
    assert!(matches!(
        fleet.drain(ClusterId::Earth),
        Err(HeliosError::WorkerCrashed { .. })
    ));
    assert!(matches!(
        fleet.submit(ClusterId::Earth, wave_job(1, 0, 1, nvcs)),
        Err(HeliosError::WorkerCrashed { .. })
    ));
    // ...while the dashboard view stays infallible and degraded.
    let statuses = fleet.statuses();
    assert_eq!(statuses.len(), 1);
    assert_eq!(statuses[0].health.state, WorkerState::Crashed);
    assert_eq!(statuses[0].health.restarts, 0);
}

/// Truncation offsets for a frame of `len` bytes: every byte of the
/// header region, then a stride across the body, and the final byte —
/// cheap enough to run on every test invocation while still hitting
/// every decoder state transition.
fn truncation_offsets(len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..len.min(512)).collect();
    if len > 512 {
        let stride = (len / 256).max(1);
        cuts.extend((512..len).step_by(stride));
        cuts.push(len - 1);
    }
    cuts.dedup();
    cuts
}

#[test]
fn fleet_frame_fuzz_truncation_and_header_bitflips_stay_typed() {
    let fleet = Fleet::launch(
        &FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Earth, Policy::Fifo)),
    )
    .unwrap();
    let frame = fleet.snapshot().unwrap();
    drop(fleet);
    assert!(Fleet::restore(&frame).is_ok());

    for cut in truncation_offsets(frame.len()) {
        let err = Fleet::restore(&frame[..cut]).unwrap_err();
        assert!(
            matches!(err, HeliosError::Snapshot { .. }),
            "cut at {cut}: expected a typed snapshot error, got {err}"
        );
    }
    // Every single-bit flip, header or body, must be refused, never
    // restored or reinterpreted.
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut bent = frame.clone();
            bent[byte] ^= 1 << bit;
            let err = Fleet::restore(&bent).unwrap_err();
            assert!(
                matches!(err, HeliosError::Snapshot { .. }),
                "flip {byte}.{bit}: {err}"
            );
        }
    }
}

#[test]
fn kernel_snapshot_fuzz_truncation_and_header_bitflips_stay_typed() {
    let spec = preset(ClusterId::Venus);
    let mut sim = Simulator::new(&spec, Policy::Fifo.build());
    let jobs: Vec<SimJob> = (0..24).map(|k| wave_job(k, 0, k, spec.vcs.len())).collect();
    sim.push_jobs(&jobs).unwrap();
    sim.run_until(300);
    let blob = sim.snapshot().to_bytes();
    let snap = SimSnapshot::from_bytes(&blob).unwrap();
    // Both frames carry records: the live frame the unfinished jobs, the
    // log frame after it the finished ones.
    assert!(!snap.live.is_empty() && !snap.finished.is_empty());
    let mut body = [0u8; 8];
    body.copy_from_slice(&blob[12..20]);
    let log_at = 28 + u64::from_le_bytes(body) as usize;
    assert_eq!(&blob[log_at..log_at + 8], b"HSIMDONE");

    for cut in truncation_offsets(blob.len()) {
        let err = SimSnapshot::from_bytes(&blob[..cut]).unwrap_err();
        assert!(
            matches!(err, HeliosError::Snapshot { .. }),
            "cut at {cut}: expected a typed snapshot error, got {err}"
        );
    }
    for byte in (0..12).chain(log_at..log_at + 12) {
        for bit in 0..8 {
            let mut bent = blob.clone();
            bent[byte] ^= 1 << bit;
            let err = SimSnapshot::from_bytes(&bent).unwrap_err();
            assert!(
                matches!(err, HeliosError::Snapshot { .. }),
                "flip {byte}.{bit}: {err}"
            );
        }
    }
}

#[test]
fn absurd_length_prefix_is_rejected_without_allocating() {
    // Sealed fleet frames (valid checksum) claiming u64::MAX clusters, or
    // a per-cluster slot frame of u64::MAX bytes: the reader's length
    // guard must reject them as typed errors instead of attempting the
    // allocation.
    let sealed = |clusters: u64, slot_len: u64| {
        let mut w = ByteWriter::new();
        w.frame(&FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION, |w| {
            w.u64(64); // shard capacity
            w.u64(clusters);
            w.u8(0); // cluster code: Venus
            w.u8(0); // policy code: Fifo
            w.u64(slot_len); // slot length prefix with no body
            w.u64(0); // log length prefix
        });
        w.into_bytes()
    };
    for frame in [sealed(u64::MAX, 0), sealed(1, u64::MAX)] {
        let err = Fleet::restore(&frame).unwrap_err();
        assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
        assert!(err.to_string().contains("corrupt length"), "{err}");
    }
}

#[test]
fn submit_with_retry_absorbs_stalled_admission_cycles() {
    // Cycle 1 is chaos-stalled (admission skipped), so the 2-deep shard
    // stays full through the first pump; the retrying producer must ride
    // out the overflow until cycle 2 drains it.
    let config = FleetConfig::new()
        .with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
        .with_shard_capacity(2)
        .with_chaos(ChaosConfig::seeded(3).stall_cycle(1));
    let fleet = Fleet::launch(&config).unwrap();
    for id in 0..2 {
        fleet
            .submit(ClusterId::Venus, wave_job(id, 0, 0, 1))
            .unwrap();
    }
    assert!(matches!(
        fleet.submit(ClusterId::Venus, wave_job(2, 0, 0, 1)),
        Err(HeliosError::FleetOverflow { .. })
    ));

    let retry = RetryConfig::seeded(7)
        .base_backoff(Duration::from_millis(1))
        .max_backoff(Duration::from_millis(10))
        .deadline(Duration::from_secs(30));
    std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            // Cycle 1 stalls; keep pumping until the shard drains.
            for c in 1..200 {
                fleet.advance(c * 60).unwrap();
                if fleet.statuses()[0].pending_ingest == 0 {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("shard never drained");
        });
        fleet
            .submit_with_retry(ClusterId::Venus, wave_job(2, 0, 0, 1), &retry)
            .expect("retry must succeed once admission resumes");
        pump.join().unwrap();
    });
    let outcomes = fleet.shutdown().unwrap().pop().unwrap().1;
    assert_eq!(outcomes.len(), 3, "all three submissions were admitted");

    // Without anyone pumping, the deadline is honored and the last
    // overflow error surfaces.
    let jam = Fleet::launch(
        &FleetConfig::new()
            .with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_shard_capacity(1),
    )
    .unwrap();
    jam.submit(ClusterId::Venus, wave_job(0, 0, 0, 1)).unwrap();
    let tight = RetryConfig::seeded(9)
        .base_backoff(Duration::from_millis(2))
        .max_backoff(Duration::from_millis(4))
        .deadline(Duration::from_millis(25));
    let err = jam
        .submit_with_retry(ClusterId::Venus, wave_job(1, 0, 0, 1), &tight)
        .unwrap_err();
    assert!(matches!(err, HeliosError::FleetOverflow { .. }), "{err}");
}

#[test]
fn fleet_recovers_from_disk_ring_after_process_death() {
    const PER_WAVE: u64 = 30;
    let dir = std::env::temp_dir().join(format!(
        "helios-fleet-recover-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = ClusterId::Venus;
    let config = FleetConfig::new()
        .with_cluster(ClusterConfig::new(cluster, Policy::Fifo))
        .with_checkpoint(
            CheckpointConfig::default()
                .every_cycles(1)
                .generations(3)
                .dir(&dir),
        );

    // The uninterrupted twin for the digest comparison.
    let calm = Fleet::launch(&single_cluster_config(cluster, Policy::Fifo)).unwrap();
    let mut baseline = run_streamed(&calm, cluster, 0..4, PER_WAVE);
    baseline.extend(calm.shutdown().unwrap().pop().unwrap().1);
    let (n_base, d_base) = sorted_digest(baseline);
    assert_eq!(n_base, 4 * PER_WAVE as usize);

    // First incarnation: two waves, drained, then dropped without
    // shutdown — the process-death analog.
    let first = Fleet::launch(&config).unwrap();
    let delivered_before = run_streamed(&first, cluster, 0..2, PER_WAVE);
    drop(first);

    // Damage the newest on-disk generation (index 2 after two periodic
    // checkpoints, slot 2 of a 3-deep ring): recovery must fall back to
    // generation 1 and close the gap from its journal.
    let newest = dir.join(format!("{}-slot2.ckpt", cluster.name()));
    let mut bytes = std::fs::read(&newest).expect("newest generation exists on disk");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("corruption applied");

    // Second incarnation resumes from disk and finishes the stream; the
    // damaged slot it skipped counts as a fallback.
    let second = Fleet::recover(&config).unwrap();
    assert_eq!(second.status(cluster).unwrap().health.fallbacks, 1);
    let mut replayed = run_streamed(&second, cluster, 2..4, PER_WAVE);
    replayed.extend(second.shutdown().unwrap().pop().unwrap().1);

    // Disk recovery is at-least-once: outcomes the dead process already
    // delivered come back. Deterministic replay means every duplicate is
    // bit-identical, so a by-id dedupe restores exactly-once.
    let mut union: Vec<JobOutcome> = delivered_before.into_iter().chain(replayed).collect();
    union.sort_by_key(|o| o.id);
    for pair in union.windows(2) {
        if pair[0].id == pair[1].id {
            assert_eq!(
                pair[0], pair[1],
                "replayed duplicate diverged from the original"
            );
        }
    }
    union.dedup_by_key(|o| o.id);
    assert_eq!(
        (union.len(), outcome_digest(&union)),
        (n_base, d_base),
        "disk-recovered stream diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_needs_a_checkpoint_dir_and_a_populated_ring() {
    // No dir configured: a typed configuration error, not a panic.
    let bare = FleetConfig::new().with_cluster(ClusterConfig::new(ClusterId::Earth, Policy::Fifo));
    assert!(matches!(
        Fleet::recover(&bare),
        Err(HeliosError::InvalidConfig { .. })
    ));

    // Empty dir: a typed snapshot error naming the missing ring.
    let dir = std::env::temp_dir().join(format!(
        "helios-fleet-recover-empty-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = bare.with_checkpoint(CheckpointConfig::default().dir(&dir));
    assert!(matches!(
        Fleet::recover(&config),
        Err(HeliosError::Snapshot { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fresh_launch_refuses_an_earlier_fleets_ring() {
    let dir = std::env::temp_dir().join(format!(
        "helios-fleet-fresh-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = ClusterId::Venus;
    let config = FleetConfig::new()
        .with_cluster(ClusterConfig::new(cluster, Policy::Fifo))
        .with_checkpoint(
            CheckpointConfig::default()
                .every_cycles(1)
                .generations(3)
                .dir(&dir),
        );
    let job = |id: u64, submit: i64| SimJob {
        id,
        vc: 0,
        gpus: 1,
        submit,
        duration: 60,
        priority: 0.0,
    };

    // An earlier fleet runs five cycles and dies without shutdown.
    let old = Fleet::launch(&config).unwrap();
    for (k, id) in (1000..1005).enumerate() {
        let now = k as i64 * 600;
        old.submit(cluster, job(id, now)).unwrap();
        old.advance(now + 600).unwrap();
    }
    drop(old);

    // A fresh launch into its directory would restart the generation
    // indices under the old ring, so recovery would later pick the old
    // fleet's newest slot: it is refused, naming a ring file.
    let err = Fleet::launch(&config).unwrap_err();
    assert!(matches!(err, HeliosError::InvalidConfig { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("Fleet::recover"), "{msg}");
    assert!(
        msg.contains("Venus.log") || msg.contains("Venus-slot"),
        "{msg}"
    );

    // The refusal touched nothing: the old ring still recovers its jobs.
    let recovered = Fleet::recover(&config).unwrap();
    let mut ids: Vec<u64> = recovered
        .shutdown()
        .unwrap()
        .pop()
        .unwrap()
        .1
        .iter()
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1000..1005).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every hosted cluster's health, in configuration order.
fn healths(fleet: &Fleet) -> Vec<FleetHealth> {
    fleet.statuses().iter().map(|s| s.health).collect()
}

/// Every hosted cluster's sorted outcome count and digest at shutdown.
fn shutdown_digests(fleet: Fleet) -> Vec<(ClusterId, (usize, String))> {
    let outcomes = fleet.shutdown().unwrap().into_iter();
    outcomes.map(|(c, o)| (c, sorted_digest(o))).collect()
}

#[test]
fn a_snapshot_is_a_generation_that_recover_reads() {
    const PER_WAVE: u64 = 30;
    let dir = std::env::temp_dir().join(format!(
        "helios-fleet-snapshot-ring-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let hosted = [
        (ClusterId::Venus, Policy::Fifo),
        (ClusterId::Saturn, Policy::Srtf),
    ];
    let config = |checkpoint: CheckpointConfig| {
        let config = FleetConfig::new().with_checkpoint(checkpoint);
        hosted.iter().fold(config, |config, &(cluster, policy)| {
            config.with_cluster(ClusterConfig::new(cluster, policy))
        })
    };
    let checkpoint = CheckpointConfig::default().every_cycles(2).generations(3);
    // Three advanced waves, then a fourth left in the shards.
    let submit_wave = |fleet: &Fleet, w: u64| {
        for (c, &(cluster, _)) in hosted.iter().enumerate() {
            let nvcs = fleet.statuses()[c].vcs.len();
            for k in 0..PER_WAVE {
                let id = (w * hosted.len() as u64 + c as u64) * PER_WAVE + k;
                fleet.submit(cluster, wave_job(id, w, k, nvcs)).unwrap();
            }
        }
    };
    let drive = |fleet: &Fleet| {
        for w in 0..3 {
            submit_wave(fleet, w);
            fleet.advance((w as i64 + 1) * 600).unwrap();
        }
    };

    let calm = Fleet::launch(&config(checkpoint.clone())).unwrap();
    drive(&calm);
    submit_wave(&calm, 3);
    let calm = shutdown_digests(calm);
    assert!(calm.iter().all(|(_, (n, _))| *n == 4 * PER_WAVE as usize));

    let disk = config(checkpoint.dir(&dir));
    let fleet = Fleet::launch(&disk).unwrap();
    drive(&fleet);
    // Each snapshot takes exactly one generation per worker, and health
    // then names it.
    let snapshot = |fleet: &Fleet| {
        let before = healths(fleet);
        let frame = fleet.snapshot().unwrap();
        for (b, a) in before.iter().zip(healths(fleet)) {
            assert_eq!(a.checkpoint_writes, b.checkpoint_writes + 1);
            assert_eq!(a.checkpoint_generation, b.checkpoint_generation + 1);
            assert_eq!(a.journal_len, 0);
        }
        frame
    };
    snapshot(&fleet);
    // The second one also admits the wave left in the shards.
    submit_wave(&fleet, 3);
    let frame = snapshot(&fleet);
    let forced: Vec<u64> = healths(&fleet)
        .iter()
        .map(|h| h.checkpoint_generation)
        .collect();
    drop(fleet);

    // The frame and the directory resume the same generation, and both
    // continue its index.
    let restored = Fleet::restore(&frame).unwrap();
    let recovered = Fleet::recover(&disk).unwrap();
    for resumed in [restored, recovered] {
        let next: Vec<u64> = healths(&resumed)
            .iter()
            .map(|h| h.checkpoint_generation - 1)
            .collect();
        assert_eq!(next, forced);
        assert_eq!(shutdown_digests(resumed), calm);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_corruption_never_reaches_a_snapshot_frame() {
    // The launch generation is 0 and every cycle takes one more, so the
    // snapshot after three cycles takes generation 4: the index chaos is
    // told to corrupt. Chaos damages the periodic generation it names;
    // the one a snapshot ships must restore.
    const WAVES: u64 = 3;
    const PER_WAVE: u64 = 30;
    let cluster = ClusterId::Venus;
    let calm = Fleet::launch(&single_cluster_config(cluster, Policy::Fifo)).unwrap();
    let mut baseline = run_streamed(&calm, cluster, 0..WAVES, PER_WAVE);
    baseline.extend(calm.shutdown().unwrap().pop().unwrap().1);

    let chaos = ChaosConfig::seeded(5).corrupt_generation(WAVES + 1);
    let stormy =
        Fleet::launch(&single_cluster_config(cluster, Policy::Fifo).with_chaos(chaos)).unwrap();
    let mut resumed = run_streamed(&stormy, cluster, 0..WAVES, PER_WAVE);
    let frame = stormy.snapshot().unwrap();
    assert_eq!(healths(&stormy)[0].checkpoint_generation, WAVES + 1);
    drop(stormy);

    let restored = Fleet::restore(&frame).expect("the snapshot's generation is intact");
    resumed.extend(restored.shutdown().unwrap().pop().unwrap().1);
    assert_eq!(sorted_digest(resumed), sorted_digest(baseline));
}

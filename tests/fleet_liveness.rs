//! Liveness and overload properties of the fleet layer (PR 9): watchdog
//! supervision recovers stalled workers with byte-identical outcome
//! streams, a worker that ignores cancellation degrades to `Hung`
//! without blocking any call, adaptive admission control sheds heavy VCs
//! first with hysteresis, the admission journal acknowledges batches
//! exactly once across mid-admission crashes, status queries stay
//! infallible and monotone during recovery, and the injection-off fleet
//! still reproduces the digests committed in `BENCH_fleet.json`.

use helios_fleet::{
    ChaosConfig, CheckpointConfig, ClusterConfig, Fleet, FleetConfig, RetryConfig, ShedConfig,
    StatusKind, WatchdogConfig, WorkerState,
};
use helios_sim::{outcome_digest, JobOutcome, Policy, SimJob};
use helios_trace::{ClusterId, HeliosError};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// after every advance, then return the accumulated outcome stream.
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

/// A watchdog tuned for tests: the stall deadline is short enough that a
/// chaos hang is cancelled within tens of milliseconds, the hang grace
/// is generous (soft hangs release the moment cancellation is armed),
/// and the cancellation token is checked at every kernel event so a
/// cancelled run restarts at a deterministic event boundary.
fn test_watchdog() -> WatchdogConfig {
    WatchdogConfig::new()
        .stall_deadline(Duration::from_millis(40))
        .hang_deadline(Duration::from_secs(5))
        .check_events(1)
}

#[test]
fn hang_chaos_recovery_digests_match_uninterrupted_run() {
    // The watchdog tentpole property: a worker stalled mid-pump by the
    // chaos harness (alive but making no kernel progress) is cancelled
    // cooperatively and routed through checkpoint-restore, and the
    // recovered outcome stream is byte-identical to an uninterrupted,
    // watchdog-free twin's — across 3 hang points x 2 presets.
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

            // A calm worker under the default watchdog: its pump publishes
            // heartbeats every 128 events and never needs a restart.
            let watched = Fleet::launch(
                &single_cluster_config(cluster, policy).with_watchdog(WatchdogConfig::new()),
            )
            .unwrap();
            let mut beating = run_streamed(&watched, cluster, 0..WAVES, PER_WAVE);
            let health = watched.statuses()[0].health;
            beating.extend(watched.shutdown().unwrap().pop().unwrap().1);
            assert!(health.heartbeat_events > 0, "{cluster:?}: no heartbeat");
            assert_eq!(health.restarts, 0, "{cluster:?}: calm worker restarted");
            assert_eq!(
                sorted_digest(beating),
                sorted_digest(baseline.clone()),
                "seed {seed} {cluster:?}: heartbeats changed the outcome stream"
            );

            let chaos = ChaosConfig::seeded(seed).hang_at(70 + seed * 10);
            let stormy = Fleet::launch(
                &single_cluster_config(cluster, policy)
                    .with_chaos(chaos)
                    .with_watchdog(test_watchdog()),
            )
            .unwrap();
            let mut recovered = run_streamed(&stormy, cluster, 0..WAVES, PER_WAVE);
            let health = stormy.statuses()[0].health;
            recovered.extend(stormy.shutdown().unwrap().pop().unwrap().1);

            assert!(
                health.restarts >= 1,
                "seed {seed} {cluster:?}: the injected hang never forced a watchdog restart"
            );
            assert_eq!(
                health.state,
                WorkerState::Healthy,
                "seed {seed} {cluster:?}: worker should be healthy after recovery"
            );
            assert_eq!(
                sorted_digest(recovered),
                sorted_digest(baseline),
                "seed {seed} {cluster:?}: watchdog recovery changed the outcome stream"
            );
        }
    }
}

#[test]
fn hard_hang_degrades_to_hung_without_blocking() {
    // A worker that ignores cooperative cancellation past the hard
    // deadline is declared Hung and abandoned: the blocked call returns
    // the typed error, every later command is refused at the door,
    // infallible status surfaces the degraded state, and dropping the
    // fleet does not wedge on the zombie thread.
    let cluster = ClusterId::Venus;
    let config = single_cluster_config(cluster, Policy::Fifo)
        .with_chaos(ChaosConfig::seeded(7).hard_hang_at(50))
        .with_watchdog(
            WatchdogConfig::new()
                .stall_deadline(Duration::from_millis(30))
                .hang_deadline(Duration::from_millis(60))
                .check_events(1),
        );
    let fleet = Fleet::launch(&config).unwrap();
    let nvcs = fleet.statuses()[0].vcs.len();
    for k in 0..40 {
        fleet.submit(cluster, wave_job(k, 0, k, nvcs)).unwrap();
    }
    let err = fleet.advance(600).expect_err("the hard hang must surface");
    assert!(
        matches!(err, HeliosError::WorkerHung { .. }),
        "expected WorkerHung, got {err:?}"
    );

    // Infallible view: the hung worker still reports its last state.
    let statuses = fleet.statuses();
    assert_eq!(statuses.len(), 1);
    assert_eq!(statuses[0].health.state, WorkerState::Hung);

    // Fallible paths are typed errors, never blocking waits.
    assert!(matches!(
        fleet.status(cluster),
        Err(HeliosError::WorkerHung { .. })
    ));
    assert!(matches!(
        fleet.submit(cluster, wave_job(1_000, 0, 0, nvcs)),
        Err(HeliosError::WorkerHung { .. })
    ));
    assert!(matches!(
        fleet.advance(1_200),
        Err(HeliosError::WorkerHung { .. })
    ));

    // The deadline-bounded read still serves data, tagged Degraded.
    let report = fleet
        .status_within(cluster, Duration::from_millis(5))
        .unwrap();
    assert_eq!(report.kind, StatusKind::Degraded);
    assert_eq!(report.status.health.state, WorkerState::Hung);

    // Dropping the fleet must detach, not join, the hung worker; the
    // test completing at all is the liveness assertion.
    drop(fleet);
}

/// A 1-GPU probe job for shedding tests (valid on every VC).
fn probe(id: u64, vc: u16) -> SimJob {
    SimJob {
        id,
        vc,
        gpus: 1,
        submit: 0,
        duration: 60,
        priority: 0.0,
    }
}

#[test]
fn shedding_sheds_heavy_vcs_first_with_hysteresis() {
    let cluster = ClusterId::Venus;
    let config = FleetConfig::new()
        .with_cluster(ClusterConfig::new(cluster, Policy::Fifo))
        .with_shard_capacity(8)
        .with_shedding(ShedConfig::new().high_water(0.10).low_water(0.02));
    let fleet = Fleet::launch(&config).unwrap();
    let nvcs = fleet.statuses()[0].vcs.len();
    assert!(nvcs >= 24, "Venus should host enough VCs for this layout");

    // Spread one job over each of 21 light VCs plus one onto VC 0:
    // backlog 22/216 crosses the 10% high-water mark, so the next
    // submission evaluates under engaged shedding.
    let mut id = 0;
    for vc in 1..=21u16 {
        fleet.submit(cluster, probe(id, vc)).unwrap();
        id += 1;
    }
    fleet.submit(cluster, probe(id, 0)).unwrap();
    id += 1;

    // VC 0 now holds more than the mean backlog: shed, with a usable
    // retry hint. The shard is far from full, so this is admission
    // control, not overflow.
    match fleet.submit(cluster, probe(id, 0)) {
        Err(HeliosError::FleetShedding {
            vc,
            retry_after_cycles,
            ..
        }) => {
            assert_eq!(vc, 0);
            assert!(retry_after_cycles >= 1);
        }
        other => panic!("expected FleetShedding for the heavy VC, got {other:?}"),
    }
    // A refusal only counts itself: the backlog a saturated producer
    // keeps hitting stays as it was.
    let backlog = || {
        let status = &fleet.statuses()[0];
        (status.pending_ingest, status.health.shed_jobs)
    };
    let (pending, shed) = backlog();
    for _ in 0..3 {
        assert!(matches!(
            fleet.submit(cluster, probe(id, 0)),
            Err(HeliosError::FleetShedding { vc: 0, .. })
        ));
    }
    assert_eq!(backlog(), (pending, shed + 3));

    // A light VC (empty backlog) keeps submitting while shedding is
    // engaged — per-VC fairness under overload.
    fleet.submit(cluster, probe(id, 22)).unwrap();
    id += 1;

    let health = fleet.statuses()[0].health;
    assert!(health.shedding, "hysteresis band should be engaged");
    assert!(health.shed_jobs >= 1);

    // submit_with_retry absorbs shedding: a pump thread drains the
    // backlog while the producer backs off by the retry hint.
    let heavy = probe(id, 0);
    id += 1;
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            fleet.advance(600).expect("pump advance");
        });
        fleet
            .submit_with_retry(cluster, heavy, &RetryConfig::seeded(9))
            .expect("retry should absorb the shedding window");
    });

    // Draining below the low-water mark disengages shedding: the
    // previously heavy VC submits freely again.
    fleet.advance(1_200).unwrap();
    fleet.submit(cluster, probe(id, 0)).unwrap();
    assert!(
        !fleet.statuses()[0].health.shedding,
        "shedding should disengage once the backlog drains"
    );
}

#[test]
fn an_overflowing_retry_schedule_returns_the_last_refusal() {
    // A schedule `validate()` accepts whose first stretched sleep does not
    // fit a `Duration`: a jittered 2^60 s base times a 27-cycle shedding
    // hint. The deadline check must return the shedding refusal instead
    // of panicking on the producer thread.
    let cluster = ClusterId::Venus;
    let config = FleetConfig::new()
        .with_cluster(ClusterConfig::new(cluster, Policy::Fifo))
        .with_shard_capacity(8)
        .with_shedding(ShedConfig::new().high_water(0.01).low_water(0.0));
    let fleet = Fleet::launch(&config).unwrap();
    for id in 0..3 {
        fleet.submit(cluster, probe(id, 0)).unwrap();
    }
    match fleet.submit(cluster, probe(3, 0)) {
        Err(HeliosError::FleetShedding {
            vc: 0,
            retry_after_cycles: 27,
            ..
        }) => {}
        other => panic!("expected VC 0 shed with a 27-cycle hint, got {other:?}"),
    }
    let retry = RetryConfig::seeded(1)
        .base_backoff(Duration::from_secs(1 << 60))
        .max_backoff(Duration::MAX);
    retry.validate().expect("a valid schedule");
    let err = fleet
        .submit_with_retry(cluster, probe(3, 0), &retry)
        .expect_err("the first sleep overshoots the deadline");
    assert!(
        matches!(err, HeliosError::FleetShedding { vc: 0, .. }),
        "{err}"
    );
}

#[test]
fn admission_panic_between_drain_and_journal_readmits_exactly_once() {
    // Satellite regression (PR-8 race): a batch drained from the shards
    // but not yet journaled when the worker dies must be re-admitted
    // after restore — exactly once, so the recovered stream matches the
    // calm twin and no job is lost or duplicated.
    const WAVES: u64 = 4;
    const PER_WAVE: u64 = 40;
    for (cluster, policy) in [
        (ClusterId::Venus, Policy::Fifo),
        (ClusterId::Saturn, Policy::Srtf),
    ] {
        let calm = Fleet::launch(&single_cluster_config(cluster, policy)).unwrap();
        let mut baseline = run_streamed(&calm, cluster, 0..WAVES, PER_WAVE);
        baseline.extend(calm.shutdown().unwrap().pop().unwrap().1);

        let chaos = ChaosConfig::seeded(11).panic_admit_at_cycle(2);
        let stormy =
            Fleet::launch(&single_cluster_config(cluster, policy).with_chaos(chaos)).unwrap();
        let mut recovered = run_streamed(&stormy, cluster, 0..WAVES, PER_WAVE);
        let health = stormy.statuses()[0].health;
        recovered.extend(stormy.shutdown().unwrap().pop().unwrap().1);

        assert!(
            health.restarts >= 1,
            "{cluster:?}: the admission-window panic never fired"
        );
        let (jobs, digest) = sorted_digest(recovered);
        let (base_jobs, base_digest) = sorted_digest(baseline);
        assert_eq!(
            jobs,
            (WAVES * PER_WAVE) as usize,
            "{cluster:?}: jobs lost or duplicated across the admission crash"
        );
        assert_eq!(jobs, base_jobs);
        assert_eq!(
            digest, base_digest,
            "{cluster:?}: mid-admission crash changed the outcome stream"
        );
    }
}

#[test]
fn statuses_stay_infallible_and_monotone_during_recovery() {
    // Satellite: a status reader racing in-progress checkpoint restores
    // never errors, never observes the heartbeat running backwards, and
    // sees a fully re-baselined FleetHealth once recovery settles.
    let cluster = ClusterId::Venus;
    let config = single_cluster_config(cluster, Policy::Fifo)
        .with_chaos(ChaosConfig::seeded(3).panic_at(70).panic_at(200))
        // Production-shaped deadlines: heartbeats flow, supervision
        // never fires on a healthy-but-busy worker.
        .with_watchdog(WatchdogConfig::new());
    let fleet = Fleet::launch(&config).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = 0u64;
            let mut last_hb = 0u64;
            while !stop.load(Ordering::Acquire) {
                let statuses = fleet.statuses(); // must never panic or block
                assert_eq!(statuses.len(), 1);
                let h = statuses[0].health;
                assert!(
                    h.heartbeat_events >= last_hb,
                    "heartbeat ran backwards: {} -> {}",
                    last_hb,
                    h.heartbeat_events
                );
                last_hb = h.heartbeat_events;
                // The deadline-bounded read must also always answer;
                // Degraded is legal mid-recovery, an error is not.
                let report = fleet
                    .status_within(cluster, Duration::from_millis(2))
                    .expect("status_within only errors on unknown clusters");
                assert!(matches!(
                    report.kind,
                    StatusKind::Fresh | StatusKind::Stale { .. } | StatusKind::Degraded
                ));
                samples += 1;
            }
            samples
        });

        let outcomes = run_streamed(&fleet, cluster, 0..4, 40);
        stop.store(true, Ordering::Release);
        let samples = sampler.join().expect("sampler must not panic");
        assert!(samples > 0, "sampler never ran");
        assert_eq!(outcomes.len() + fleet.drain(cluster).unwrap().len(), 160);
    });

    // Post-recovery health is re-baselined, not stale: both panics were
    // absorbed, the worker is healthy, heartbeats advanced, and the
    // journal restarted from the re-baseline checkpoint.
    let health = fleet.statuses()[0].health;
    assert_eq!(health.state, WorkerState::Healthy);
    assert_eq!(health.restarts, 2);
    assert!(health.heartbeat_events > 0);
    assert!(health.checkpoint_writes > 0);
    fleet.shutdown().unwrap();
}

#[test]
fn injection_off_fleet_reproduces_committed_bench_digests() {
    // The committed BENCH_fleet.json fleet-chaos digests pin the
    // fleet-chaos job stream's outcome fingerprints. An injection-off
    // fleet replaying that exact stream must reproduce them — if this
    // fails, either determinism regressed or BENCH_fleet.json was
    // regenerated without updating the chaos stream (or vice versa).
    const WAVES: usize = 10;
    const JOBS_PER_CLUSTER_PER_WAVE: usize = 400;
    const WAVE_SECS: i64 = 600;
    let hosted = [
        (ClusterId::Venus, Policy::Fifo),
        (ClusterId::Saturn, Policy::Srtf),
    ];

    // The vendored serde_json stand-in is serialize-only, so the pins
    // are scanned straight out of the committed text: the `cluster` and
    // `digest` lines of every `fleet-chaos` record, in order.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fleet.json"))
        .expect("BENCH_fleet.json is committed at the repo root");
    let (mut experiment, mut cluster) = ("", "");
    let mut pinned: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        let Some((key, value)) = line.trim().trim_end_matches(',').split_once(": ") else {
            continue;
        };
        let value = value.trim_matches('"');
        match key {
            "\"experiment\"" => experiment = value,
            "\"cluster\"" => cluster = value,
            "\"digest\"" if experiment == "fleet-chaos" => {
                pinned.push((cluster.to_string(), value.to_string()));
            }
            _ => {}
        }
    }
    assert_eq!(
        pinned.len(),
        hosted.len(),
        "BENCH_fleet.json should carry one fleet-chaos record per hosted cluster"
    );

    let mut config = FleetConfig::new()
        .with_checkpoint(CheckpointConfig::default().every_cycles(1).generations(4));
    for &(cluster, policy) in &hosted {
        config = config.with_cluster(ClusterConfig::new(cluster, policy));
    }
    let fleet = Fleet::launch(&config).unwrap();
    let clusters = fleet.clusters();
    let nvcs: Vec<usize> = clusters
        .iter()
        .map(|&c| fleet.status(c).unwrap().vcs.len().max(1))
        .collect();
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
                        fleet.advance_cluster(cluster, floor).unwrap();
                        fleet.submit(cluster, job).unwrap();
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
                next_id += 1;
            }
        }
        fleet.advance((wave as i64 + 1) * WAVE_SECS).unwrap();
    }
    for (i, (cluster, outcomes)) in fleet.shutdown().unwrap().into_iter().enumerate() {
        let (jobs, digest) = sorted_digest(outcomes);
        assert_eq!(jobs, WAVES * JOBS_PER_CLUSTER_PER_WAVE);
        assert_eq!(cluster.name(), pinned[i].0, "cluster order drifted");
        assert_eq!(
            digest, pinned[i].1,
            "{}: injection-off digest no longer matches BENCH_fleet.json",
            pinned[i].0
        );
    }
}

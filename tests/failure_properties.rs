//! Failure-injection invariants: an armed-but-quiet fault model must not
//! perturb scheduling, an injected run must survive a mid-run
//! checkpoint/restore byte-identically (same failure sequence, same
//! outcomes), goodput must be a bounded fraction of raw progress, and
//! every misconfiguration must surface as a typed error — never a panic.

use helios_faults::{goodput, DrainConfig, DrainPolicy};
use helios_sim::{
    jobs_from_trace, outcome_digest, xxh64, FaultConfig, JobOutcome, Policy, SimJob, SimSnapshot,
    Simulator,
};
use helios_trace::{generate, profile_for, ClusterId, GeneratorConfig, HeliosError, Trace};

/// One cluster's trace plus its September jobs.
fn september(cluster: ClusterId, seed: u64, scale: f64) -> (Trace, Vec<SimJob>, i64, i64) {
    let trace = generate(&profile_for(cluster), &GeneratorConfig { scale, seed }).unwrap();
    let (lo, hi) = trace.calendar.month_range(5);
    let jobs = jobs_from_trace(&trace, lo, hi);
    assert!(!jobs.is_empty(), "empty September window at scale {scale}");
    (trace, jobs, lo, hi)
}

fn run_outcomes(sim: &mut Simulator) -> Vec<JobOutcome> {
    sim.run_to_completion();
    let mut out = sim.drain_outcomes();
    out.sort_by_key(|o| o.id);
    out
}

#[test]
fn armed_but_quiet_fault_model_is_byte_identical_to_legacy() {
    // A fault model whose first time-to-failure draw lands far beyond the
    // trace horizon must not change a single scheduling decision: the
    // extra event class, the per-node telemetry, and the placement-index
    // plumbing have to be invisible until a failure actually fires.
    for cluster in [ClusterId::Venus, ClusterId::Saturn] {
        let (trace, jobs, _, _) = september(cluster, 2020, 0.1);

        let mut legacy = Simulator::new(&trace.spec, Policy::Fifo.build());
        legacy.push_jobs(&jobs).unwrap();
        let legacy_digest = outcome_digest(&run_outcomes(&mut legacy));

        // ~11k years between failures per node: silent within any window.
        let quiet = FaultConfig::with_mtbf_hours(1e8).burst_prob(0.0);
        let mut armed = Simulator::new(&trace.spec, Policy::Fifo.build());
        armed.enable_faults(&quiet).unwrap();
        armed.push_jobs(&jobs).unwrap();
        let armed_digest = outcome_digest(&run_outcomes(&mut armed));
        let stats = armed.fault_stats().expect("faults were enabled");
        assert_eq!(stats.failures, 0, "quiet model must stay quiet");
        assert_eq!(
            legacy_digest, armed_digest,
            "armed-but-quiet fault model perturbed {cluster:?}"
        );
    }
}

/// Uninterrupted injected baseline vs. checkpoint-at-`cut`, serialize,
/// drop, restore-from-bytes, resume — both under the same fault model.
/// Returns (baseline digest, resumed digest) and asserts the failure
/// sequence itself (stats) round-tripped.
fn run_both_faulty(
    cluster: ClusterId,
    seed: u64,
    scale: f64,
    faults: &FaultConfig,
) -> (String, String) {
    let (trace, jobs, lo, hi) = september(cluster, seed, scale);

    let mut baseline = Simulator::new(&trace.spec, Policy::Fifo.build());
    baseline.enable_faults(faults).unwrap();
    baseline.push_jobs(&jobs).unwrap();
    let base_sorted = run_outcomes(&mut baseline);
    let base_stats = baseline.fault_stats().unwrap();
    assert!(
        base_stats.failures > 0,
        "matrix point ({cluster:?}, seed {seed}) injected no failures — not a meaningful check"
    );

    let mut first = Simulator::new(&trace.spec, Policy::Fifo.build());
    first.enable_faults(faults).unwrap();
    first.push_jobs(&jobs).unwrap();
    let cut = lo + (hi - lo) / 2;
    first.run_until(cut);
    let mut resumed_outcomes = first.drain_outcomes();
    let bytes = first.snapshot().to_bytes();
    drop(first);

    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    // `restore` rebuilds the failure state from the snapshot itself;
    // re-enabling injection on a restored kernel is the double-enable
    // error, so the fault model travels only through the bytes.
    let mut second = Simulator::restore(&trace.spec, Policy::Fifo.build(), &snap).unwrap();
    assert_eq!(second.now(), cut);
    resumed_outcomes.extend(run_outcomes(&mut second));
    resumed_outcomes.sort_by_key(|o| o.id);
    let resumed_stats = second
        .fault_stats()
        .expect("restored kernel keeps injection on");

    assert_eq!(base_sorted.len(), resumed_outcomes.len());
    assert_eq!(
        base_stats, resumed_stats,
        "failure sequence diverged after restore ({cluster:?}, seed {seed})"
    );
    (
        outcome_digest(&base_sorted),
        outcome_digest(&resumed_outcomes),
    )
}

#[test]
fn injected_digests_survive_checkpoint_kill_requeue_matrix() {
    // The acceptance matrix, kill-and-requeue half: 3 seeds x 2 presets.
    // Kill-requeue restarts jobs from scratch, so the MTBF must dwarf the
    // 50-day duration ceiling or long jobs never complete — ~83 days per
    // node still injects a steady failure trickle at cluster width.
    let faults = FaultConfig::with_mtbf_hours(2000.0);
    for cluster in [ClusterId::Venus, ClusterId::Saturn] {
        for seed in [2020u64, 2021, 2022] {
            let (base, resumed) = run_both_faulty(cluster, seed, 0.1, &faults);
            assert_eq!(
                base, resumed,
                "digest diverged after restore ({cluster:?}, seed {seed}, kill-requeue)"
            );
        }
    }
}

#[test]
fn injected_digests_survive_checkpoint_checkpoint_restart_matrix() {
    // Checkpoint-restart half: periodic checkpoints change the kill
    // arithmetic (kept work), so the snapshot must carry it too. Banked
    // progress keeps even a daily-failure regime terminating.
    let faults = FaultConfig::with_mtbf_hours(24.0).checkpoint_hours(1.0);
    for cluster in [ClusterId::Venus, ClusterId::Saturn] {
        for seed in [2020u64, 2021, 2022] {
            let (base, resumed) = run_both_faulty(cluster, seed, 0.05, &faults);
            assert_eq!(
                base, resumed,
                "digest diverged after restore ({cluster:?}, seed {seed}, checkpoint-restart)"
            );
        }
    }
}

#[test]
fn goodput_is_bounded_by_raw_progress() {
    let (trace, jobs, _, _) = september(ClusterId::Venus, 2020, 0.05);
    let faults = FaultConfig::with_mtbf_hours(24.0).checkpoint_hours(1.0);
    let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
    sim.enable_faults(&faults).unwrap();
    sim.push_jobs(&jobs).unwrap();
    let outcomes = run_outcomes(&mut sim);
    let stats = sim.fault_stats().unwrap();
    assert!(stats.killed_jobs > 0, "no kills — weak test point");

    let g = goodput(&outcomes, Some(stats));
    assert!(g.useful_gpu_hours > 0.0);
    assert!(g.lost_gpu_hours > 0.0, "kills must bill lost work");
    // Goodput <= raw progress: the ratio is a proper fraction, and the
    // useful share never exceeds useful + lost (raw GPU time spent).
    assert!(g.ratio() > 0.0 && g.ratio() < 1.0, "ratio {}", g.ratio());
    assert!(g.useful_gpu_hours <= g.useful_gpu_hours + g.lost_gpu_hours);

    // Failure-free accounting: nothing lost, ratio exactly 1.
    let clean = goodput(&outcomes, None);
    assert_eq!(clean.lost_gpu_hours, 0.0);
    assert_eq!(clean.ratio(), 1.0);
}

#[test]
fn invalid_fault_configs_are_typed_errors() {
    let bad = [
        FaultConfig::with_mtbf_hours(0.0),
        FaultConfig::with_mtbf_hours(-3.0),
        FaultConfig::with_mtbf_hours(f64::NAN),
        FaultConfig::with_mtbf_hours(24.0).repair_hours(-1.0),
        FaultConfig::with_mtbf_hours(24.0).shape(0.0),
        FaultConfig::with_mtbf_hours(24.0).rack_size(0),
        FaultConfig::with_mtbf_hours(24.0).burst_prob(1.5),
        FaultConfig::with_mtbf_hours(24.0).checkpoint_hours(0.0),
    ];
    let trace = generate(
        &profile_for(ClusterId::Venus),
        &GeneratorConfig {
            scale: 0.05,
            seed: 1,
        },
    )
    .unwrap();
    for cfg in bad {
        let err = cfg.validate().expect_err("non-physical config must fail");
        assert!(matches!(err, HeliosError::InvalidConfig { .. }), "{err}");
        let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
        let err = sim
            .enable_faults(&cfg)
            .expect_err("enable_faults must validate");
        assert!(matches!(err, HeliosError::InvalidConfig { .. }), "{err}");
    }

    // Double-enable is a typed error too, not a silent reseed.
    let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
    let cfg = FaultConfig::with_mtbf_hours(24.0);
    sim.enable_faults(&cfg).unwrap();
    let err = sim.enable_faults(&cfg).expect_err("double enable");
    assert!(matches!(err, HeliosError::InvalidConfig { .. }), "{err}");
}

#[test]
fn unknown_failure_codec_version_is_a_snapshot_error() {
    let (trace, jobs, lo, hi) = september(ClusterId::Venus, 3, 0.05);
    let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
    sim.enable_faults(&FaultConfig::with_mtbf_hours(24.0))
        .unwrap();
    sim.push_jobs(&jobs).unwrap();
    sim.run_until(lo + (hi - lo) / 2);

    // The failure section is the live frame's final section: stripping
    // the fault payload from a second copy of the same snapshot tells us
    // exactly where the section (and its leading codec-version u32)
    // begins — just before the stripped live frame's 8-byte checksum. A
    // frame is its 20-byte header, the body its header counts, and the
    // checksum.
    let frame_len = |bytes: &[u8]| {
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[12..20]);
        28 + u64::from_le_bytes(len) as usize
    };
    let snap = sim.snapshot();
    let mut bytes = snap.to_bytes();
    let mut stripped = sim.snapshot();
    assert!(
        stripped.fault.is_some(),
        "fault-enabled kernel must snapshot its failure state"
    );
    stripped.fault = None;
    let section_start = frame_len(&stripped.to_bytes()) - 8;
    let live_len = frame_len(&bytes);
    assert!(section_start + 4 <= live_len);
    bytes[section_start..section_start + 4].copy_from_slice(&0xEEu32.to_le_bytes());
    // Re-seal the patched live frame, or its checksum refuses it before
    // the nested version is read.
    let sealed_len = live_len - 8;
    let checksum = xxh64(&bytes[..sealed_len]);
    bytes[sealed_len..live_len].copy_from_slice(&checksum.to_le_bytes());

    let err = SimSnapshot::from_bytes(&bytes).expect_err("corrupt codec version must fail");
    assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("failure-codec"), "unexpected message: {msg}");
}

#[test]
fn drain_policy_state_rejects_truncated_blobs() {
    let mut policy =
        DrainPolicy::uptime(Policy::Fifo.build(), 24.0, DrainConfig::default()).unwrap();
    let err = helios_sim::SchedulingPolicy::load_state(&mut policy, &[0u8; 4])
        .expect_err("truncated drain state must fail");
    assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
}

#[test]
fn drain_config_validation_is_typed() {
    for cfg in [
        DrainConfig {
            risk_threshold: -0.1,
            ..DrainConfig::default()
        },
        DrainConfig {
            rescan_secs: 0,
            ..DrainConfig::default()
        },
        DrainConfig {
            max_drain_frac: 1.5,
            ..DrainConfig::default()
        },
    ] {
        let err = cfg.validate().expect_err("bad drain config must fail");
        assert!(matches!(err, HeliosError::InvalidConfig { .. }), "{err}");
    }
    let err = match DrainPolicy::uptime(Policy::Fifo.build(), 0.0, DrainConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("zero uptime threshold must be rejected"),
    };
    assert!(matches!(err, HeliosError::InvalidConfig { .. }), "{err}");
}

#[test]
fn checkpoint_semantics_lose_no_more_than_kill_requeue() {
    // Same fault stream, same jobs: hourly checkpoints can only shrink
    // the recompute bill relative to losing every running segment. The
    // kill-requeue arm never finishes its 50-day jobs at this MTBF, so
    // both arms run to a fixed horizon instead of completion.
    let (trace, jobs, _, hi) = september(ClusterId::Venus, 2020, 0.05);
    let horizon = hi + 30 * 86_400;
    let mut lost = Vec::new();
    for cfg in [
        FaultConfig::with_mtbf_hours(24.0),
        FaultConfig::with_mtbf_hours(24.0).checkpoint_hours(1.0),
    ] {
        let mut sim = Simulator::new(&trace.spec, Policy::Fifo.build());
        sim.enable_faults(&cfg).unwrap();
        sim.push_jobs(&jobs).unwrap();
        sim.run_until(horizon);
        lost.push(sim.fault_stats().unwrap().lost_gpu_secs);
    }
    assert!(
        lost[1] <= lost[0],
        "checkpointing increased lost work: {} > {}",
        lost[1],
        lost[0]
    );
}

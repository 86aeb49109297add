//! Property tests for the pluggable kernel: the incremental
//! `Simulator` + policy-object path must produce byte-identical
//! `JobOutcome` vectors to the one-shot `simulate_with`, for every
//! built-in policy, across random workloads (seeded ChaCha), batch-fed
//! arrivals, and two cluster presets. Plus: observer event-stream
//! ordering invariants.

use helios_sim::{
    outcome_digest, simulate_with, ClusterView, JobOutcome, KernelConfig, Policy, SimEvent, SimJob,
    SimObserver, Simulator,
};
use helios_trace::{saturn, venus, ClusterSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;

/// Random but valid workload: every job fits its VC.
fn random_jobs(spec: &ClusterSpec, n: u64, rng: &mut ChaCha12Rng) -> Vec<SimJob> {
    let mut jobs: Vec<SimJob> = (0..n)
        .map(|id| {
            let vc = rng.gen_range(0..spec.num_vcs()) as u16;
            let cap = spec.vc_gpus(vc);
            let choices: Vec<u32> = [1u32, 1, 2, 4, 8, 16, 32]
                .into_iter()
                .filter(|&g| g <= cap)
                .collect();
            SimJob {
                id,
                vc,
                gpus: choices[rng.gen_range(0..choices.len())],
                submit: rng.gen_range(0..200_000i64),
                duration: 1 + rng.gen_range(0..30_000i64),
                priority: rng.gen_range(0..1_000_000i64) as f64,
            }
        })
        .collect();
    jobs.sort_by_key(|j| (j.submit, j.id));
    jobs
}

fn by_id(outcomes: &[JobOutcome]) -> HashMap<u64, JobOutcome> {
    outcomes.iter().map(|o| (o.id, *o)).collect()
}

#[test]
fn incremental_batches_match_one_shot_across_seeds_policies_presets() {
    for preset in [venus(), saturn()] {
        for seed in [1u64, 7, 42] {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let jobs = random_jobs(&preset, 400, &mut rng);
            for policy in [Policy::Fifo, Policy::Sjf, Policy::Srtf] {
                let one_shot =
                    simulate_with(&preset, &jobs, policy.build(), &KernelConfig::default())
                        .expect("valid workload")
                        .outcomes;
                assert_eq!(one_shot.len(), jobs.len());

                // Feed arrivals in 5 time-ordered batches, advancing the
                // kernel between pushes and draining as we go.
                let mut sim = Simulator::new(&preset, policy.build());
                let batch = jobs.len().div_ceil(5);
                let mut drained: Vec<JobOutcome> = Vec::new();
                for chunk in jobs.chunks(batch) {
                    // Run up to just before this chunk's first arrival,
                    // then admit it.
                    sim.run_until(chunk[0].submit - 1);
                    sim.push_jobs(chunk).expect("arrivals respect horizon");
                    drained.extend(sim.drain_outcomes());
                }
                sim.run_to_completion();
                drained.extend(sim.drain_outcomes());
                assert_eq!(
                    drained.len(),
                    one_shot.len(),
                    "{policy:?} seed {seed}: every job finishes exactly once"
                );

                // Byte-identical outcome per job id.
                let a = by_id(&one_shot);
                let b = by_id(&drained);
                assert_eq!(a, b, "{policy:?} seed {seed}: outcomes must match");
            }
        }
    }
}

#[test]
fn blocked_head_workloads_reproduce_pinned_digests() {
    // Workloads that keep queue heads blocked across many events, under
    // preemptive policies with stable ranks (Tiresias), short level
    // quanta (Tiresias at 500 GPU·s, frequent level crossings), drifting
    // ranks (SRTF) and non-preemptive orders (FIFO/SJF). The pins were
    // computed before the kernel dropped its blocked-head cache, so they
    // check that arrivals skipping a blocked VC and preemption scans
    // without rank horizons still reach the same outcomes.
    use helios_sim::{FifoPolicy, SjfPolicy, SrtfPolicy, TiresiasPolicy};
    type Ctor = fn() -> Box<dyn helios_sim::SchedulingPolicy>;
    let ctors: [(&str, Ctor); 5] = [
        ("tiresias", || Box::new(TiresiasPolicy::default())),
        ("tiresias-q500", || {
            Box::new(TiresiasPolicy {
                quantum: 500.0,
                levels: 6,
            })
        }),
        ("srtf", || Box::new(SrtfPolicy)),
        ("fifo", || Box::new(FifoPolicy)),
        ("sjf", || Box::new(SjfPolicy)),
    ];
    // (preset, seed) → digests in `ctors` order.
    let pinned: [(&str, u64, [&str; 5]); 6] = [
        (
            "venus",
            11,
            [
                "68645b4a423328f6",
                "70b10eff6aa68ef2",
                "9dfcc17848dc6804",
                "210bd4aee9737d98",
                "13aa4d0ec21ac1c4",
            ],
        ),
        (
            "venus",
            23,
            [
                "6326753053b66593",
                "143f92c83fe7db02",
                "14615b95190e7c31",
                "56f9db5f95c60b2d",
                "12b4726e82bcf3bb",
            ],
        ),
        (
            "venus",
            47,
            [
                "97226246235a9a9f",
                "04abb2716c391362",
                "4729ba837da11abb",
                "dc1cc8c268f67b52",
                "5a6f55bc34e0521a",
            ],
        ),
        (
            "saturn",
            11,
            [
                "937cd2460eac165f",
                "550b3505e2359548",
                "a6ac378458e5d630",
                "c6697e3eed51bd78",
                "b7fbc26ea4c413c2",
            ],
        ),
        (
            "saturn",
            23,
            [
                "6a35259c780274b5",
                "8399deac579b0d49",
                "cc94f3c0456aa81b",
                "613c38c29ca15c59",
                "8fe23a731cf6287d",
            ],
        ),
        (
            "saturn",
            47,
            [
                "8252969f7e55e071",
                "276b1b150ca3d1d1",
                "cd7879c7d564d38c",
                "59f2fa82ab9ff9f8",
                "9a9d435f1f4ea4fe",
            ],
        ),
    ];
    let mut preemptions = 0u64;
    for (preset_name, seed, digests) in pinned {
        let preset = if preset_name == "venus" {
            venus()
        } else {
            saturn()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let jobs = random_jobs(&preset, 400, &mut rng);
        for ((policy, ctor), want) in ctors.iter().zip(digests) {
            let mut sim = Simulator::new(&preset, ctor());
            sim.push_jobs(&jobs).expect("valid workload");
            sim.run_to_completion();
            let outcomes = sim.drain_outcomes();
            assert_eq!(outcomes.len(), jobs.len());
            preemptions += outcomes
                .iter()
                .map(|o| u64::from(o.preemptions))
                .sum::<u64>();
            assert_eq!(
                outcome_digest(&outcomes),
                want,
                "{preset_name} seed {seed} {policy}"
            );
        }
    }
    // The preemptive half of the matrix must actually preempt.
    assert_eq!(preemptions, 792);
}

/// Records the raw event stream for ordering assertions.
#[derive(Default)]
struct EventLog {
    events: Vec<(i64, String, u64)>,
}

impl SimObserver for EventLog {
    fn on_event(&mut self, event: &SimEvent, _cluster: &ClusterView<'_>) {
        let kind = match event {
            SimEvent::Submit { .. } => "submit",
            SimEvent::Start { .. } => "start",
            SimEvent::Finish { .. } => "finish",
            SimEvent::Preempt { .. } => "preempt",
            SimEvent::NodeFail { .. } | SimEvent::NodeRepair { .. } => return,
        };
        let job = event.job().expect("job events carry a job");
        self.events.push((event.time(), kind.into(), job.id));
    }
}

#[test]
fn observer_event_stream_is_ordered_and_complete() {
    let spec = venus();
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let jobs = random_jobs(&spec, 200, &mut rng);
    let mut log = EventLog::default();
    let mut sim = Simulator::new(&spec, Policy::Srtf.build());
    sim.observe(Box::new(&mut log));
    sim.push_jobs(&jobs).unwrap();
    sim.run_to_completion();
    drop(sim);

    // Times never go backwards.
    for w in log.events.windows(2) {
        assert!(w[0].0 <= w[1].0, "event times must be non-decreasing");
    }
    // Per job: exactly one submit and one finish; starts = preempts + 1;
    // lifecycle order submit -> start -> ... -> finish.
    let mut per_job: HashMap<u64, Vec<(i64, String)>> = HashMap::new();
    for (t, kind, id) in &log.events {
        per_job.entry(*id).or_default().push((*t, kind.clone()));
    }
    assert_eq!(per_job.len(), jobs.len(), "every job produced events");
    for (id, evs) in per_job {
        assert_eq!(evs.first().unwrap().1, "submit", "job {id}");
        assert_eq!(evs.last().unwrap().1, "finish", "job {id}");
        let count = |k: &str| evs.iter().filter(|(_, kind)| kind == k).count();
        assert_eq!(count("submit"), 1, "job {id}");
        assert_eq!(count("finish"), 1, "job {id}");
        assert_eq!(
            count("start"),
            count("preempt") + 1,
            "job {id}: one (re)start per preemption plus the first"
        );
    }
}

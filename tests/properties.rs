//! Randomized cross-crate invariant tests: the same properties the original
//! proptest suite checked, driven by seeded ChaCha12 generation (the
//! offline environment has no proptest; see vendor/README.md). Each test
//! sweeps many deterministic seeds, so failures reproduce exactly.

use helios_analysis::cdf::Cdf;
use helios_analysis::quantiles::BoxStats;
use helios_predict::text::{levenshtein, normalized_distance};
use helios_sim::{simulate_with, KernelConfig, Policy, SimJob};
use helios_trace::{ClusterId, ClusterSpec, GpuModel, VcSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn one_vc_spec(nodes: u32) -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Venus,
        nodes,
        gpus_per_node: 8,
        cpu_threads_per_node: 48,
        ram_gb_per_node: 376,
        network: "IB",
        gpu_model: GpuModel::Volta,
        vcs: vec![VcSpec {
            id: 0,
            name: "vc000".into(),
            nodes,
        }],
    }
}

fn arb_jobs(rng: &mut ChaCha12Rng) -> Vec<SimJob> {
    let n = rng.gen_range(1..80usize);
    let mut jobs: Vec<SimJob> = (0..n)
        .map(|i| SimJob {
            id: i as u64,
            vc: 0,
            gpus: [1, 2, 4, 8, 16][rng.gen_range(0..5usize)],
            submit: rng.gen_range(0..50_000i64),
            duration: rng.gen_range(1..5_000i64),
            priority: rng.gen_range(0..1_000_000i64) as f64,
        })
        .collect();
    jobs.sort_by_key(|j| j.submit);
    jobs
}

#[test]
fn simulator_conserves_jobs_and_capacity() {
    for seed in 0..64u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let jobs = arb_jobs(&mut rng);
        let policy =
            [Policy::Fifo, Policy::Sjf, Policy::Srtf, Policy::Priority][(seed % 4) as usize];
        let spec = one_vc_spec(3); // 24 GPUs
        let result = simulate_with(&spec, &jobs, policy.build(), &KernelConfig::default()).unwrap();
        assert_eq!(result.outcomes.len(), jobs.len(), "seed {seed}");
        let mut events: Vec<(i64, i64)> = Vec::new();
        for (o, j) in result.outcomes.iter().zip(&jobs) {
            assert!(o.start >= j.submit, "seed {seed}");
            assert!(o.end >= o.start + j.duration, "seed {seed}");
            if policy != Policy::Srtf {
                // Non-preemptive: contiguous execution.
                assert_eq!(o.end - o.start, j.duration, "seed {seed}");
                events.push((o.start, j.gpus as i64));
                events.push((o.end, -(j.gpus as i64)));
            }
        }
        if policy != Policy::Srtf {
            events.sort();
            let mut load = 0i64;
            for (_, d) in events {
                load += d;
                assert!(load <= 24, "seed {seed}: capacity exceeded ({load})");
            }
        }
    }
}

#[test]
fn cdf_is_monotone_and_normalized() {
    for seed in 0..64u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(1000 + seed);
        let n = rng.gen_range(1..200usize);
        let values: Vec<f64> = (0..n).map(|_| (rng.gen::<f64>() - 0.5) * 2.0e6).collect();
        let cdf = Cdf::new(values.clone());
        let lo = cdf.min();
        let hi = cdf.max();
        assert!((cdf.fraction_at(hi) - 1.0).abs() < 1e-12, "seed {seed}");
        assert!(cdf.fraction_at(lo - 1.0) == 0.0, "seed {seed}");
        // Monotone on a fixed grid.
        let mut last = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let f = cdf.fraction_at(x);
            assert!(f + 1e-12 >= last, "seed {seed}");
            last = f;
        }
        // Quantiles stay within range.
        for q in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let v = cdf.quantile(q.max(0.01));
            assert!(v >= lo && v <= hi, "seed {seed}");
        }
    }
}

#[test]
fn boxstats_ordering() {
    for seed in 0..64u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(2000 + seed);
        let n = rng.gen_range(1..120usize);
        let values: Vec<f64> = (0..n).map(|_| (rng.gen::<f64>() - 0.5) * 2.0e4).collect();
        let b = BoxStats::from_samples(&values);
        assert!(b.min <= b.q1 + 1e-9, "seed {seed}");
        assert!(b.q1 <= b.median + 1e-9, "seed {seed}");
        assert!(b.median <= b.q3 + 1e-9, "seed {seed}");
        assert!(b.q3 <= b.max + 1e-9, "seed {seed}");
        assert!(b.whisker_lo >= b.min - 1e-9, "seed {seed}");
        assert!(b.whisker_hi <= b.max + 1e-9, "seed {seed}");
        assert_eq!(b.n, values.len(), "seed {seed}");
    }
}

fn arb_name(rng: &mut ChaCha12Rng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
    let len = rng.gen_range(0..=12usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

#[test]
fn levenshtein_metric_properties() {
    for seed in 0..200u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(3000 + seed);
        let a = arb_name(&mut rng);
        let b = arb_name(&mut rng);
        let c = arb_name(&mut rng);
        // Symmetry.
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // Identity.
        assert_eq!(levenshtein(&a, &a), 0);
        // Triangle inequality.
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Bounds.
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(d >= la.abs_diff(lb));
        assert!(d <= la.max(lb));
        // Normalized distance in [0, 1].
        let nd = normalized_distance(&a, &b);
        assert!((0.0..=1.0).contains(&nd));
    }
}

#[test]
fn gbdt_predictions_bounded_by_targets() {
    use helios_predict::gbdt::{Gbdt, GbdtParams};
    // Squared-loss leaf values are gradient means: predictions cannot
    // escape the convex hull of the targets (with shrinkage <= 1).
    for seed in (0..1000u64).step_by(37) {
        let xs: Vec<f64> = (0..120)
            .map(|i| ((i * 37 + seed as usize) % 60) as f64)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (x * 0.3).sin() * 50.0).collect();
        let lo = ys.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ys.iter().cloned().fold(f64::MIN, f64::max);
        let model = Gbdt::fit(
            std::slice::from_ref(&xs),
            &ys,
            &GbdtParams {
                num_trees: 40,
                seed,
                early_stopping: 0,
                ..Default::default()
            },
            None,
        );
        for x in 0..60 {
            let p = model.predict_row(&[x as f64]);
            assert!(
                p >= lo - 1.0 && p <= hi + 1.0,
                "seed {seed}: pred {p} outside [{lo}, {hi}]"
            );
        }
    }
}

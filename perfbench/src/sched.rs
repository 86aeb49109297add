//! `sched`: the Fig. 11 / Table 3 policy grid with no training. Each of
//! the four Helios clusters' September jobs runs under FIFO, SJF, SRTF and
//! Tiresias, then twice under failure injection (MTBF 72 h, checkpoint
//! semantics): FIFO, and FIFO wrapped in `DrainPolicy::uptime`. Every
//! (cluster, policy) run is one kernel call on this thread, one after
//! another. The kernel and the fault layer do the work; `predict` and
//! `fleet` are bypassed.

use crate::{stats, Cx};
use helios::faults::{goodput, DrainConfig, DrainPolicy};
use helios::sim::{
    jobs_from_trace, simulate_with, FaultConfig, FaultStats, FifoPolicy, JobOutcome, KernelConfig,
    SchedulingPolicy, SimJob, Simulator, SjfPolicy, SrtfPolicy, TiresiasPolicy,
};
use helios::trace::{generate_helios, ClusterSpec, GeneratorConfig, HeliosResult};

/// Calendar month of the evaluation window (September).
const SEPTEMBER: usize = 5;
const MTBF_HOURS: f64 = 72.0;
const CHECKPOINT_HOURS: f64 = 2.0;

/// Outcome digests committed in `BENCH_sched.json` (scale 1.0, seed 2020).
const PINNED: [(&str, &str, &str); 16] = [
    ("Venus", "FIFO", "47a30949ef4874cc"),
    ("Venus", "SJF", "5111c6668575e1a0"),
    ("Venus", "SRTF", "91faa2799b8077ba"),
    ("Venus", "TIRESIAS", "c326f3e4c02e3ae0"),
    ("Earth", "FIFO", "838d526d1c0fbee4"),
    ("Earth", "SJF", "8bd36eff220ec188"),
    ("Earth", "SRTF", "9a76628a31e02fbf"),
    ("Earth", "TIRESIAS", "87029dcfc5f710b2"),
    ("Saturn", "FIFO", "6cada58bc5325d84"),
    ("Saturn", "SJF", "59992e8e14a38256"),
    ("Saturn", "SRTF", "3ddc9d5d5817bb85"),
    ("Saturn", "TIRESIAS", "e76c40b3547ca2eb"),
    ("Uranus", "FIFO", "5257af853702560c"),
    ("Uranus", "SJF", "8ac2afe6321ad3cc"),
    ("Uranus", "SRTF", "5199a8307b68df10"),
    ("Uranus", "TIRESIAS", "8956f4177f2b4961"),
];

/// Failure-injected FIFO in `BENCH_faults.json` (scale 1.0, seed 2020):
/// cluster, digest of the id-sorted outcomes, node failures, killed jobs.
const PINNED_FAULTS: [(&str, &str, u64, u64); 2] = [
    ("Venus", "c1506193b6c38212", 3877, 2859),
    ("Saturn", "dd5d9b32f54813b7", 6516, 5163),
];

type PolicyCtor = fn() -> Box<dyn SchedulingPolicy>;

enum Kind {
    Plain(PolicyCtor),
    Faulty { drain: bool },
}

/// The grid's policies: label, span name, kind.
static POLICIES: [(&str, &str, Kind); 6] = [
    ("FIFO", "sim.fifo", Kind::Plain(|| Box::new(FifoPolicy))),
    ("SJF", "sim.sjf", Kind::Plain(|| Box::new(SjfPolicy))),
    ("SRTF", "sim.srtf", Kind::Plain(|| Box::new(SrtfPolicy))),
    (
        "TIRESIAS",
        "sim.tiresias",
        Kind::Plain(|| Box::new(TiresiasPolicy::default())),
    ),
    (
        "FAULT+FIFO",
        "sim.fault_fifo",
        Kind::Faulty { drain: false },
    ),
    (
        "DRAIN+FIFO",
        "faults.drain_fifo",
        Kind::Faulty { drain: true },
    ),
];

struct Cluster {
    name: &'static str,
    spec: ClusterSpec,
    jobs: Vec<SimJob>,
}

struct RunOut {
    outcomes: Vec<JobOutcome>,
    faults: Option<FaultStats>,
}

fn run_policy(c: &Cluster, kind: &Kind, faults: &FaultConfig) -> HeliosResult<RunOut> {
    let kcfg = KernelConfig::default();
    let drain = match kind {
        Kind::Plain(make) => {
            let outcomes = simulate_with(&c.spec, &c.jobs, make(), &kcfg)?.outcomes;
            return Ok(RunOut {
                outcomes,
                faults: None,
            });
        }
        Kind::Faulty { drain } => *drain,
    };
    let policy: Box<dyn SchedulingPolicy> = if drain {
        Box::new(DrainPolicy::uptime(
            Box::new(FifoPolicy),
            MTBF_HOURS,
            DrainConfig::default(),
        )?)
    } else {
        Box::new(FifoPolicy)
    };
    let mut sim = Simulator::with_config(&c.spec, policy, &kcfg);
    sim.enable_faults(faults)?;
    sim.push_jobs(&c.jobs)?;
    sim.run_to_completion();
    let outcomes = sim.drain_outcomes();
    Ok(RunOut {
        outcomes,
        faults: sim.fault_stats(),
    })
}

pub fn run(cx: &mut Cx) -> HeliosResult<()> {
    let gen = GeneratorConfig {
        scale: cx.scale,
        seed: cx.seed,
    };
    let clusters = cx.setup(|cx| {
        let traces = cx.call("trace.generate", || generate_helios(&gen))?;
        let generated: usize = traces.iter().map(|t| t.jobs.len()).sum();
        cx.values.insert("trace.jobs", generated as f64);
        Ok(traces
            .iter()
            .map(|t| {
                let (lo, hi) = t.calendar.month_range(SEPTEMBER);
                Cluster {
                    name: t.spec.id.name(),
                    spec: t.spec.clone(),
                    jobs: jobs_from_trace(t, lo, hi),
                }
            })
            .collect::<Vec<_>>())
    })?;
    let faults = FaultConfig::with_mtbf_hours(MTBF_HOURS).checkpoint_hours(CHECKPOINT_HOURS);
    faults.validate()?;
    let sims: usize = clusters.iter().map(|c| c.jobs.len()).sum::<usize>() * POLICIES.len();
    cx.jobs_per_pass = sims as f64;

    let mut first: Vec<String> = Vec::new();
    let mut repeatable = true;
    let mut conserved = true;
    let mut last: Vec<(usize, usize, RunOut)> = Vec::new();
    cx.measure(|cx| {
        last.clear();
        // One clock segment per cluster.
        cx.start();
        let span = cx.tracer.enter("sched.pass");
        let mut outs = Vec::with_capacity(clusters.len() * POLICIES.len());
        for (ci, c) in clusters.iter().enumerate() {
            if ci > 0 {
                cx.lap();
            }
            for (pi, (_, name, kind)) in POLICIES.iter().enumerate() {
                let out = cx.call(name, || run_policy(c, kind, &faults))?;
                outs.push((ci, pi, out));
            }
        }
        cx.tracer.exit(span);
        cx.stop();
        let digests: Vec<String> = outs
            .iter()
            .map(|(_, _, o)| stats::outcome_digest(&o.outcomes))
            .collect();
        if first.is_empty() {
            first = digests;
        } else {
            repeatable &= first == digests;
        }
        conserved &= outs
            .iter()
            .all(|(ci, _, o)| o.outcomes.len() == clusters[*ci].jobs.len());
        last = outs;
        Ok(())
    })?;

    cx.check(
        "sched: every run finishes every job it was given",
        conserved,
    );
    cx.check(
        "sched: every pass reproduces the first pass's digests",
        repeatable,
    );
    let pinned_run = cx.seed == 2020 && cx.scale == 1.0;
    let (mut preemptions, mut failures, mut kills, mut drains) = (0u64, 0u64, 0u64, 0u64);
    let (mut useful, mut lost) = (0.0, 0.0);
    for (ci, pi, out) in &last {
        let (cluster, (label, _, kind)) = (clusters[*ci].name, &POLICIES[*pi]);
        let digest = stats::outcome_digest(&out.outcomes);
        preemptions += out
            .outcomes
            .iter()
            .map(|o| u64::from(o.preemptions))
            .sum::<u64>();
        let f = out.faults.unwrap_or_default();
        println!(
            "run {cluster:<7} {label:<11} jobs {:>7} digest {digest} failures {} kills {} drains {}",
            out.outcomes.len(),
            f.failures,
            f.killed_jobs,
            f.drains
        );
        if let Kind::Faulty { drain } = kind {
            failures += f.failures;
            kills += f.killed_jobs;
            if *drain {
                drains += f.drains;
                let g = goodput(&out.outcomes, out.faults);
                useful += g.useful_gpu_hours;
                lost += g.lost_gpu_hours;
            }
        }
        if !pinned_run {
            continue;
        }
        if let Some((.., want)) = PINNED.iter().find(|(c, p, _)| *c == cluster && p == label) {
            cx.check(
                format!("sched: {cluster} {label} digest {digest} = BENCH_sched.json {want}"),
                digest == *want,
            );
        }
        if *label == "FAULT+FIFO" {
            if let Some(&(_, want, want_failures, want_kills)) =
                PINNED_FAULTS.iter().find(|(c, ..)| *c == cluster)
            {
                let sorted = stats::sorted_digest(&out.outcomes);
                cx.check(
                    format!(
                        "sched: {cluster} fault-injected FIFO digest {sorted}, {} failures, {} kills = BENCH_faults.json",
                        f.failures, f.killed_jobs
                    ),
                    sorted == want && f.failures == want_failures && f.killed_jobs == want_kills,
                );
            }
        }
    }
    cx.values.insert("sim.jobs", sims as f64);
    cx.values.insert("sim.preemptions", preemptions as f64);
    cx.values.insert("sim.node_failures", failures as f64);
    cx.values.insert("sim.killed_jobs", kills as f64);
    cx.values.insert("faults.drains", drains as f64);
    cx.values.insert(
        "faults.goodput",
        useful / (useful + lost).max(f64::MIN_POSITIVE),
    );
    if cx.traced() {
        cx.check_coverage("sched.pass");
    }
    Ok(())
}

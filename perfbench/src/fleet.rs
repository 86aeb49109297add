//! `fleet`: one `Fleet` hosting Venus/FIFO and Saturn/SRTF (two worker
//! threads) under the default `FleetConfig`: a checkpoint every 8 cycles,
//! 3 generations, in memory. One client thread replays each cluster's
//! September stream in 600-s admission cycles: it submits the jobs due in
//! the cycle, calls `advance`, and reads each cluster's `status`. It ends
//! with `snapshot → restore → shutdown`. A closed loop: the virtual clock
//! moves only when the client calls `advance`.

use crate::{stats, Cx};
use helios::fleet::{ClusterConfig, Fleet, FleetConfig};
use helios::sim::{jobs_from_trace, simulate_with, JobOutcome, KernelConfig, Policy, SimJob};
use helios::trace::{generate, preset, ClusterId, GeneratorConfig, HeliosError, HeliosResult};
use helios::Preset;

/// Calendar month of the replayed window (September).
const SEPTEMBER: usize = 5;
const CYCLE_SECS: i64 = 600;
/// Admission cycles per clock segment.
const LAP_CYCLES: u32 = 256;
const HOSTED: [(Preset, Policy); 2] = [
    (Preset::Venus, Policy::Fifo),
    (Preset::Saturn, Policy::Srtf),
];

struct Stream {
    cluster: ClusterId,
    policy: Policy,
    /// The window's jobs in submission order.
    jobs: Vec<SimJob>,
}

fn config() -> FleetConfig {
    HOSTED.iter().fold(FleetConfig::new(), |cfg, &(p, policy)| {
        cfg.with_cluster(ClusterConfig::new(p.cluster_id(), policy))
    })
}

/// What one pass leaves behind for the checks.
struct PassOut {
    outcomes: Vec<(ClusterId, Vec<JobOutcome>)>,
    undrained_cycles: u64,
}

pub fn run(cx: &mut Cx) -> HeliosResult<()> {
    let gen = GeneratorConfig {
        scale: cx.scale,
        seed: cx.seed,
    };
    // Set-up generates both traces and launches the fleet the first pass
    // uses; later passes launch their own before the clock starts.
    let (streams, (lo, hi), mut launched) = cx.setup(|cx| {
        let mut streams = Vec::with_capacity(HOSTED.len());
        let (mut lo, mut hi, mut generated) = (i64::MAX, i64::MIN, 0);
        for &(p, policy) in &HOSTED {
            let trace = cx.call("trace.generate", || generate(&p.profile(), &gen))?;
            let (start, end) = trace.calendar.month_range(SEPTEMBER);
            (lo, hi) = (lo.min(start), hi.max(end));
            generated += trace.jobs.len();
            let mut jobs = jobs_from_trace(&trace, start, end);
            jobs.sort_by_key(|j| (j.submit, j.id));
            streams.push(Stream {
                cluster: p.cluster_id(),
                policy,
                jobs,
            });
        }
        cx.values.insert("trace.jobs", generated as f64);
        let fleet = cx.call("fleet.launch", || Fleet::launch(&config()))?;
        Ok((streams, (lo, hi), Some(fleet)))
    })?;
    let submitted: usize = streams.iter().map(|s| s.jobs.len()).sum();
    cx.jobs_per_pass = submitted as f64;

    let mut matches = true;
    let mut conserved = true;
    let mut undrained = 0;
    // The one-shot reference each cluster's fleet outcomes must equal.
    let reference: Vec<Vec<JobOutcome>> = streams
        .iter()
        .map(|s| {
            let mut o = simulate_with(
                &preset(s.cluster),
                &s.jobs,
                s.policy.build(),
                &KernelConfig::default(),
            )?
            .outcomes;
            o.sort_by_key(|o| o.id);
            Ok(o)
        })
        .collect::<HeliosResult<_>>()?;
    cx.measure(|cx| {
        let fleet = match launched.take() {
            Some(fleet) => fleet,
            None => cx.call("fleet.launch", || Fleet::launch(&config()))?,
        };
        cx.start();
        let span = cx.tracer.enter("fleet.pass");
        let out = replay(cx, fleet, &streams, lo, hi)?;
        cx.tracer.exit(span);
        cx.stop();
        undrained += out.undrained_cycles;
        for ((s, want), (cluster, mut got)) in streams.iter().zip(&reference).zip(out.outcomes) {
            got.sort_by_key(|o| o.id);
            conserved &= cluster == s.cluster && got.len() == s.jobs.len();
            matches &= got == *want;
        }
        Ok(())
    })?;
    for (s, want) in streams.iter().zip(&reference) {
        println!(
            "fleet: {} {:?} {} jobs, one-shot digest {}",
            s.cluster.name(),
            s.policy,
            s.jobs.len(),
            stats::outcome_digest(want)
        );
    }
    cx.check(
        "fleet: every cluster returns one outcome per submitted job",
        conserved,
    );
    cx.check(
        "fleet: sorted outcomes equal a one-shot simulate_with per cluster",
        matches,
    );
    cx.check(
        "fleet: every admission cycle drains the ingestion shards",
        undrained == 0,
    );
    if cx.traced() {
        cx.check_coverage("fleet.pass");
    }
    Ok(())
}

/// Replay the streams through `fleet` in admission cycles over
/// `[lo, hi)`, then snapshot, restore and shut down.
fn replay(
    cx: &mut Cx,
    fleet: Fleet,
    streams: &[Stream],
    lo: i64,
    hi: i64,
) -> HeliosResult<PassOut> {
    let (mut submitted, mut refused, mut queries, mut undrained_cycles) = (0u64, 0u64, 0u64, 0u64);
    let mut health = vec![(0u64, 0.0f64); streams.len()];
    let mut next = vec![0usize; streams.len()];
    let mut cycles = 0u32;
    let mut cycle = |cx: &mut Cx, until: i64| -> HeliosResult<()> {
        cx.call("fleet.advance", || fleet.advance(until))?;
        let mut pending = 0;
        for (k, s) in streams.iter().enumerate() {
            let status = cx.call("fleet.status", || fleet.status(s.cluster))?;
            queries += 1;
            pending += status.pending_ingest;
            health[k] = (
                status.health.checkpoint_writes,
                status.health.checkpoint_write_secs_total,
            );
        }
        undrained_cycles += u64::from(pending != 0);
        Ok(())
    };
    cycle(cx, lo)?;
    let mut now = lo;
    while now < hi {
        let until = now + CYCLE_SECS;
        for (k, s) in streams.iter().enumerate() {
            while let Some(&job) = s.jobs.get(next[k]).filter(|j| j.submit < until) {
                match cx.call("fleet.submit", || fleet.submit(s.cluster, job)) {
                    Ok(()) => {
                        submitted += 1;
                        next[k] += 1;
                    }
                    // A full shard: run this cluster's admission at the
                    // current clock, then retry the same job.
                    Err(HeliosError::FleetOverflow { .. }) => {
                        refused += 1;
                        cx.call("fleet.advance_cluster", || {
                            fleet.advance_cluster(s.cluster, now)
                        })?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        cycle(cx, until)?;
        now = until;
        cycles += 1;
        if cycles % LAP_CYCLES == 0 {
            cx.lap();
        }
    }
    let bytes = cx.call("fleet.snapshot", || fleet.snapshot())?;
    cx.tracer.span("fleet.drop", || drop(fleet));
    let restored = cx.call("fleet.restore", || Fleet::restore(&bytes))?;
    let outcomes = cx.call("fleet.shutdown", || restored.shutdown())?;

    let writes: u64 = health.iter().map(|h| h.0).sum();
    let write_secs: f64 = health.iter().map(|h| h.1).sum();
    cx.values.insert("fleet.submitted", submitted as f64);
    cx.values.insert("fleet.refused", refused as f64);
    cx.values.insert("fleet.status_queries", queries as f64);
    cx.values.insert("fleet.checkpoint_writes", writes as f64);
    cx.values.insert("fleet.checkpoint_write_s", write_secs);
    cx.values.insert("fleet.snapshot_bytes", bytes.len() as f64);
    Ok(PassOut {
        outcomes,
        undrained_cycles,
    })
}

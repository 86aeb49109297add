//! Fleet service: host all five cluster presets concurrently, stream
//! jobs into sharded per-VC ingestion queues with retry/backoff, answer
//! live status and supervision-health queries (queue depth, utilization,
//! queued-work ETA, checkpoint age) while the simulations run, then
//! checkpoint the whole fleet, resume it from bytes, and check that the
//! resumed copy schedules every cluster byte-identically to the original
//! (exiting non-zero if it does not).
//!
//! Run with: `cargo run --release --example fleet_service`

use helios::prelude::*;
use helios::sim::outcome_digest;
use std::time::Duration;

/// A small synthetic wave: `n` mixed-size jobs spread across `vcs`.
fn wave(base_id: u64, n: u64, vcs: u16, submit: i64) -> Vec<SimJob> {
    (0..n)
        .map(|k| SimJob {
            id: base_id + k,
            vc: (k % vcs as u64) as u16,
            gpus: 1 + (k % 2) as u32,
            submit,
            duration: 1_800 + (k as i64 % 7) * 600,
            priority: 0.0,
        })
        .collect()
}

fn main() -> helios::error::Result<()> {
    // One worker thread per preset, each owning its own incremental
    // `Simulator` under supervision (caught panics restore the last good
    // checkpoint); `FleetConfig::all_presets(policy)` is the default
    // topology, and `Fleet::launch` starts it. Per-cycle auto-checkpointing
    // keeps the in-memory generation ring warm so recovery never replays
    // more than one admission cycle.
    let config = FleetConfig::all_presets(Policy::Fifo)
        .with_checkpoint(CheckpointConfig::default().every_cycles(1));
    let fleet = Fleet::launch(&config)?;

    // Client-side resilience: a full shard surfaces as
    // `HeliosError::FleetOverflow`, and `submit_with_retry` absorbs it
    // with seeded jittered exponential backoff until the deadline.
    let retry = RetryConfig::seeded(7).deadline(Duration::from_secs(5));

    // Stream three waves. `submit` may lag the cluster clock — admission
    // clamps it forward.
    let mut next_id = 0u64;
    for w in 0..3i64 {
        for cluster in fleet.clusters() {
            let vcs = fleet.status(cluster)?.vcs.len() as u16;
            for job in wave(next_id, 40, vcs, w * 600) {
                fleet.submit_with_retry(cluster, job, &retry)?;
            }
            next_id += 40;
        }
        // Advance every cluster to the wave horizon (admits the shards).
        fleet.advance((w + 1) * 600)?;

        // Live reads come from incrementally maintained state — no
        // worker is paused to answer them. `statuses()` stays infallible
        // even with a crashed worker: its `FleetHealth` reports degraded
        // mode instead of erroring, so a dashboard keeps rendering.
        println!("after wave {w}:");
        for s in fleet.statuses() {
            let h = s.health;
            println!(
                "  {:<8} t={:>5}s queue={:<3} running={:<4} util={:>5.1}% \
                 eta(vc0)={:.0}s | {:?} restarts={} ckpt(gen {}, {}s old)",
                format!("{:?}", s.cluster),
                s.now,
                s.queue_depth,
                s.running,
                100.0 * s.utilization(),
                s.eta_secs(0).unwrap_or(0.0),
                h.state,
                h.restarts,
                h.checkpoint_generation,
                h.checkpoint_age_secs,
            );
        }
    }

    // Checkpoint the entire fleet (one versioned frame bundling a
    // checkpoint generation per cluster) and resume it from the bytes.
    let frame = fleet.snapshot()?;
    println!("fleet snapshot: {} bytes", frame.len());
    let resumed = Fleet::restore(&frame)?;

    // Both run to completion; each cluster's sorted outcome digest must
    // match between the original and the resumed copy.
    let digests = |fleet: Fleet| -> helios::error::Result<Vec<(ClusterId, usize, String)>> {
        let mut out = Vec::new();
        for (cluster, mut outcomes) in fleet.shutdown()? {
            outcomes.sort_by_key(|o| o.id);
            out.push((cluster, outcomes.len(), outcome_digest(&outcomes)));
        }
        Ok(out)
    };
    let (original, copy) = (digests(fleet)?, digests(resumed)?);
    if original != copy {
        return Err(HeliosError::snapshot(
            "checking the resumed fleet",
            format!("original {original:?} != resumed {copy:?}"),
        ));
    }
    for (cluster, jobs, digest) in &original {
        println!(
            "  {:<8} {jobs} jobs, digest {digest}",
            format!("{cluster:?}")
        );
    }
    println!("the resumed copy scheduled every cluster byte-identically");
    Ok(())
}

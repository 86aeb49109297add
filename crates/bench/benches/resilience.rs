//! Resilience-path cost: the two kernel primitives behind the fleet's
//! self-healing. Checkpoint capture (serializing the kernel into a reused
//! buffer) is what every auto-checkpoint cycle pays on the worker thread; recovery (decode +
//! restore + journal replay) is what a supervisor restart pays before the
//! cluster serves again. Complements the `fleet-chaos` experiment, which
//! measures the same paths end to end through the supervised worker and
//! commits the latencies to `BENCH_fleet.json`.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use helios_sim::{Policy, SimJob, SimSnapshot, Simulator};
use helios_trace::{preset, ClusterId};

/// Synthetic streaming workload: small mixed-size jobs fanned across
/// `vcs` virtual clusters, submit times already in admission order.
fn jobs(ids: std::ops::Range<u64>, vcs: u16, floor: i64) -> Vec<SimJob> {
    ids.map(|i| SimJob {
        id: i,
        vc: (i % vcs as u64) as u16,
        gpus: 1 + (i % 2) as u32,
        submit: floor + (i as i64) / 50,
        duration: 60 + (i as i64 % 11) * 30,
        priority: 0.0,
    })
    .collect()
}

/// A Venus kernel paused mid-stream with queues and running jobs
/// populated — the state every auto-checkpoint cycle captures.
fn loaded_sim(spec: &helios_trace::ClusterSpec) -> Simulator<'_> {
    let vcs = spec.vcs.len() as u16;
    let mut sim = Simulator::new(spec, Policy::Fifo.build());
    sim.push_jobs(&jobs(0..10_000, vcs, 0)).expect("valid jobs");
    sim.run_until(100);
    sim
}

/// Checkpoint capture latency: one wire serialization of the loaded
/// kernel into a reused buffer, the encode pass of the per-cycle cost
/// `FleetHealth::checkpoint_write_secs_total` accumulates (minus the
/// checksum and the disk mirror).
fn bench_checkpoint_write(c: &mut Criterion) {
    let spec = preset(ClusterId::Venus);
    let sim = loaded_sim(&spec);
    let mut buf = Vec::new();

    let mut g = c.benchmark_group("resilience");
    g.sample_size(10);
    g.bench_function("checkpoint_write_venus_10k", |b| {
        b.iter(|| {
            sim.snapshot_into(&mut buf);
            black_box(buf.len())
        })
    });
    g.finish();
}

/// Recovery latency: decode the checkpoint, rebuild the kernel from it,
/// replay a 500-job admission journal, and run to the crash horizon —
/// the restore-and-replay path a supervisor restart takes
/// (`FleetHealth::recovery_secs_total`).
fn bench_recovery(c: &mut Criterion) {
    let spec = preset(ClusterId::Venus);
    let vcs = spec.vcs.len() as u16;
    let bytes = loaded_sim(&spec).snapshot().to_bytes();
    let journal = jobs(10_000..10_500, vcs, 100);

    let mut g = c.benchmark_group("resilience");
    g.sample_size(10);
    g.bench_function("recovery_restore_replay_venus_500j", |b| {
        b.iter(|| {
            let snap = SimSnapshot::from_bytes(black_box(&bytes)).expect("clean generation");
            let mut sim =
                Simulator::restore(&spec, Policy::Fifo.build(), &snap).expect("same spec");
            sim.push_jobs(black_box(&journal)).expect("valid journal");
            sim.run_until(200);
            black_box(sim.now())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_checkpoint_write, bench_recovery);
criterion_main!(benches);

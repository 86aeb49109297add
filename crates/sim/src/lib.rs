//! # helios-sim
//!
//! Trace-driven discrete-event simulator for a multi-VC GPU cluster — the
//! evaluation substrate of the paper's QSSF service (§4.2.3): gang
//! scheduling, exclusive allocation, ConsolidateAllocate placement, strict
//! per-VC queues, and optional EASY backfill (the paper's stated future
//! work).
//!
//! The scheduling layer is **pluggable**: every queue decision goes
//! through a [`SchedulingPolicy`] trait object (the four Fig. 11 policies
//! — FIFO, oracle SJF, oracle preemptive SRTF, externally-scored Priority
//! for QSSF — ship as policy objects, plus a Tiresias-style discretized
//! least-attained-service policy), metrics stream through [`SimObserver`]s
//! (occupancy, queue length), and the [`Simulator`]
//! kernel is incremental: push jobs online, advance to a horizon, drain
//! outcomes.
//!
//! ```
//! use helios_sim::{simulate_with, KernelConfig, Policy, SimJob};
//! use helios_trace::venus;
//!
//! let spec = venus();
//! let cfg = KernelConfig::default();
//! let jobs = vec![SimJob { id: 0, vc: 0, gpus: 8, submit: 0, duration: 60, priority: 1.0 }];
//! let result = simulate_with(&spec, &jobs, Policy::Fifo.build(), &cfg)?;
//! assert_eq!(result.outcomes[0].start, 0);
//!
//! // Unplaceable jobs are rejected up front instead of hanging the queue.
//! let giant = vec![SimJob { id: 1, vc: 0, gpus: u32::MAX, submit: 0, duration: 60, priority: 1.0 }];
//! assert!(simulate_with(&spec, &giant, Policy::Fifo.build(), &cfg).is_err());
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```
//!
//! Incremental use — jobs arrive in batches, outcomes leave in batches:
//!
//! ```
//! use helios_sim::{Simulator, SimJob, FifoPolicy};
//! use helios_trace::venus;
//!
//! let mut sim = Simulator::new(&venus(), Box::new(FifoPolicy));
//! sim.push_jobs(&[SimJob { id: 0, vc: 0, gpus: 8, submit: 0, duration: 60, priority: 0.0 }])?;
//! sim.run_until(30);                     // job still running
//! assert!(sim.drain_outcomes().is_empty());
//! sim.push_jobs(&[SimJob { id: 1, vc: 0, gpus: 8, submit: 40, duration: 5, priority: 0.0 }])?;
//! sim.run_to_completion();
//! assert_eq!(sim.drain_outcomes().len(), 2);
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

pub mod engine;
pub mod fault;
mod heap;
pub mod job;
pub mod metrics;
pub mod observer;
pub mod policy;
pub mod pool;
pub mod snapshot;

pub use engine::{simulate_with, validate_job, KernelConfig, Policy, SimResult, Simulator};
pub use fault::{
    DrainDirective, FaultConfig, FaultSemantics, FaultSnap, FaultState, FaultStats,
    FAULT_CODEC_VERSION, NODE_FEATURES, NODE_FEATURE_NAMES,
};
pub use job::{jobs_from_trace, JobOutcome, SimJob};
pub use metrics::{
    group_delay_ratios, jct_samples, outcome_digest, per_vc_queue_delay, queue_delay_by_group,
    schedule_stats, ScheduleStats, DURATION_GROUPS, QUEUED_THRESHOLD_SECS,
};
pub use observer::{ClusterView, OccupancyObserver, QueueLengthObserver, SimEvent, SimObserver};
pub use policy::{
    FifoPolicy, JobView, PriorityPolicy, SchedulingPolicy, SjfPolicy, SrtfPolicy, TiresiasPolicy,
};
pub use pool::{Allocation, NodePool, Placement};
pub use snapshot::{
    spec_fingerprint, whole_log_prefix, xxh64, ByteReader, ByteWriter, JobStateSnap, QueueKey,
    SimSnapshot, VcSnap, FINISHED_LOG_MAGIC, JOB_WIRE_BYTES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

//! # helios-fleet
//!
//! A sharded, snapshottable **scheduler-as-a-service** layer over the
//! incremental `helios-sim` kernel: one [`Fleet`] hosts several cluster
//! presets concurrently (by default all five Helios datacenters plus
//! Philly), each driven by its own [`Simulator`](helios_sim::Simulator)
//! on a dedicated worker thread.
//!
//! ## Architecture
//!
//! ```text
//!  producers (any thread)         Fleet                worker threads
//!  ───────────────────────  ─────────────────   ──────────────────────────
//!  submit(cluster, job) ──► per-VC bounded      ┌─ Venus  ── Simulator ─┐
//!                           ingestion shards ──►│  admit → run_until    │
//!  status(cluster) ◄─────── Arc<ClusterStatus>◄─┤  publish status       │
//!  advance(t) ──────────────── control chan ───►└───────────────────────┘
//!                                               (× Earth, Saturn, …)
//! ```
//!
//! * **Ingestion** is sharded per virtual cluster: every VC of every
//!   hosted cluster gets its own bounded channel. [`Fleet::submit`]
//!   validates the job against the cluster spec (unknown VCs and
//!   never-placeable jobs are typed errors at the door) and then
//!   `try_send`s — a full shard surfaces as
//!   [`HeliosError::FleetOverflow`](helios_trace::HeliosError::FleetOverflow),
//!   the backpressure signal to retry after the next admission cycle.
//! * **Admission is batched**: a worker drains its shards in VC order
//!   (FIFO within each shard) and pushes one batch into the kernel per
//!   [`Fleet::advance`] cycle. Submissions racing the virtual clock are
//!   clamped to the cluster's current horizon, so streamed jobs can never
//!   trip the kernel's time-regression guard.
//! * **Control hand-offs poll, then park**: every command
//!   ([`Fleet::advance`], [`Fleet::drain`], [`Fleet::snapshot`],
//!   [`Fleet::shutdown`]) is a round trip over two channels — the
//!   worker's command channel and a one-shot reply channel. Both ends
//!   wait the same way: up to 100 `try_recv`s, each followed by a
//!   `yield_now` (about 40 µs on a 2-core host), then a blocking receive
//!   that parks the thread. A fleet cycle mostly finishes inside the
//!   poll, so neither side parks and waits to be woken, while an idle
//!   worker still parks and costs no CPU. The bound is a count, not a
//!   time, and yielding keeps the wait fair when workers and caller
//!   share fewer cores than they number. With a [`WatchdogConfig`], the
//!   caller's timed supervision loop starts once the poll is spent.
//! * **Queries never pause simulation**: [`Fleet::status`] reads the
//!   last published [`ClusterStatus`] from shared memory — queue depths
//!   and per-VC utilization from the kernel's incremental `ClusterStats`,
//!   and QSSF-style ETA estimates summed over each VC's queue at publish
//!   time — plus live ingestion counters from atomics. No worker
//!   round-trip.
//! * **Snapshot/restore**: [`Fleet::snapshot`] has every worker take one
//!   checkpoint generation and bundles them, with each worker's
//!   finished-record log, into one checksummed `HELFLEET` frame;
//!   [`Fleet::restore`] refuses a damaged or other-version frame and
//!   resumes each generation as [`Fleet::recover`] does one from disk, so
//!   the resumed run produces **byte-identical** downstream outcomes.
//! * **Self-healing** (PR 8): every worker command runs under panic
//!   isolation. An auto-[`CheckpointConfig`] ring plus an admission
//!   journal lets the supervisor restore the last good generation and
//!   replay every accepted job after a caught panic — recovered streams
//!   stay byte-identical, already-delivered outcomes are never
//!   re-delivered, and a corrupt newest generation falls back to the
//!   previous one. Exhausting the restart budget degrades the cluster to
//!   a typed
//!   [`HeliosError::WorkerCrashed`](helios_trace::HeliosError::WorkerCrashed)
//!   instead of poisoning the fleet; [`Fleet::statuses`] stays
//!   infallible and reports per-cluster [`FleetHealth`]. Producers
//!   absorb backpressure with [`Fleet::submit_with_retry`]
//!   ([`RetryConfig`]: seeded jittered exponential backoff +
//!   deadline), whole-process death recovers via [`Fleet::recover`]
//!   from the on-disk ring, and the deterministic [`ChaosConfig`]
//!   harness drives the resilience test suites.
//! * **Liveness & overload hardening** (PR 9): an optional
//!   [`WatchdogConfig`] turns every reply wait into a supervisor — the
//!   kernel publishes a heartbeat from a cooperative pulse, a flatlined
//!   worker is cancelled at an event boundary and routed through the
//!   checkpoint-restore path, and one that ignores cancellation degrades
//!   to [`WorkerState::Hung`] instead of blocking the fleet. An optional
//!   [`ShedConfig`] adds adaptive admission control: past a high-water
//!   backlog mark, heavy VCs are shed first with the typed
//!   [`HeliosError::FleetShedding`](helios_trace::HeliosError::FleetShedding)
//!   (hysteresis prevents flapping). [`Fleet::status_within`] answers
//!   within a caller deadline, tagging the snapshot
//!   [`StatusKind::Fresh`], [`Stale`](StatusKind::Stale), or
//!   [`Degraded`](StatusKind::Degraded). Chaos gains deterministic hang
//!   and admission-panic injection.
//!
//! ```no_run
//! use helios_fleet::{Fleet, FleetConfig};
//! use helios_sim::{Policy, SimJob};
//! use helios_trace::ClusterId;
//!
//! let fleet = Fleet::launch(&FleetConfig::all_presets(Policy::Fifo))?;
//! fleet.submit(
//!     ClusterId::Venus,
//!     SimJob { id: 0, vc: 0, gpus: 8, submit: 0, duration: 3_600, priority: 0.0 },
//! )?;
//! fleet.advance(7_200)?; // admit + simulate two hours on every cluster
//! let status = fleet.status(ClusterId::Venus)?;
//! assert_eq!(status.admitted, 1);
//! let checkpoint = fleet.snapshot()?;
//! let resumed = Fleet::restore(&checkpoint)?;
//! # let _ = resumed;
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

// The fleet layer is a service path: every fallible operation returns a
// typed `HeliosError` instead of panicking. `helios-guard` enforces the
// same invariant (plus indexing and the `panic!` family) with a
// reviewable allow-grammar; this attribute makes the unwrap/expect
// subset visible to stock clippy too. Test code is exempt — tests are
// supposed to panic loudly.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod retry;
pub mod service;
pub mod status;
mod worker;

pub use chaos::ChaosConfig;
pub use checkpoint::{CheckpointConfig, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, JOURNAL_MAGIC};
pub use config::{
    ClusterConfig, FleetConfig, ShedConfig, WatchdogConfig, DEFAULT_MAX_RESTARTS,
    DEFAULT_SHARD_CAPACITY, FLEET_PRESETS, MAX_SHARD_CAPACITY,
};
pub use retry::RetryConfig;
pub use service::{Fleet, FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION};
pub use status::{ClusterStatus, FleetHealth, StatusKind, StatusReport, VcStatus, WorkerState};

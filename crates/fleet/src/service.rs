//! The [`Fleet`] service: concurrent hosted clusters, sharded ingestion,
//! live queries, and whole-fleet snapshot/restore as one checksummed frame.

use crate::checkpoint::{self, CheckpointConfig, Generation};
use crate::config::{
    cluster_code, cluster_from, policy_code, policy_from, ClusterConfig, FleetConfig, ShedConfig,
    WatchdogConfig, DEFAULT_MAX_RESTARTS, MAX_SHARD_CAPACITY,
};
use crate::retry::RetryConfig;
use crate::status::{ClusterStatus, StatusKind, StatusReport, WorkerState};
use crate::worker::{self, lock, spawn_worker, Boot, Ctrl, RuntimeOpts, Worker};
use helios_sim::{validate_job, ByteReader, ByteWriter, JobOutcome, Policy, SimJob};
use helios_trace::{preset, ClusterId, HeliosError, HeliosResult};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TrySendError};
use std::sync::TryLockError;
use std::time::{Duration, Instant};

/// Frame magic of a serialized fleet snapshot.
pub const FLEET_SNAPSHOT_MAGIC: [u8; 8] = *b"HELFLEET";
/// Fleet snapshot frame version (3: each cluster's entry holds one
/// checkpoint generation's `HELCKPT1` slot frame and the log it restores
/// over; version 2 is refused by number). The frames inside carry their
/// own versions, all checked on restore.
pub const FLEET_SNAPSHOT_VERSION: u32 = 3;

/// A running scheduler fleet: one worker thread (and one incremental
/// [`Simulator`](helios_sim::Simulator)) per hosted cluster. See the
/// [crate docs](crate) for the architecture and an end-to-end example.
///
/// All methods take `&self`, and the handle is `Sync`: producer threads
/// can share one `&Fleet` and submit concurrently while another thread
/// pumps the clocks and answers queries.
pub struct Fleet {
    workers: Vec<Worker>,
    shard_capacity: usize,
    /// Watchdog supervision knobs; `None` keeps the legacy blocking
    /// behavior (calls wait indefinitely on a worker's reply).
    watchdog: Option<WatchdogConfig>,
    /// Adaptive admission-control knobs; `None` keeps the legacy
    /// FIFO-accept behavior (only a full shard pushes back).
    shed: Option<ShedConfig>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("clusters", &self.clusters())
            .field("shard_capacity", &self.shard_capacity)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Launch a fleet: spawn one worker per configured cluster, each
    /// with a fresh kernel. Fails on an empty topology, a shard bound of 0
    /// or above [`MAX_SHARD_CAPACITY`], or a duplicated cluster id — and,
    /// with a [`CheckpointConfig::dir`], on a directory that already holds
    /// a checkpoint ring file of a hosted cluster (a typed
    /// [`HeliosError::InvalidConfig`] naming the file): a fresh ring there
    /// would be mixed with the earlier fleet's, which
    /// [`Fleet::recover`] resumes instead.
    pub fn launch(config: &FleetConfig) -> HeliosResult<Fleet> {
        validate_topology(config)?;
        if let Some(dir) = &config.checkpoint.dir {
            for cfg in &config.clusters {
                checkpoint::refuse_earlier_ring(dir, cfg.cluster)?;
            }
        }
        let workers = config
            .clusters
            .iter()
            .map(|&cfg| spawn_worker(cfg, preset(cfg.cluster), runtime_opts(config), Boot::Fresh))
            .collect::<HeliosResult<Vec<_>>>()?;
        Ok(Fleet::serving(workers, config))
    }

    /// Rebuild a fleet from the on-disk checkpoint rings a previous
    /// process left under [`CheckpointConfig::dir`] — the
    /// whole-process-death twin of the in-process supervisor restart.
    ///
    /// Every cluster in `config` restores its newest generation that
    /// decodes cleanly (a corrupt or torn newest slot falls back to the
    /// previous one) and replays its admission journal. Delivery
    /// semantics differ from an in-process restart: delivered-outcome
    /// counters die with the old process, so outcomes drained by it are
    /// delivered *again* by the recovered fleet (at-least-once); dedupe
    /// by job id downstream if the old process's drains were durable.
    pub fn recover(config: &FleetConfig) -> HeliosResult<Fleet> {
        validate_topology(config)?;
        let dir = config.checkpoint.dir.as_deref().ok_or_else(|| {
            HeliosError::invalid_config(
                "checkpoint.dir",
                "Fleet::recover needs the checkpoint directory the dead fleet wrote \
                 (set CheckpointConfig::dir)",
            )
        })?;
        let workers = config
            .clusters
            .iter()
            .map(|cfg| {
                let (ring, log, next, skipped) = checkpoint::load_ring(dir, cfg.cluster)?;
                resume_worker(
                    cfg.cluster,
                    cfg.policy,
                    runtime_opts(config),
                    &ring,
                    log,
                    next,
                    skipped,
                )
            })
            .collect::<HeliosResult<Vec<_>>>()?;
        Ok(Fleet::serving(workers, config))
    }

    /// The handle over `workers`, with `config`'s fleet-wide knobs.
    fn serving(workers: Vec<Worker>, config: &FleetConfig) -> Fleet {
        Fleet {
            workers,
            shard_capacity: config.shard_capacity,
            watchdog: config.watchdog,
            shed: config.shed,
        }
    }

    /// The hosted clusters, in configuration order.
    pub fn clusters(&self) -> Vec<ClusterId> {
        self.workers.iter().map(|w| w.cfg.cluster).collect()
    }

    /// Number of hosted clusters.
    pub fn num_clusters(&self) -> usize {
        self.workers.len()
    }

    /// The bound of every per-VC ingestion shard (jobs).
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    fn worker_for(&self, cluster: ClusterId) -> HeliosResult<&Worker> {
        self.workers
            .iter()
            .find(|w| w.cfg.cluster == cluster)
            .ok_or_else(|| HeliosError::UnknownName {
                kind: "cluster",
                name: cluster.name().to_string(),
                expected: self
                    .workers
                    .iter()
                    .map(|w| w.cfg.cluster.name())
                    .collect::<Vec<_>>()
                    .join(", "),
            })
    }

    fn send_ctrl(&self, w: &Worker, cmd: Ctrl) -> HeliosResult<()> {
        // An abandoned (hung) worker must never be commanded again: the
        // caller would block on a reply that may never come.
        if w.health.state() == WorkerState::Hung {
            return Err(w.died_err());
        }
        // `ctrl` is only `None` after shutdown took the workers, so a
        // missing channel is the same condition as a closed one: this
        // worker can no longer be commanded.
        let ctrl = w.ctrl.as_ref().ok_or_else(|| w.died_err())?;
        let cycle = matches!(
            cmd,
            Ctrl::Pump { .. } | Ctrl::Snapshot { .. } | Ctrl::Complete { .. }
        );
        ctrl.send(cmd).map_err(|_| w.died_err())?;
        if cycle {
            // sync: pairs with the Acquire load in `cycles_retired_lag` (shed wait-out accounting)
            w.cycles_issued.fetch_add(1, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Wait for a worker's reply, polling before parking
    /// ([`worker::wait`]). Without a [`WatchdogConfig`] that is the whole
    /// wait. With one, the wait doubles as the supervisor once the poll
    /// budget is spent: it checks the worker's heartbeat between timed
    /// receives, arms cooperative cancellation when the heartbeat goes
    /// flat past `stall_deadline` (a recovering worker counts as making
    /// progress), and — if the worker ignores cancellation for a further
    /// `hang_deadline` — declares it [`WorkerState::Hung`], abandons it,
    /// and returns the typed [`HeliosError::WorkerHung`] instead of
    /// blocking forever.
    fn await_reply<T>(&self, w: &Worker, rx: &Receiver<T>) -> HeliosResult<T> {
        let Some(wd) = &self.watchdog else {
            return worker::wait(rx).map_err(|_| w.died_err());
        };
        let interval = (wd.stall_deadline / 8).max(Duration::from_millis(1));
        let mut last_hb = w.health.hb_events();
        let mut last_state = w.health.state();
        // guard: allow(determinism, reason = "watchdog deadlines are host wall-clock by design; they gate supervision, not kernel state")
        let mut last_progress = Instant::now();
        let mut cancel_since: Option<Instant> = None;
        let mut polled = Some(worker::poll(rx));
        loop {
            match polled.take().unwrap_or_else(|| rx.recv_timeout(interval)) {
                Ok(v) => {
                    // The reply resolves any armed-but-unconsumed
                    // cancellation (e.g. the worker finished right as the
                    // watchdog fired) so it cannot leak into the next
                    // command.
                    w.health.clear_cancel();
                    return Ok(v);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(w.died_err()),
                Err(RecvTimeoutError::Timeout) => {}
            }
            let hb = w.health.hb_events();
            let state = w.health.state();
            if hb != last_hb || state != last_state || state == WorkerState::Recovering {
                last_hb = hb;
                last_state = state;
                // guard: allow(determinism, reason = "watchdog progress stamp; wall time gates supervision only")
                last_progress = Instant::now();
                cancel_since = None;
                continue;
            }
            match cancel_since {
                None if last_progress.elapsed() >= wd.stall_deadline => {
                    w.health.arm_cancel();
                    // guard: allow(determinism, reason = "hang-deadline origin stamp; wall time gates supervision only")
                    cancel_since = Some(Instant::now());
                }
                Some(armed) if armed.elapsed() >= wd.hang_deadline => {
                    // The worker ignored cancellation: degrade instead of
                    // blocking. Abandoning releases any chaos spin so a
                    // detached thread can still wind down; a truly hung
                    // thread is simply never joined.
                    w.health.set_state(WorkerState::Hung);
                    w.health.abandon();
                    return Err(HeliosError::WorkerHung {
                        cluster: w.cfg.cluster.name().to_string(),
                        stalled_events: hb,
                    });
                }
                _ => {}
            }
        }
    }

    /// Submit one job to a hosted cluster's ingestion shard (non-blocking).
    ///
    /// The job is validated against the cluster spec up front — an
    /// unknown VC or a never-placeable request is a typed error at the
    /// door, tagged with the cluster. A full shard surfaces as
    /// [`HeliosError::FleetOverflow`]: the backpressure signal to retry
    /// after the next [`Fleet::advance`] drains the shard.
    ///
    /// With a [`ShedConfig`] attached, the fleet additionally sheds load
    /// *before* shards fill: once the cluster's total ingestion backlog
    /// crosses the high-water mark, submissions from VCs holding more
    /// than their fair share of it (or whose own shard is past the mark)
    /// are refused with [`HeliosError::FleetShedding`] until the backlog
    /// drains below the low-water mark. Light VCs keep submitting
    /// throughout — the paper's per-VC fairness, applied to overload.
    pub fn submit(&self, cluster: ClusterId, job: SimJob) -> HeliosResult<()> {
        let w = self.worker_for(cluster)?;
        // A crashed (or hung) worker's shard buffers may still accept
        // sends for a moment while its thread tears down; refuse at the
        // door so no job is silently swallowed by a dead cluster.
        if matches!(w.health.state(), WorkerState::Crashed | WorkerState::Hung) {
            return Err(w.died_err());
        }
        validate_job(&w.spec, &job).map_err(|e| e.for_cluster(cluster.name()))?;
        let vc = job.vc as usize;
        if let Some(e) = self.shed_decision(w, cluster, vc) {
            return Err(e);
        }
        // guard: allow(panic, reason = "validate_job above rejects unknown VCs; shards/depths are sized to the spec's VC count")
        match w.shards[vc].try_send(job) {
            Ok(()) => {
                // guard: allow(panic, reason = "same bound as the shard send above: vc was validated against the spec")
                // sync: pairs with the AcqRel fetch_sub in the worker's shard drain
                w.depths[vc].fetch_add(1, Ordering::AcqRel);
                // sync: pairs with the Acquire load of `submitted` in `status_locked`
                w.submitted.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(HeliosError::FleetOverflow {
                cluster: cluster.name().to_string(),
                vc: job.vc,
                capacity: self.shard_capacity,
            }),
            Err(TrySendError::Disconnected(_)) => Err(w.died_err()),
        }
    }

    /// Adaptive admission control: decide whether this submission should
    /// be shed. Hysteresis on the cluster-wide backlog occupancy (enter
    /// at high-water, exit at low-water) prevents flapping; inside the
    /// band, heavy VCs — those above the mean backlog, or with their own
    /// shard past the high-water mark — are shed first.
    fn shed_decision(&self, w: &Worker, cluster: ClusterId, vc: usize) -> Option<HeliosError> {
        let shed = self.shed.as_ref()?;
        let nvcs = w.depths.len();
        // sync: acquires the AcqRel depth updates from `submit` and the worker's drain
        let depths: Vec<usize> = w.depths.iter().map(|d| d.load(Ordering::Acquire)).collect();
        let total: usize = depths.iter().sum();
        let occupancy = total as f64 / (nvcs * self.shard_capacity) as f64;
        let engaged = if w.health.shedding() {
            occupancy > shed.low_water
        } else {
            occupancy >= shed.high_water
        };
        w.health.set_shedding(engaged);
        if !engaged {
            return None;
        }
        // guard: allow(panic, reason = "vc was validated against the spec; depths holds one slot per VC")
        let mine = depths[vc];
        let mean = total as f64 / nvcs as f64;
        let own_full = mine as f64 >= shed.high_water * self.shard_capacity as f64;
        if (mine as f64) <= mean && !own_full {
            return None;
        }
        // How many times over its fair share this VC's backlog is ≈ how
        // many admission cycles of draining it should wait out.
        let retry_after_cycles =
            (((mine * nvcs) as f64 / total.max(1) as f64).ceil() as u64).max(1);
        w.health.add_shed(1);
        Some(HeliosError::FleetShedding {
            cluster: cluster.name().to_string(),
            vc: vc as u16,
            retry_after_cycles,
        })
    }

    /// [`Fleet::submit`] with seeded, jittered exponential backoff on
    /// the transient refusals: [`HeliosError::FleetOverflow`] (full
    /// shard), [`HeliosError::FleetShedding`] (admission control — the
    /// backoff is stretched by the error's `retry_after_cycles` hint),
    /// and any error raised while the worker is
    /// [`Recovering`](WorkerState::Recovering) (a submit racing a
    /// supervisor restart waits the recovery out instead of failing
    /// spuriously). Any other error propagates immediately; when
    /// `retry`'s deadline would be crossed by the next sleep, the last
    /// transient error is returned. The jitter stream is a pure function
    /// of `(retry.seed, job.id, attempt)`, so resilience tests are
    /// deterministic.
    ///
    /// This blocks the calling thread between attempts; pair it with a
    /// separate thread pumping [`Fleet::advance`], which is what drains
    /// the shards and clears the overflow.
    pub fn submit_with_retry(
        &self,
        cluster: ClusterId,
        job: SimJob,
        retry: &RetryConfig,
    ) -> HeliosResult<()> {
        retry.validate()?;
        // guard: allow(determinism, reason = "retry deadline is host wall-clock by contract; backoff jitter itself is seeded")
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let err = match self.submit(cluster, job) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let stretch = match &err {
                HeliosError::FleetOverflow { .. } => 1,
                HeliosError::FleetShedding {
                    retry_after_cycles, ..
                } => (*retry_after_cycles).clamp(1, 64) as u32,
                _ if self
                    .worker_for(cluster)
                    .is_ok_and(|w| w.health.state() == WorkerState::Recovering) =>
                {
                    1
                }
                _ => return Err(err),
            };
            // Saturating: an absurd schedule returns the refusal, not a panic.
            let delay = retry.backoff(attempt, job.id).saturating_mul(stretch);
            if started.elapsed().saturating_add(delay) > retry.deadline {
                return Err(err);
            }
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// One admission-and-simulation cycle on every hosted cluster:
    /// each worker drains its ingestion shards (batched admission) and
    /// advances its virtual clock to `until`, concurrently. Returns the
    /// total number of jobs admitted this cycle.
    pub fn advance(&self, until: i64) -> HeliosResult<u64> {
        let mut waits = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let (tx, rx) = mpsc::sync_channel(1);
            self.send_ctrl(w, Ctrl::Pump { until, done: tx })?;
            waits.push((w, rx));
        }
        let mut admitted = 0;
        for (w, rx) in &waits {
            admitted += self.await_reply(w, rx)??;
        }
        Ok(admitted)
    }

    /// [`Fleet::advance`] for a single hosted cluster.
    pub fn advance_cluster(&self, cluster: ClusterId, until: i64) -> HeliosResult<u64> {
        let w = self.worker_for(cluster)?;
        let (tx, rx) = mpsc::sync_channel(1);
        self.send_ctrl(w, Ctrl::Pump { until, done: tx })?;
        self.await_reply(w, &rx)?
    }

    fn status_of(w: &Worker) -> ClusterStatus {
        let mut s = lock(&w.status).clone();
        // sync: acquires the AcqRel `submitted` increments in `submit`
        s.submitted = w.submitted.load(Ordering::Acquire);
        // sync: acquires the AcqRel depth updates from `submit` and the worker's drain
        s.pending_ingest = w.depths.iter().map(|d| d.load(Ordering::Acquire)).sum();
        s.health = w.health.snapshot(s.now);
        s
    }

    /// Live status of one hosted cluster, answered from shared memory:
    /// the worker's last published kernel aggregates overlaid with the
    /// current ingestion counters and supervision health. Never waits on
    /// the worker. A cluster whose worker exhausted its restart budget
    /// (or hung past the watchdog's hard deadline) answers with the
    /// typed [`HeliosError::WorkerCrashed`] / [`HeliosError::WorkerHung`]
    /// instead of stale numbers; use [`Fleet::statuses`] for the
    /// infallible degraded-mode view, or [`Fleet::status_within`] for a
    /// staleness-tagged read that always returns data.
    pub fn status(&self, cluster: ClusterId) -> HeliosResult<ClusterStatus> {
        let w = self.worker_for(cluster)?;
        let s = Self::status_of(w);
        if matches!(s.health.state, WorkerState::Crashed | WorkerState::Hung) {
            return Err(w.died_err());
        }
        Ok(s)
    }

    /// [`Fleet::status`] for every hosted cluster, in configuration
    /// order — infallible by design: a crashed or hung worker still
    /// reports its last published aggregates with
    /// [`health.state`](crate::FleetHealth) set to
    /// [`WorkerState::Crashed`] / [`WorkerState::Hung`] (per-worker
    /// liveness rides in [`FleetHealth::heartbeat_events`](crate::FleetHealth) /
    /// [`FleetHealth::heartbeat_age_secs`](crate::FleetHealth)), so
    /// dashboards keep rendering a degraded fleet.
    pub fn statuses(&self) -> Vec<ClusterStatus> {
        self.workers.iter().map(Self::status_of).collect()
    }

    /// Deadline-bounded status read: returns the freshest published
    /// snapshot available within `deadline`, tagged with its staleness —
    /// it never blocks on a recovering, stalled, or hung worker.
    ///
    /// The staleness contract:
    ///
    /// * [`StatusKind::Fresh`] — the worker is healthy and the snapshot
    ///   reflects every admission cycle issued so far;
    /// * [`StatusKind::Stale`] — the worker is healthy but `age_cycles`
    ///   issued cycles (a pump in flight) are not yet reflected;
    /// * [`StatusKind::Degraded`] — the worker is not healthy
    ///   (recovering / hung / crashed), or the snapshot lock could not
    ///   even be sampled within the deadline: the data is the last state
    ///   the worker published before degrading.
    ///
    /// The only error is an unknown cluster id; ingestion counters and
    /// health are overlaid live, exactly as in [`Fleet::status`].
    pub fn status_within(
        &self,
        cluster: ClusterId,
        deadline: Duration,
    ) -> HeliosResult<StatusReport> {
        let w = self.worker_for(cluster)?;
        // guard: allow(determinism, reason = "status deadline is host wall-clock by contract; it bounds the lock spin only")
        let started = Instant::now();
        // The publish lock is only ever held for a swap, so this spin
        // resolves in nanoseconds; the deadline is a hard bound, not an
        // expectation.
        let published = loop {
            match w.status.try_lock() {
                Ok(guard) => break Some(guard.clone()),
                Err(TryLockError::Poisoned(poisoned)) => break Some(poisoned.into_inner().clone()),
                Err(TryLockError::WouldBlock) => {
                    if started.elapsed() >= deadline {
                        break None;
                    }
                    std::thread::yield_now();
                }
            }
        };
        let (mut status, lock_missed) = match published {
            Some(s) => (s, false),
            // Deadline expired without a lock sample: serve the all-idle
            // shape rather than blocking past the contract.
            None => (ClusterStatus::empty(&w.spec, cluster), true),
        };
        // sync: acquires the AcqRel `submitted` increments in `submit`
        status.submitted = w.submitted.load(Ordering::Acquire);
        // sync: acquires the AcqRel depth updates from `submit` and the worker's drain
        status.pending_ingest = w.depths.iter().map(|d| d.load(Ordering::Acquire)).sum();
        status.health = w.health.snapshot(status.now);
        let kind = if lock_missed || status.health.state != WorkerState::Healthy {
            StatusKind::Degraded
        } else {
            // sync: acquires the AcqRel `cycles_issued` increments in `send_ctrl`
            let issued = w.cycles_issued.load(Ordering::Acquire);
            match issued.saturating_sub(status.cycle) {
                0 => StatusKind::Fresh,
                age_cycles => StatusKind::Stale { age_cycles },
            }
        };
        Ok(StatusReport { status, kind })
    }

    /// Surrender the finished-job outcomes one cluster has accumulated.
    ///
    /// Exactly-once across supervisor restarts: outcomes a crash-replay
    /// re-produces are suppressed, so no job outcome is ever delivered
    /// twice by one fleet process.
    pub fn drain(&self, cluster: ClusterId) -> HeliosResult<Vec<JobOutcome>> {
        let w = self.worker_for(cluster)?;
        let (tx, rx) = mpsc::sync_channel(1);
        self.send_ctrl(w, Ctrl::Drain { done: tx })?;
        self.await_reply(w, &rx)?
    }

    /// Checkpoint the whole fleet into one `HELFLEET` frame.
    ///
    /// Each worker first admits its pending ingest (shards are empty in
    /// the frame), then takes one checkpoint generation as its cadence
    /// would ([`FleetHealth`](crate::FleetHealth) counts the write and
    /// names the generation) and ships its slot frame with its log.
    /// Virtual clocks are not advanced. The frame restores via
    /// [`Fleet::restore`] with byte-identical downstream outcomes.
    pub fn snapshot(&self) -> HeliosResult<Vec<u8>> {
        let mut waits = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let (tx, rx) = mpsc::sync_channel(1);
            self.send_ctrl(w, Ctrl::Snapshot { done: tx })?;
            waits.push((w, rx));
        }
        let mut writer = ByteWriter::new();
        writer.frame(&FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION, |writer| {
            writer.u64(self.shard_capacity as u64);
            writer.u64(waits.len() as u64);
            for (w, rx) in &waits {
                let (slot, log) = self.await_reply(w, rx)??;
                // Room for the entry and the closing checksum, so the last
                // entry never leaves a full buffer to double.
                writer.reserve(ENTRY_MIN_BYTES + slot.len() + log.len() + 8);
                writer.u8(cluster_code(w.cfg.cluster));
                writer.u8(policy_code(w.cfg.policy));
                writer.bytes(&slot);
                writer.bytes(&log);
            }
            HeliosResult::Ok(())
        })?;
        Ok(writer.into_bytes())
    }

    /// Rebuild a fleet from a [`Fleet::snapshot`] frame. Every hosted
    /// cluster resumes its bundled generation as [`Fleet::recover`]
    /// resumes one from disk, with empty ingestion shards and generation
    /// indices past the bundled one; the resumed fleet produces
    /// byte-identical outcomes to one that was never interrupted.
    pub fn restore(bytes: &[u8]) -> HeliosResult<Fleet> {
        let mut input = ByteReader::new(bytes, "decoding fleet snapshot");
        let mut r = input.frame(&FLEET_SNAPSHOT_MAGIC, FLEET_SNAPSHOT_VERSION)?;
        input.finish()?;
        let shard_capacity = r.u64()?;
        if !(1..=MAX_SHARD_CAPACITY as u64).contains(&shard_capacity) {
            return Err(r.err(format!(
                "frame carries shard_capacity {shard_capacity}, outside 1..={MAX_SHARD_CAPACITY}"
            )));
        }
        let shard_capacity = shard_capacity as usize;
        let count = r.len(ENTRY_MIN_BYTES)?;
        if count == 0 {
            return Err(r.err("frame hosts no clusters"));
        }
        let mut workers = Vec::with_capacity(count);
        for _ in 0..count {
            let cluster = cluster_from(r.u8()?, &r)?;
            let policy = policy_from(r.u8()?, &r)?;
            let slot = r.bytes()?;
            let log = r.bytes()?;
            if workers.iter().any(|w: &Worker| w.cfg.cluster == cluster) {
                return Err(r.err(format!(
                    "cluster {} appears twice in the frame",
                    cluster.name()
                )));
            }
            let generation = checkpoint::decode_slot(&slot, cluster)?;
            let next = generation.index + 1;
            let ring = VecDeque::from([generation]);
            // The frame carries topology only, no runtime knobs: a
            // restored fleet runs with default supervision and in-memory
            // checkpointing, no chaos.
            let runtime = RuntimeOpts {
                shard_capacity,
                checkpoint: CheckpointConfig::default(),
                chaos: None,
                max_restarts: DEFAULT_MAX_RESTARTS,
                watchdog: None,
            };
            workers.push(resume_worker(
                cluster, policy, runtime, &ring, log, next, 0,
            )?);
        }
        r.finish()?;
        Ok(Fleet {
            workers,
            shard_capacity,
            watchdog: None,
            shed: None,
        })
    }

    /// Stop the fleet: every cluster admits its pending ingest, runs to
    /// completion, and surrenders its remaining outcomes; worker threads
    /// are joined. Returns per-cluster outcomes in configuration order.
    pub fn shutdown(mut self) -> HeliosResult<Vec<(ClusterId, Vec<JobOutcome>)>> {
        let mut workers = std::mem::take(&mut self.workers);
        let mut waits = Vec::with_capacity(workers.len());
        for w in &workers {
            let (tx, rx) = mpsc::sync_channel(1);
            self.send_ctrl(w, Ctrl::Complete { done: tx })?;
            waits.push(rx);
        }
        let mut out = Vec::with_capacity(workers.len());
        for (w, rx) in workers.iter().zip(&waits) {
            let outcomes = self.await_reply(w, rx)??;
            out.push((w.cfg.cluster, outcomes));
        }
        for w in &mut workers {
            teardown_worker(w);
        }
        Ok(out)
    }
}

/// Bytes of the smallest `HELFLEET` entry: two codes, two length prefixes.
const ENTRY_MIN_BYTES: usize = 2 + 8 + 8;

/// The one resume path of [`Fleet::restore`] and [`Fleet::recover`]:
/// recover the newest clean generation of `ring` over `log` and boot a
/// worker from it that numbers its generations from `next_index`. Kernel
/// knobs and failure state come from the recovered snapshot. `skipped`
/// counts the damaged generations already dropped while reading the ring;
/// the worker's health counts them with the ones recovery skips.
fn resume_worker(
    cluster: ClusterId,
    policy: Policy,
    runtime: RuntimeOpts,
    ring: &VecDeque<Generation>,
    log: Vec<u8>,
    next_index: u64,
    skipped: u32,
) -> HeliosResult<Worker> {
    let mut recovery = checkpoint::recover_from(ring, &log, cluster.name())?;
    recovery.fallbacks += skipped;
    let snap = &recovery.snapshot;
    let cfg = ClusterConfig {
        cluster,
        policy,
        placement: snap.placement,
        backfill: snap.backfill,
        // The restored worker must not re-enable injection on top of the
        // failure state the snapshot carries.
        faults: snap.fault.as_ref().map(|f| f.cfg),
    };
    let boot = Boot::Resume {
        resume_index: next_index,
        log: recovery.log_prefix(log),
        recovery: Box::new(recovery),
    };
    spawn_worker(cfg, preset(cluster), runtime, boot)
}

/// Stop one worker: release any chaos spin (abandon), close the control
/// channel, and join the thread — unless the watchdog declared it hung,
/// in which case the handle is dropped without joining so a genuinely
/// stuck thread can never wedge teardown.
fn teardown_worker(w: &mut Worker) {
    w.health.abandon();
    w.ctrl = None;
    if let Some(handle) = w.handle.take() {
        if w.health.state() == WorkerState::Hung {
            drop(handle);
        } else {
            let _ = handle.join();
        }
    }
}

impl Drop for Fleet {
    /// Dropping the handle (without [`Fleet::shutdown`]) stops the
    /// workers where they are: closing the control channels ends their
    /// loops, and the threads are joined (hung workers are detached, not
    /// joined) so a stuck worker never wedges the drop.
    fn drop(&mut self) {
        for w in &mut self.workers {
            teardown_worker(w);
        }
    }
}

/// Shared validation of [`Fleet::launch`] and [`Fleet::recover`]
/// topologies.
fn validate_topology(config: &FleetConfig) -> HeliosResult<()> {
    if config.clusters.is_empty() {
        return Err(HeliosError::empty_input(
            "fleet clusters",
            "FleetConfig lists no clusters to host",
        ));
    }
    if !(1..=MAX_SHARD_CAPACITY).contains(&config.shard_capacity) {
        return Err(HeliosError::invalid_config(
            "shard_capacity",
            format!(
                "ingestion shards allocate every slot up front and need capacity in \
                 1..={MAX_SHARD_CAPACITY}, got {}",
                config.shard_capacity
            ),
        ));
    }
    config.checkpoint.validate()?;
    if let Some(wd) = &config.watchdog {
        wd.validate()?;
    }
    if let Some(shed) = &config.shed {
        shed.validate()?;
    }
    for (i, c) in config.clusters.iter().enumerate() {
        // guard: allow(panic, reason = "i enumerates the same vec being sliced, so the prefix range is always in bounds")
        if config.clusters[..i].iter().any(|p| p.cluster == c.cluster) {
            return Err(HeliosError::invalid_config(
                "clusters",
                format!("cluster {} is listed twice", c.cluster.name()),
            ));
        }
    }
    Ok(())
}

/// The per-worker runtime knobs a [`FleetConfig`] implies.
fn runtime_opts(config: &FleetConfig) -> RuntimeOpts {
    RuntimeOpts {
        shard_capacity: config.shard_capacity,
        checkpoint: config.checkpoint.clone(),
        chaos: config.chaos.clone(),
        max_restarts: config.max_restarts,
        watchdog: config.watchdog,
    }
}

//! Per-cluster worker threads: each one owns a `Simulator` and serves
//! control commands — batched admission, horizon pumping, outcome
//! draining, snapshotting — while publishing live status to shared
//! memory after every command.
//!
//! Since PR 8 every command executes under panic isolation
//! (`catch_unwind`): a panicking kernel no longer kills the thread.
//! The supervisor restores the newest clean checkpoint generation,
//! replays the admission journal, suppresses already-delivered
//! outcomes, and retries the interrupted command — so the recovered
//! stream is byte-identical to an uninterrupted one. Only when the
//! restart budget is exhausted (or no retained generation decodes) does
//! the worker enter the terminal `Crashed` state, answer the pending
//! command with [`HeliosError::WorkerCrashed`], and exit. Booting
//! workers resume through the same code ([`resume`]).

use crate::chaos::{ChaosConfig, ChaosObserver, ChaosShared};
use crate::checkpoint::{CheckpointConfig, CheckpointManager, FinishedLog, Recovery};
use crate::config::{ClusterConfig, WatchdogConfig};
use crate::status::{ClusterStatus, FleetHealth, VcStatus, WorkerState};
use helios_sim::{JobOutcome, SimJob, Simulator};
use helios_trace::{ClusterId, ClusterSpec, HeliosError, HeliosResult};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::mpsc::{
    self, Receiver, RecvError, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Commands the fleet sends to a worker. Every command carries a
/// single-use reply channel; the worker answers after acting and then
/// publishes fresh status.
pub(crate) enum Ctrl {
    /// Drain the ingestion shards into the kernel, then simulate up to
    /// `until`. Replies with the number of jobs admitted this cycle.
    Pump {
        until: i64,
        done: SyncSender<HeliosResult<u64>>,
    },
    /// Surrender finished-job outcomes accumulated so far.
    Drain {
        done: SyncSender<HeliosResult<Vec<JobOutcome>>>,
    },
    /// Admit pending ingest, take one checkpoint generation and reply
    /// with its slot frame and the log it restores over.
    Snapshot {
        done: SyncSender<HeliosResult<(Vec<u8>, Vec<u8>)>>,
    },
    /// Admit, run to completion, reply with all remaining outcomes, and
    /// exit the worker loop.
    Complete {
        done: SyncSender<HeliosResult<Vec<JobOutcome>>>,
    },
}

/// Worker-side runtime knobs shared by every boot mode.
#[derive(Clone)]
pub(crate) struct RuntimeOpts {
    pub shard_capacity: usize,
    pub checkpoint: CheckpointConfig,
    pub chaos: Option<ChaosConfig>,
    pub max_restarts: u32,
    pub watchdog: Option<WatchdogConfig>,
}

/// How a worker's kernel comes to life.
pub(crate) enum Boot {
    /// A fresh kernel from the cluster config.
    Fresh,
    /// Resume `recovery` ([`resume`]), counting the generations it skipped
    /// in the worker's `fallbacks`, and number generations from
    /// `resume_index` over `log`, the recovered generation's log prefix.
    /// The recovery comes from a ring read from disk
    /// ([`Fleet::recover`](crate::Fleet::recover)) or from a snapshot
    /// entry ([`Fleet::restore`](crate::Fleet::restore)).
    Resume {
        recovery: Box<Recovery>,
        resume_index: u64,
        log: FinishedLog,
    },
}

/// Lock-free supervision telemetry shared between a worker (writer) and
/// the fleet handle (reader); queries never wait on the worker thread.
pub(crate) struct HealthCell {
    state: AtomicU8,
    restarts: AtomicU32,
    fallbacks: AtomicU32,
    ckpt_generation: AtomicU64,
    ckpt_clock: AtomicI64,
    journal_len: AtomicUsize,
    recovery_nanos: AtomicU64,
    ckpt_writes: AtomicU64,
    ckpt_write_nanos: AtomicU64,
    /// Monotone heartbeat: kernel events processed across the worker's
    /// whole lifetime (incremented by deltas from the liveness pulse, so
    /// it survives kernel rebuilds).
    hb_events: AtomicU64,
    /// Wall stamp of the last heartbeat, nanos since `epoch` (0 = none
    /// yet).
    hb_wall_nanos: AtomicU64,
    /// Cooperative cancellation token, armed by the caller-side watchdog
    /// and honored by the kernel's liveness pulse at the next check.
    cancel: AtomicBool,
    /// Set when the fleet gives up on this worker (hung teardown or
    /// drop): chaos spin loops release on it so a detached thread can
    /// exit.
    abandoned: AtomicBool,
    /// Jobs refused by adaptive admission control since launch.
    shed_jobs: AtomicU64,
    /// True while admission control is inside its shedding hysteresis
    /// band.
    shed_active: AtomicBool,
    /// Wall-clock origin for heartbeat stamps.
    epoch: Instant,
}

impl HealthCell {
    fn new() -> Arc<Self> {
        Arc::new(HealthCell {
            state: AtomicU8::new(0),
            restarts: AtomicU32::new(0),
            fallbacks: AtomicU32::new(0),
            ckpt_generation: AtomicU64::new(0),
            ckpt_clock: AtomicI64::new(i64::MIN),
            journal_len: AtomicUsize::new(0),
            recovery_nanos: AtomicU64::new(0),
            ckpt_writes: AtomicU64::new(0),
            ckpt_write_nanos: AtomicU64::new(0),
            hb_events: AtomicU64::new(0),
            hb_wall_nanos: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            shed_jobs: AtomicU64::new(0),
            shed_active: AtomicBool::new(false),
            // guard: allow(determinism, reason = "heartbeat-age telemetry origin; wall time never reaches kernel state or digests")
            epoch: Instant::now(),
        })
    }

    pub fn state(&self) -> WorkerState {
        // sync: acquires the `state` Release store in `set_state`
        match self.state.load(Ordering::Acquire) {
            0 => WorkerState::Healthy,
            1 => WorkerState::Recovering,
            3 => WorkerState::Hung,
            _ => WorkerState::Crashed,
        }
    }

    pub(crate) fn set_state(&self, s: WorkerState) {
        let code = match s {
            WorkerState::Healthy => 0,
            WorkerState::Recovering => 1,
            WorkerState::Crashed => 2,
            WorkerState::Hung => 3,
        };
        // sync: publishes state transitions to the Acquire load in `state()`
        self.state.store(code, Ordering::Release);
    }

    /// Record `delta` more processed kernel events and stamp the wall
    /// clock — called from the kernel's liveness pulse.
    fn heartbeat(&self, delta: u64) {
        if delta > 0 {
            // sync: pairs with the Acquire load in `hb_events()` (watchdog progress test)
            self.hb_events.fetch_add(delta, Ordering::AcqRel);
        }
        self.hb_wall_nanos
            // sync: publishes the stamp to the Acquire load in `snapshot()`
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// The monotone heartbeat event count.
    pub fn hb_events(&self) -> u64 {
        // sync: acquires the AcqRel fetch_add in `heartbeat`
        self.hb_events.load(Ordering::Acquire)
    }

    pub fn arm_cancel(&self) {
        // sync: publishes the token to the Acquire load in `cancel_armed`
        self.cancel.store(true, Ordering::Release);
    }

    pub(crate) fn clear_cancel(&self) {
        // sync: publishes the reset to the Acquire load in `cancel_armed`
        self.cancel.store(false, Ordering::Release);
    }

    pub fn cancel_armed(&self) -> bool {
        // sync: acquires the Release stores in `arm_cancel`/`clear_cancel`
        self.cancel.load(Ordering::Acquire)
    }

    /// Give up on this worker: chaos spin loops release, and the fleet
    /// stops joining/blocking on the thread.
    pub fn abandon(&self) {
        // sync: publishes abandonment to the Acquire load in `abandoned()`
        self.abandoned.store(true, Ordering::Release);
    }

    pub fn abandoned(&self) -> bool {
        // sync: acquires the Release store in `abandon` (chaos spin-loop release)
        self.abandoned.load(Ordering::Acquire)
    }

    pub fn add_shed(&self, n: u64) {
        // sync: pairs with the Acquire load of `shed_jobs` in `snapshot()`
        self.shed_jobs.fetch_add(n, Ordering::AcqRel);
    }

    pub fn set_shedding(&self, active: bool) {
        // sync: publishes the hysteresis flag to the Acquire load in `shedding()`
        self.shed_active.store(active, Ordering::Release);
    }

    pub fn shedding(&self) -> bool {
        // sync: acquires the Release store in `set_shedding`
        self.shed_active.load(Ordering::Acquire)
    }

    pub fn restarts(&self) -> u32 {
        // sync: acquires the AcqRel fetch_add in `bump_restarts`
        self.restarts.load(Ordering::Acquire)
    }

    fn bump_restarts(&self) -> u32 {
        // sync: pairs with the Acquire load in `restarts()` (supervisor budget check)
        self.restarts.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn add_fallbacks(&self, n: u32) {
        // sync: pairs with the Acquire load of `fallbacks` in `snapshot()`
        self.fallbacks.fetch_add(n, Ordering::AcqRel);
    }

    /// Publish the ring's newest generation and the write totals.
    fn set_ring(&self, m: &CheckpointManager) {
        // Readers may observe the fields torn across checkpoints, which
        // health reporting tolerates.
        let (generation, (writes, nanos)) = (m.newest_index(), m.write_stats());
        // sync: publishes the generation to the Acquire load in `snapshot()`
        self.ckpt_generation.store(generation, Ordering::Release);
        self.ckpt_clock.store(m.newest_clock(), Ordering::Release); // sync: read by `snapshot()` Acquire
        self.journal_len.store(m.journal_len(), Ordering::Release); // sync: read by `snapshot()` Acquire
        self.ckpt_writes.store(writes, Ordering::Release); // sync: read by `snapshot()` Acquire
        self.ckpt_write_nanos.store(nanos, Ordering::Release); // sync: read by `snapshot()` Acquire
    }

    fn add_recovery_nanos(&self, nanos: u64) {
        // sync: pairs with the Acquire load of `recovery_nanos` in `snapshot()`
        self.recovery_nanos.fetch_add(nanos, Ordering::AcqRel);
    }

    /// Assemble the query-time [`FleetHealth`] against the cluster's
    /// published virtual clock.
    pub fn snapshot(&self, now: i64) -> FleetHealth {
        // Every Acquire load below pairs with the Release/AcqRel writer
        // named on its line; the snapshot as a whole is *not* atomic.
        let clock = self.ckpt_clock.load(Ordering::Acquire); // sync: `set_ring` Release
        let checkpoint_age_secs = if clock == i64::MIN || now == i64::MIN {
            0
        } else {
            (now - clock).max(0)
        };
        let hb_stamp = self.hb_wall_nanos.load(Ordering::Acquire); // sync: `heartbeat` Release store
        let heartbeat_age_secs = if hb_stamp == 0 {
            0.0
        } else {
            (self.epoch.elapsed().as_nanos() as u64).saturating_sub(hb_stamp) as f64 / 1e9
        };
        FleetHealth {
            state: self.state(),
            restarts: self.restarts(),
            checkpoint_generation: self.ckpt_generation.load(Ordering::Acquire), // sync: `set_ring` Release
            checkpoint_age_secs,
            journal_len: self.journal_len.load(Ordering::Acquire), // sync: `set_ring` Release
            fallbacks: self.fallbacks.load(Ordering::Acquire),     // sync: `add_fallbacks` AcqRel
            recovery_secs_total: self.recovery_nanos.load(Ordering::Acquire) as f64 / 1e9, // sync: `add_recovery_nanos` AcqRel
            checkpoint_writes: self.ckpt_writes.load(Ordering::Acquire), // sync: `set_ring` Release
            checkpoint_write_secs_total: self.ckpt_write_nanos.load(Ordering::Acquire) as f64 / 1e9, // sync: `set_ring` Release
            heartbeat_events: self.hb_events(),
            heartbeat_age_secs,
            shed_jobs: self.shed_jobs.load(Ordering::Acquire), // sync: `add_shed` AcqRel
            shedding: self.shedding(),
        }
    }
}

/// The fleet-side handle of one hosted cluster.
pub(crate) struct Worker {
    pub cfg: ClusterConfig,
    pub spec: ClusterSpec,
    /// Per-VC bounded ingestion shards (producer ends).
    pub shards: Vec<SyncSender<SimJob>>,
    /// Live depth of each shard, maintained by producers/worker.
    pub depths: Vec<Arc<AtomicUsize>>,
    /// Jobs accepted by `Fleet::submit` since launch.
    pub submitted: Arc<AtomicU64>,
    /// Control channel; dropped (taken) to let the thread exit.
    pub ctrl: Option<Sender<Ctrl>>,
    /// Last status the worker published.
    pub status: Arc<Mutex<ClusterStatus>>,
    /// Shared supervision telemetry.
    pub health: Arc<HealthCell>,
    /// Admission cycles issued to this worker (Pump/Snapshot/Complete
    /// commands sent), bumped by the fleet *before* dispatch. Compared
    /// against the published [`ClusterStatus::cycle`] to tag staleness
    /// in [`Fleet::status_within`](crate::Fleet::status_within).
    pub cycles_issued: AtomicU64,
    pub handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// The typed error for a worker that can no longer answer: the
    /// supervised [`HeliosError::WorkerCrashed`] when the health cell
    /// says the restart budget is spent, [`HeliosError::WorkerHung`]
    /// when the watchdog abandoned it, else the generic channel-death
    /// error (the thread was torn down outside the supervisor's watch).
    pub fn died_err(&self) -> HeliosError {
        match self.health.state() {
            WorkerState::Crashed => HeliosError::WorkerCrashed {
                cluster: self.cfg.cluster.name().to_string(),
                restarts: self.health.restarts(),
            },
            WorkerState::Hung => HeliosError::WorkerHung {
                cluster: self.cfg.cluster.name().to_string(),
                stalled_events: self.health.hb_events(),
            },
            _ => worker_died(self.cfg.cluster.name()),
        }
    }
}

/// Lock that shrugs off poisoning: a panicking worker must not turn
/// every subsequent status query into a panic cascade.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Empty `try_recv`s a control-channel wait makes, yielding the core
/// after each, before it parks its thread. A fleet cycle is a round trip
/// (command to the worker, reply to the caller) around about 12 µs of
/// kernel work in perfbench `fleet`; with both ends parking at once in
/// `recv`, its median was 40–46 µs on a 2-core host, most of it spent
/// waking a thread parked on the other core. There one `yield_now` costs
/// about 0.39 µs, so 100 polls cover about 40 µs, twice the 20-µs median
/// cycle that polling both ends gives (`fleet.cycle_ms_p50`). The wait
/// yields rather than spins: the workers and the caller often share
/// fewer cores than they number, and a pure spin measured 3x slower
/// there.
const POLLS_BEFORE_PARKING: u32 = 100;

/// The polling half of [`wait`]: the message if one arrives within
/// [`POLLS_BEFORE_PARKING`] polls, [`RecvTimeoutError::Disconnected`] as
/// soon as every sender is gone, and [`RecvTimeoutError::Timeout`] once
/// the budget is spent and the caller should park.
pub(crate) fn poll<T>(rx: &Receiver<T>) -> Result<T, RecvTimeoutError> {
    for _ in 0..POLLS_BEFORE_PARKING {
        match rx.try_recv() {
            Ok(message) => return Ok(message),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => thread::yield_now(),
        }
    }
    Err(RecvTimeoutError::Timeout)
}

/// The control protocol's wait, at both ends: [`poll`], then park in the
/// blocking `recv`.
pub(crate) fn wait<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    match poll(rx) {
        Ok(message) => Ok(message),
        Err(RecvTimeoutError::Disconnected) => Err(RecvError),
        Err(RecvTimeoutError::Timeout) => rx.recv(),
    }
}

/// The error every fleet call maps a broken worker channel to.
pub(crate) fn worker_died(cluster: &str) -> HeliosError {
    HeliosError::invalid_config(
        "fleet_worker",
        "worker thread terminated unexpectedly; the fleet can no longer serve this cluster",
    )
    .for_cluster(cluster)
}

/// Outstanding work one queued job represents, in GPU·seconds: the QSSF
/// priority score (predicted GPU time) when the producer supplied one,
/// else the oracle `gpus × duration` proxy.
fn predicted_work(job: &SimJob) -> f64 {
    if job.priority > 0.0 {
        job.priority
    } else {
        job.gpus as f64 * job.duration.max(1) as f64
    }
}

/// Everything a worker's command handlers and supervisor share.
struct WorkerCtx {
    cfg: ClusterConfig,
    spec: ClusterSpec,
    shards: Vec<Receiver<SimJob>>,
    depths: Vec<Arc<AtomicUsize>>,
    status: Arc<Mutex<ClusterStatus>>,
    health: Arc<HealthCell>,
    chaos: Option<(ChaosConfig, Arc<ChaosShared>)>,
    max_restarts: u32,
    watchdog: Option<WatchdogConfig>,
    /// Admission cycles served (1-based; chaos stall schedule keys off
    /// it).
    cycle: u64,
    /// Recovered-and-replayed outcomes already delivered before the last
    /// crash: the next drains drop this many leading outcomes.
    suppress: u64,
    batch: Vec<SimJob>,
    /// True from the moment `admit` drains a non-empty batch out of the
    /// shards until that batch is acknowledged in the journal. A crash
    /// inside the window leaves `batch` as the only copy of jobs the
    /// producer was told were accepted — recovery re-admits it
    /// exactly-once (the journal acknowledgment is the dedup witness).
    batch_pending: bool,
}

/// A fresh kernel from the cluster config, observers attached.
fn fresh(ctx: &WorkerCtx) -> HeliosResult<Simulator<'static>> {
    let mut sim = Simulator::with_config(&ctx.spec, ctx.cfg.policy.build(), &ctx.cfg.kernel());
    if let Some(faults) = ctx.cfg.faults {
        sim.enable_faults(&faults)?;
    }
    attach_observers(&mut sim, ctx);
    Ok(sim)
}

/// Rebuild a kernel from a recovery: restore its generation (which carries
/// the kernel knobs and failure state), replay its journal and re-attach
/// the observers. Booting workers and the supervisor restart both use it.
fn resume(rec: &Recovery, ctx: &WorkerCtx) -> HeliosResult<Simulator<'static>> {
    let mut sim = Simulator::restore(&ctx.spec, ctx.cfg.policy.build(), &rec.snapshot)?;
    if !rec.replay.is_empty() {
        sim.push_jobs(&rec.replay)?;
    }
    attach_observers(&mut sim, ctx);
    Ok(sim)
}

/// Attach observers and the liveness pulse. Snapshots don't carry
/// observer state: the chaos observer re-joins its *shared* counter so
/// trip-once semantics survive a restart.
fn attach_observers(sim: &mut Simulator<'static>, ctx: &WorkerCtx) {
    if let Some((chaos_cfg, shared)) = &ctx.chaos {
        sim.observe(Box::new(ChaosObserver::new(
            chaos_cfg,
            Arc::clone(shared),
            Arc::clone(&ctx.health),
            ctx.cfg.cluster.name(),
        )));
    }
    if let Some(wd) = &ctx.watchdog {
        // The liveness pulse: every `check_events` kernel events, fold
        // the delta into the monotone heartbeat and honor the
        // cancellation token. The kernel-local counter restarts at 0 on
        // every rebuild, so the closure tracks its own previous value
        // and publishes deltas — the shared heartbeat stays monotone
        // across restarts.
        let health = Arc::clone(&ctx.health);
        let mut prev = 0u64;
        sim.set_pulse(
            wd.check_events,
            Box::new(move |count| {
                health.heartbeat(count - prev);
                prev = count;
                health.cancel_armed()
            }),
        );
    }
}

/// Launch one worker thread. `boot` switches the kernel between a fresh
/// launch and a resume (snapshot restore or disk recovery); either way
/// the thread reports construction success/failure through a one-shot
/// channel before this function returns, so a bad snapshot fails
/// `Fleet::restore` / `Fleet::recover` eagerly.
pub(crate) fn spawn_worker(
    cfg: ClusterConfig,
    spec: ClusterSpec,
    runtime: RuntimeOpts,
    boot: Boot,
) -> HeliosResult<Worker> {
    let nvcs = spec.vcs.len();
    let mut shard_txs = Vec::with_capacity(nvcs);
    let mut shard_rxs = Vec::with_capacity(nvcs);
    for _ in 0..nvcs {
        let (tx, rx) = mpsc::sync_channel(runtime.shard_capacity);
        shard_txs.push(tx);
        shard_rxs.push(rx);
    }
    let depths: Vec<Arc<AtomicUsize>> = (0..nvcs).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let submitted = Arc::new(AtomicU64::new(match &boot {
        Boot::Fresh => 0,
        Boot::Resume { recovery, .. } => {
            (recovery.snapshot.job_count + recovery.replay.len()) as u64
        }
    }));
    let (ctrl_tx, ctrl_rx) = mpsc::channel();
    let status = Arc::new(Mutex::new(ClusterStatus::empty(&spec, cfg.cluster)));
    let health = HealthCell::new();
    let (ready_tx, ready_rx) = mpsc::sync_channel::<HeliosResult<()>>(1);

    let thread_spec = spec.clone();
    let thread_status = Arc::clone(&status);
    let thread_depths = depths.clone();
    let thread_health = Arc::clone(&health);
    let handle = thread::Builder::new()
        .name(format!("helios-fleet-{}", spec.id.name()))
        .spawn(move || {
            let mut ctx = WorkerCtx {
                spec: thread_spec,
                shards: shard_rxs,
                depths: thread_depths,
                status: thread_status,
                health: thread_health,
                chaos: runtime
                    .chaos
                    .as_ref()
                    .map(|c| (c.clone(), ChaosShared::new(c))),
                max_restarts: runtime.max_restarts,
                watchdog: runtime.watchdog,
                cycle: 0,
                suppress: 0,
                batch: Vec::new(),
                batch_pending: false,
                cfg,
            };
            let (sim, mut manager) = match boot_kernel(boot, &ctx, runtime.checkpoint) {
                Ok(booted) => booted,
                Err(e) => {
                    let _ = ready_tx.send(Err(e));
                    return;
                }
            };
            ctx.health.set_ring(&manager);
            publish(&ctx.status, ctx.cfg.cluster, &sim, 0);
            // Ready only after the first status publish, so a query
            // issued the moment launch/restore returns already sees the
            // kernel's real state.
            let _ = ready_tx.send(Ok(()));
            supervised_loop(sim, &mut manager, &mut ctx, ctrl_rx);
        })
        .map_err(|e| HeliosError::io("spawning fleet worker thread", &e))?;

    match ready_rx.recv() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            let _ = handle.join();
            return Err(e);
        }
        Err(_) => {
            let _ = handle.join();
            return Err(worker_died(spec.id.name()));
        }
    }
    Ok(Worker {
        cfg,
        spec,
        shards: shard_txs,
        depths,
        submitted,
        ctrl: Some(ctrl_tx),
        status,
        health,
        cycles_issued: AtomicU64::new(0),
        handle: Some(handle),
    })
}

/// Build (or restore) a worker's kernel and seed its checkpoint ring, on
/// the worker thread: the Simulator never crosses a thread boundary.
fn boot_kernel(
    boot: Boot,
    ctx: &WorkerCtx,
    checkpoint: CheckpointConfig,
) -> HeliosResult<(Simulator<'static>, CheckpointManager)> {
    let (sim, resume_index, log) = match boot {
        Boot::Fresh => (fresh(ctx)?, 0, FinishedLog::default()),
        Boot::Resume {
            recovery,
            resume_index,
            log,
        } => {
            ctx.health.add_fallbacks(recovery.fallbacks);
            (resume(&recovery, ctx)?, resume_index, log)
        }
    };
    // The launch generation guarantees the supervisor always has at least
    // one checkpoint to restore — a panic on the very first cycle recovers
    // to the just-booted state.
    let manager = CheckpointManager::new(ctx.cfg.cluster, checkpoint, resume_index, log, &sim)?;
    Ok((sim, manager))
}

/// Run one command handler under panic isolation. The reply channel
/// stays *outside* the unwind boundary (destructured by the caller), so
/// a panicked command can be retried after recovery and its producer
/// still gets an answer.
fn guarded<T>(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
    f: impl FnOnce(&mut Simulator<'static>, &mut CheckpointManager, &mut WorkerCtx) -> T,
) -> Result<T, ()> {
    panic::catch_unwind(AssertUnwindSafe(|| f(sim, manager, ctx))).map_err(|_| ())
}

/// The supervised command loop: every handler runs under `guarded`; a
/// caught panic triggers checkpoint recovery and then *retries the same
/// command*, so one injected fault is invisible to the producer beyond
/// latency. Exits when every control sender is gone (fleet dropped),
/// after a successful `Complete`, or on entering the terminal crashed
/// state (the pending command is answered with the typed error first).
fn supervised_loop(
    mut sim: Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
    ctrl: Receiver<Ctrl>,
) {
    let mut pending: Option<Ctrl> = None;
    loop {
        let cmd = match pending.take() {
            Some(c) => c,
            None => match wait(&ctrl) {
                Ok(c) => c,
                Err(_) => return,
            },
        };
        match cmd {
            Ctrl::Pump { until, done } => {
                match guarded(&mut sim, manager, ctx, |s, m, c| pump(s, m, c, until)) {
                    Ok(Ok(Step::Done(admitted))) => {
                        let _ = done.send(Ok(admitted));
                    }
                    Ok(Err(e)) => {
                        let _ = done.send(Err(e));
                    }
                    // A watchdog cancellation routes through the same
                    // checkpoint-restore path as a caught panic: restore,
                    // then retry the interrupted command.
                    Ok(Ok(Step::Cancelled)) | Err(()) => match recover(&mut sim, manager, ctx) {
                        Ok(()) => pending = Some(Ctrl::Pump { until, done }),
                        Err(e) => {
                            let _ = done.send(Err(e));
                            return;
                        }
                    },
                }
            }
            Ctrl::Drain { done } => {
                match guarded(&mut sim, manager, ctx, |s, m, c| {
                    Ok(drain_outcomes(s, m, c))
                }) {
                    Ok(reply) => {
                        let _ = done.send(reply);
                    }
                    Err(()) => match recover(&mut sim, manager, ctx) {
                        Ok(()) => pending = Some(Ctrl::Drain { done }),
                        Err(e) => {
                            let _ = done.send(Err(e));
                            return;
                        }
                    },
                }
            }
            Ctrl::Snapshot { done } => match guarded(&mut sim, manager, ctx, snapshot_cmd) {
                Ok(reply) => {
                    let _ = done.send(reply);
                }
                Err(()) => match recover(&mut sim, manager, ctx) {
                    Ok(()) => pending = Some(Ctrl::Snapshot { done }),
                    Err(e) => {
                        let _ = done.send(Err(e));
                        return;
                    }
                },
            },
            Ctrl::Complete { done } => match guarded(&mut sim, manager, ctx, complete_cmd) {
                Ok(Ok(Step::Done(outcomes))) => {
                    let _ = done.send(Ok(outcomes));
                    return;
                }
                Ok(Err(e)) => {
                    let _ = done.send(Err(e));
                    return;
                }
                Ok(Ok(Step::Cancelled)) | Err(()) => match recover(&mut sim, manager, ctx) {
                    Ok(()) => pending = Some(Ctrl::Complete { done }),
                    Err(e) => {
                        let _ = done.send(Err(e));
                        return;
                    }
                },
            },
        }
    }
}

/// How a kernel-driving command ended: normally, or cut short by the
/// watchdog's cooperative cancellation (the supervisor then recovers and
/// retries, exactly like a caught panic).
enum Step<T> {
    Done(T),
    Cancelled,
}

/// One `Pump` cycle: admit (unless chaos stalls the cycle), simulate to
/// the horizon, maybe checkpoint, publish.
fn pump(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
    until: i64,
) -> HeliosResult<Step<u64>> {
    ctx.cycle += 1;
    let admitted = admit(sim, manager, ctx, true)?;
    sim.run_until(until);
    if sim.take_cancelled() {
        return Ok(Step::Cancelled);
    }
    if manager.due(ctx.cycle) {
        let index = manager.checkpoint(sim)?;
        // Chaos damages the freshly written periodic generation it names.
        if let Some(seed) = ctx
            .chaos
            .as_ref()
            .and_then(|(c, _)| c.corruption_seed(index))
        {
            manager.corrupt_newest(seed);
        }
    }
    publish(&ctx.status, ctx.cfg.cluster, sim, ctx.cycle);
    ctx.health.set_ring(manager);
    Ok(Step::Done(admitted))
}

/// `Snapshot` command: admit pending ingest (never stalled — shards are
/// empty in the frame), then take one generation. Chaos never corrupts
/// it: the generation a snapshot ships must restore.
fn snapshot_cmd(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
) -> HeliosResult<(Vec<u8>, Vec<u8>)> {
    ctx.cycle += 1;
    admit(sim, manager, ctx, false)?;
    manager.checkpoint(sim)?;
    publish(&ctx.status, ctx.cfg.cluster, sim, ctx.cycle);
    ctx.health.set_ring(manager);
    manager.newest_slot()
}

/// `Complete` command: admit everything (never stalled — shutdown must
/// not lose accepted jobs), run to completion, surrender the outcomes.
fn complete_cmd(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
) -> HeliosResult<Step<Vec<JobOutcome>>> {
    ctx.cycle += 1;
    admit(sim, manager, ctx, false)?;
    sim.run_to_completion();
    if sim.take_cancelled() {
        return Ok(Step::Cancelled);
    }
    let outcomes = drain_outcomes(sim, manager, ctx);
    publish(&ctx.status, ctx.cfg.cluster, sim, ctx.cycle);
    Ok(Step::Done(outcomes))
}

/// One admission cycle: drain every shard in VC order (FIFO within each
/// shard), clamp racing submit times to the cluster's virtual clock,
/// push the whole batch into the kernel at once, and journal it against
/// the newest checkpoint generation (post-clamp, admission order — the
/// exact stream recovery must replay).
fn admit(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
    allow_stall: bool,
) -> HeliosResult<u64> {
    if allow_stall {
        if let Some((chaos_cfg, _)) = &ctx.chaos {
            if chaos_cfg.stalled(ctx.cycle) {
                return Ok(0);
            }
        }
    }
    ctx.batch.clear();
    let floor = sim.now();
    for (vc, rx) in ctx.shards.iter().enumerate() {
        while let Ok(mut job) = rx.try_recv() {
            // guard: allow(panic, reason = "depths is built alongside shards with identical length; vc enumerates shards")
            // sync: pairs with the Acquire depth reads in `Fleet::submit` backpressure
            ctx.depths[vc].fetch_sub(1, Ordering::AcqRel);
            // A producer stamped this submit time before it knew how far
            // the virtual clock had advanced; admission time is the
            // earliest the job can exist, so clamp rather than reject.
            if job.submit < floor {
                job.submit = floor;
            }
            ctx.batch.push(job);
        }
    }
    if !ctx.batch.is_empty() {
        // From here until the journal acknowledges the batch, `ctx.batch`
        // is the only copy of jobs whose `submit` already succeeded: a
        // crash in this window (the PR-8 teardown race) is repaired by
        // `recover` re-admitting the pending batch exactly-once.
        ctx.batch_pending = true;
        if let Some((chaos_cfg, shared)) = &ctx.chaos {
            if shared.trip_admit_panic(chaos_cfg, ctx.cycle) {
                // guard: allow(panic, reason = "deliberate chaos injection; the supervisor converts the unwind into a crash-recovery cycle")
                panic!(
                    "chaos: injected admission panic on {} at cycle {} \
                     (batch of {} drained but not yet journaled)",
                    ctx.cfg.cluster.name(),
                    ctx.cycle,
                    ctx.batch.len()
                );
            }
        }
        // Journal first: once acknowledged, recovery replays the batch
        // from the journal instead of the pending buffer.
        manager.note_admitted(&ctx.batch)?;
        ctx.batch_pending = false;
        if let Err(e) = sim.push_jobs(&ctx.batch) {
            // The journal already owns the batch; a kernel that refuses
            // it would diverge from what recovery will replay. Escalate
            // to the supervisor (jobs are validated at submit, so this
            // is unreachable in practice).
            // guard: allow(panic, reason = "deliberate supervisor escalation: continuing would diverge from the journal recovery will replay")
            panic!("admitted batch rejected by the kernel after journaling: {e}");
        }
        ctx.health.set_ring(manager);
    }
    Ok(ctx.batch.len() as u64)
}

/// Drain the kernel's accumulated outcomes, dropping the leading
/// duplicates a post-crash replay re-produced (deterministic replay
/// re-delivers outcomes in the original order, so a plain prefix count
/// suffices) and recording the delivery against the newest generation.
fn drain_outcomes(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
) -> Vec<JobOutcome> {
    let mut outcomes = sim.drain_outcomes();
    let skip = ctx.suppress.min(outcomes.len() as u64) as usize;
    if skip > 0 {
        outcomes.drain(..skip);
        ctx.suppress -= skip as u64;
    }
    manager.note_drained(outcomes.len() as u64);
    outcomes
}

fn crashed(ctx: &WorkerCtx, restarts: u32) -> HeliosError {
    ctx.health.set_state(WorkerState::Crashed);
    HeliosError::WorkerCrashed {
        cluster: ctx.cfg.cluster.name().to_string(),
        restarts,
    }
}

/// Supervisor recovery after a caught panic: [`resume`] from the newest
/// clean generation, re-baseline with a fresh checkpoint of the
/// recovered state, and re-attribute the already-delivered outcome count
/// to that new generation (so a *second* crash still suppresses exactly
/// the right prefix). Returns the typed terminal error when the restart
/// budget is spent or nothing decodes.
fn recover(
    sim: &mut Simulator<'static>,
    manager: &mut CheckpointManager,
    ctx: &mut WorkerCtx,
) -> HeliosResult<()> {
    if ctx.health.abandoned() {
        // The fleet already gave up on this worker (watchdog hang
        // declaration or teardown): do not resurrect — exit the loop
        // with the typed error instead of overwriting the degraded
        // state.
        ctx.health.set_state(WorkerState::Hung);
        return Err(HeliosError::WorkerHung {
            cluster: ctx.cfg.cluster.name().to_string(),
            stalled_events: ctx.health.hb_events(),
        });
    }
    // guard: allow(determinism, reason = "recovery wall-time is operator telemetry only; it never feeds kernel state or digests")
    let t0 = Instant::now();
    ctx.health.set_state(WorkerState::Recovering);
    let attempted = ctx.health.restarts();
    if attempted >= ctx.max_restarts {
        return Err(crashed(ctx, attempted));
    }
    let restarts = ctx.health.bump_restarts();
    let resumed = manager
        .recover()
        .and_then(|rec| Ok((resume(&rec, ctx)?, rec)));
    let Ok((mut rebuilt, rec)) = resumed else {
        return Err(crashed(ctx, restarts));
    };
    manager.collapse_to(&rec);
    if ctx.batch_pending && !ctx.batch.is_empty() {
        // The crash hit between shard drain and journal acknowledgment:
        // the restored journal does not know this batch, so the pending
        // buffer is the only copy of jobs the producer was told were
        // accepted. Re-admit it exactly-once (journal acknowledgment
        // included, so a second crash replays it from the journal).
        if rebuilt.push_jobs(&ctx.batch).is_err() || manager.note_admitted(&ctx.batch).is_err() {
            return Err(crashed(ctx, restarts));
        }
    }
    ctx.batch_pending = false;
    // The fresh post-recovery generation captures snapshot + replay in
    // one blob, giving monotone generation indices and a journal reset.
    if manager.checkpoint(&rebuilt).is_err() {
        return Err(crashed(ctx, restarts));
    }
    manager.note_drained(rec.suppress);
    ctx.suppress = rec.suppress;
    *sim = rebuilt;
    ctx.health.add_fallbacks(rec.fallbacks);
    ctx.health.set_ring(manager);
    ctx.health
        .add_recovery_nanos(t0.elapsed().as_nanos() as u64);
    publish(&ctx.status, ctx.cfg.cluster, sim, ctx.cycle);
    // Disarm any watchdog cancellation before resuming: the retried
    // command starts with a clean token (the caller re-arms it if the
    // recovered worker stalls again).
    ctx.health.clear_cancel();
    ctx.health.set_state(WorkerState::Healthy);
    Ok(())
}

/// Publish a fresh [`ClusterStatus`] from the kernel's incrementally
/// maintained aggregates, plus each VC's queued work summed over its
/// queue. The ingestion-side counters and health are zeroed here;
/// `Fleet::status` overlays them from atomics at query time.
fn publish(status: &Mutex<ClusterStatus>, cluster: ClusterId, sim: &Simulator<'_>, cycle: u64) {
    let view = sim.cluster_view();
    let vcs = (0..view.num_vcs())
        .map(|vc| VcStatus {
            vc: vc as u16,
            queued: view.vc_queue_len(vc),
            busy_gpus: view.vc_busy_gpus(vc),
            capacity_gpus: view.vc_capacity_gpus(vc),
            // Folded from +0.0: `Iterator::sum` of an empty f64 iterator
            // is -0.0, which would print as a negative ETA.
            queued_work: sim
                .queued_jobs(vc)
                .map(predicted_work)
                .fold(0.0, |sum, work| sum + work),
        })
        .collect();
    let fresh = ClusterStatus {
        cluster,
        now: sim.now(),
        submitted: 0,
        pending_ingest: 0,
        admitted: sim.total_jobs() as u64,
        finished: (sim.total_jobs() - sim.unfinished_jobs()) as u64,
        queue_depth: view.queue_len(),
        running: view.running_jobs(),
        busy_gpus: view.busy_gpus(),
        capacity_gpus: view.capacity_gpus(),
        down_nodes: view.offline_nodes(),
        failures: view.fault_stats().map_or(0, |s| s.failures),
        vcs,
        cycle,
        health: FleetHealth::default(),
    };
    *lock(status) = fresh;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Run [`wait`] on `rx` on its own thread. The test reads the answer
    /// with a deadline, so a wait that never returns fails the test
    /// instead of wedging it.
    fn spawn_wait(rx: Receiver<u32>) -> Receiver<Result<u32, RecvError>> {
        let (answer_tx, answer) = mpsc::channel();
        thread::spawn(move || {
            let _ = answer_tx.send(wait(&rx));
        });
        answer
    }

    fn answer_within_a_minute(answer: &Receiver<Result<u32, RecvError>>) -> Result<u32, RecvError> {
        answer
            .recv_timeout(Duration::from_secs(60))
            .expect("the wait neither received nor reported a disconnection within 60 s")
    }

    #[test]
    fn a_message_sent_after_the_poll_budget_arrives_through_the_blocking_fallback() {
        let (tx, rx) = mpsc::channel();
        // The budget is finite: with a live sender and nothing sent, the
        // poll gives up and leaves the wait to park.
        assert_eq!(poll(&rx), Err(RecvTimeoutError::Timeout));
        let answer = spawn_wait(rx);
        // 20 ms is some 500 times the ~40-µs poll budget, so the waiting
        // thread has parked in `recv` by the time the message is sent.
        thread::sleep(Duration::from_millis(20));
        tx.send(7).expect("the waiting thread holds the receiver");
        assert_eq!(answer_within_a_minute(&answer), Ok(7));
    }

    #[test]
    fn a_dropped_sender_reports_disconnected_at_once() {
        let (tx, rx) = mpsc::channel::<u32>();
        drop(tx);
        // At once: the first poll reports it instead of spending the budget.
        assert_eq!(poll(&rx), Err(RecvTimeoutError::Disconnected));
        assert_eq!(wait(&rx), Err(RecvError));
        // A sender dropped while the receiver waits, polling or parked.
        let (tx, rx) = mpsc::channel();
        let answer = spawn_wait(rx);
        drop(tx);
        assert_eq!(answer_within_a_minute(&answer), Err(RecvError));
    }
}

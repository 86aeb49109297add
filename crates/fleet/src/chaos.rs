//! Deterministic chaos injection for the fleet's resilience suites.
//!
//! [`ChaosConfig`] schedules five failure modes against every worker of
//! a fleet, all derived from one seed so a chaos run is exactly
//! reproducible:
//!
//! * **worker panics** at scheduled observed-kernel-event counts (the
//!   counter is monotone across supervisor restarts and counts replayed
//!   events too, so the schedule is a deterministic function of the
//!   workload);
//! * **checkpoint corruption**: the generation with a scheduled index
//!   gets its in-memory live frame bit-flipped or truncated right after it is
//!   written, forcing recovery to detect the damage and fall back;
//! * **shard stalls**: scheduled admission cycles skip draining the
//!   ingestion shards entirely, building real backpressure for
//!   [`Fleet::submit_with_retry`](crate::Fleet::submit_with_retry) to
//!   absorb;
//! * **hangs**: at a scheduled event count the worker spins in place —
//!   a *soft* hang releases once the watchdog arms cooperative
//!   cancellation (exercising the cancel → restore path), a *hard* hang
//!   ignores cancellation until the worker is abandoned (exercising the
//!   [`Hung`](crate::WorkerState::Hung) degraded mode);
//! * **admission panics**: scheduled cycles panic between shard drain
//!   and journaling — the teardown race window the admission-generation
//!   acknowledgment closes.
//!
//! Each panic/hang point fires at most once per fleet (the shared trip
//! flag is set *before* panicking or spinning), so a restarted worker
//! replaying the same events does not crash-loop on the same trigger.

use crate::worker::HealthCell;
use helios_sim::{ClusterView, SimEvent, SimObserver};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The splitmix64 mixer — the workspace's stock seeded generator,
/// reused here for backoff jitter and corruption shapes.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded failure-injection schedule, applied to every worker of the
/// fleet it is attached to (see
/// [`FleetConfig::with_chaos`](crate::FleetConfig::with_chaos)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosConfig {
    /// Seed deriving every corruption shape (bit-flip vs truncate,
    /// offset) so a chaos run is reproducible end to end.
    pub seed: u64,
    /// Observed-kernel-event counts at which a worker panics (each point
    /// trips at most once per fleet).
    pub panic_at_events: Vec<u64>,
    /// Checkpoint generation indices whose in-memory live frame is
    /// corrupted immediately after being written.
    pub corrupt_generations: Vec<u64>,
    /// Admission-cycle numbers (1-based, per worker) that skip shard
    /// draining entirely, simulating a stalled ingestion path.
    pub stall_cycles: Vec<u64>,
    /// Observed-kernel-event counts at which a worker spins in place
    /// until the watchdog arms cooperative cancellation (each point
    /// trips at most once per fleet). Requires a
    /// [`WatchdogConfig`](crate::WatchdogConfig) to ever release.
    pub hang_at_events: Vec<u64>,
    /// Observed-kernel-event counts at which a worker spins in place
    /// *ignoring* cancellation, releasing only when abandoned — the
    /// worker ends up [`Hung`](crate::WorkerState::Hung).
    pub hard_hang_at_events: Vec<u64>,
    /// Admission-cycle numbers (1-based) that panic *between* shard
    /// drain and journal append (each trips at most once per fleet) —
    /// the exact window where a job accepted by a dying worker
    /// generation would be lost without admission acknowledgment.
    pub panic_admit_cycles: Vec<u64>,
}

impl ChaosConfig {
    /// An empty schedule under `seed` — add failures with the builders.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..Self::default()
        }
    }

    /// Schedule a worker panic at observed kernel event `count`.
    pub fn panic_at(mut self, count: u64) -> Self {
        self.panic_at_events.push(count);
        self
    }

    /// Schedule corruption of checkpoint generation `index`.
    pub fn corrupt_generation(mut self, index: u64) -> Self {
        self.corrupt_generations.push(index);
        self
    }

    /// Schedule a stalled admission cycle (1-based cycle number).
    pub fn stall_cycle(mut self, cycle: u64) -> Self {
        self.stall_cycles.push(cycle);
        self
    }

    /// Schedule a soft hang (spin until cancelled) at observed kernel
    /// event `count`.
    pub fn hang_at(mut self, count: u64) -> Self {
        self.hang_at_events.push(count);
        self
    }

    /// Schedule a hard hang (spin ignoring cancellation) at observed
    /// kernel event `count`.
    pub fn hard_hang_at(mut self, count: u64) -> Self {
        self.hard_hang_at_events.push(count);
        self
    }

    /// Schedule an admission-path panic (1-based cycle number) between
    /// shard drain and journal append.
    pub fn panic_admit_at_cycle(mut self, cycle: u64) -> Self {
        self.panic_admit_cycles.push(cycle);
        self
    }

    /// True when admission cycle `cycle` should skip shard draining.
    pub(crate) fn stalled(&self, cycle: u64) -> bool {
        self.stall_cycles.contains(&cycle)
    }

    /// The corruption seed for generation `index`, or `None` when that
    /// generation is not scheduled for damage.
    pub(crate) fn corruption_seed(&self, index: u64) -> Option<u64> {
        self.corrupt_generations
            .contains(&index)
            .then(|| splitmix64(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

/// Chaos state shared between a worker's incarnations: the monotone
/// event counter and the once-only trip flags, both surviving supervisor
/// restarts so the schedule stays deterministic.
pub(crate) struct ChaosShared {
    events: AtomicU64,
    fired: Vec<AtomicBool>,
    hang_fired: Vec<AtomicBool>,
    hard_fired: Vec<AtomicBool>,
    admit_fired: Vec<AtomicBool>,
}

fn flags(n: usize) -> Vec<AtomicBool> {
    (0..n).map(|_| AtomicBool::new(false)).collect()
}

impl ChaosShared {
    pub fn new(cfg: &ChaosConfig) -> Arc<Self> {
        Arc::new(ChaosShared {
            events: AtomicU64::new(0),
            fired: flags(cfg.panic_at_events.len()),
            hang_fired: flags(cfg.hang_at_events.len()),
            hard_fired: flags(cfg.hard_hang_at_events.len()),
            admit_fired: flags(cfg.panic_admit_cycles.len()),
        })
    }

    /// True the first time admission cycle `cycle` crosses a scheduled
    /// admission-panic point (trip-once, like panic points).
    pub fn trip_admit_panic(&self, cfg: &ChaosConfig, cycle: u64) -> bool {
        for (i, &point) in cfg.panic_admit_cycles.iter().enumerate() {
            // guard: allow(panic, reason = "admit_fired is allocated with one flag per panic_admit_cycles entry")
            // sync: trip-once swap; pairs with the competing AcqRel swaps from other observers of this shared flag
            if cycle >= point && !self.admit_fired[i].swap(true, Ordering::AcqRel) {
                return true;
            }
        }
        false
    }
}

/// Kernel observer that panics when the shared event counter crosses an
/// untripped scheduled point. Attached (and re-attached after every
/// restart) by the worker when its fleet carries a [`ChaosConfig`].
pub(crate) struct ChaosObserver {
    shared: Arc<ChaosShared>,
    points: Vec<u64>,
    hang_points: Vec<u64>,
    hard_points: Vec<u64>,
    health: Arc<HealthCell>,
    cluster: &'static str,
}

impl ChaosObserver {
    pub fn new(
        cfg: &ChaosConfig,
        shared: Arc<ChaosShared>,
        health: Arc<HealthCell>,
        cluster: &'static str,
    ) -> Self {
        ChaosObserver {
            shared,
            points: cfg.panic_at_events.clone(),
            hang_points: cfg.hang_at_events.clone(),
            hard_points: cfg.hard_hang_at_events.clone(),
            health,
            cluster,
        }
    }
}

impl SimObserver for ChaosObserver {
    fn on_event(&mut self, _event: &SimEvent, _cluster: &ClusterView<'_>) {
        // sync: cumulative event count; pairs with the AcqRel increments from re-attached observers after restarts
        let count = self.shared.events.fetch_add(1, Ordering::AcqRel) + 1;
        for (i, &point) in self.points.iter().enumerate() {
            // guard: allow(panic, reason = "fired is allocated with one flag per panic_at_events entry")
            // sync: trip-once swap; pairs with the same swap from the re-attached post-restart observer
            if count >= point && !self.shared.fired[i].swap(true, Ordering::AcqRel) {
                // guard: allow(panic, reason = "deliberate chaos injection; the supervisor converts the unwind into a crash-recovery cycle")
                panic!(
                    "chaos: injected worker panic on {} at kernel event {count} \
                     (scheduled at {point})",
                    self.cluster
                );
            }
        }
        for (i, &point) in self.hang_points.iter().enumerate() {
            // guard: allow(panic, reason = "hang_fired is allocated with one flag per hang_at_events entry")
            // sync: trip-once swap; pairs with the same swap from the re-attached post-restart observer
            if count >= point && !self.shared.hang_fired[i].swap(true, Ordering::AcqRel) {
                // Soft hang: freeze kernel progress (the heartbeat goes
                // flat) until the watchdog arms cancellation or the
                // worker is abandoned at teardown. The event itself then
                // completes; the cancellation token is honored at the
                // next event boundary.
                while !self.health.cancel_armed() && !self.health.abandoned() {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        for (i, &point) in self.hard_points.iter().enumerate() {
            // guard: allow(panic, reason = "hard_fired is allocated with one flag per hard_hang_at_events entry")
            // sync: trip-once swap; pairs with the same swap from the re-attached post-restart observer
            if count >= point && !self.shared.hard_fired[i].swap(true, Ordering::AcqRel) {
                // Hard hang: ignore cancellation — only abandonment (the
                // fleet declaring the worker hung, or teardown) releases
                // the spin.
                while !self.health.abandoned() {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_seeds_are_stable() {
        let c = ChaosConfig::seeded(7)
            .panic_at(100)
            .panic_at(250)
            .corrupt_generation(3)
            .stall_cycle(2);
        assert_eq!(c.panic_at_events, [100, 250]);
        assert!(c.stalled(2));
        assert!(!c.stalled(3));
        assert_eq!(c.corruption_seed(3), c.corruption_seed(3));
        assert!(c.corruption_seed(4).is_none());
        assert_ne!(
            ChaosConfig::seeded(1)
                .corrupt_generation(3)
                .corruption_seed(3),
            ChaosConfig::seeded(2)
                .corrupt_generation(3)
                .corruption_seed(3),
        );
    }

    #[test]
    fn panic_points_fire_exactly_once() {
        let cfg = ChaosConfig::seeded(0).panic_at(2);
        let shared = ChaosShared::new(&cfg);
        // Events 1 and 2: the second crosses the point and trips it.
        assert_eq!(shared.events.fetch_add(1, Ordering::AcqRel) + 1, 1);
        let count = shared.events.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(count >= 2 && !shared.fired[0].swap(true, Ordering::AcqRel));
        // Event 3 (e.g. replayed after a restart): already tripped.
        let count = shared.events.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(count >= 2 && shared.fired[0].swap(true, Ordering::AcqRel));
    }
}

//! A user-defined scheduling policy through the full façade pipeline.
//!
//! Implements a toy *user-fairness* discipline on the pluggable kernel:
//! jobs are ordered by how much GPU time their owner has already consumed
//! in the evaluation window (light users first, FIFO within a user), with
//! consumption tracked live through the policy's `on_finish` hook. The
//! paper's §3.4 finding motivates it: the top 5% of users hold about half
//! of all GPU time, so arrival-order scheduling lets heavy users starve
//! everyone else's queue.
//!
//! Run with: `cargo run --release --example custom_policy`

use helios::prelude::*;
use helios::sim::QueueLengthObserver;
use std::collections::HashMap;

/// Least-consumed-user-first. The kernel re-asks for keys whenever a job
/// (re-)enters a queue, so keys follow consumption as it accrues.
struct UserFairness {
    /// Job id -> owning user (captured from the generated trace; `SimJob`
    /// itself is user-agnostic).
    user_of: HashMap<u64, u32>,
    /// GPU·seconds each user's jobs have finished so far.
    consumed: HashMap<u32, f64>,
}

impl UserFairness {
    fn new(user_of: HashMap<u64, u32>) -> Self {
        UserFairness {
            user_of,
            consumed: HashMap::new(),
        }
    }

    fn user(&self, job: &SimJob) -> u32 {
        self.user_of.get(&job.id).copied().unwrap_or(u32::MAX)
    }
}

impl SchedulingPolicy for UserFairness {
    fn name(&self) -> &str {
        "USER-FAIR"
    }

    fn queue_key(&mut self, job: &JobView<'_>) -> f64 {
        let consumed = self
            .consumed
            .get(&self.user(job.job))
            .copied()
            .unwrap_or(0.0);
        // FIFO within equally-consuming users: submit as a sub-second
        // tie-breaker (submits stay far below 1e9 seconds).
        consumed + job.job.submit as f64 * 1e-9
    }

    fn on_finish(&mut self, job: &SimJob, _now: i64, _cluster: &helios::sim::ClusterView<'_>) {
        *self.consumed.entry(self.user(job)).or_insert(0.0) +=
            job.gpus as f64 * job.duration.max(1) as f64;
    }
}

fn main() -> helios::error::Result<()> {
    let mut session = Helios::cluster(Preset::Venus).scale(0.05).seed(7).build()?;
    session.generate()?;

    // Capture job -> user from the trace (owned, so the session stays free
    // for scheduling).
    let user_of: HashMap<u64, u32> = session
        .trace()?
        .gpu_jobs()
        .map(|j| (j.id, j.user))
        .collect();

    // Baseline FIFO, then the custom policy with a streaming queue-length
    // observer attached to the same run.
    let mut queue_len = QueueLengthObserver::new();
    session.schedule(SchedulePolicy::Fifo)?.schedule_with(
        Box::new(UserFairness::new(user_of)),
        vec![Box::new(&mut queue_len)],
    )?;

    let report = session.report()?;
    println!("{}", report.render());
    println!(
        "peak cluster-wide queue length under USER-FAIR: {} jobs",
        queue_len.peak()
    );

    // Fairness effect: concentration of queue-delay on the heaviest users.
    let delay_share = |label: &str| {
        let outcome = session
            .schedule_outcomes()
            .iter()
            .find(|s| s.label == label)
            .expect("scheduled above");
        let mut per_user: HashMap<u16, f64> = HashMap::new();
        for o in &outcome.outcomes {
            *per_user.entry(o.vc).or_insert(0.0) += o.queue_delay() as f64;
        }
        let mut delays: Vec<f64> = per_user.into_values().collect();
        delays.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = delays.iter().sum();
        let top: f64 = delays.iter().take(delays.len().div_ceil(10)).sum();
        100.0 * top / total.max(1.0)
    };
    println!(
        "queue-delay share of the hottest 10% of VCs: FIFO {:.0}% vs USER-FAIR {:.0}%",
        delay_share("FIFO"),
        delay_share("USER-FAIR"),
    );
    Ok(())
}

//! An idle fleet costs no CPU: once a worker has answered its last
//! command, its control-channel wait polls a bounded number of times and
//! then parks the thread.
//!
//! This is its own test binary because it inspects every `helios-fleet-*`
//! thread of the process; another test's fleet running beside it would
//! be busy.

#![cfg(target_os = "linux")]

use helios_fleet::{ClusterConfig, Fleet, FleetConfig};
use helios_sim::Policy;
use helios_trace::ClusterId;
use std::time::{Duration, Instant};

/// Name and scheduler state of every fleet worker thread of this process,
/// read from `/proc/self/task/*/stat` (`tid (name) state ...`; thread
/// names are cut to 15 bytes there).
fn worker_states() -> Vec<(String, char)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    let mut states = Vec::new();
    for task in tasks {
        let path = task.expect("a task entry").path().join("stat");
        // A thread that exited since the listing has no stat file left.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            panic!("malformed stat line: {stat}");
        };
        let name = &stat[open + 1..close];
        if name.starts_with("helios-fleet-") {
            let state = stat[close + 1..].trim_start().chars().next();
            states.push((name.to_string(), state.expect("stat names a state")));
        }
    }
    states.sort();
    states
}

#[test]
fn an_idle_fleets_workers_park() {
    let fleet = Fleet::launch(
        &FleetConfig::new()
            .with_cluster(ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_cluster(ClusterConfig::new(ClusterId::Saturn, Policy::Srtf)),
    )
    .unwrap();
    fleet.advance(600).unwrap();
    // Parked (`S`, sleeping in the channel's futex wait) in five samples
    // in a row, about 100 ms in all; a worker that keeps polling stays
    // runnable (`R`) and never gets there.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut parked_in_a_row = 0;
    while parked_in_a_row < 5 {
        std::thread::sleep(Duration::from_millis(20));
        let states = worker_states();
        assert_eq!(states.len(), 2, "one thread per hosted cluster: {states:?}");
        if states.iter().all(|&(_, state)| state == 'S') {
            parked_in_a_row += 1;
        } else {
            parked_in_a_row = 0;
            assert!(
                Instant::now() < deadline,
                "idle workers still not parked after 10 s: {states:?}"
            );
        }
    }
    fleet.shutdown().unwrap();
}

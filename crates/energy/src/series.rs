//! Node-occupancy series extraction: how many compute nodes are running at
//! least one job over time (the signal the CES service forecasts and acts
//! on, Figs. 14–15).

use helios_sim::{FifoPolicy, KernelConfig, OccupancyObserver, Placement, SimJob, Simulator};
use helios_trace::Trace;

/// A binned node-count series.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSeries {
    pub t0: i64,
    pub bin: i64,
    /// Average busy nodes per bin.
    pub running: Vec<f64>,
    /// Total nodes in the cluster.
    pub total_nodes: u32,
    /// GPU-job arrivals per bin (used for wake-up impact accounting).
    pub arrivals: Vec<f64>,
}

impl NodeSeries {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.running.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.running.is_empty()
    }

    /// Mean of the running-node series.
    pub fn mean_running(&self) -> f64 {
        if self.running.is_empty() {
            0.0
        } else {
            self.running.iter().sum::<f64>() / self.running.len() as f64
        }
    }

    /// Baseline node utilization: mean running / total (Table 5 row
    /// "Node utilization (Original)").
    pub fn baseline_utilization(&self) -> f64 {
        self.mean_running() / self.total_nodes as f64
    }

    /// Slice a sub-window `[lo_bin, hi_bin)` of the series.
    pub fn window(&self, lo_bin: usize, hi_bin: usize) -> NodeSeries {
        NodeSeries {
            t0: self.t0 + self.bin * lo_bin as i64,
            bin: self.bin,
            running: self.running[lo_bin..hi_bin].to_vec(),
            total_nodes: self.total_nodes,
            arrivals: self.arrivals[lo_bin..hi_bin].to_vec(),
        }
    }
}

/// Extract the busy-node series from a trace by replaying jobs at their
/// recorded start times through node-granular placement. `placement`
/// selects Helios-style consolidation or Philly-style scatter.
pub fn node_series_from_trace(
    trace: &Trace,
    bin: i64,
    placement: Placement,
) -> helios_trace::HeliosResult<NodeSeries> {
    // Jobs "arrive" at their recorded start time, so the replay reproduces
    // the production schedule's occupancy (queueing already happened).
    let jobs: Vec<SimJob> = trace
        .gpu_jobs()
        .filter(|j| j.gpus <= trace.spec.vc_gpus(j.vc))
        .map(|j| SimJob {
            id: j.id,
            vc: j.vc,
            gpus: j.gpus,
            submit: j.start,
            duration: j.duration.max(1),
            priority: j.start as f64,
        })
        .collect();
    let mut occ = OccupancyObserver::new(bin)?;
    let kcfg = KernelConfig {
        placement,
        backfill: false,
    };
    let mut sim = Simulator::with_config(&trace.spec, Box::new(FifoPolicy), &kcfg);
    sim.observe(Box::new(&mut occ));
    sim.push_jobs(&jobs)?;
    sim.run_to_completion();
    drop(sim);

    // Arrival counts use the *submission* times (a wake-up delays newly
    // submitted jobs). Both series are clipped to the trace calendar: jobs
    // running past the horizon would otherwise append a months-long decay
    // tail that no paper figure covers.
    let t0 = occ.t0();
    let horizon = trace.calendar.total_seconds();
    let n_bins = ((horizon - t0) / bin).max(1) as usize;
    let mut arrivals = vec![0.0; n_bins];
    for j in trace.gpu_jobs() {
        let idx = (j.submit - t0) / bin;
        if idx >= 0 && (idx as usize) < arrivals.len() {
            arrivals[idx as usize] += 1.0;
        }
    }
    let mut running = occ.series();
    running.resize(n_bins, 0.0);

    Ok(NodeSeries {
        t0,
        bin,
        running,
        total_nodes: trace.spec.nodes,
        arrivals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{earth_profile, generate, GeneratorConfig};

    fn series() -> NodeSeries {
        let t = generate(
            &earth_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
            },
        )
        .unwrap();
        node_series_from_trace(&t, 3_600, Placement::Consolidate).unwrap()
    }

    #[test]
    fn series_is_bounded_by_cluster_size() {
        let s = series();
        assert!(!s.is_empty());
        for &r in &s.running {
            assert!(r >= 0.0 && r <= s.total_nodes as f64);
        }
        let u = s.baseline_utilization();
        assert!((0.2..=1.0).contains(&u), "baseline utilization {u}");
    }

    #[test]
    fn scatter_occupies_at_least_as_many_nodes() {
        let t = generate(
            &earth_profile(),
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
            },
        )
        .unwrap();
        let cons = node_series_from_trace(&t, 3_600, Placement::Consolidate).unwrap();
        let scat = node_series_from_trace(&t, 3_600, Placement::Scatter).unwrap();
        assert!(
            scat.mean_running() >= cons.mean_running() * 0.98,
            "scatter {} vs consolidate {}",
            scat.mean_running(),
            cons.mean_running()
        );
    }

    #[test]
    fn arrivals_counted() {
        let s = series();
        let total: f64 = s.arrivals.iter().sum();
        assert!(total > 1_000.0);
    }

    #[test]
    fn windowing() {
        let s = series();
        let w = s.window(10, 20);
        assert_eq!(w.len(), 10);
        assert_eq!(w.t0, s.t0 + 10 * s.bin);
        assert_eq!(w.running[0], s.running[10]);
    }
}

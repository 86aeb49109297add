//! Cluster and virtual-cluster (VC) specifications.
//!
//! Presets reproduce Table 1 of the paper: four Helios clusters (Venus,
//! Earth, Saturn, Uranus; 802 nodes / 6 416 GPUs / 105 VCs in total) plus a
//! Philly-like cluster used for the generality evaluation (§4.2.3, §4.3.3).

use crate::types::{ClusterId, VcId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// GPU generation installed in a cluster (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuModel {
    Volta,
    Pascal,
    /// Saturn mixes Pascal and Volta nodes.
    Mixed,
}

impl GpuModel {
    /// Display label matching Table 1.
    pub fn label(self) -> &'static str {
        match self {
            GpuModel::Volta => "Volta",
            GpuModel::Pascal => "Pascal",
            GpuModel::Mixed => "Pascal & Volta",
        }
    }
}

/// One virtual cluster: a static, exclusive partition of whole nodes
/// dedicated to a single tenant group (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct VcSpec {
    /// Dense id within the cluster.
    pub id: VcId,
    /// Paper-style opaque name (e.g. `vc6YE`).
    pub name: String,
    /// Number of whole nodes assigned to this VC.
    pub nodes: u32,
}

/// A physical cluster: homogeneous nodes statically partitioned into VCs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub id: ClusterId,
    /// Total compute nodes (Table 1 row "# of Nodes").
    pub nodes: u32,
    /// GPUs per node (8 for all Helios clusters: e.g. 1 064 GPUs / 133 nodes).
    pub gpus_per_node: u32,
    /// CPU threads per node (Table 1 row "CPU").
    pub cpu_threads_per_node: u32,
    /// RAM per node in GB (Table 1).
    pub ram_gb_per_node: u32,
    /// Interconnect label (Table 1 row "Network").
    pub network: &'static str,
    /// GPU generation (Table 1).
    pub gpu_model: GpuModel,
    /// Static VC partition; `sum(vc.nodes) == nodes`.
    pub vcs: Vec<VcSpec>,
}

impl ClusterSpec {
    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.gpus_per_node
    }

    /// GPUs in one VC.
    pub fn vc_gpus(&self, vc: VcId) -> u32 {
        self.vcs[vc as usize].nodes * self.gpus_per_node
    }

    /// Number of VCs.
    pub fn num_vcs(&self) -> usize {
        self.vcs.len()
    }

    /// Largest VC capacity in GPUs.
    pub fn max_vc_gpus(&self) -> u32 {
        self.vcs
            .iter()
            .map(|v| v.nodes * self.gpus_per_node)
            .max()
            .unwrap_or(0)
    }
}

/// Deterministically generate paper-style VC names (`vc` + 3 base-62 chars).
fn vc_name(rng: &mut ChaCha12Rng) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let mut s = String::from("vc");
    for _ in 0..3 {
        s.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
    }
    s
}

/// Split `total_nodes` across `num_vcs` VCs with a skewed (head-heavy)
/// allocation resembling Fig. 4: one or two large VCs (tens of nodes) and a
/// long tail of 2–8 node VCs. Deterministic given `seed`.
fn partition_vcs(total_nodes: u32, num_vcs: usize, seed: u64) -> Vec<VcSpec> {
    assert!(num_vcs as u32 * 2 <= total_nodes, "need >= 2 nodes per VC");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    // Zipf-ish raw shares, then round to whole nodes with a 2-node floor.
    let raw: Vec<f64> = (0..num_vcs)
        .map(|i| 1.0 / ((i + 1) as f64).powf(0.85))
        .collect();
    let total_raw: f64 = raw.iter().sum();
    let mut nodes: Vec<u32> = raw
        .iter()
        .map(|r| ((r / total_raw) * total_nodes as f64).floor().max(2.0) as u32)
        .collect();
    // Distribute the rounding remainder (or claw back overshoot) over the
    // largest VCs so totals match exactly.
    let mut assigned: i64 = nodes.iter().map(|&n| n as i64).sum();
    let mut i = 0;
    while assigned < total_nodes as i64 {
        nodes[i % num_vcs] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > total_nodes as i64 {
        let j = i % num_vcs;
        if nodes[j] > 2 {
            nodes[j] -= 1;
            assigned -= 1;
        }
        i += 1;
    }
    nodes
        .into_iter()
        .enumerate()
        .map(|(id, n)| VcSpec {
            id: id as VcId,
            name: vc_name(&mut rng),
            nodes: n,
        })
        .collect()
}

/// Venus preset (Table 1): 133 nodes, 1 064 Volta GPUs, 27 VCs.
pub fn venus() -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Venus,
        nodes: 133,
        gpus_per_node: 8,
        cpu_threads_per_node: 48,
        ram_gb_per_node: 376,
        network: "IB EDR",
        gpu_model: GpuModel::Volta,
        vcs: partition_vcs(133, 27, 0x56_45_4e_55),
    }
}

/// Earth preset (Table 1): 143 nodes, 1 144 Volta GPUs, 25 VCs.
pub fn earth() -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Earth,
        nodes: 143,
        gpus_per_node: 8,
        cpu_threads_per_node: 48,
        ram_gb_per_node: 376,
        network: "IB EDR",
        gpu_model: GpuModel::Volta,
        vcs: partition_vcs(143, 25, 0x45_41_52_54),
    }
}

/// Saturn preset (Table 1): 262 nodes, 2 096 mixed GPUs, 28 VCs.
pub fn saturn() -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Saturn,
        nodes: 262,
        gpus_per_node: 8,
        cpu_threads_per_node: 64,
        ram_gb_per_node: 256,
        network: "IB FDR",
        gpu_model: GpuModel::Mixed,
        vcs: partition_vcs(262, 28, 0x53_41_54_55),
    }
}

/// Uranus preset (Table 1): 264 nodes, 2 112 Pascal GPUs, 25 VCs.
pub fn uranus() -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Uranus,
        nodes: 264,
        gpus_per_node: 8,
        cpu_threads_per_node: 64,
        ram_gb_per_node: 256,
        network: "IB FDR",
        gpu_model: GpuModel::Pascal,
        vcs: partition_vcs(264, 25, 0x55_52_41_4e),
    }
}

/// Philly-like preset. The paper reports 14 VCs and a cluster "over twice"
/// the scale of Earth (Fig. 15 shows ~400 GPU nodes); we model 321 nodes.
pub fn philly() -> ClusterSpec {
    ClusterSpec {
        id: ClusterId::Philly,
        nodes: 321,
        gpus_per_node: 8,
        cpu_threads_per_node: 48,
        ram_gb_per_node: 256,
        network: "IB + Ethernet",
        gpu_model: GpuModel::Pascal,
        vcs: partition_vcs(321, 14, 0x50_48_49_4c),
    }
}

/// All four Helios presets in Table 1 order.
pub fn helios_clusters() -> Vec<ClusterSpec> {
    vec![venus(), earth(), saturn(), uranus()]
}

/// Preset for an arbitrary cluster id.
pub fn preset(id: ClusterId) -> ClusterSpec {
    match id {
        ClusterId::Venus => venus(),
        ClusterId::Earth => earth(),
        ClusterId::Saturn => saturn(),
        ClusterId::Uranus => uranus(),
        ClusterId::Philly => philly(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals() {
        let clusters = helios_clusters();
        let nodes: u32 = clusters.iter().map(|c| c.nodes).sum();
        let gpus: u32 = clusters.iter().map(|c| c.total_gpus()).sum();
        let vcs: usize = clusters.iter().map(|c| c.num_vcs()).sum();
        assert_eq!(nodes, 802);
        assert_eq!(gpus, 6_416);
        assert_eq!(vcs, 105);
    }

    #[test]
    fn per_cluster_table1_rows() {
        assert_eq!(venus().total_gpus(), 1_064);
        assert_eq!(earth().total_gpus(), 1_144);
        assert_eq!(saturn().total_gpus(), 2_096);
        assert_eq!(uranus().total_gpus(), 2_112);
        assert_eq!(venus().num_vcs(), 27);
        assert_eq!(earth().num_vcs(), 25);
        assert_eq!(saturn().num_vcs(), 28);
        assert_eq!(uranus().num_vcs(), 25);
    }

    #[test]
    fn vc_partition_is_exact_and_skewed() {
        for c in helios_clusters().into_iter().chain([philly()]) {
            let sum: u32 = c.vcs.iter().map(|v| v.nodes).sum();
            assert_eq!(sum, c.nodes, "{}", c.id);
            assert!(c.vcs.iter().all(|v| v.nodes >= 2), "{}", c.id);
            // Head-heavy: the largest VC should hold several times the
            // median VC (Fig. 4 shows 208-GPU vs 32-GPU VCs in Earth).
            let mut sizes: Vec<u32> = c.vcs.iter().map(|v| v.nodes).collect();
            sizes.sort_unstable();
            let median = sizes[sizes.len() / 2];
            let max = *sizes.last().unwrap();
            assert!(max >= 3 * median, "{}: max={max} median={median}", c.id);
        }
    }

    #[test]
    fn vc_names_are_paper_style_and_unique() {
        let c = earth();
        let mut names: Vec<&str> = c.vcs.iter().map(|v| v.name.as_str()).collect();
        assert!(names.iter().all(|n| n.starts_with("vc") && n.len() == 5));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.num_vcs(), "VC names should be unique");
    }

    #[test]
    fn presets_are_deterministic() {
        assert_eq!(earth(), earth());
        assert_eq!(philly(), philly());
    }

    #[test]
    fn gpu_model_labels() {
        assert_eq!(saturn().gpu_model.label(), "Pascal & Volta");
        assert_eq!(uranus().gpu_model.label(), "Pascal");
    }
}

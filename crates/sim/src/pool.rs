//! Node pools and gang placement.
//!
//! Helios allocates exclusively and gang-schedules: a job takes all its
//! GPUs at once or waits (§1). Placement follows the ConsolidateAllocate
//! policy (§4.2.2): pack each job into as few nodes as possible; multi-node
//! jobs take whole nodes ("a 16-GPU job needs to wait for two compute nodes
//! with 8 idle GPUs"). A `Scatter` variant (spread across emptiest nodes)
//! models Philly-style relaxed locality for the energy experiments.
//!
//! The pool is **index-maintained** rather than scan-computed: nodes are
//! bucketed by free-GPU count (`gpus_per_node + 1` buckets, each a
//! two-level bitset over node ids), and the aggregates the scheduler polls
//! every event (total free GPUs, busy nodes, fully-free nodes) are kept
//! up to date on every placement. [`NodePool::try_place`] therefore
//! rejects in O(1) and picks the best-/worst-fit node in
//! O(gpus_per_node) — constant in the node count — while preserving the
//! historical scan semantics exactly: best fit takes the *lowest* node id
//! among equally-full candidates, worst fit the *highest*.
//!
//! What-if placement (preemption dry-runs, backfill shadow times) goes
//! through [`NodePool::trial`], an undo-log scratch view that rolls its
//! mutations back on drop — no more whole-pool clones per blocked-head
//! decision.

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Paper default: best-fit, fewest nodes (reduces fragmentation and
    /// communication overhead).
    Consolidate,
    /// Worst-fit: single-node jobs go to the emptiest node (Philly-style
    /// relaxed locality; raises node occupancy).
    Scatter,
}

/// GPUs assigned across nodes: a list of `(node index, GPUs taken)`
/// slices.
///
/// Single-node jobs and "full node + remainder" placements (the two
/// overwhelmingly common shapes) are stored inline — no heap allocation
/// on the simulator's start/finish hot path; wider multi-node gangs spill
/// to a `Vec`.
#[derive(Debug, Clone)]
pub struct Allocation {
    inline: [(u32, u32); 2],
    len: u32,
    spill: Vec<(u32, u32)>,
}

impl Allocation {
    fn empty() -> Self {
        Allocation {
            inline: [(0, 0); 2],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// A one-slice allocation.
    fn single(node: u32, gpus: u32) -> Self {
        Allocation {
            inline: [(node, gpus), (0, 0)],
            len: 1,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, slice: (u32, u32)) {
        let n = self.len as usize;
        if n < 2 {
            self.inline[n] = slice;
        } else {
            if n == 2 {
                self.spill.reserve(4);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(slice);
        }
        self.len += 1;
    }

    /// The `(node index, GPUs taken)` pairs of this allocation.
    pub fn slices(&self) -> &[(u32, u32)] {
        if self.len <= 2 {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Total GPUs in this allocation.
    pub fn gpus(&self) -> u32 {
        self.slices().iter().map(|s| s.1).sum()
    }
}

impl PartialEq for Allocation {
    fn eq(&self, other: &Self) -> bool {
        self.slices() == other.slices()
    }
}

impl FromIterator<(u32, u32)> for Allocation {
    fn from_iter<I: IntoIterator<Item = (u32, u32)>>(iter: I) -> Self {
        let mut a = Allocation::empty();
        for s in iter {
            a.push(s);
        }
        a
    }
}

/// Set of node indices with O(1) insert/remove and O(1) min/max queries:
/// a bitset over node ids plus a one-bit-per-word summary level, so
/// min/max resolve with two trailing/leading-zero scans (the summary
/// level covers 4096 nodes per word — effectively constant for any
/// realistic VC).
#[derive(Debug, Clone, Default)]
struct NodeSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: u32,
}

impl NodeSet {
    fn for_nodes(n: usize) -> Self {
        let words = n.div_ceil(64);
        NodeSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    fn insert(&mut self, i: u32) {
        let (w, b) = ((i / 64) as usize, i % 64);
        debug_assert_eq!(self.words[w] >> b & 1, 0, "node {i} already present");
        self.words[w] |= 1 << b;
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
    }

    fn remove(&mut self, i: u32) {
        let (w, b) = ((i / 64) as usize, i % 64);
        debug_assert_eq!(self.words[w] >> b & 1, 1, "node {i} not present");
        self.words[w] &= !(1 << b);
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    /// Smallest node id in the set.
    fn min(&self) -> Option<u32> {
        let (sw, s) = self
            .summary
            .iter()
            .enumerate()
            .find(|(_, &s)| s != 0)
            .map(|(i, &s)| (i, s))?;
        let w = sw * 64 + s.trailing_zeros() as usize;
        Some((w * 64) as u32 + self.words[w].trailing_zeros())
    }

    /// Largest node id in the set.
    fn max(&self) -> Option<u32> {
        let (sw, s) = self
            .summary
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &s)| s != 0)
            .map(|(i, &s)| (i, s))?;
        let w = sw * 64 + (63 - s.leading_zeros() as usize);
        Some((w * 64 + 63) as u32 - self.words[w].leading_zeros())
    }

    /// Node ids in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some((w * 64) as u32 + b)
            })
        })
    }
}

/// One VC's nodes, bucketed by free-GPU count.
///
/// Equality is defined over the logical state — `gpus_per_node` plus the
/// per-node free counts; the buckets are derived indices.
#[derive(Debug, Clone)]
pub struct NodePool {
    gpus_per_node: u32,
    free: Vec<u32>,
    /// `buckets[f]` holds exactly the nodes with `f` free GPUs —
    /// **online nodes only**; offline nodes are masked out of every
    /// bucket (and of `nonempty` / `total_free`) so the placement paths
    /// never see them, while `free` keeps their true counts.
    buckets: Vec<NodeSet>,
    /// Bit `f` set iff `buckets[f]` is non-empty (for `gpus_per_node`
    /// ≤ 63 — every real cluster; larger values fall back to scanning).
    /// Powers the O(1) [`NodePool::fits`] feasibility probe.
    nonempty: u64,
    total_free: u32,
    /// Out-of-service flags (failed or draining nodes); see
    /// [`NodePool::set_offline`].
    offline: Vec<bool>,
    offline_count: u32,
    /// Offline nodes whose GPUs are all free (keeps `busy_nodes` O(1)).
    offline_idle: u32,
}

impl PartialEq for NodePool {
    fn eq(&self, other: &Self) -> bool {
        self.gpus_per_node == other.gpus_per_node
            && self.free == other.free
            && self.offline == other.offline
    }
}

impl NodePool {
    /// A pool of `nodes` identical nodes.
    pub fn new(nodes: u32, gpus_per_node: u32) -> Self {
        assert!(gpus_per_node > 0);
        let mut buckets: Vec<NodeSet> = (0..=gpus_per_node)
            .map(|_| NodeSet::for_nodes(nodes as usize))
            .collect();
        for i in 0..nodes {
            buckets[gpus_per_node as usize].insert(i);
        }
        NodePool {
            gpus_per_node,
            free: vec![gpus_per_node; nodes as usize],
            buckets,
            nonempty: if nodes > 0 && gpus_per_node <= 63 {
                1u64 << gpus_per_node
            } else {
                0
            },
            total_free: nodes * gpus_per_node,
            offline: vec![false; nodes as usize],
            offline_count: 0,
            offline_idle: 0,
        }
    }

    /// Total free GPUs (maintained aggregate, O(1)).
    pub fn free_gpus(&self) -> u32 {
        self.total_free
    }

    /// Total capacity.
    pub fn capacity(&self) -> u32 {
        self.gpus_per_node * self.free.len() as u32
    }

    /// Number of nodes with at least one busy GPU (maintained, O(1)).
    pub fn busy_nodes(&self) -> u32 {
        self.free.len() as u32 - self.fully_free_nodes()
    }

    /// Number of nodes with every GPU free (maintained, O(1)); counts
    /// idle offline nodes too, so `busy_nodes` stays "has a busy GPU".
    pub fn fully_free_nodes(&self) -> u32 {
        self.buckets[self.gpus_per_node as usize].len + self.offline_idle
    }

    /// Largest per-node free count (0 on an empty or fully-busy pool).
    pub fn max_free(&self) -> u32 {
        (0..=self.gpus_per_node)
            .rev()
            .find(|&f| self.buckets[f as usize].len > 0)
            .unwrap_or(0)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.free.len() as u32
    }

    /// Per-node free-GPU counts — the pool's complete logical state
    /// (equality is defined over exactly this plus `gpus_per_node`);
    /// [`NodePool::from_free_counts`] rebuilds a pool from them.
    pub fn free_counts(&self) -> &[u32] {
        &self.free
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    /// Rebuild a pool from per-node free counts, such as those
    /// [`NodePool::free_counts`] returns or a kernel restore derives from
    /// the running allocations. The buckets, non-empty mask, and free
    /// aggregate are derived indices, so reconstructing them from the
    /// counts restores the pool exactly.
    pub fn from_free_counts(
        gpus_per_node: u32,
        free: &[u32],
    ) -> Result<Self, helios_trace::HeliosError> {
        if gpus_per_node == 0 {
            return Err(helios_trace::HeliosError::snapshot(
                "restoring node pool",
                "gpus_per_node must be positive",
            ));
        }
        if let Some(&bad) = free.iter().find(|&&f| f > gpus_per_node) {
            return Err(helios_trace::HeliosError::snapshot(
                "restoring node pool",
                format!("free count {bad} exceeds gpus_per_node {gpus_per_node}"),
            ));
        }
        let mut pool = NodePool::new(free.len() as u32, gpus_per_node);
        for (i, &f) in free.iter().enumerate() {
            pool.set_free(i as u32, f);
        }
        Ok(pool)
    }

    /// Take node `i` out of placement service (failure or drain). Its
    /// true free count stays in `free`, but the node leaves the bucket
    /// index, the `nonempty` mask, and `total_free`, so `fits` /
    /// `try_place` can never choose it. GPUs still held by running jobs
    /// on the node release back into `free` without re-entering service.
    /// Idempotent.
    pub fn set_offline(&mut self, i: u32) {
        if self.offline[i as usize] {
            return;
        }
        let f = self.free[i as usize];
        let bucket = &mut self.buckets[f as usize];
        bucket.remove(i);
        if bucket.len == 0 && f <= 63 {
            self.nonempty &= !(1u64 << f);
        }
        self.total_free -= f;
        self.offline[i as usize] = true;
        self.offline_count += 1;
        if f == self.gpus_per_node {
            self.offline_idle += 1;
        }
    }

    /// Return node `i` (and its free GPUs) to placement service — the
    /// inverse of [`NodePool::set_offline`]. Idempotent.
    pub fn set_online(&mut self, i: u32) {
        if !self.offline[i as usize] {
            return;
        }
        let f = self.free[i as usize];
        self.buckets[f as usize].insert(i);
        if f <= 63 {
            self.nonempty |= 1u64 << f;
        }
        self.total_free += f;
        self.offline[i as usize] = false;
        self.offline_count -= 1;
        if f == self.gpus_per_node {
            self.offline_idle -= 1;
        }
    }

    /// Whether node `i` is out of placement service.
    pub fn is_offline(&self, i: u32) -> bool {
        self.offline[i as usize]
    }

    /// Number of out-of-service nodes (maintained, O(1)).
    pub fn offline_nodes(&self) -> u32 {
        self.offline_count
    }

    /// Move node `i` to free count `new`, maintaining buckets + aggregates.
    fn set_free(&mut self, i: u32, new: u32) {
        let old = self.free[i as usize];
        debug_assert!(new <= self.gpus_per_node);
        if old == new {
            return;
        }
        if self.offline[i as usize] {
            // Masked out of the index: only the logical count (and the
            // idle-offline aggregate) moves.
            if new == self.gpus_per_node {
                self.offline_idle += 1;
            } else if old == self.gpus_per_node {
                self.offline_idle -= 1;
            }
            self.free[i as usize] = new;
            return;
        }
        let from = &mut self.buckets[old as usize];
        from.remove(i);
        if from.len == 0 && old <= 63 {
            self.nonempty &= !(1u64 << old);
        }
        let to = &mut self.buckets[new as usize];
        to.insert(i);
        if new <= 63 {
            self.nonempty |= 1u64 << new;
        }
        self.free[i as usize] = new;
        self.total_free = self.total_free + new - old;
    }

    /// O(1) feasibility probe: would [`NodePool::try_place`] succeed for a
    /// `g`-GPU job? Placement choice differs between `Consolidate` and
    /// `Scatter` but feasibility does not, so no placement argument.
    pub fn fits(&self, g: u32) -> bool {
        debug_assert!(g >= 1);
        let gpn = self.gpus_per_node;
        if g > self.total_free {
            return false;
        }
        if g < gpn {
            // Some node must have at least `g` GPUs free.
            return if gpn <= 63 {
                self.nonempty >> g != 0
            } else {
                (g..=gpn).any(|f| self.buckets[f as usize].len > 0)
            };
        }
        let full_nodes = g / gpn;
        let rem = g % gpn;
        let full_avail = self.buckets[gpn as usize].len;
        if full_avail < full_nodes {
            return false;
        }
        if rem == 0 {
            return true;
        }
        // A remainder slice needs one more node: either a partially-free
        // node with >= rem GPUs, or a spare fully-free node.
        let partial = if gpn <= 63 {
            // Buckets in [rem, gpn): bits rem..gpn of the non-empty mask.
            self.nonempty & ((1u64 << gpn) - (1u64 << rem)) != 0
        } else {
            (rem..gpn).any(|f| self.buckets[f as usize].len > 0)
        };
        partial || full_avail > full_nodes
    }

    /// Try to place a `g`-GPU job; returns the allocation or `None` if it
    /// does not fit under gang semantics. O(1) in the node count.
    pub fn try_place(&mut self, g: u32, placement: Placement) -> Option<Allocation> {
        assert!(g >= 1);
        if g > self.total_free {
            return None;
        }
        let gpn = self.gpus_per_node;
        if g < gpn {
            // Single-node job: best fit takes the fullest node that still
            // fits (lowest id on ties), worst fit the emptiest (highest id
            // on ties) — the historical scan semantics.
            let idx = match placement {
                Placement::Consolidate => (g..=gpn).find_map(|f| self.buckets[f as usize].min())?,
                Placement::Scatter => (g..=gpn)
                    .rev()
                    .find_map(|f| self.buckets[f as usize].max())?,
            };
            self.set_free(idx, self.free[idx as usize] - g);
            return Some(Allocation::single(idx, g));
        }
        // Multi-node (or exactly one full node): whole nodes + remainder.
        let full_nodes = g / gpn;
        let rem = g % gpn;
        let full_bucket = &self.buckets[gpn as usize];
        if full_bucket.len < full_nodes {
            return None;
        }
        let mut it = full_bucket.iter();
        let mut alloc: Allocation = (&mut it)
            .take(full_nodes as usize)
            .map(|i| (i, gpn))
            .collect();
        if rem > 0 {
            // Remainder slice on a non-chosen node: fullest fit first
            // (lowest id on ties); a spare fully-free node only if no
            // partially-free node can hold the remainder.
            let spare = (rem..gpn)
                .find_map(|f| self.buckets[f as usize].min())
                .or_else(|| it.next());
            drop(it);
            alloc.push((spare?, rem));
        } else {
            drop(it);
        }
        for &(i, take) in alloc.slices() {
            self.set_free(i, self.free[i as usize] - take);
        }
        Some(alloc)
    }

    /// Release a previous allocation.
    pub fn release(&mut self, alloc: &Allocation) {
        for &(i, g) in alloc.slices() {
            let new = self.free[i as usize] + g;
            assert!(new <= self.gpus_per_node, "double release on node {i}");
            self.set_free(i, new);
        }
    }

    /// Open an undo-log scratch view: place/release on the trial mutate
    /// this pool but are rolled back (in reverse) when the trial drops.
    /// Replaces whole-pool clones in preemption dry-runs and backfill
    /// shadow-time computation.
    pub fn trial(&mut self) -> PoolTrial<'_, '_> {
        PoolTrial {
            pool: self,
            log: LogStore::Owned(Vec::new()),
        }
    }

    /// [`NodePool::trial`] with a caller-provided (reusable) log buffer —
    /// the hot-path variant that avoids an allocation per dry-run. The
    /// buffer is cleared on entry and again once the trial rolls back.
    pub fn trial_in<'p, 'l>(&'p mut self, log: &'l mut Vec<(u32, i64)>) -> PoolTrial<'p, 'l> {
        log.clear();
        PoolTrial {
            pool: self,
            log: LogStore::Borrowed(log),
        }
    }
}

enum LogStore<'l> {
    Owned(Vec<(u32, i64)>),
    Borrowed(&'l mut Vec<(u32, i64)>),
}

impl LogStore<'_> {
    fn as_mut(&mut self) -> &mut Vec<(u32, i64)> {
        match self {
            LogStore::Owned(v) => v,
            LogStore::Borrowed(v) => v,
        }
    }
}

/// What-if placement handle returned by [`NodePool::trial`] /
/// [`NodePool::trial_in`]. Every mutation is recorded and undone,
/// last-in-first-out, when the trial is dropped, restoring the pool
/// byte-for-byte.
pub struct PoolTrial<'p, 'l> {
    pool: &'p mut NodePool,
    /// `(node, delta)` where `delta` is the signed change applied to the
    /// node's free count.
    log: LogStore<'l>,
}

impl PoolTrial<'_, '_> {
    /// [`NodePool::try_place`] against the trial state.
    pub fn try_place(&mut self, g: u32, placement: Placement) -> Option<Allocation> {
        let alloc = self.pool.try_place(g, placement)?;
        let log = self.log.as_mut();
        for &(i, take) in alloc.slices() {
            log.push((i, -(take as i64)));
        }
        Some(alloc)
    }

    /// [`NodePool::release`] against the trial state.
    pub fn release(&mut self, alloc: &Allocation) {
        self.pool.release(alloc);
        let log = self.log.as_mut();
        for &(i, g) in alloc.slices() {
            log.push((i, g as i64));
        }
    }

    /// Free GPUs under the trial state.
    pub fn free_gpus(&self) -> u32 {
        self.pool.free_gpus()
    }

    /// O(1) read-only feasibility probe against the trial state — see
    /// [`NodePool::fits`]. Nothing to roll back.
    pub fn fits(&self, g: u32) -> bool {
        self.pool.fits(g)
    }
}

impl Drop for PoolTrial<'_, '_> {
    fn drop(&mut self) {
        while let Some((i, delta)) = self.log.as_mut().pop() {
            let restored = self.pool.free[i as usize] as i64 - delta;
            self.pool.set_free(i, restored as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidate_prefers_fullest_node() {
        let mut p = NodePool::new(2, 8);
        // Occupy 6 GPUs on node 0.
        let a = p.try_place(6, Placement::Consolidate).unwrap();
        assert_eq!(a.slices(), vec![(0, 6)]);
        // A 2-GPU job should pack into node 0 (2 free), not node 1.
        let b = p.try_place(2, Placement::Consolidate).unwrap();
        assert_eq!(b.slices(), vec![(0, 2)]);
        assert_eq!(p.free_gpus(), 8);
    }

    #[test]
    fn scatter_prefers_emptiest_node() {
        let mut p = NodePool::new(2, 8);
        let _ = p.try_place(6, Placement::Consolidate).unwrap();
        let b = p.try_place(2, Placement::Scatter).unwrap();
        assert_eq!(b.slices(), vec![(1, 2)]);
    }

    #[test]
    fn tie_breaks_match_the_historical_scan() {
        // Equally-full candidates: best fit takes the lowest node id,
        // worst fit the highest.
        let mut p = NodePool::new(3, 8);
        let a = p.try_place(2, Placement::Consolidate).unwrap();
        assert_eq!(a.slices(), vec![(0, 2)]);
        let mut q = NodePool::new(3, 8);
        let b = q.try_place(2, Placement::Scatter).unwrap();
        assert_eq!(b.slices(), vec![(2, 2)]);
    }

    #[test]
    fn multi_node_needs_full_nodes() {
        let mut p = NodePool::new(3, 8);
        // Fragment node 0.
        let _ = p.try_place(1, Placement::Consolidate).unwrap();
        // 16 GPUs need two fully-free nodes: nodes 1 and 2.
        let a = p.try_place(16, Placement::Consolidate).unwrap();
        assert_eq!(a.gpus(), 16);
        assert!(a.slices().iter().all(|&(n, g)| g == 8 && n != 0));
        // Another 16-GPU job cannot fit even though 7 GPUs are free.
        assert!(p.try_place(16, Placement::Consolidate).is_none());
    }

    #[test]
    fn multi_node_with_remainder() {
        let mut p = NodePool::new(3, 8);
        let a = p.try_place(12, Placement::Consolidate).unwrap();
        assert_eq!(a.gpus(), 12);
        // One full node + a 4-GPU slice elsewhere.
        let full: Vec<_> = a.slices().iter().filter(|s| s.1 == 8).collect();
        let rem: Vec<_> = a.slices().iter().filter(|s| s.1 == 4).collect();
        assert_eq!(full.len(), 1);
        assert_eq!(rem.len(), 1);
        assert_ne!(full[0].0, rem[0].0);
    }

    #[test]
    fn remainder_prefers_partially_free_nodes() {
        let mut p = NodePool::new(3, 8);
        // Node 0: 4 free. Placing 12 = one full node (1) + 4-GPU remainder,
        // which must land on node 0 (fullest fit), not node 2.
        let _ = p.try_place(4, Placement::Consolidate).unwrap();
        let a = p.try_place(12, Placement::Consolidate).unwrap();
        let rem: Vec<_> = a.slices().iter().filter(|s| s.1 == 4).collect();
        assert_eq!(rem, vec![&(0, 4)]);
    }

    #[test]
    fn release_restores_capacity() {
        let mut p = NodePool::new(2, 8);
        let a = p.try_place(16, Placement::Consolidate).unwrap();
        assert_eq!(p.free_gpus(), 0);
        assert_eq!(p.busy_nodes(), 2);
        p.release(&a);
        assert_eq!(p.free_gpus(), 16);
        assert_eq!(p.busy_nodes(), 0);
    }

    #[test]
    fn exact_full_node_takes_whole_node() {
        let mut p = NodePool::new(2, 8);
        let _ = p.try_place(3, Placement::Consolidate).unwrap(); // node 0: 5 free
        let a = p.try_place(8, Placement::Consolidate).unwrap();
        assert_eq!(a.slices(), vec![(1, 8)]);
        // No more full nodes.
        assert!(p.try_place(8, Placement::Consolidate).is_none());
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_detected() {
        let mut p = NodePool::new(1, 8);
        let a = p.try_place(4, Placement::Consolidate).unwrap();
        p.release(&a);
        p.release(&a);
    }

    #[test]
    fn aggregates_stay_consistent() {
        let mut p = NodePool::new(5, 8);
        let a = p.try_place(3, Placement::Consolidate).unwrap();
        let b = p.try_place(17, Placement::Consolidate).unwrap();
        assert_eq!(p.free_gpus(), 40 - 20);
        // 17 = two full nodes + a 1-GPU remainder that best-fits onto the
        // already-fragmented node 0.
        assert_eq!(p.busy_nodes(), 3);
        assert_eq!(p.fully_free_nodes(), 2);
        assert_eq!(p.max_free(), 8);
        p.release(&b);
        p.release(&a);
        assert_eq!(p.free_gpus(), 40);
        assert_eq!(p.fully_free_nodes(), 5);
    }

    #[test]
    fn trial_rolls_back_on_drop() {
        let mut p = NodePool::new(3, 8);
        let held = p.try_place(6, Placement::Consolidate).unwrap();
        let snapshot = p.clone();
        {
            let mut t = p.trial();
            t.release(&held);
            let a = t.try_place(16, Placement::Consolidate);
            assert!(a.is_some());
            let b = t.try_place(8, Placement::Consolidate);
            assert!(b.is_some());
            assert_eq!(t.free_gpus(), 0);
        }
        assert_eq!(p, snapshot, "trial must restore the pool exactly");
        assert_eq!(p.free_gpus(), 18);
        // The real pool still honors the held allocation.
        p.release(&held);
        assert_eq!(p.free_gpus(), 24);
    }

    #[test]
    fn offline_nodes_leave_placement_but_keep_their_books() {
        let mut p = NodePool::new(3, 8);
        let held = p.try_place(6, Placement::Consolidate).unwrap();
        assert_eq!(held.slices(), vec![(0, 6)]);
        p.set_offline(0);
        p.set_offline(2);
        assert_eq!(p.offline_nodes(), 2);
        assert!(p.is_offline(0) && !p.is_offline(1));
        // Only node 1's GPUs are placeable.
        assert_eq!(p.free_gpus(), 8);
        assert!(p.fits(8));
        assert!(!p.fits(9));
        let a = p.try_place(8, Placement::Consolidate).unwrap();
        assert_eq!(a.slices(), vec![(1, 8)]);
        // Releasing onto the offline node keeps its GPUs out of service.
        p.release(&held);
        assert_eq!(p.free_gpus(), 0);
        assert_eq!(p.free_counts()[0], 8, "true count restored");
        // busy_nodes counts busy GPUs only: node 1 busy, 0 and 2 idle.
        assert_eq!(p.busy_nodes(), 1);
        // Back online: the idle node's capacity returns at its true count.
        p.set_online(0);
        assert_eq!(p.free_gpus(), 8);
        assert!(p.fits(8));
        p.set_online(2);
        assert_eq!(p.free_gpus(), 16);
        // Idempotence both ways.
        p.set_online(2);
        p.set_offline(2);
        p.set_offline(2);
        assert_eq!(p.free_gpus(), 8);
        p.set_online(2);
    }

    #[test]
    fn offline_round_trips_through_free_counts() {
        let mut p = NodePool::new(4, 8);
        let _ = p.try_place(5, Placement::Consolidate).unwrap();
        p.set_offline(0);
        p.set_offline(3);
        let mut q = NodePool::from_free_counts(8, p.free_counts()).unwrap();
        q.set_offline(0);
        q.set_offline(3);
        assert_eq!(p, q);
        assert_eq!(p.free_gpus(), q.free_gpus());
        assert_eq!(p.busy_nodes(), q.busy_nodes());
    }

    #[test]
    fn nodeset_min_max_across_words() {
        let mut s = NodeSet::for_nodes(200);
        for i in [3u32, 64, 130, 199] {
            s.insert(i);
        }
        assert_eq!(s.min(), Some(3));
        assert_eq!(s.max(), Some(199));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 130, 199]);
        s.remove(3);
        s.remove(199);
        assert_eq!(s.min(), Some(64));
        assert_eq!(s.max(), Some(130));
        assert_eq!(s.len, 2);
    }
}

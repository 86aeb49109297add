//! A 4-ary min-heap for the kernel's hot priority queues: the per-VC wait
//! queues, the finish-event heap and the fault model's event heap.
//!
//! Compared to the standard binary heap this halves the tree depth and
//! keeps all four children of a node in one cache line for the small
//! `(key, index)` entries its users store, which measurably cuts the
//! per-event queue cost on large backlogs. Pop order for unique keys is
//! the total order on `T` — identical to `BinaryHeap<Reverse<T>>` — and
//! every key its users store is unique (ties carry a job or node id), so
//! swapping the structure cannot change outcomes.

const ARITY: usize = 4;

/// Min-heap: `pop` returns the smallest element.
#[derive(Debug, Clone)]
pub struct MinHeap<T: Ord> {
    data: Vec<T>,
}

impl<T: Ord> Default for MinHeap<T> {
    fn default() -> Self {
        MinHeap { data: Vec::new() }
    }
}

impl<T: Ord> MinHeap<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[allow(dead_code)] // natural counterpart to len(); exercised in tests
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// The backing array, in heap order. Snapshot hook: persisting this
    /// verbatim and rebuilding with [`MinHeap::from_heap_vec`] reproduces
    /// the exact pop sequence, byte for byte.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Rebuild a heap from a backing array previously obtained via
    /// [`MinHeap::as_slice`]. The array must already satisfy the 4-ary
    /// heap property (debug-asserted); arbitrary unordered input belongs
    /// in a `push` loop instead.
    pub fn from_heap_vec(data: Vec<T>) -> Self {
        debug_assert!(
            (1..data.len()).all(|i| data[(i - 1) / ARITY] <= data[i]),
            "from_heap_vec input violates the heap property"
        );
        MinHeap { data }
    }

    pub fn push(&mut self, value: T) {
        self.data.push(value);
        self.sift_up(self.data.len() - 1);
    }

    pub fn pop(&mut self) -> Option<T> {
        let len = self.data.len();
        if len <= 1 {
            return self.data.pop();
        }
        self.data.swap(0, len - 1);
        let top = self.data.pop();
        self.sift_down(0);
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.data[i] < self.data[parent] {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.data.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                return;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut min_child = first_child;
            for c in first_child + 1..last_child {
                if self.data[c] < self.data[min_child] {
                    min_child = c;
                }
            }
            if self.data[min_child] < self.data[i] {
                self.data.swap(i, min_child);
                i = min_child;
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_sorted_order() {
        let mut h = MinHeap::new();
        // Deterministic pseudo-random insertion order.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut keys = Vec::new();
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.push(x);
            h.push(x);
        }
        keys.sort_unstable();
        let mut popped = Vec::new();
        while let Some(k) = h.pop() {
            popped.push(k);
        }
        assert_eq!(popped, keys);
    }

    #[test]
    fn interleaved_push_pop_matches_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut ours = MinHeap::new();
        let mut std_heap = BinaryHeap::new();
        let mut x: u64 = 99;
        for round in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if round % 3 == 2 {
                assert_eq!(ours.pop(), std_heap.pop().map(|Reverse(v)| v));
            } else {
                ours.push(x);
                std_heap.push(Reverse(x));
            }
            assert_eq!(ours.len(), std_heap.len());
            assert_eq!(ours.peek(), std_heap.peek().map(|Reverse(v)| v));
        }
    }

    #[test]
    fn empty_heap_behaves() {
        let mut h: MinHeap<u32> = MinHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek(), None);
        h.push(5);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop(), Some(5));
        assert!(h.is_empty());
    }
}

//! The pass clock: wall time of a pass's timed section, and the same time
//! in multiples of a fixed reference computation timed between segments.
//!
//! The host is shared. Its speed drifts by tens of percent over seconds, so
//! a wall time mostly measures the neighbours. The reference is the same
//! work every time; timed at both ends of each segment, its mean tells how
//! fast the host ran during the segment. A segment's wall time divided by
//! that mean does not move with the host, but moves with the program.

use std::time::Instant;

/// Random keys the reference sorts (512 KiB).
const SORT_KEYS: usize = 1 << 16;
/// Histogram bins the reference scatters into (128 KiB of f64).
const BINS: usize = 1 << 14;
/// Values the reference scatters.
const SCATTERS: usize = 1 << 17;
/// Runs of the reference per sample.
const RUNS: usize = 3;

/// Fixed work: sort `SORT_KEYS` random u64, then add `SCATTERS` values
/// into `BINS` randomly chosen bins. Branchy integer work and dependent
/// float updates, like the kernel's queues and the GBDT's histograms.
pub struct Reference {
    keys: Vec<u64>,
    work: Vec<u64>,
    bins: Vec<f64>,
    picks: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys = (0..SORT_KEYS).map(|_| next()).collect();
        let picks = (0..SCATTERS)
            .map(|_| (next() % BINS as u64) as u32)
            .collect();
        Reference {
            keys,
            work: vec![0; SORT_KEYS],
            bins: vec![0.0; BINS],
            picks,
        }
    }

    /// Seconds one run of the reference takes now: the fastest of
    /// [`RUNS`], so that the first, which reloads the caches the pass
    /// evicted, and any run an interrupt lands in do not count.
    pub fn time(&mut self) -> f64 {
        (0..RUNS).map(|_| self.once()).fold(f64::INFINITY, f64::min)
    }

    fn once(&mut self) -> f64 {
        self.work.copy_from_slice(&self.keys);
        self.bins.fill(0.0);
        let started = Instant::now();
        self.work.sort_unstable();
        for (i, &b) in self.picks.iter().enumerate() {
            self.bins[b as usize] += i as f64;
        }
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box((&self.work, &self.bins));
        secs
    }
}

/// Times one pass in segments: [`PassClock::start`], any number of
/// [`PassClock::lap`]s, [`PassClock::stop`]. The reference runs at every
/// boundary, outside the segments.
pub struct PassClock {
    reference: Reference,
    at: Instant,
    last_ref: f64,
    wall: f64,
    norm: f64,
    refs: Vec<f64>,
    done: Option<(f64, f64)>,
}

impl PassClock {
    pub fn new() -> Self {
        PassClock {
            reference: Reference::new(),
            at: Instant::now(),
            last_ref: 0.0,
            wall: 0.0,
            norm: 0.0,
            refs: Vec::new(),
            done: None,
        }
    }

    pub fn start(&mut self) {
        self.done = None;
        self.wall = 0.0;
        self.norm = 0.0;
        self.last_ref = self.sample();
        self.at = Instant::now();
    }

    /// End the current segment and start the next.
    pub fn lap(&mut self) {
        let secs = self.at.elapsed().as_secs_f64();
        let r = self.sample();
        self.wall += secs;
        self.norm += secs / (0.5 * (self.last_ref + r));
        self.last_ref = r;
        self.at = Instant::now();
    }

    pub fn stop(&mut self) {
        self.lap();
        self.done = Some((self.wall, self.norm));
    }

    /// The stopped pass's wall seconds and reference multiples.
    pub fn take(&mut self) -> Option<(f64, f64)> {
        self.done.take()
    }

    /// Every reference time sampled so far, in seconds.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }

    fn sample(&mut self) -> f64 {
        let r = self.reference.time();
        self.refs.push(r);
        r
    }
}

//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, its parent, the group it belongs to (set-up, one
//! measured pass, or the post-pass decomposition) and its start and end in
//! nanoseconds since the tracer was created. Nothing is written until the
//! run ends. With the tracer off, [`Tracer::span`] only calls its closure.

use std::fmt::Write as _;
use std::time::Instant;

/// Group of the spans recorded during set-up.
pub const SETUP: u32 = 0;
/// Group of the spans recorded after the measured passes.
pub const EXTRA: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub group: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    group: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            group: SETUP,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Record (or stop recording) the spans that follow under `group`.
    pub fn set(&mut self, on: bool, group: u32) {
        self.on = on;
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span; `None`
    /// while the tracer is off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            group: self.group,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span [`Tracer::enter`] opened.
    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.stack.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans named `name` in the measured passes, or, when no pass
    /// calls it, those of set-up and decomposition.
    fn measured(&self, name: &str) -> Vec<&Span> {
        let named: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
        let in_pass = |s: &&Span| s.group != SETUP && s.group != EXTRA;
        if named.iter().any(in_pass) {
            named.into_iter().filter(in_pass).collect()
        } else {
            named
        }
    }

    /// Durations (seconds) of the [`Tracer::measured`] spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.measured(name).into_iter().map(Span::secs).collect()
    }

    /// Seconds in the [`Tracer::measured`] spans named `name` per group
    /// (the median over groups); 0 when the workload never calls it.
    pub fn secs_per_pass(&self, name: &str) -> f64 {
        let mut per_group: Vec<(u32, f64)> = Vec::new();
        for s in self.measured(name) {
            match per_group.iter_mut().find(|(g, _)| *g == s.group) {
                Some((_, total)) => *total += s.secs(),
                None => per_group.push((s.group, s.secs())),
            }
        }
        let totals: Vec<f64> = per_group.into_iter().map(|(_, t)| t).collect();
        crate::stats::median(&totals)
    }

    /// Share of each span named `parent` that its direct children cover;
    /// the smallest share over all such spans (1.0 when there are none).
    pub fn min_child_coverage(&self, parent: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent && s.end_ns > s.start_ns)
            .map(|(i, s)| covered[i] as f64 / (s.end_ns - s.start_ns) as f64)
            .fold(1.0, f64::min)
    }

    /// The spans as JSON lines, one object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let group = if s.group == EXTRA {
                "\"decomposition\"".to_string()
            } else if s.group == SETUP {
                "\"setup\"".to_string()
            } else {
                s.group.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"group\":{group},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

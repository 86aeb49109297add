//! Benchmark of the Helios reproduction: one command per workload and seed
//! prints every metric by name and unit and fails on any correctness check.
//!
//! ```text
//! perfbench --workload pipeline|sched|fleet --seed N --seconds S --trace 0|1 [--commit ID]
//! perfbench --smoke [--commit ID]
//! ```
//!
//! A run warms up with one unrecorded pass, then fits as many passes as it
//! can into `--seconds`. Each pass is timed in segments, with a fixed
//! reference computation timed between them (see [`clock`]); `pass_ref` is
//! the pass in multiples of the reference. `--trace 0` prints the
//! end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer metrics read from the spans, which it also writes to
//! `perfbench/out/<workload>-seed<N>.trace.jsonl` under the working
//! directory. `--smoke` runs all three workloads at small scale, both
//! ways, in seconds. The last line of standard output is the JSON result.

mod clock;
mod fleet;
mod pipeline;
mod sched;
mod span;
mod stats;

use clock::PassClock;
use helios::trace::HeliosResult;
use span::{Tracer, EXTRA, SETUP};
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// Set-up repetitions of an untraced run: at least the first, and more
/// while set-up has taken under [`SETUP_SECS`], up to the second. `setup_s`
/// is their median.
const SETUP_REPS: (usize, usize) = (3, 10);
const SETUP_SECS: f64 = 1.0;
/// Where traced runs write their spans, under the working directory.
const TRACE_DIR: &str = "perfbench/out";
/// Smallest share of a parent span its children must cover.
const MIN_COVERAGE: f64 = 0.9;

/// State one workload run shares with the harness.
pub struct Cx {
    pub seed: u64,
    pub scale: f64,
    seconds: f64,
    trace: bool,
    pub tracer: Tracer,
    clock: PassClock,
    setup_secs: Vec<f64>,
    pass_secs: Vec<f64>,
    /// Each untraced pass in multiples of the reference.
    pass_refs: Vec<f64>,
    traced_secs: Vec<f64>,
    /// Jobs one pass pushes through the system (`bench.jobs_per_s`
    /// numerator).
    pub jobs_per_pass: f64,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    /// Per-layer values the workload reads from its results.
    pub values: BTreeMap<&'static str, f64>,
}

impl Cx {
    /// One call into a layer: counted as attempted, as failed if it
    /// returns an error, and recorded as a span named `name`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> HeliosResult<T>,
    ) -> HeliosResult<T> {
        self.attempted += 1;
        let out = self.tracer.span(name, f);
        if out.is_err() {
            self.failed += 1;
        }
        out
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Start timing a pass: the timed section begins here.
    pub fn start(&mut self) {
        self.clock.start();
    }

    /// Close one segment of the timed section and open the next. The
    /// reference runs in between, in a span of its own so that coverage
    /// checks account for it; call it at boundaries a few hundred
    /// milliseconds apart or more.
    pub fn lap(&mut self) {
        let span = self.tracer.enter("bench.reference");
        self.clock.lap();
        self.tracer.exit(span);
    }

    /// End the timed section.
    pub fn stop(&mut self) {
        self.clock.stop();
    }

    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Build a workload's inputs: [`SETUP_REPS`] times untraced (keeping
    /// the last), once when traced.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Cx) -> HeliosResult<T>) -> HeliosResult<T> {
        let (min, max) = if self.trace { (1, 1) } else { SETUP_REPS };
        self.tracer.set(self.trace, SETUP);
        let mut last = None;
        while self.setup_secs.len() < min
            || (self.setup_secs.len() < max && self.setup_secs.iter().sum::<f64>() < SETUP_SECS)
        {
            drop(last.take());
            let started = Instant::now();
            let input = f(self)?;
            self.setup_secs.push(started.elapsed().as_secs_f64());
            last = Some(input);
        }
        stats::reset_peak_heap();
        Ok(last.expect("at least one set-up repetition"))
    }

    /// Run one warm-up pass, which fills caches and the allocator's free
    /// lists and is not recorded, then as many recorded passes as fit in
    /// `seconds` (at least one; when traced, at least one untraced and one
    /// traced, alternating). `pass` marks its timed section with
    /// [`Cx::start`], [`Cx::lap`] and [`Cx::stop`].
    pub fn measure(
        &mut self,
        mut pass: impl FnMut(&mut Cx) -> HeliosResult<()>,
    ) -> HeliosResult<()> {
        let started = Instant::now();
        for i in 0u32.. {
            let traced = self.trace && i > 0 && i % 2 == 0;
            self.tracer.set(traced, i);
            pass(self)?;
            let (secs, refs) = self
                .clock
                .take()
                .expect("every pass starts and stops the clock");
            match (i, traced) {
                (0, _) => {}
                (_, true) => self.traced_secs.push(secs),
                (_, false) => {
                    self.pass_secs.push(secs);
                    self.pass_refs.push(refs);
                }
            }
            let enough = i >= if self.trace { 2 } else { 1 };
            let elapsed = started.elapsed().as_secs_f64();
            if enough && elapsed * f64::from(i + 2) / f64::from(i + 1) > self.seconds {
                break;
            }
        }
        self.tracer.set(self.trace, EXTRA);
        Ok(())
    }

    /// Check that the direct children of every span named `parent` cover
    /// at least [`MIN_COVERAGE`] of it.
    pub fn check_coverage(&mut self, parent: &'static str) {
        let share = self.tracer.min_child_coverage(parent);
        self.coverage(parent, share);
    }

    /// Record a coverage share and check it against [`MIN_COVERAGE`].
    pub fn coverage(&mut self, what: &str, share: f64) {
        let min = self.values.entry("bench.coverage_min").or_insert(1.0);
        *min = min.min(share);
        self.check(format!("coverage {what} {share:.3}"), share >= MIN_COVERAGE);
    }
}

/// Where a per-layer metric comes from.
enum Src {
    /// Seconds in the named spans per pass.
    Secs(&'static str),
    /// The same in milliseconds.
    Ms(&'static str),
    /// Nanoseconds in the named spans per unit of the named value.
    NsPer(&'static str, &'static str),
    /// A percentile of the named spans' durations, scaled from seconds.
    Pct(&'static str, f64, f64),
    /// A value the workload recorded under the metric's own name.
    Value,
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// bypasses reads 0 there.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("trace.generate_s", "s", Src::Secs("trace.generate")),
    ("trace.jobs", "count", Src::Value),
    (
        "analysis.characterize_s",
        "s",
        Src::Secs("analysis.characterize"),
    ),
    (
        "predict.training_matrix_s",
        "s",
        Src::Secs("predict.training_matrix"),
    ),
    ("predict.training_rows", "count", Src::Value),
    ("predict.gbdt_fit_s", "s", Src::Secs("predict.gbdt_fit")),
    ("predict.gbdt_trees", "count", Src::Value),
    ("core.train_qssf_s", "s", Src::Secs("core.train_qssf")),
    (
        "core.assign_priorities_s",
        "s",
        Src::Secs("core.assign_priorities"),
    ),
    ("core.scored_jobs", "count", Src::Value),
    ("core.train_ces_s", "s", Src::Secs("core.train_ces")),
    ("core.ces_evaluate_s", "s", Src::Secs("core.ces_evaluate")),
    ("core.qssf_jct_gain", "x", Src::Value),
    ("energy.node_series_s", "s", Src::Secs("energy.node_series")),
    ("energy.ces_util_gain_pp", "pp", Src::Value),
    ("sim.fifo_s", "s", Src::Secs("sim.fifo")),
    ("sim.sjf_s", "s", Src::Secs("sim.sjf")),
    ("sim.srtf_s", "s", Src::Secs("sim.srtf")),
    ("sim.tiresias_s", "s", Src::Secs("sim.tiresias")),
    ("sim.fault_fifo_s", "s", Src::Secs("sim.fault_fifo")),
    ("sim.schedule_fifo_s", "s", Src::Secs("sim.schedule_fifo")),
    ("sim.schedule_qssf_s", "s", Src::Secs("sim.schedule_qssf")),
    ("sim.jobs", "count", Src::Value),
    ("sim.preemptions", "count", Src::Value),
    ("sim.node_failures", "count", Src::Value),
    ("sim.killed_jobs", "count", Src::Value),
    ("faults.drain_fifo_s", "s", Src::Secs("faults.drain_fifo")),
    ("faults.drains", "count", Src::Value),
    ("faults.goodput", "share", Src::Value),
    ("fleet.launch_ms", "ms", Src::Ms("fleet.launch")),
    (
        "fleet.submit_ns_per_job",
        "ns",
        Src::NsPer("fleet.submit", "fleet.submitted"),
    ),
    ("fleet.submitted", "count", Src::Value),
    ("fleet.refused", "count", Src::Value),
    ("fleet.advance_s", "s", Src::Secs("fleet.advance")),
    (
        "fleet.cycle_ms_p50",
        "ms",
        Src::Pct("fleet.advance", 0.5, 1e3),
    ),
    (
        "fleet.cycle_ms_p99",
        "ms",
        Src::Pct("fleet.advance", 0.99, 1e3),
    ),
    (
        "fleet.status_us_p50",
        "us",
        Src::Pct("fleet.status", 0.5, 1e6),
    ),
    (
        "fleet.status_us_p99",
        "us",
        Src::Pct("fleet.status", 0.99, 1e6),
    ),
    ("fleet.status_queries", "count", Src::Value),
    ("fleet.checkpoint_writes", "count", Src::Value),
    ("fleet.checkpoint_write_s", "s", Src::Value),
    ("fleet.snapshot_ms", "ms", Src::Ms("fleet.snapshot")),
    ("fleet.snapshot_bytes", "bytes", Src::Value),
    ("fleet.restore_ms", "ms", Src::Ms("fleet.restore")),
    ("fleet.shutdown_ms", "ms", Src::Ms("fleet.shutdown")),
    ("bench.pass_s", "s", Src::Value),
    ("bench.jobs_per_s", "1/s", Src::Value),
    ("bench.ref_ms", "ms", Src::Value),
    ("bench.traced_pass_s", "s", Src::Value),
    ("bench.trace_overhead_s", "s", Src::Value),
    ("bench.coverage_min", "share", Src::Value),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2020,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A workload's body: set-up, measured passes and checks.
type Run = fn(&mut Cx) -> HeliosResult<()>;

/// The workloads: name, scale, smoke-mode scale and body.
const WORKLOADS: [(&str, f64, f64, Run); 3] = [
    ("pipeline", 0.05, 0.02, pipeline::run),
    ("sched", 1.0, 0.05, sched::run),
    ("fleet", 0.5, 0.05, fleet::run),
];

/// Run one workload and print its checks, metadata and result line.
/// Returns whether every check passed.
fn run_one(name: &str, run: Run, scale: f64, args: &Args, trace: bool) -> bool {
    let mut cx = Cx {
        seed: args.seed,
        scale,
        seconds: args.seconds,
        trace,
        tracer: Tracer::new(),
        clock: PassClock::new(),
        setup_secs: Vec::new(),
        pass_secs: Vec::new(),
        pass_refs: Vec::new(),
        traced_secs: Vec::new(),
        jobs_per_pass: 0.0,
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        values: BTreeMap::new(),
    };
    let outcome = run(&mut cx);
    if let Err(e) = &outcome {
        eprintln!("{name}: {e}");
        cx.check(format!("no errors ({e})"), false);
    }
    let meta = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"scale\":{scale},\"seconds\":{},\"trace\":{},\"passes\":{},\"traced_passes\":{},\"parallelism\":{},\"commit\":\"{}\"}}",
        args.seed,
        args.seconds,
        u8::from(trace),
        cx.pass_secs.len(),
        cx.traced_secs.len(),
        stats::parallelism(),
        args.commit,
    );
    let pass_s = stats::median(&cx.pass_secs);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        let traced_s = stats::median(&cx.traced_secs);
        cx.values.insert("bench.pass_s", pass_s);
        cx.values
            .insert("bench.jobs_per_s", cx.jobs_per_pass / pass_s);
        cx.values
            .insert("bench.ref_ms", stats::median(cx.clock.refs()) * 1e3);
        cx.values.insert("bench.traced_pass_s", traced_s);
        cx.values
            .insert("bench.trace_overhead_s", traced_s - pass_s);
        for (metric, unit, src) in PER_LAYER {
            let value = match *src {
                Src::Secs(span) => cx.tracer.secs_per_pass(span),
                Src::Ms(span) => cx.tracer.secs_per_pass(span) * 1e3,
                Src::NsPer(span, count) => {
                    let n = cx.values.get(count).copied().unwrap_or(0.0);
                    if n > 0.0 {
                        cx.tracer.secs_per_pass(span) * 1e9 / n
                    } else {
                        0.0
                    }
                }
                Src::Pct(span, q, factor) => {
                    stats::quantile(&cx.tracer.durations(span), q) * factor
                }
                Src::Value => cx.values.get(metric).copied().unwrap_or(0.0),
            };
            metrics.push((metric, value, unit));
        }
        let path = format!("{TRACE_DIR}/{name}-seed{}.trace.jsonl", args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, format!("{meta}\n{}", cx.tracer.to_jsonl())));
        match written {
            Ok(()) => println!("trace: {} spans written to {path}", cx.tracer.spans().len()),
            Err(e) => cx.check(format!("trace written to {path} ({e})"), false),
        }
    } else {
        metrics.push(("pass_ref", stats::median(&cx.pass_refs), "x"));
        metrics.push(("setup_s", stats::median(&cx.setup_secs), "s"));
        metrics.push(("peak_heap_mb", stats::peak_heap_mb(), "MB"));
    }
    for (check, ok) in &cx.checks {
        println!("check {}: {check}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = outcome.is_ok() && cx.checks.iter().all(|(_, ok)| *ok);
    println!("meta {meta}");
    for (metric, value, unit) in &metrics {
        println!("metric {metric} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        cx.attempted.max(1),
        cx.failed,
        body.join(", ")
    );
    correct
}

fn main() {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        args.seconds = 0.0;
        let mut ok = true;
        for (name, _, scale, run) in WORKLOADS {
            for trace in [false, true] {
                ok &= run_one(name, run, scale, &args, trace);
            }
        }
        std::process::exit(if ok { 0 } else { 1 });
    }
    let Some(&(name, scale, _, run)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (pipeline, sched, fleet)",
            args.workload
        );
        std::process::exit(2);
    };
    if !run_one(name, run, scale, &args, args.trace) {
        std::process::exit(1);
    }
}

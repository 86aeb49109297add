//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <experiment-id>...|all
//!
//! Options:
//!   --scale <F>     trace scale in (0, 1] (default 0.25; 1.0 = paper scale)
//!   --seed <N>      generator seed (default 2020)
//!   --out-dir <DIR> report directory (default "reports")
//!   --policy <P>    restrict schedule experiments to one policy:
//!                   fifo|sjf|srtf|qssf|tiresias|all — or drain:<P> to wrap
//!                   the selection in the proactive-drain layer
//!                   (default: the paper's FIFO/SJF/QSSF/SRTF set)
//!   --failures <H>  run every scheduler simulation under failure
//!                   injection with the given per-node MTBF in hours
//!                   (default: failure-free)
//!   --pin <PATH>    check the result pin at PATH: render one record
//!                   (cluster, policy, jobs, outcome digest, outcome
//!                   metrics) per simulation the experiments ran, under a
//!                   header of the arguments above; unless PATH already
//!                   holds exactly those bytes, rewrite it and exit 1
//!                   naming the first differing line
//!   --list          print the experiment ids and exit
//! ```
//!
//! Several experiment ids may be given; they run in order and share one
//! context, so one pin can carry all their records
//! (e.g. `repro --pin BENCH_fleet.json fleet-soak fleet-chaos fleet-overload`).
//!
//! Outputs print to stdout and are mirrored under `<out-dir>/<id>.{txt,json}`.
//! Unknown experiment ids, report-write failures and pin differences exit
//! non-zero.

use helios_bench::experiments::{
    run, Context, ExperimentOutput, ResultRecord, ALL_EXPERIMENTS, EXTRA_EXPERIMENTS,
};
use helios_trace::HeliosError;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    scale: f64,
    seed: u64,
    out_dir: PathBuf,
    policy: Option<String>,
    failures: Option<f64>,
    pin: Option<PathBuf>,
    ids: Vec<String>,
}

const USAGE: &str = "usage: repro [--scale F] [--seed N] [--out-dir DIR] \
                     [--policy [drain:]fifo|sjf|srtf|qssf|tiresias|all] \
                     [--failures MTBF-HOURS] \
                     [--pin PATH] [--list] <experiment-id>...|all";

fn parse_args() -> Result<Args, String> {
    let mut scale = 0.25f64;
    let mut seed = 2020u64;
    let mut out_dir = PathBuf::from("reports");
    let mut policy = None;
    let mut failures = None;
    let mut pin = None;
    let mut ids = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|_| format!("invalid --scale {v:?}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("invalid --seed {v:?}"))?;
            }
            "--out-dir" => {
                out_dir = PathBuf::from(argv.next().ok_or("--out-dir needs a value")?);
            }
            "--policy" => {
                policy = Some(argv.next().ok_or("--policy needs a value")?);
            }
            "--failures" => {
                let v = argv.next().ok_or("--failures needs a value (MTBF hours)")?;
                failures = Some(v.parse().map_err(|_| format!("invalid --failures {v:?}"))?);
            }
            "--pin" => {
                pin = Some(PathBuf::from(argv.next().ok_or("--pin needs a value")?));
            }
            "--list" => {
                println!("all");
                for id in ALL_EXPERIMENTS.iter().chain(&EXTRA_EXPERIMENTS) {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(Args {
        scale,
        seed,
        out_dir,
        policy,
        failures,
        pin,
        ids,
    })
}

/// The `--pin` file: the arguments that shape the records, then the
/// records in run order.
fn render_pin(args: &Args, records: &[ResultRecord]) -> String {
    let doc = serde_json::json!({
        "schema": helios_bench::pin::SCHEMA,
        "scale": args.scale,
        "seed": args.seed,
        "policy": args.policy.clone(),
        "failures": args.failures,
        "experiments": args.ids.clone(),
        "records": records.iter().map(ResultRecord::to_json).collect::<Vec<_>>(),
    });
    let mut out = serde_json::to_string_pretty(&doc).expect("strings and numbers serialize");
    out.push('\n');
    out
}

/// Check the pin at `path`; on any difference rewrite it with this run's
/// records and fail.
fn check_pin(path: &Path, rendered: &str) -> Result<(), String> {
    let shown = path.display().to_string();
    let pinned = match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("reading {shown}: {e}")),
    };
    helios_bench::pin::check(&shown, pinned.as_deref(), rendered).or_else(|diff| {
        std::fs::write(path, rendered).map_err(|e| format!("writing {shown}: {e}"))?;
        Err(format!(
            "{diff}\nrewrote {shown} with this run's records; review them with `git diff`"
        ))
    })
}

fn write_reports(dir: &Path, out: &ExperimentOutput) -> Result<(), HeliosError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| HeliosError::io(format!("creating {}", dir.display()), &e))?;
    let txt = dir.join(format!("{}.txt", out.id));
    let mut f = std::fs::File::create(&txt)
        .map_err(|e| HeliosError::io(format!("creating {}", txt.display()), &e))?;
    writeln!(f, "{}", out.text)
        .map_err(|e| HeliosError::io(format!("writing {}", txt.display()), &e))?;
    let json = dir.join(format!("{}.json", out.id));
    let rendered = serde_json::to_string_pretty(&out.data).map_err(|e| HeliosError::Io {
        context: format!("serializing {}", json.display()),
        message: e.to_string(),
    })?;
    let mut f = std::fs::File::create(&json)
        .map_err(|e| HeliosError::io(format!("creating {}", json.display()), &e))?;
    writeln!(f, "{rendered}")
        .map_err(|e| HeliosError::io(format!("writing {}", json.display()), &e))?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = match Context::new(args.scale, args.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(choice) = &args.policy {
        if let Err(e) = ctx.set_policy_choice(choice) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(mtbf_hours) = args.failures {
        if let Err(e) = ctx.set_failures(mtbf_hours) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    let mut outputs = Vec::new();
    for id in &args.ids {
        match run(id, &mut ctx) {
            Ok(o) => outputs.extend(o),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for out in &outputs {
        println!("{}", out.text);
        println!("{}", "=".repeat(78));
        if let Err(e) = write_reports(&args.out_dir, out) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.pin {
        let records = ctx.records();
        if let Err(e) = check_pin(path, &render_pin(&args, records)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("pin: {} records match {}", records.len(), path.display());
    }
    eprintln!(
        "done: {} experiment(s), scale {}, seed {}, reports in {}",
        outputs.len(),
        args.scale,
        args.seed,
        args.out_dir.display()
    );
    ExitCode::SUCCESS
}

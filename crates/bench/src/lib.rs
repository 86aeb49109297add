//! # helios-bench
//!
//! Experiment harness regenerating every table and figure of the paper.
//! The `repro` binary exposes one subcommand per artifact (`repro --list`
//! prints them); this library holds the shared experiment context, the
//! per-experiment implementations the binary drives, and the byte check
//! behind `repro --pin`.
//!
//! ```no_run
//! use helios_bench::experiments::{run, Context};
//!
//! let mut ctx = Context::new(0.25, 2020)?; // scale is validated here
//! let outputs = run("table1", &mut ctx)?;  // unknown ids are errors
//! assert_eq!(outputs[0].id, "table1");
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

pub mod experiments;
pub mod pin;

pub use experiments::{Context, ExperimentOutput, ResultRecord};

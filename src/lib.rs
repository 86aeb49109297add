//! # helios — umbrella façade for the Helios SC'21 reproduction
//!
//! One typed, fallible pipeline over the paper's whole framework
//! (*Characterization and Prediction of Deep Learning Workloads in
//! Large-Scale GPU Datacenters*, Hu et al., SC'21): synthetic trace
//! generation → §3 characterization → §4 prediction services (QSSF, CES)
//! → trace-driven scheduling → reports.
//!
//! ```no_run
//! use helios::prelude::*;
//!
//! # fn main() -> helios::error::Result<()> {
//! // One cluster, end to end.
//! let report = Helios::cluster(Preset::Venus)
//!     .scale(0.1)
//!     .seed(42)
//!     .build()?
//!     .generate()?
//!     .characterize()?
//!     .train_qssf()?
//!     .schedule(SchedulePolicy::Fifo)?
//!     .schedule(SchedulePolicy::Qssf)?
//!     .report()?;
//! println!("{}", report.render());
//!
//! // All five clusters in parallel, one report each.
//! for report in Helios::all_clusters().scale(0.05).reports()? {
//!     println!("{}", report.render());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Every fallible entry point returns [`error::HeliosError`]; no façade
//! path panics on invalid user input.
//!
//! Scheduling is open: built-in policies go through
//! [`SchedulePolicy`] constructors, and any user-defined
//! `helios_sim::SchedulingPolicy` trait object runs through the same
//! pipeline via [`session::Session::schedule_with`], which also takes the
//! `SimObserver`s that stream the run's kernel events. See
//! `examples/custom_policy.rs`.
//!
//! The member crates remain available for deep access:
//! [`trace`] (synthesis), [`analysis`] (§3 statistics), [`predict`]
//! (GBDT/ARIMA/LSTM), [`sim`] (pluggable discrete-event scheduler kernel),
//! [`core`] (the QSSF and CES services), [`energy`] (CES/DRS + energy-aware
//! policy), [`faults`] (failure prediction, proactive drains, goodput
//! over the kernel's failure injection — see
//! [`session::Session::with_failures`]), [`fleet`] (sharded,
//! snapshottable scheduler-as-a-service — launch via
//! [`fleet::Fleet::launch`]).

pub mod error;
pub mod prelude;
pub mod session;

pub use error::{HeliosError, HeliosResult};
pub use session::{Helios, Preset, SchedulePolicy, Session, SessionBuilder, SessionReport};

pub use helios_analysis as analysis;
pub use helios_core as core;
pub use helios_energy as energy;
pub use helios_faults as faults;
pub use helios_fleet as fleet;
pub use helios_predict as predict;
pub use helios_sim as sim;
pub use helios_trace as trace;

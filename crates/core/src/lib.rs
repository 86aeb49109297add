//! # helios-core
//!
//! The paper's two prediction-based management services (§4, Fig. 10):
//!
//! * [`QssfService`] — Quasi-Shortest-Service-First scheduling
//!   (Algorithm 1): GBDT + rolling-history GPU-time prediction feeding the
//!   `helios-sim` Priority policy;
//! * [`CesService`] — Cluster Energy Saving (Algorithm 2): GBDT node-demand
//!   forecasting feeding the `helios-energy` DRS control loop.
//!
//! Fig. 10's framework roles live in these services and the kernel, not in
//! a separate driver:
//!
//! * **Model Update Engine** — [`QssfService::train`] fits the model on
//!   history, and [`QssfService::assign_priorities`] calls
//!   [`QssfService::observe`] on each job submitted in the scoring window
//!   as the replay clock passes its end, so predictions only ever see
//!   finished jobs. Jobs submitted before the window that finish inside it
//!   are never observed, although an online service would see them;
//! * **Resource Orchestrator** — the kernel's `PriorityPolicy` orders jobs
//!   by the assigned priorities, and [`CesService::evaluate`] runs the DRS
//!   control loop over the forecast.
//!
//! ```
//! use helios_core::{QssfConfig, QssfService};
//! use helios_trace::{generate, venus_profile, GeneratorConfig};
//!
//! let trace = generate(&venus_profile(), &GeneratorConfig { scale: 0.02, seed: 1 })?;
//! let mut qssf = QssfService::new(QssfConfig::default());
//! // Train on the first four months; an empty window would be an error.
//! qssf.train(&trace, 0, trace.calendar.month_end(3))?;
//! assert!(qssf.is_trained());
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

pub mod ces;
pub mod qssf;

pub use ces::{CesEvaluation, CesService, CesServiceConfig};
pub use qssf::{noisy_oracle_priorities, QssfConfig, QssfService};

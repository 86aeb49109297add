//! # helios-trace
//!
//! Synthetic job-trace substrate for the SC'21 paper *"Characterization and
//! Prediction of Deep Learning Workloads in Large-Scale GPU Datacenters"*
//! (Hu et al.). The real Helios traces are proprietary Slurm `sacct` logs
//! from SenseTime; this crate synthesizes statistically-calibrated stand-ins
//! for all four Helios clusters (Venus, Earth, Saturn, Uranus; Table 1) and
//! the Microsoft Philly comparison cluster, matching every published
//! marginal: job counts, CPU/GPU split, duration mixtures, GPU-demand CDFs,
//! final-status ratios, diurnal/monthly submission shapes, Zipf user
//! activity and recurrent experiment names.
//!
//! ```
//! use helios_trace::{generate, GeneratorConfig, venus_profile};
//!
//! let cfg = GeneratorConfig { scale: 0.02, seed: 1 };
//! let trace = generate(&venus_profile(), &cfg)?;
//! assert!(trace.gpu_jobs().count() > 1_000);
//!
//! // Invalid configuration is a typed error, not a panic.
//! assert!(generate(&venus_profile(), &GeneratorConfig { scale: 0.0, seed: 1 }).is_err());
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

pub mod cluster;
pub mod dist;
pub mod error;
pub mod generator;
pub mod io;
pub mod profiles;
pub mod replay;
pub mod time;
pub mod types;
pub mod users;
pub mod workload;

pub use cluster::{
    earth, helios_clusters, philly, preset, saturn, uranus, venus, ClusterSpec, GpuModel, VcSpec,
};
pub use error::{HeliosError, HeliosResult};
pub use generator::{
    generate, generate_helios, generate_philly, scale_spec, GeneratorConfig, Trace,
    MAX_DURATION_SECS,
};
pub use replay::{assign_start_times, replayed_utilization};
pub use time::{Calendar, Weekday, SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_MINUTE, SECS_PER_WEEK};
pub use types::{ClusterId, JobId, JobRecord, JobStatus, NameId, NamePool, UserId, VcId};
pub use users::{JobTemplate, UserClass, UserProfile};
pub use workload::{
    earth_profile, helios_profiles, philly_profile, profile_for, saturn_profile, uranus_profile,
    venus_profile, StatusModel, TemplateKind, WorkloadProfile,
};

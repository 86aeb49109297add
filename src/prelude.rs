//! Curated imports for façade users: `use helios::prelude::*;` pulls in the
//! builder pipeline plus the handful of substrate types its signatures
//! mention. Deep APIs stay behind the re-exported member crates
//! (`helios::trace`, `helios::sim`, ...).

pub use crate::error::{HeliosError, HeliosResult};
pub use crate::session::{
    CesSummary, Characterization, FleetBuilder, Helios, PolicyGain, Preset, ScheduleOutcome,
    SchedulePolicy, ScheduleSummary, Session, SessionBuilder, SessionReport,
};

// Substrate types that appear in façade signatures or configs.
pub use helios_core::CesEvaluation;
pub use helios_faults::{DrainConfig, DrainPolicy, FailurePredictor, Goodput, PredictorConfig};
pub use helios_fleet::{
    ChaosConfig, CheckpointConfig, ClusterConfig, ClusterStatus, Fleet, FleetConfig, FleetHealth,
    RetryConfig, ShedConfig, StatusKind, StatusReport, VcStatus, WatchdogConfig, WorkerState,
};
pub use helios_sim::{
    FaultConfig, FaultSemantics, JobOutcome, JobView, Placement, Policy, ScheduleStats,
    SchedulingPolicy, SimJob, SimObserver,
};
pub use helios_trace::{ClusterId, GeneratorConfig, JobRecord, JobStatus, Trace};

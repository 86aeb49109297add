//! The workspace-wide error type.
//!
//! Every public, fallible entry point in the Helios workspace — trace
//! generation, simulation, service training, the umbrella façade — returns
//! [`HeliosError`]. It lives in `helios-trace` because that crate sits at
//! the bottom of the dependency graph (every other member already depends
//! on it); the umbrella `helios` crate re-exports it as `helios::HeliosError`.

use std::fmt;

/// Workspace-wide result alias.
pub type HeliosResult<T> = std::result::Result<T, HeliosError>;

/// Everything that can go wrong across the trace → predict → schedule →
/// report pipeline. Variants carry enough context to be actionable without
/// a backtrace.
#[derive(Debug, Clone, PartialEq)]
pub enum HeliosError {
    /// A configuration value is out of range or inconsistent
    /// (e.g. `scale <= 0`, `lambda` outside `[0, 1]`).
    InvalidConfig {
        /// The offending field or parameter name.
        field: &'static str,
        /// Human-readable constraint violation.
        message: String,
    },
    /// A pipeline stage needed input data and found none
    /// (e.g. an empty training window, a zero-length node series).
    EmptyInput {
        /// What was empty.
        what: &'static str,
        /// Where / why, e.g. the requested window.
        detail: String,
    },
    /// A job handed to the simulator can never be placed on the cluster.
    InvalidJob {
        /// The job's id.
        job_id: u64,
        /// Why it is unschedulable.
        reason: String,
    },
    /// A session stage was invoked before its prerequisite stage.
    MissingStage {
        /// The stage that was invoked.
        stage: &'static str,
        /// The stage that must run first.
        requires: &'static str,
    },
    /// A model was queried before it was trained.
    NotTrained {
        /// The service ("qssf", "ces").
        service: &'static str,
    },
    /// A name-keyed lookup (cluster preset, experiment id) failed.
    UnknownName {
        /// The namespace ("cluster", "experiment").
        kind: &'static str,
        /// The name that did not resolve.
        name: String,
        /// Valid choices, for the error message.
        expected: String,
    },
    /// A failure on one cluster of a multi-cluster fan-out, tagged with the
    /// cluster so parallel errors stay attributable.
    Cluster {
        /// Cluster name ("Venus", ...).
        cluster: String,
        /// The underlying failure.
        source: Box<HeliosError>,
    },
    /// An I/O failure (report writing, CSV import). `std::io::Error` is not
    /// `Clone`, so the message is captured eagerly.
    Io {
        /// What was being done ("writing reports/table1.txt").
        context: String,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// A fleet ingestion shard refused a submission because its bounded
    /// queue is full. This is the backpressure signal: the producer should
    /// retry after the worker's next admission cycle drains the shard.
    FleetOverflow {
        /// Cluster name ("Venus", ...).
        cluster: String,
        /// The virtual-cluster shard that overflowed.
        vc: u16,
        /// The shard's bounded capacity (jobs).
        capacity: usize,
    },
    /// A scheduler snapshot could not be encoded, decoded, or applied
    /// (magic/version mismatch, truncated payload, or a snapshot taken
    /// against a different cluster spec or policy).
    Snapshot {
        /// What was being done ("decoding fleet header", ...).
        context: String,
        /// Why it failed.
        detail: String,
    },
    /// A fleet worker panicked and could not be brought back: either its
    /// supervisor exhausted the restart budget or every retained
    /// checkpoint generation failed to decode. The cluster is served in
    /// degraded mode (stale status, no admission) until the fleet is
    /// relaunched or recovered from disk.
    WorkerCrashed {
        /// Cluster name ("Venus", ...).
        cluster: String,
        /// Supervisor restarts attempted before giving up.
        restarts: u32,
    },
    /// Adaptive admission control refused a submission: the cluster's
    /// ingestion backlog crossed its high-water mark and this VC holds
    /// more than its fair share of it, so the fleet sheds its load
    /// first. Unlike [`FleetOverflow`](Self::FleetOverflow) (a full
    /// shard), shedding is deliberate and fair: light VCs keep their
    /// headroom while heavy VCs are pushed back.
    FleetShedding {
        /// Cluster name ("Venus", ...).
        cluster: String,
        /// The virtual cluster whose load is being shed.
        vc: u16,
        /// Admission cycles the producer should wait out before
        /// resubmitting — how many times over its fair share this VC's
        /// backlog currently is.
        retry_after_cycles: u64,
    },
    /// A fleet worker stopped making kernel progress and ignored
    /// cooperative cancellation past the watchdog's hard deadline. The
    /// cluster is served in degraded mode (stale status, no admission,
    /// no blocking) until the fleet is relaunched or recovered.
    WorkerHung {
        /// Cluster name ("Venus", ...).
        cluster: String,
        /// Kernel events the worker had processed when its heartbeat
        /// went flat.
        stalled_events: u64,
    },
}

impl HeliosError {
    /// Shorthand for [`HeliosError::InvalidConfig`].
    pub fn invalid_config(field: &'static str, message: impl Into<String>) -> Self {
        HeliosError::InvalidConfig {
            field,
            message: message.into(),
        }
    }

    /// Shorthand for [`HeliosError::EmptyInput`].
    pub fn empty_input(what: &'static str, detail: impl Into<String>) -> Self {
        HeliosError::EmptyInput {
            what,
            detail: detail.into(),
        }
    }

    /// Shorthand for [`HeliosError::Io`] from a real `io::Error`.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        HeliosError::Io {
            context: context.into(),
            message: err.to_string(),
        }
    }

    /// Shorthand for [`HeliosError::Snapshot`].
    pub fn snapshot(context: impl Into<String>, detail: impl Into<String>) -> Self {
        HeliosError::Snapshot {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// Tag an error with the cluster a fan-out branch was processing.
    pub fn for_cluster(self, cluster: impl Into<String>) -> Self {
        HeliosError::Cluster {
            cluster: cluster.into(),
            source: Box::new(self),
        }
    }
}

impl fmt::Display for HeliosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeliosError::InvalidConfig { field, message } => {
                write!(f, "invalid configuration: {field}: {message}")
            }
            HeliosError::EmptyInput { what, detail } => {
                write!(f, "empty input: no {what} ({detail})")
            }
            HeliosError::InvalidJob { job_id, reason } => {
                write!(f, "job {job_id} can never be scheduled: {reason}")
            }
            HeliosError::MissingStage { stage, requires } => {
                write!(f, "stage `{stage}` requires `{requires}` to have run first")
            }
            HeliosError::NotTrained { service } => {
                write!(f, "service `{service}` used before training")
            }
            HeliosError::UnknownName {
                kind,
                name,
                expected,
            } => {
                write!(f, "unknown {kind} {name:?} (expected one of: {expected})")
            }
            HeliosError::Cluster { cluster, source } => {
                write!(f, "[{cluster}] {source}")
            }
            HeliosError::Io { context, message } => {
                write!(f, "I/O error while {context}: {message}")
            }
            HeliosError::FleetOverflow {
                cluster,
                vc,
                capacity,
            } => write!(
                f,
                "[{cluster}] ingestion shard for VC {vc} is full \
                 (capacity {capacity} jobs); retry after the next admission cycle"
            ),
            HeliosError::Snapshot { context, detail } => {
                write!(f, "snapshot error while {context}: {detail}")
            }
            HeliosError::WorkerCrashed { cluster, restarts } => write!(
                f,
                "[{cluster}] worker crashed and could not be recovered \
                 (after {restarts} supervisor restart(s)); relaunch or \
                 recover the fleet to serve this cluster again"
            ),
            HeliosError::FleetShedding {
                cluster,
                vc,
                retry_after_cycles,
            } => write!(
                f,
                "[{cluster}] admission control is shedding VC {vc}'s load \
                 (ingestion backlog past its high-water mark); retry after \
                 ~{retry_after_cycles} admission cycle(s)"
            ),
            HeliosError::WorkerHung {
                cluster,
                stalled_events,
            } => write!(
                f,
                "[{cluster}] worker is hung: no kernel progress past event \
                 {stalled_events} and cooperative cancellation was ignored; \
                 the cluster is served in degraded mode"
            ),
        }
    }
}

impl std::error::Error for HeliosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeliosError::Cluster { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = HeliosError::invalid_config("scale", "must be in (0, 1], got 0");
        assert!(e.to_string().contains("scale"));
        let e = HeliosError::InvalidJob {
            job_id: 100,
            reason: "requests 50 GPUs".into(),
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("50"));
    }

    #[test]
    fn cluster_tagging_nests() {
        let e = HeliosError::empty_input("jobs", "September window").for_cluster("Venus");
        let s = e.to_string();
        assert!(s.starts_with("[Venus]"), "{s}");
        assert!(s.contains("jobs"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn errors_compare_for_tests() {
        assert_eq!(
            HeliosError::NotTrained { service: "qssf" },
            HeliosError::NotTrained { service: "qssf" },
        );
    }
}

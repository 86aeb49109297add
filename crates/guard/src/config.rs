//! Rule scoping: which workspace paths each rule family patrols.
//!
//! Scopes are lists of workspace-relative path prefixes (`/`-separated).
//! A file is in scope when any prefix matches it exactly or as a leading
//! directory. The committed Helios scoping lives in [`GuardConfig::helios`];
//! the fixture tests build their own configs against a fixture root.

use std::path::{Path, PathBuf};

/// A set of path prefixes, matched against workspace-relative paths.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    prefixes: Vec<String>,
}

impl PathSet {
    pub fn new<S: Into<String>>(prefixes: impl IntoIterator<Item = S>) -> Self {
        PathSet {
            prefixes: prefixes.into_iter().map(Into::into).collect(),
        }
    }

    /// Does `rel` (workspace-relative, `/`-separated) fall under any
    /// prefix? `"."` matches everything.
    pub fn contains(&self, rel: &str) -> bool {
        self.prefixes.iter().any(|p| {
            p == "."
                || rel == p
                || (rel.len() > p.len()
                    && rel.starts_with(p.as_str())
                    && rel.as_bytes()[p.len()] == b'/')
        })
    }

    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }
}

/// One pinned codec: a source file whose ByteWriter/ByteReader call
/// sequence is fingerprinted, plus the version constants that must be
/// bumped when the sequence changes.
#[derive(Debug, Clone)]
pub struct CodecSpec {
    /// Manifest key (conventionally the wire magic, e.g. `HSIMSNAP`).
    pub name: &'static str,
    /// Workspace-relative file owning the codec.
    pub file: &'static str,
    /// `const` names in that file whose integer values are pinned
    /// alongside the fingerprint (the "bump me" knobs).
    pub version_consts: &'static [&'static str],
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Workspace root all scopes are relative to.
    pub root: PathBuf,
    /// Panic-freedom scope: designated service-path modules.
    pub panic_paths: PathSet,
    /// Determinism (hash-container) scope: modules whose iteration
    /// order feeds digests, reports, or snapshots.
    pub container_paths: PathSet,
    /// Determinism (wall-clock / RandomState) scope: everything that
    /// participates in seeded replay — i.e. all non-bench library code.
    pub time_paths: PathSet,
    /// Atomics-audit scope.
    pub atomics_paths: PathSet,
    /// Path prefixes excluded from every rule (vendored code, build
    /// output, tests, benches, examples).
    pub excludes: Vec<String>,
    /// Pinned codecs.
    pub codecs: Vec<CodecSpec>,
    /// Baseline file (workspace-relative).
    pub baseline_path: String,
    /// Codec manifest file (workspace-relative).
    pub manifest_path: String,
}

impl GuardConfig {
    /// The committed Helios workspace scoping.
    ///
    /// * **panic** — the fleet service layer end to end (submit /
    ///   status / advance / checkpoint recovery live there), the kernel
    ///   event loop, and the snapshot codec (whose contract is
    ///   "decoding never panics").
    /// * **determinism / containers** — metrics and report assembly,
    ///   snapshot state, the digest-emitting bench experiments, and the
    ///   characterization reports.
    /// * **determinism / time** — every library crate; bench code and
    ///   the repro binary are the sanctioned wall-clock users.
    /// * **atomics** — all first-party source.
    pub fn helios(root: impl Into<PathBuf>) -> Self {
        GuardConfig {
            root: root.into(),
            panic_paths: PathSet::new([
                "crates/fleet/src",
                "crates/sim/src/engine.rs",
                "crates/sim/src/snapshot.rs",
            ]),
            container_paths: PathSet::new([
                "crates/sim/src/metrics.rs",
                "crates/sim/src/snapshot.rs",
                "crates/fleet/src",
                "crates/bench/src/experiments.rs",
                "crates/analysis/src",
                "src/session.rs",
            ]),
            time_paths: PathSet::new([
                "crates/analysis/src",
                "crates/core/src",
                "crates/energy/src",
                "crates/faults/src",
                "crates/fleet/src",
                "crates/predict/src",
                "crates/sim/src",
                "crates/trace/src",
                "src",
            ]),
            atomics_paths: PathSet::new(["crates", "src"]),
            excludes: default_excludes(),
            codecs: vec![
                CodecSpec {
                    name: "HSIMSNAP",
                    file: "crates/sim/src/snapshot.rs",
                    version_consts: &["SNAPSHOT_VERSION"],
                },
                CodecSpec {
                    name: "HELFLEET",
                    file: "crates/fleet/src/service.rs",
                    version_consts: &["FLEET_SNAPSHOT_VERSION"],
                },
                CodecSpec {
                    name: "HELCKPT",
                    file: "crates/fleet/src/checkpoint.rs",
                    version_consts: &["CHECKPOINT_VERSION"],
                },
                CodecSpec {
                    name: "FAULTSNAP",
                    file: "crates/sim/src/fault.rs",
                    version_consts: &["FAULT_CODEC_VERSION"],
                },
            ],
            baseline_path: ".guard/baseline.txt".to_string(),
            manifest_path: ".guard/codecs.txt".to_string(),
        }
    }

    /// Is `rel` excluded from scanning entirely?
    pub fn excluded(&self, rel: &str) -> bool {
        self.excludes.iter().any(|e| {
            rel == e
                || rel.starts_with(&format!("{e}/"))
                || rel.contains(&format!("/{e}/"))
                || rel.ends_with(&format!("/{e}"))
        })
    }

    /// Is `rel` interesting to any rule (or codec pin)?
    pub fn in_any_scope(&self, rel: &str) -> bool {
        self.panic_paths.contains(rel)
            || self.container_paths.contains(rel)
            || self.time_paths.contains(rel)
            || self.atomics_paths.contains(rel)
            || self.codecs.iter().any(|c| c.file == rel)
    }

    /// Resolve a workspace-relative path against the root.
    pub fn abs(&self, rel: &str) -> PathBuf {
        let mut p = self.root.clone();
        for seg in rel.split('/') {
            p.push(seg);
        }
        p
    }
}

/// Directory names excluded from every rule: third-party stand-ins,
/// build output, and code that is *supposed* to panic loudly (tests,
/// benches, examples — including guard's own seeded-violation
/// fixtures under `crates/guard/tests/`).
pub fn default_excludes() -> Vec<String> {
    [
        "vendor", "target", "tests", "benches", "examples", ".git", ".guard",
    ]
    .map(String::from)
    .to_vec()
}

/// Workspace-relative `/`-separated form of `path` under `root`.
pub fn relativize(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_component_wise() {
        let s = PathSet::new(["crates/fleet/src", "src/session.rs"]);
        assert!(s.contains("crates/fleet/src/worker.rs"));
        assert!(s.contains("src/session.rs"));
        assert!(!s.contains("crates/fleet/srcx/worker.rs"));
        assert!(!s.contains("crates/fleet"));
        assert!(PathSet::new(["."]).contains("anything/at/all.rs"));
    }

    #[test]
    fn helios_scoping_spot_checks() {
        let cfg = GuardConfig::helios("/tmp");
        assert!(cfg.panic_paths.contains("crates/fleet/src/service.rs"));
        assert!(cfg.panic_paths.contains("crates/sim/src/engine.rs"));
        assert!(!cfg.panic_paths.contains("crates/sim/src/pool.rs"));
        assert!(cfg.excluded("vendor/rand/src/lib.rs"));
        assert!(cfg.excluded("crates/guard/tests/guard_fixtures/panic.rs"));
        assert!(cfg.excluded("crates/sim/benches/simulator.rs"));
        assert!(!cfg.excluded("crates/sim/src/engine.rs"));
    }
}

//! Violation types and the human / JSON report renderers.

use std::fmt;

/// The rule families `helios-guard` enforces. `Annotation` is the
/// engine's own meta-rule: a malformed `guard:`/`sync:` comment is
/// reported instead of silently ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` / slice-index-without-`get` on service-path
    /// modules.
    Panic,
    /// `HashMap`/`HashSet` in digest-feeding modules; wall-clock and
    /// `RandomState` outside bench code (seeded-replay hazards).
    Determinism,
    /// `Ordering::` use-sites missing an adjacent `// sync:` comment
    /// naming the happens-before partner.
    Atomics,
    /// Codec field-sequence fingerprint drift without a version bump
    /// (or without re-pinning the committed manifest).
    Codec,
    /// Malformed `guard:` / `sync:` annotation.
    Annotation,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Determinism => "determinism",
            Rule::Atomics => "atomics",
            Rule::Codec => "codec",
            Rule::Annotation => "annotation",
        }
    }

    /// Parse a rule name as written in `guard: allow(<rule>, …)`.
    /// `annotation` and `codec` are deliberately not allowable: a codec
    /// drift must be resolved through the manifest, and a broken
    /// annotation by fixing it.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "panic" => Some(Rule::Panic),
            "determinism" => Some(Rule::Determinism),
            "atomics" => Some(Rule::Atomics),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line (0 for file-level findings like codec drift).
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Outcome of a full `check` run, ready to render.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations NOT covered by the baseline — these fail the run.
    pub new: Vec<Violation>,
    /// Per `(rule, file)` counts suppressed by the baseline.
    pub suppressed: u64,
    /// Baseline entries whose recorded count exceeds the current count:
    /// the ratchet demands the baseline shrink (`--write-baseline`).
    pub stale: Vec<(String, String, u64, u64)>,
    /// Total violations found before baseline filtering.
    pub total: u64,
    /// Files scanned.
    pub files: u64,
}

impl Report {
    /// Did the run pass (exit 0)?
    pub fn clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }

    /// Render the human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for v in &self.new {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (rule, file, base, cur) in &self.stale {
            out.push_str(&format!(
                "{file}: [{rule}] baseline is stale: records {base} grandfathered \
                 violations but only {cur} remain — ratchet down with \
                 `helios-guard check --workspace --write-baseline`\n"
            ));
        }
        out.push_str(&format!(
            "guard: {} file(s), {} violation(s) ({} new, {} baselined{})\n",
            self.files,
            self.total,
            self.new.len(),
            self.suppressed,
            if self.stale.is_empty() {
                String::new()
            } else {
                format!(", {} stale baseline entr(ies)", self.stale.len())
            }
        ));
        out.push_str(if self.clean() {
            "guard: PASS\n"
        } else {
            "guard: FAIL\n"
        });
        out
    }

    /// Render the `--json` report (hand-rolled: guard takes no
    /// dependencies).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.new.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(v.rule.name()),
                json_str(&v.file),
                v.line,
                json_str(&v.message)
            ));
        }
        out.push_str("\n  ],\n  \"stale_baseline\": [");
        for (i, (rule, file, base, cur)) in self.stale.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"baseline\": {base}, \"current\": {cur}}}",
                json_str(rule),
                json_str(file)
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"files\": {},\n  \"total\": {},\n  \"new\": {},\n  \"suppressed\": {},\n  \"pass\": {}\n}}\n",
            self.files,
            self.total,
            self.new.len(),
            self.suppressed,
            self.clean()
        ));
        out
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_renders() {
        let mut r = Report {
            total: 1,
            files: 2,
            ..Report::default()
        };
        r.new.push(Violation {
            rule: Rule::Panic,
            file: "a/b.rs".into(),
            line: 7,
            message: "said \"no\"\n".into(),
        });
        let j = r.json();
        assert!(j.contains("\\\"no\\\"\\n"));
        assert!(j.contains("\"pass\": false"));
        assert!(r.human().contains("guard: FAIL"));
    }

    #[test]
    fn clean_report_passes() {
        let r = Report::default();
        assert!(r.clean());
        assert!(r.human().contains("guard: PASS"));
        assert!(r.json().contains("\"pass\": true"));
    }
}

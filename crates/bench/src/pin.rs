//! Result pins: committed files of deterministic
//! [`ResultRecord`](crate::experiments::ResultRecord)s that
//! `repro --pin <PATH>` regenerates and compares byte for byte.
//!
//! A pin file is one JSON document: the `repro` arguments that shape the
//! records, then the records in run order. No wall time enters it, so an
//! unchanged tree regenerates it exactly; any difference is a changed
//! outcome, to be reviewed with `git diff` and committed on purpose.

/// Schema tag of every pin file.
pub const SCHEMA: &str = "helios-results/1";

/// Compare a fresh rendering with what the pin file at `path` held
/// (`None`: no such file). `Ok` only for the same bytes; otherwise the
/// error names the file and its first differing line. A missing file is
/// a new pin, never a pass.
pub fn check(path: &str, pinned: Option<&str>, rendered: &str) -> Result<(), String> {
    let Some(pinned) = pinned else {
        return Err(format!(
            "{path}: new pin of {} lines",
            rendered.lines().count()
        ));
    };
    if pinned == rendered {
        return Ok(());
    }
    let old: Vec<&str> = pinned.split('\n').collect();
    let new: Vec<&str> = rendered.split('\n').collect();
    let i = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(0);
    let show = |line: Option<&&str>| line.map_or("end of file".to_string(), |l| format!("`{l}`"));
    Err(format!(
        "{path}:{}: pinned {}, this run {}",
        i + 1,
        show(old.get(i)),
        show(new.get(i))
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIN: &str = r#"{
  "schema": "helios-results/1",
  "records": [
    {
      "cluster": "Venus",
      "digest": "47a30949ef4874cc"
    }
  ]
}
"#;

    #[test]
    fn equal_bytes_pass() {
        assert_eq!(check("BENCH_sched.json", Some(PIN), PIN), Ok(()));
    }

    #[test]
    fn a_changed_digest_names_the_file_and_line() {
        let rendered = PIN.replace("47a30949ef4874cc", "47a30949ef4874cd");
        let err = check("BENCH_sched.json", Some(PIN), &rendered).unwrap_err();
        assert_eq!(
            err,
            "BENCH_sched.json:6: pinned `      \"digest\": \"47a30949ef4874cc\"`, \
             this run `      \"digest\": \"47a30949ef4874cd\"`"
        );
    }

    #[test]
    fn a_missing_final_newline_is_a_difference() {
        let err = check("pins.json", Some(PIN), PIN.trim_end()).unwrap_err();
        assert_eq!(err, "pins.json:10: pinned ``, this run end of file");
    }

    #[test]
    fn a_missing_file_is_a_new_pin() {
        let err = check("BENCH_new.json", None, PIN).unwrap_err();
        assert_eq!(err, "BENCH_new.json: new pin of 9 lines");
    }
}

//! CSV import/export of traces, mirroring the schema of the public
//! `HeliosData` release (one row per job with timing, demand, status, name).

use crate::types::{JobRecord, JobStatus, NamePool};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::str::FromStr;

/// CSV header written by [`write_csv`].
pub const CSV_HEADER: &str = "job_id,user,vc,gpus,cpus,submit,start,duration,status,name,run";

/// Serialize jobs to CSV. Each job's name is written as its base name in
/// the `name` column, with its run number in the separate `run` column.
/// Fields are written unquoted, so a job whose base name holds a `,`, `\n`
/// or `\r` is refused with [`io::ErrorKind::InvalidInput`] naming the job,
/// before its row is written; the rows before it are already written.
pub fn write_csv<W: Write>(w: &mut W, jobs: &[JobRecord], names: &NamePool) -> io::Result<()> {
    let mut buf = String::with_capacity(128);
    writeln!(w, "{CSV_HEADER}")?;
    for j in jobs {
        let name = names.base(j.name);
        if name.contains([',', '\n', '\r']) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "job {}: base name {name:?} holds a comma or line break, \
                     which an unquoted CSV field cannot carry",
                    j.id
                ),
            ));
        }
        buf.clear();
        let _ = write!(
            buf,
            "{},{},{},{},{},{},{},{},{},{},{}",
            j.id,
            j.user,
            j.vc,
            j.gpus,
            j.cpus,
            j.submit,
            j.start,
            j.duration,
            j.status.label(),
            name,
            j.run
        );
        writeln!(w, "{buf}")?;
    }
    Ok(())
}

/// Parse error for [`read_csv`].
#[derive(Debug)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace csv parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Errors from [`read_csv`].
#[derive(Debug)]
pub enum ReadError {
    Io(io::Error),
    Parse(ParseError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "{e}"),
            ReadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn perr(line: usize, message: impl Into<String>) -> ReadError {
    ReadError::Parse(ParseError {
        line,
        message: message.into(),
    })
}

/// Column `i` of line `row`, parsed as its field's own type.
fn field<T: FromStr>(fields: &[&str], i: usize, row: usize) -> Result<T, ReadError>
where
    T::Err: std::fmt::Display,
{
    fields[i].parse().map_err(|e| {
        let column = CSV_HEADER.split(',').nth(i).unwrap_or("?");
        perr(row, format!("field {column}: {e}"))
    })
}

/// Deserialize jobs from CSV produced by [`write_csv`]. Names are re-interned
/// (deduplicated) into a fresh [`NamePool`]. Each number is parsed as its
/// field's own type, so a value out of that type's range is a
/// [`ParseError`] naming the line and the column.
pub fn read_csv<R: Read>(r: R) -> Result<(Vec<JobRecord>, NamePool), ReadError> {
    let reader = BufReader::new(r);
    let mut jobs = Vec::new();
    let mut names = NamePool::new();
    let mut intern: HashMap<String, u32> = HashMap::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if lineno == 0 {
            if line.trim() != CSV_HEADER {
                return Err(perr(1, format!("unexpected header: {line}")));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let row = lineno + 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 11 {
            return Err(perr(
                row,
                format!("expected 11 fields, got {}", fields.len()),
            ));
        }
        let status = match fields[8] {
            "completed" => JobStatus::Completed,
            "canceled" => JobStatus::Canceled,
            "failed" => JobStatus::Failed,
            other => return Err(perr(row, format!("unknown status {other:?}"))),
        };
        let name = match intern.get(fields[9]) {
            Some(&id) => id,
            None => {
                let id = names.intern(fields[9].to_string());
                intern.insert(fields[9].to_string(), id);
                id
            }
        };
        jobs.push(JobRecord {
            id: field(&fields, 0, row)?,
            user: field(&fields, 1, row)?,
            vc: field(&fields, 2, row)?,
            gpus: field(&fields, 3, row)?,
            cpus: field(&fields, 4, row)?,
            submit: field(&fields, 5, row)?,
            start: field(&fields, 6, row)?,
            duration: field(&fields, 7, row)?,
            status,
            name,
            run: field(&fields, 10, row)?,
        });
    }
    Ok((jobs, names))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<JobRecord>, NamePool) {
        let mut names = NamePool::new();
        let a = names.intern("train_resnet50_imagenet".into());
        let b = names.intern("extract_frames_kinetics400".into());
        let jobs = vec![
            JobRecord {
                id: 0,
                user: 11,
                vc: 3,
                gpus: 8,
                cpus: 48,
                submit: 100,
                start: 160,
                duration: 3_600,
                status: JobStatus::Completed,
                name: a,
                run: 2,
            },
            JobRecord {
                id: 1,
                user: 12,
                vc: 4,
                gpus: 0,
                cpus: 16,
                submit: 130,
                start: 130,
                duration: 59,
                status: JobStatus::Failed,
                name: b,
                run: 0,
            },
        ];
        (jobs, names)
    }

    #[test]
    fn roundtrip() {
        let (jobs, names) = sample();
        let mut buf = Vec::new();
        write_csv(&mut buf, &jobs, &names).unwrap();
        let (jobs2, names2) = read_csv(buf.as_slice()).unwrap();
        assert_eq!(jobs.len(), jobs2.len());
        for (a, b) in jobs.iter().zip(&jobs2) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.status, b.status);
            assert_eq!(a.duration, b.duration);
            assert_eq!(names.base(a.name), names2.base(b.name));
        }
    }

    #[test]
    fn refuses_a_name_the_reader_would_split() {
        for bad in ["train,resnet", "train\nresnet", "train\rresnet"] {
            let (mut jobs, mut names) = sample();
            jobs[1].name = names.intern(bad.to_string());
            let mut buf = Vec::new();
            let err = write_csv(&mut buf, &jobs, &names).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
            assert!(
                err.to_string().starts_with(&format!("job {}:", jobs[1].id)),
                "{err}"
            );
            // The header and the first job's row are written; the refused
            // row is not.
            let written = String::from_utf8(buf).unwrap();
            assert_eq!(written.lines().count(), 2, "{bad:?}");
            assert!(written.ends_with(",train_resnet50_imagenet,2\n"), "{bad:?}");
        }
    }

    #[test]
    fn dedups_names_on_read() {
        let (mut jobs, names) = sample();
        jobs[1].name = jobs[0].name; // same template twice
        let mut buf = Vec::new();
        write_csv(&mut buf, &jobs, &names).unwrap();
        let (_, names2) = read_csv(buf.as_slice()).unwrap();
        assert_eq!(names2.len(), 1);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("nope\n1,2".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::Parse(_)));
    }

    #[test]
    fn rejects_bad_status() {
        let body = format!("{CSV_HEADER}\n0,1,2,3,4,5,6,7,exploded,x,0\n");
        let err = read_csv(body.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown status"));
    }

    #[test]
    fn rejects_out_of_range_integers() {
        // A VC id one past u16::MAX and a GPU count of 2^32 + 1, which
        // narrowing would read back as VC 0 and 1 GPU.
        for (row, column) in [
            ("0,1,65536,8,4,5,6,7,completed,x,0", "vc"),
            ("0,1,2,4294967297,4,5,6,7,completed,x,0", "gpus"),
        ] {
            let body = format!("{CSV_HEADER}\n{row}\n");
            let Err(ReadError::Parse(err)) = read_csv(body.as_bytes()) else {
                panic!("out-of-range {column} must be refused");
            };
            assert_eq!(err.line, 2, "{err}");
            assert!(
                err.message.starts_with(&format!("field {column}:")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_wrong_field_count() {
        let body = format!("{CSV_HEADER}\n0,1,2\n");
        let err = read_csv(body.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 11 fields"));
    }
}

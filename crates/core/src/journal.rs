//! The crash-safe run journal: one flushed JSON line per completed
//! artifact, so an interrupted `repro` run can resume where it died.
//!
//! # Format (`nanopower-journal/v1`)
//!
//! A journal is a JSON-lines file. The first line is a header recording
//! the run configuration the journal belongs to; every following line is
//! one completed job record:
//!
//! ```text
//! {"schema":"nanopower-journal/v1","csv":false,"names":["table1","table2"]}
//! {"artifact":"table1","status":"ok","digest":"fnv1a:…","duration_ms":0.8,"worker":0,"attempts":1,"timed_out":false,"output":"…"}
//! {"artifact":"table2","status":"error","error":"device: …","duration_ms":1.2,"worker":1,"attempts":3,"timed_out":false}
//! ```
//!
//! Three properties make it crash-safe:
//!
//! - **Append-only, flush-on-write.** [`Journal::record`] serializes the
//!   record, appends it in a single `write`, and `fsync`s the file data
//!   before returning, so a completed artifact survives `SIGKILL` the
//!   moment its worker observes it.
//! - **Truncation-tolerant tail.** A kill mid-write leaves at most one
//!   partial line at the end of the file. [`load`] parses every line it
//!   can and reports a torn tail via [`LoadedJournal::truncated_tail`]
//!   instead of failing; a malformed line *before* the tail is real
//!   corruption and is a typed [`Error::Journal`].
//! - **Self-describing.** The header pins the artifact list and output
//!   form (text vs CSV), so `repro --resume` restores the original
//!   request and refuses to resume a run under a different
//!   configuration.
//!
//! Successful records store the full output text (JSON-escaped) along
//! with its digest: replaying a journal reproduces the run's stdout
//! byte-for-byte without re-rendering, and the digest guards against a
//! corrupted output field masquerading as a completed artifact. Failed
//! records — status `error`, `cancelled`, or `drift`, the
//! [`JobRecord::status`] vocabulary — store only the error message;
//! resume re-runs them. Cancelled placeholders reach the journal like
//! any other record because the engine's `on_record` observer fires for
//! them too, so an interrupted journal accounts for every submitted
//! job.

use crate::engine::{fnv1a64, JobRecord};
use crate::error::Error;
use crate::jsonio::{self, Json};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The journal schema identifier written to (and demanded of) headers.
pub const SCHEMA: &str = "nanopower-journal/v1";

/// The run configuration a journal belongs to, pinned by the header
/// line so a resume cannot silently change the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Whether the run renders CSV forms (`repro --csv`).
    pub csv: bool,
    /// The artifact names of the run, submission order.
    pub names: Vec<String>,
}

/// One journaled record: the subset of [`JobRecord`] the journal
/// persists, with the output kept for successful jobs so replay needs no
/// recomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The artifact name.
    pub name: String,
    /// The rendered output on success, the error message otherwise.
    pub outcome: Result<String, String>,
    /// `fnv1a:…` digest recorded at write time (successes only).
    pub digest: Option<String>,
    /// Wall-clock duration of the journaled record.
    pub duration: Duration,
    /// Worker that ran the job.
    pub worker: usize,
    /// Attempts the job took.
    pub attempts: u32,
    /// Whether the job's final attempt hit the policy deadline.
    pub timed_out: bool,
}

impl JournalEntry {
    /// Whether the journaled job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Whether the stored output still matches the digest recorded when
    /// the entry was written — false means the journal was tampered
    /// with or corrupted in place.
    pub fn digest_matches(&self) -> bool {
        match (&self.outcome, &self.digest) {
            (Ok(text), Some(digest)) => {
                *digest == format!("fnv1a:{:016x}", fnv1a64(text.as_bytes()))
            }
            _ => false,
        }
    }

    /// Reconstructs the engine-side record this entry journaled, for
    /// merging replayed artifacts into a resumed run's report.
    pub fn to_record(&self) -> JobRecord {
        JobRecord {
            name: self.name.clone(),
            outcome: match &self.outcome {
                Ok(text) => Ok(text.clone()),
                Err(msg) => Err(Error::Journal {
                    reason: format!("journaled failure: {msg}"),
                }),
            },
            duration: self.duration,
            worker: self.worker,
            attempts: self.attempts,
            timed_out: self.timed_out,
        }
    }
}

/// An append-mode journal writer with flush-on-write semantics.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes the header
    /// line for `config`.
    ///
    /// # Errors
    ///
    /// [`Error::Journal`] on any I/O failure.
    pub fn create(path: impl AsRef<Path>, config: &JournalConfig) -> Result<Self, Error> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(|e| io_err(&path, "create", &e))?;
        let mut journal = Journal { file, path };
        journal.write_line(&header_line(config))?;
        Ok(journal)
    }

    /// Re-opens an existing journal at `path` for appending (the resume
    /// path; the header is already present). A torn tail line left by a
    /// mid-write kill is truncated away first, so the next record cannot
    /// fuse with the partial bytes into a corrupt line.
    ///
    /// # Errors
    ///
    /// [`Error::Journal`] on any I/O failure.
    pub fn append_to(path: impl AsRef<Path>) -> Result<Self, Error> {
        use std::io::Read;
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, "open", &e))?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)
            .map_err(|e| io_err(&path, "read", &e))?;
        let keep = contents
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        if keep < contents.len() {
            // Append-mode writes always land at the (new) end of file,
            // so truncating here is all the cleanup needed.
            file.set_len(keep as u64)
                .map_err(|e| io_err(&path, "truncate", &e))?;
        }
        Ok(Journal { file, path })
    }

    /// Appends one completed record as a single JSON line and syncs file
    /// data to disk before returning.
    ///
    /// # Errors
    ///
    /// [`Error::Journal`] on any I/O failure.
    pub fn record(&mut self, record: &JobRecord) -> Result<(), Error> {
        self.write_line(&entry_line(record))
    }

    fn write_line(&mut self, line: &str) -> Result<(), Error> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.file
            .write_all(buf.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, "write", &e))
    }
}

/// A parsed journal: header config, every intact entry in file order,
/// and whether the file ended in a torn line.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedJournal {
    /// The run configuration from the header line.
    pub config: JournalConfig,
    /// Every parseable entry, file order. A re-run artifact (journaled
    /// as a failure, then again after resume) appears once per line.
    pub entries: Vec<JournalEntry>,
    /// Whether the final line was torn by a mid-write kill (tolerated:
    /// the line is dropped, everything before it is kept).
    pub truncated_tail: bool,
}

impl LoadedJournal {
    /// The completed (successful, digest-intact) artifacts, by name —
    /// the set `repro --resume` skips. Later lines win, so a failure
    /// journaled after a stale success does not hide it.
    pub fn completed(&self) -> HashMap<&str, &JournalEntry> {
        let mut map: HashMap<&str, &JournalEntry> = HashMap::new();
        for entry in &self.entries {
            if entry.is_ok() && entry.digest_matches() {
                map.insert(entry.name.as_str(), entry);
            } else {
                // A later failure (or corrupted success) invalidates any
                // earlier completion of the same artifact.
                map.remove(entry.name.as_str());
            }
        }
        map
    }
}

/// Loads and validates a journal file, tolerating a torn tail line.
///
/// # Errors
///
/// [`Error::Journal`] when the file cannot be read, the header is
/// missing or malformed, or a *non-tail* line fails to parse (real
/// corruption, as opposed to a mid-write kill).
pub fn load(path: impl AsRef<Path>) -> Result<LoadedJournal, Error> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, "read", &e))?;
    let mut lines = text.split_inclusive('\n');
    let header = lines.next().ok_or_else(|| Error::Journal {
        reason: format!("{}: empty journal (no header line)", path.display()),
    })?;
    if !header.ends_with('\n') {
        // The header itself was torn: nothing usable follows.
        return Err(Error::Journal {
            reason: format!("{}: header line is truncated", path.display()),
        });
    }
    let config = parse_header(header.trim_end()).map_err(|reason| Error::Journal {
        reason: format!("{}: {reason}", path.display()),
    })?;
    let mut entries = Vec::new();
    let mut truncated_tail = false;
    let rest: Vec<&str> = lines.collect();
    for (i, raw) in rest.iter().enumerate() {
        let is_tail = i + 1 == rest.len();
        let complete = raw.ends_with('\n');
        let line = raw.trim_end_matches('\n');
        if line.is_empty() {
            continue;
        }
        match parse_entry(line) {
            Ok(entry) if complete => entries.push(entry),
            // A parseable but newline-less tail still counts as torn:
            // the sync covers up to the previous newline, so the tail
            // may be a prefix of a longer intended line.
            Ok(_) => truncated_tail = true,
            Err(reason) => {
                if is_tail && !complete {
                    truncated_tail = true;
                } else {
                    return Err(Error::Journal {
                        reason: format!("{}: line {}: {reason}", path.display(), i + 2),
                    });
                }
            }
        }
    }
    Ok(LoadedJournal {
        config,
        entries,
        truncated_tail,
    })
}

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> Error {
    Error::Journal {
        reason: format!("cannot {op} {}: {e}", path.display()),
    }
}

fn header_line(config: &JournalConfig) -> String {
    let names: Vec<String> = config.names.iter().map(|n| jsonio::escape(n)).collect();
    format!(
        "{{\"schema\":{},\"csv\":{},\"names\":[{}]}}",
        jsonio::escape(SCHEMA),
        config.csv,
        names.join(",")
    )
}

fn entry_line(record: &JobRecord) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"artifact\":{}", jsonio::escape(&record.name)));
    out.push_str(&format!(",\"status\":\"{}\"", record.status()));
    if let Some(digest) = record.digest() {
        out.push_str(&format!(",\"digest\":\"{digest}\""));
    }
    out.push_str(&format!(
        ",\"duration_ms\":{:.3}",
        record.duration.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(",\"worker\":{}", record.worker));
    out.push_str(&format!(",\"attempts\":{}", record.attempts));
    out.push_str(&format!(",\"timed_out\":{}", record.timed_out));
    match &record.outcome {
        Ok(text) => out.push_str(&format!(",\"output\":{}", jsonio::escape(text))),
        Err(e) => out.push_str(&format!(",\"error\":{}", jsonio::escape(&e.to_string()))),
    }
    out.push('}');
    out
}

/// Parses the line as an object with [`jsonio`], mapping any shape
/// failure to the journal's string-reason errors.
fn parse_fields(line: &str) -> Result<Json, String> {
    let value = jsonio::parse(line)?;
    if value.as_obj().is_none() {
        return Err("line is not a JSON object".into());
    }
    Ok(value)
}

fn parse_header(line: &str) -> Result<JournalConfig, String> {
    let fields = parse_fields(line)?;
    match fields.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unsupported journal schema `{s}`")),
        None => return Err("header has no schema field".into()),
    }
    let csv = fields
        .get("csv")
        .and_then(Json::as_bool)
        .ok_or("header has no csv field")?;
    let names = fields
        .get("names")
        .and_then(Json::as_arr)
        .ok_or("header has no names field")?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "names must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(JournalConfig { csv, names })
}

fn parse_entry(line: &str) -> Result<JournalEntry, String> {
    let fields = parse_fields(line)?;
    let str_field = |key: &str| -> Result<String, String> {
        fields
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let num_field = |key: &str| -> Result<f64, String> {
        fields
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let name = str_field("artifact")?;
    let status = str_field("status")?;
    // `ok` entries carry their output; every non-ok status (`error`,
    // `cancelled`, `drift`, `panicked` — the [`JobRecord::status`]
    // vocabulary) carries the failure message and is re-run on resume.
    let outcome = match status.as_str() {
        "ok" => Ok(str_field("output")?),
        "error" | "cancelled" | "drift" | "panicked" => Err(str_field("error")?),
        other => return Err(format!("unknown status `{other}`")),
    };
    let digest = fields
        .get("digest")
        .and_then(Json::as_str)
        .map(str::to_owned);
    let duration_ms = num_field("duration_ms")?;
    if !(duration_ms.is_finite() && duration_ms >= 0.0) {
        return Err("duration_ms must be a non-negative number".into());
    }
    let timed_out = fields
        .get("timed_out")
        .and_then(Json::as_bool)
        .ok_or("missing boolean field `timed_out`")?;
    Ok(JournalEntry {
        name,
        outcome,
        digest,
        duration: Duration::from_secs_f64(duration_ms / 1e3),
        worker: num_field("worker")? as usize,
        attempts: num_field("attempts")? as u32,
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CancelToken, Job, Session};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "np-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_config() -> JournalConfig {
        JournalConfig {
            csv: false,
            names: vec!["table1".into(), "fig\"quoted\"".into()],
        }
    }

    fn journal_a_run(path: &Path) -> Vec<JobRecord> {
        let jobs = vec![
            Job::new("table1", || Ok("line one\nline, two\n".into())),
            Job::new("fig\"quoted\"", || {
                Err(Error::InvalidParameter("tab\there".into()))
            }),
        ];
        let report = Session::new(jobs).workers(1).run();
        let mut journal = Journal::create(path, &sample_config()).unwrap();
        for record in &report.records {
            journal.record(record).unwrap();
        }
        report.records
    }

    #[test]
    fn round_trips_config_and_records() {
        let path = temp_path("roundtrip");
        let records = journal_a_run(&path);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.config, sample_config());
        assert!(!loaded.truncated_tail);
        assert_eq!(loaded.entries.len(), 2);
        let ok = &loaded.entries[0];
        assert_eq!(ok.name, "table1");
        assert_eq!(ok.outcome.as_deref(), Ok("line one\nline, two\n"));
        assert!(ok.digest_matches());
        assert_eq!(ok.to_record().outcome, records[0].outcome);
        let err = &loaded.entries[1];
        assert_eq!(err.name, "fig\"quoted\"");
        assert!(err.outcome.as_deref().unwrap_err().contains("tab\there"));
        assert!(!err.digest_matches(), "failures carry no digest");
        let completed = loaded.completed();
        assert!(completed.contains_key("table1"));
        assert!(!completed.contains_key("fig\"quoted\""), "failures re-run");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tolerates_a_torn_tail_at_every_offset() {
        let path = temp_path("torn");
        journal_a_run(&path);
        let bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let torn = temp_path("torn-cut");
        for cut in header_end..bytes.len() {
            std::fs::write(&torn, &bytes[..cut]).unwrap();
            let loaded = load(&torn).unwrap_or_else(|e| panic!("cut at byte {cut} must load: {e}"));
            assert!(
                loaded.entries.len() < 2 || !loaded.truncated_tail,
                "cut {cut}: full entries with torn tail is contradictory"
            );
            // Whatever loads must be intact — a torn line never
            // produces a wrong entry, only a missing one.
            for entry in loaded.entries.iter().filter(|e| e.is_ok()) {
                assert!(entry.digest_matches(), "cut {cut}: corrupt entry kept");
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&torn).ok();
    }

    #[test]
    fn torn_header_is_an_error() {
        let path = temp_path("torn-header");
        std::fs::write(&path, "{\"schema\":\"nanopower-journal/v1\",\"cs").unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, Error::Journal { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_middle_line_is_an_error_not_a_skip() {
        let path = temp_path("corrupt-middle");
        journal_a_run(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let garbled = format!("{}GARBAGE", lines[1]);
        lines[1] = &garbled;
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = load(&path).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 2"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_failure_invalidates_earlier_success() {
        let path = temp_path("supersede");
        let mut journal = Journal::create(&path, &sample_config()).unwrap();
        let ok = JobRecord {
            name: "table1".into(),
            outcome: Ok("v1\n".into()),
            duration: Duration::from_millis(1),
            worker: 0,
            attempts: 1,
            timed_out: false,
        };
        journal.record(&ok).unwrap();
        journal
            .record(&JobRecord {
                outcome: Err(Error::Panic("later crash".into())),
                ..ok.clone()
            })
            .unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert!(
            !loaded.completed().contains_key("table1"),
            "latest line wins"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_continues_an_existing_journal() {
        let path = temp_path("append");
        journal_a_run(&path);
        let mut journal = Journal::append_to(&path).unwrap();
        journal
            .record(&JobRecord {
                name: "fig\"quoted\"".into(),
                outcome: Ok("recovered on resume\n".into()),
                duration: Duration::from_millis(2),
                worker: 0,
                attempts: 1,
                timed_out: false,
            })
            .unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 3);
        let completed = loaded.completed();
        assert_eq!(completed.len(), 2, "resume completed the failed one");
        assert_eq!(
            completed["fig\"quoted\""].outcome.as_deref(),
            Ok("recovered on resume\n")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_truncates_a_torn_tail_before_writing() {
        let path = temp_path("append-torn");
        journal_a_run(&path);
        // Simulate a mid-write kill: leave half of a new entry line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"artifact\":\"fig1\",\"sta");
        std::fs::write(&path, &bytes).unwrap();
        let mut journal = Journal::append_to(&path).unwrap();
        journal
            .record(&JobRecord {
                name: "fig1".into(),
                outcome: Ok("after resume\n".into()),
                duration: Duration::from_millis(1),
                worker: 0,
                attempts: 1,
                timed_out: false,
            })
            .unwrap();
        // Without the truncation the torn bytes fuse with the new record
        // into a corrupt middle line and this load fails.
        let loaded = load(&path).unwrap();
        assert!(!loaded.truncated_tail);
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(loaded.entries[2].outcome.as_deref(), Ok("after resume\n"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cancelled_run_journals_placeholder_records() {
        use std::sync::{Arc, Mutex, PoisonError};
        let path = temp_path("cancelled");
        let config = JournalConfig {
            csv: false,
            names: vec!["a".into(), "b".into()],
        };
        let journal = Arc::new(Mutex::new(Journal::create(&path, &config).unwrap()));
        let sink = Arc::clone(&journal);
        let token = CancelToken::new();
        token.cancel();
        let jobs = vec![
            Job::new("a", || Ok("never runs\n".into())),
            Job::new("b", || Ok("never runs\n".into())),
        ];
        let report = Session::new(jobs)
            .workers(1)
            .cancel(token)
            .on_record(move |_, record| {
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record(record)
                    .unwrap();
            })
            .run();
        assert!(report.interrupted);
        drop(journal);
        // The journal covers both never-started jobs with typed
        // cancelled entries, and neither counts as completed.
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        for entry in &loaded.entries {
            assert!(!entry.is_ok());
            assert!(
                entry.outcome.as_deref().unwrap_err().contains("cancelled"),
                "{:?}",
                entry.outcome
            );
        }
        assert!(loaded.completed().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_output_fails_the_digest_check() {
        let path = temp_path("tamper");
        journal_a_run(&path);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("line one", "line 0ne");
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert!(!loaded.entries[0].digest_matches());
        assert!(
            !loaded.completed().contains_key("table1"),
            "tampered entries are not treated as completed"
        );
        std::fs::remove_file(&path).ok();
    }
}

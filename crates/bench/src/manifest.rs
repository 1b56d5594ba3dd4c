//! The durable campaign manifest behind `--resume`.
//!
//! A manifest is an append-only JSONL journal in the resume directory
//! (`manifest.jsonl`): one line per completed job, carrying the job name,
//! an FNV-1a digest of the result's canonical rendering, and the result
//! itself:
//!
//! ```text
//! {"job":"snapshot:compress","digest":"0x00a1b2c3d4e5f607","result":{...}}
//! ```
//!
//! Workers append a line the moment a job succeeds, so a campaign killed
//! at any instant loses at most the jobs in flight. On reopen, finished
//! jobs are skipped and their cached results re-merged **in submission
//! order** — the final artifact is byte-identical whether the campaign
//! ran straight through or was interrupted at any point, at any worker
//! count (results are rendered canonically, and rendering round-trips).
//!
//! Durability rules: a torn trailing line (no terminating newline — the
//! signature of a crash mid-append) is discarded silently; any *complete*
//! line that fails to parse or whose digest does not match its result is
//! corruption and rejects the whole manifest with a typed
//! [`SimError::Checkpoint`] — a resumed campaign never trusts a journal
//! it cannot fully verify.

use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_sim::obs::{json, Json};
use fac_sim::SimError;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// FNV-1a digest of a result's canonical (compact) rendering.
fn digest(rendered: &str) -> u64 {
    fnv1a(FNV_OFFSET, rendered.as_bytes())
}

/// Reads the committed tail of an append-only JSONL journal.
///
/// A torn trailing line (no terminating newline — the signature of a
/// crash mid-append) is truncated away *durably* before parsing, so the
/// next append cannot extend it into a malformed complete line. Every
/// committed, non-blank line must parse as JSON. A missing journal is an
/// empty journal. [`Manifest::open`] reads the campaign manifest
/// through it.
///
/// # Errors
///
/// [`SimError::Io`] when the journal cannot be read or truncated;
/// [`SimError::Checkpoint`] naming the line when a committed line is
/// malformed.
pub fn read_journal_tail(path: &Path) -> Result<Vec<Json>, SimError> {
    let label = path.display().to_string();
    let text = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(SimError::io(&label, e)),
        Ok(text) => text,
    };
    let committed_bytes = text.rfind('\n').map_or(0, |end| end + 1);
    if committed_bytes < text.len() {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| SimError::io(&label, e))?;
        f.set_len(committed_bytes as u64).map_err(|e| SimError::io(&label, e))?;
        f.sync_data().map_err(|e| SimError::io(&label, e))?;
    }
    let mut entries = Vec::new();
    for (lineno, line) in text[..committed_bytes].lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = json::parse(line).map_err(|e| SimError::Checkpoint {
            path: label.clone(),
            reason: format!("line {}: malformed JSON: {e}", lineno + 1),
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

/// A campaign manifest: completed-job journal plus its append handle.
#[derive(Debug)]
pub struct Manifest {
    label: String,
    cached: HashMap<String, Json>,
    sink: Mutex<Sink>,
}

#[derive(Debug)]
struct Sink {
    file: std::fs::File,
    /// First append failure, surfaced at campaign end — results are still
    /// correct, but durability is broken and the run must not claim
    /// success.
    error: Option<SimError>,
}

impl Manifest {
    /// Opens (or creates) the manifest in `dir`, verifying every recorded
    /// result against its digest.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory or journal cannot be accessed;
    /// [`SimError::Checkpoint`] when a complete journal line is malformed
    /// or fails its digest check.
    pub fn open(dir: &Path) -> Result<Manifest, SimError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| SimError::io(&dir.display().to_string(), e))?;
        let path = dir.join("manifest.jsonl");
        let label = path.display().to_string();
        let corrupt = |lineno: usize, why: String| SimError::Checkpoint {
            path: label.clone(),
            reason: format!("line {}: {why}", lineno + 1),
        };

        let mut cached: HashMap<String, Json> = HashMap::new();
        // The torn-tail truncation and per-line parse live in
        // `read_journal_tail`; this loop adds the manifest's semantic
        // checks (digest verification, duplicate handling).
        for (lineno, entry) in read_journal_tail(&path)?.into_iter().enumerate() {
            let job = entry
                .get("job")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt(lineno, "missing 'job' field".to_string()))?;
            let recorded = entry
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| corrupt(lineno, "missing or bad 'digest' field".to_string()))?;
            let result = entry
                .get("result")
                .ok_or_else(|| corrupt(lineno, "missing 'result' field".to_string()))?;
            let actual = digest(&result.to_string());
            if actual != recorded {
                return Err(corrupt(
                    lineno,
                    format!(
                        "result digest mismatch for job '{job}' \
                         (recorded {recorded:#018x}, computed {actual:#018x})"
                    ),
                ));
            }
            // Duplicate lines for one job can appear after a
            // resume race (two workers journaling the same cell).
            // They are idempotent — last writer wins — but only
            // when the digests agree; two *different* results for
            // one cell mean the journal cannot be trusted.
            if let Some(prev) = cached.get(job) {
                let prev_digest = digest(&prev.to_string());
                if prev_digest != recorded {
                    return Err(corrupt(
                        lineno,
                        format!(
                            "conflicting duplicate for job '{job}': earlier line \
                             recorded digest {prev_digest:#018x}, this line \
                             {recorded:#018x}"
                        ),
                    ));
                }
            }
            cached.insert(job.to_string(), result.clone());
        }

        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| SimError::io(&label, e))?;
        Ok(Manifest { label, cached, sink: Mutex::new(Sink { file, error: None }) })
    }

    /// Number of completed jobs carried over from a previous run.
    pub fn len(&self) -> usize {
        self.cached.len()
    }

    /// `true` when no completed jobs were carried over.
    pub fn is_empty(&self) -> bool {
        self.cached.is_empty()
    }

    /// The cached result of a completed job, if any.
    pub fn lookup(&self, job: &str) -> Option<Json> {
        self.cached.get(job).cloned()
    }

    /// Journals a completed job. Called from worker threads the moment a
    /// job succeeds; the line is flushed to the OS immediately so a kill
    /// right after costs nothing. Append failures are latched (first one
    /// wins) and surfaced by [`Manifest::take_error`] — the in-memory
    /// results stay valid either way.
    pub fn record(&self, job: &str, result: &Json) {
        let rendered = result.to_string();
        let mut entry = Json::obj();
        entry.set("job", Json::Str(job.to_string()));
        entry.set("digest", Json::Str(format!("{:#018x}", digest(&rendered))));
        entry.set("result", result.clone());
        let line = format!("{entry}\n");

        let mut sink = self.sink.lock().expect("manifest sink");
        if sink.error.is_some() {
            return;
        }
        if let Err(e) = sink.file.write_all(line.as_bytes()).and_then(|()| sink.file.sync_data())
        {
            sink.error = Some(SimError::io(&self.label, e));
        }
    }

    /// The first append failure, if any — check after the campaign so a
    /// run whose journal is broken does not claim durable success.
    pub fn take_error(&self) -> Option<SimError> {
        self.sink.lock().expect("manifest sink").error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fac_manifest_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn result(v: u64) -> Json {
        let mut o = Json::obj();
        o.set("value", Json::U64(v));
        o
    }

    #[test]
    fn record_then_reopen_round_trips() {
        let dir = temp_dir("rt");
        let m = Manifest::open(&dir).unwrap();
        assert!(m.is_empty());
        m.record("cell:a", &result(1));
        m.record("cell:b", &result(2));
        assert!(m.take_error().is_none());
        drop(m);

        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.lookup("cell:a"), Some(result(1)));
        assert_eq!(m.lookup("cell:b"), Some(result(2)));
        assert_eq!(m.lookup("cell:c"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_line_is_discarded() {
        let dir = temp_dir("torn");
        let m = Manifest::open(&dir).unwrap();
        m.record("cell:a", &result(1));
        drop(m);

        // Simulate a crash mid-append: a partial, unterminated line.
        let path = dir.join("manifest.jsonl");
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"cell:b\",\"dig").unwrap();
        drop(f);

        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.len(), 1, "torn tail must be dropped, committed lines kept");
        assert_eq!(m.lookup("cell:a"), Some(result(1)));

        // The torn tail was truncated on open, so appending stays safe:
        // the journal reopens cleanly with both committed jobs.
        m.record("cell:c", &result(3));
        drop(m);
        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.lookup("cell:c"), Some(result(3)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_complete_line_is_rejected() {
        let dir = temp_dir("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.jsonl"), "this is not json\n").unwrap();
        let err = Manifest::open(&dir).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_result_fails_its_digest() {
        let dir = temp_dir("tamper");
        let m = Manifest::open(&dir).unwrap();
        m.record("cell:a", &result(1));
        drop(m);

        let path = dir.join("manifest.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"value\":1", "\"value\":9")).unwrap();

        let err = Manifest::open(&dir).unwrap_err();
        match err {
            SimError::Checkpoint { reason, .. } => {
                assert!(reason.contains("digest mismatch"), "got: {reason}")
            }
            other => panic!("wrong error kind: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Duplicate lines for the same job (the signature of a resume race)
    /// are idempotent when their digests agree: last writer wins and the
    /// journal still opens.
    #[test]
    fn agreeing_duplicate_lines_are_idempotent() {
        let dir = temp_dir("dup");
        let m = Manifest::open(&dir).unwrap();
        m.record("cell:a", &result(1));
        m.record("cell:b", &result(2));
        // The race: the same cell journaled twice with the same result.
        m.record("cell:a", &result(1));
        drop(m);

        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.len(), 2, "duplicates must collapse to one entry");
        assert_eq!(m.lookup("cell:a"), Some(result(1)));
        assert_eq!(m.lookup("cell:b"), Some(result(2)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two different results journaled for one job is corruption, not a
    /// race — the journal is rejected, never silently resolved.
    #[test]
    fn conflicting_duplicate_lines_are_rejected() {
        let dir = temp_dir("dupconflict");
        let m = Manifest::open(&dir).unwrap();
        m.record("cell:a", &result(1));
        m.record("cell:a", &result(9));
        drop(m);

        let err = Manifest::open(&dir).unwrap_err();
        match err {
            SimError::Checkpoint { reason, .. } => {
                assert!(reason.contains("conflicting duplicate"), "got: {reason}")
            }
            other => panic!("wrong error kind: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The tail reader: a missing journal is empty, committed
    /// lines parse in order, a torn tail is durably truncated, and a
    /// malformed committed line is a typed rejection.
    #[test]
    fn read_journal_tail_truncates_and_parses() {
        let dir = temp_dir("tail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        assert!(read_journal_tail(&path).unwrap().is_empty(), "missing journal is empty");

        std::fs::write(&path, "{\"event\":\"dispatch\",\"job\":\"a\"}\n\n{\"event\":\"done\",\"job\":\"a\"}\n{\"event\":\"disp").unwrap();
        let entries = read_journal_tail(&path).unwrap();
        assert_eq!(entries.len(), 2, "blank lines skipped, torn tail dropped");
        assert_eq!(entries[0].get("event").and_then(Json::as_str), Some("dispatch"));
        assert_eq!(entries[1].get("event").and_then(Json::as_str), Some("done"));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.ends_with("\"job\":\"a\"}\n"), "torn tail truncated on disk");

        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(read_journal_tail(&path), Err(SimError::Checkpoint { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_fields_are_rejected() {
        let dir = temp_dir("fields");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.jsonl"), "{\"job\":\"x\"}\n").unwrap();
        assert!(matches!(Manifest::open(&dir), Err(SimError::Checkpoint { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The content-addressed on-disk result store.
//!
//! One file per finished cell, named by the cell's content address
//! (`{key:016x}.cell`). Each file is a self-describing, tamper-evident
//! frame mirroring the `FACSNAP` checkpoint container:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"FACCELL\0"` |
//! | 8      | 4    | format version (little-endian u32, currently 1) |
//! | 12     | 8    | payload length (little-endian u64) |
//! | 20     | n    | payload: key `u64` + length-prefixed JSON result |
//! | 20 + n | 8    | FNV-1a checksum of the payload (little-endian u64) |
//!
//! The payload embeds the key so a file renamed over another cell's slot
//! (or a collision in a copy script) is caught, not served. Writes go
//! through [`crate::io::write_atomic`], so a crash mid-`put` leaves
//! either the old entry or no entry — never a torn frame.
//!
//! Corruption is a first-class outcome, not an error: a frame that fails
//! any check is *quarantined* (renamed into a `quarantine/` subdirectory
//! with a reason note alongside) and reported as such, so the server
//! recomputes the cell transparently and the damaged bytes stay
//! available for post-mortem.

use crate::io::{write_atomic_via, Fs, RealFs};
use fac_core::snap::{fnv1a, SnapError, SnapReader, SnapWriter, FNV_OFFSET};
use fac_sim::obs::{json, Json};
use fac_sim::SimError;
use std::path::{Path, PathBuf};

/// File magic: identifies a campaign-server cell result.
const MAGIC: &[u8; 8] = b"FACCELL\0";
/// Current cell frame format version.
const VERSION: u32 = 1;
/// Bytes of framing around the payload (magic + version + length + checksum).
const OVERHEAD: usize = 8 + 4 + 8 + 8;
/// The largest payload a frame may claim. A result document is a few KiB;
/// anything bigger is corruption and must not drive an allocation.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;
/// The most quarantined entries kept for post-mortem. Under sustained
/// corruption (a dying disk, a chaos plan) the quarantine directory must
/// not grow without bound; beyond the cap the oldest entries — and any
/// orphaned `.reason` notes — are swept.
pub const QUARANTINE_CAP: usize = 64;

/// Why a frame failed verification: the specific check that tripped plus
/// its human-readable detail. The check name lands verbatim in the
/// quarantine `.reason` note, so corruption triage (is the disk flipping
/// bits, or did someone copy a frame under the wrong key?) reads straight
/// off the note instead of requiring a rerun with `--events`.
#[derive(Debug)]
pub struct CellFault {
    /// The failing check: `truncated`, `magic`, `version`, `length`,
    /// `checksum`, `key`, `payload`, `utf8`, or `json`.
    pub check: &'static str,
    /// The detail, as reported by the decoder.
    pub error: SnapError,
}

impl CellFault {
    fn new(check: &'static str, error: SnapError) -> CellFault {
        CellFault { check, error }
    }
}

impl std::fmt::Display for CellFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} check failed: {}", self.check, self.error)
    }
}

/// What [`Store::get`] found.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry: checksum, embedded key, and JSON all check out.
    Hit(Json),
    /// No entry on disk for this key.
    Miss,
    /// An entry existed but failed verification; it has been moved into
    /// the quarantine directory and the cell must be recomputed.
    Quarantined(CellFault),
}

/// What one [`Store::scrub_key`] probe found.
#[derive(Debug)]
pub enum Scrub {
    /// The frame verified end to end.
    Clean,
    /// No frame on disk (entry served and evicted, or never written).
    Missing,
    /// The frame failed verification and was quarantined.
    Corrupt(CellFault),
}

/// The content-addressed cell store rooted at one directory.
pub struct Store {
    dir: PathBuf,
    /// The filesystem the store's durability-critical operations go
    /// through — [`RealFs`] in production, a
    /// [`crate::chaos::ChaosFs`] under fault injection.
    fs: Box<dyn Fs>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Store, SimError> {
        Store::open_with(dir, Box::new(RealFs))
    }

    /// Opens the store with an explicit filesystem — the seam fault
    /// injection hooks into. Also sweeps an over-full quarantine
    /// directory left by a previous run.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be created.
    pub fn open_with(dir: &Path, fs: Box<dyn Fs>) -> Result<Store, SimError> {
        fs.create_dir_all(dir).map_err(|e| SimError::io(&dir.display().to_string(), e))?;
        let store = Store { dir: dir.to_path_buf(), fs };
        store.sweep_quarantine();
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of a cell.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cell"))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Serializes a cell result into a framed entry.
    fn encode(key: u64, result: &Json) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(key);
        w.bytes(result.to_string().as_bytes());
        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        out
    }

    /// Verifies a framed entry and returns the result document, or the
    /// first failing check.
    fn decode(key: u64, bytes: &[u8]) -> Result<Json, CellFault> {
        if bytes.len() < OVERHEAD {
            return Err(CellFault::new(
                "truncated",
                SnapError::new(format!(
                    "truncated cell entry: {} bytes, need at least {OVERHEAD}",
                    bytes.len()
                )),
            ));
        }
        if &bytes[..8] != MAGIC {
            return Err(CellFault::new("magic", SnapError::new("not a FACCELL entry (bad magic)")));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(CellFault::new(
                "version",
                SnapError::new(format!(
                    "unsupported cell entry version {version} (this build reads version {VERSION})"
                )),
            ));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let held = (bytes.len() - OVERHEAD) as u64;
        if len != held {
            return Err(CellFault::new(
                "length",
                SnapError::new(format!(
                    "cell entry length mismatch: header claims {len} payload bytes, file holds {held}"
                )),
            ));
        }
        if len > MAX_PAYLOAD as u64 {
            return Err(CellFault::new(
                "length",
                SnapError::new(format!(
                    "implausible cell payload of {len} bytes (limit {MAX_PAYLOAD})"
                )),
            ));
        }
        let payload = &bytes[20..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a(FNV_OFFSET, payload);
        if stored != computed {
            return Err(CellFault::new(
                "checksum",
                SnapError::new(format!(
                    "cell checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )),
            ));
        }
        let mut r = SnapReader::new(payload);
        let embedded = r.u64("cell key").map_err(|e| CellFault::new("payload", e))?;
        if embedded != key {
            return Err(CellFault::new(
                "key",
                SnapError::new(format!(
                    "cell key mismatch: file embeds {embedded:#018x}, path names {key:#018x}"
                )),
            ));
        }
        let doc = r.bytes("cell result").map_err(|e| CellFault::new("payload", e))?;
        r.finish().map_err(|e| CellFault::new("payload", e))?;
        let text = std::str::from_utf8(doc)
            .map_err(|_| CellFault::new("utf8", SnapError::new("cell result is not valid UTF-8")))?;
        json::parse(text).map_err(|e| {
            CellFault::new("json", SnapError::new(format!("cell result is not valid JSON: {e}")))
        })
    }

    /// Looks up a cell. A verified entry is a [`Lookup::Hit`]; a missing
    /// file is a [`Lookup::Miss`]; anything that fails verification is
    /// moved into `quarantine/` and returned as [`Lookup::Quarantined`].
    /// Safe to call from many threads at once: when several readers meet
    /// the same corrupt frame, one quarantines it and the rest see a miss.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] only for real I/O failures (permissions, disk) —
    /// never for corruption, which is handled, not raised.
    pub fn get(&self, key: u64) -> Result<Lookup, SimError> {
        let path = self.entry_path(key);
        let bytes = match self.fs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Lookup::Miss),
            Err(e) => return Err(SimError::io(&path.display().to_string(), e)),
        };
        match Store::decode(key, &bytes) {
            Ok(doc) => Ok(Lookup::Hit(doc)),
            Err(fault) => Ok(match self.quarantine(key, &path, &fault, "read-path")? {
                true => Lookup::Quarantined(fault),
                false => Lookup::Miss,
            }),
        }
    }

    /// The keys of every committed entry, sorted — the deterministic walk
    /// order `store_scrub` uses. Files whose names are not `{16 hex}.cell`
    /// are not store entries and are skipped.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be read.
    pub fn keys(&self) -> Result<Vec<u64>, SimError> {
        let iter = std::fs::read_dir(&self.dir)
            .map_err(|e| SimError::io(&self.dir.display().to_string(), e))?;
        let mut keys: Vec<u64> = iter
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                let hex = name.strip_suffix(".cell")?;
                (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok()).flatten()
            })
            .collect();
        keys.sort_unstable();
        Ok(keys)
    }

    /// Re-verifies one frame in place — `store_scrub`'s anti-entropy probe.
    /// A frame that fails any check is quarantined exactly as a read-path
    /// failure would be, with `component=scrubber` provenance in its
    /// `.reason` note; the next request for the cell sees a miss and
    /// recomputes it transparently.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] only for real I/O failures — corruption is a
    /// handled [`Scrub::Corrupt`] outcome, never an error.
    pub fn scrub_key(&self, key: u64) -> Result<Scrub, SimError> {
        let path = self.entry_path(key);
        let bytes = match self.fs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Scrub::Missing),
            Err(e) => return Err(SimError::io(&path.display().to_string(), e)),
        };
        match Store::decode(key, &bytes) {
            Ok(_) => Ok(Scrub::Clean),
            Err(fault) => Ok(match self.quarantine(key, &path, &fault, "scrubber")? {
                true => Scrub::Corrupt(fault),
                false => Scrub::Missing,
            }),
        }
    }

    /// Moves a failed entry into the quarantine directory and writes a
    /// `.reason` note beside it for post-mortem, then enforces the
    /// quarantine cap so sustained corruption cannot fill the disk. The
    /// note's first line carries machine-readable provenance — detecting
    /// component, failing check, and store key — and the second the
    /// decoder's detail. Returns `false` when the frame was already gone:
    /// a concurrent reader of the same corrupt frame quarantined it first.
    fn quarantine(
        &self,
        key: u64,
        path: &Path,
        fault: &CellFault,
        component: &str,
    ) -> Result<bool, SimError> {
        let qdir = self.quarantine_dir();
        self.fs
            .create_dir_all(&qdir)
            .map_err(|e| SimError::io(&qdir.display().to_string(), e))?;
        let dest = qdir.join(format!("{key:016x}.cell"));
        match self.fs.rename(path, &dest) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(SimError::io(&path.display().to_string(), e)),
        }
        // Best-effort: the note is diagnostics, not integrity.
        let note = format!(
            "component={component} check={} key={key:#018x}\n{}\n",
            fault.check, fault.error
        );
        self.fs.write(&qdir.join(format!("{key:016x}.reason")), note.as_bytes()).ok();
        self.sweep_quarantine();
        Ok(true)
    }

    /// Bounds the quarantine directory: keeps the newest
    /// [`QUARANTINE_CAP`] `.cell` entries (plus their `.reason` notes),
    /// removes everything older, and removes orphaned `.reason` files
    /// whose entry is gone. Best-effort — a sweep failure only means the
    /// next sweep has more to do.
    pub fn sweep_quarantine(&self) {
        let qdir = self.quarantine_dir();
        let Ok(iter) = std::fs::read_dir(&qdir) else { return };
        let mut cells: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        let mut reasons: Vec<PathBuf> = Vec::new();
        for entry in iter.flatten() {
            let path = entry.path();
            match path.extension() {
                Some(e) if e == "cell" => {
                    let mtime = entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    cells.push((mtime, path));
                }
                Some(e) if e == "reason" => reasons.push(path),
                _ => {}
            }
        }
        let mut removed = 0usize;
        if cells.len() > QUARANTINE_CAP {
            cells.sort(); // oldest first; path breaks mtime ties deterministically
            for (_, path) in cells.drain(..cells.len() - QUARANTINE_CAP) {
                std::fs::remove_file(path.with_extension("reason")).ok();
                if std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            }
        }
        let kept: std::collections::HashSet<PathBuf> =
            cells.into_iter().map(|(_, p)| p.with_extension("reason")).collect();
        for reason in reasons {
            if !kept.contains(&reason) && std::fs::remove_file(&reason).is_ok() {
                removed += 1;
            }
        }
        if removed > 0 {
            eprintln!(
                "campaign-store: swept {removed} quarantined file(s) beyond the \
                 {QUARANTINE_CAP}-entry cap from {}",
                qdir.display()
            );
        }
    }

    /// Writes a cell atomically (temporary file + fsync + rename).
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the write fails; the store is unchanged.
    pub fn put(&self, key: u64, result: &Json) -> Result<(), SimError> {
        write_atomic_via(self.fs.as_ref(), &self.entry_path(key), &Store::encode(key, result))
    }

    /// Counts the committed entries (quarantined files excluded).
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be read.
    pub fn len(&self) -> Result<usize, SimError> {
        let mut n = 0;
        let iter = std::fs::read_dir(&self.dir)
            .map_err(|e| SimError::io(&self.dir.display().to_string(), e))?;
        for entry in iter.flatten() {
            if entry.path().extension().is_some_and(|e| e == "cell") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// `true` when the store holds no committed entries.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be read.
    pub fn is_empty(&self) -> Result<bool, SimError> {
        Ok(self.len()? == 0)
    }

    /// Counts the quarantined entries.
    pub fn quarantined(&self) -> usize {
        std::fs::read_dir(self.quarantine_dir())
            .map(|iter| {
                iter.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Fsyncs the store directory itself, making the directory entries of
    /// every committed cell durable (the graceful-drain final step).
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] when the directory cannot be opened or synced.
    pub fn sync(&self) -> Result<(), SimError> {
        let err = |e: std::io::Error| SimError::io(&self.dir.display().to_string(), e);
        let dir = std::fs::File::open(&self.dir).map_err(err)?;
        dir.sync_all().map_err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("fac_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn doc(cycles: u64) -> Json {
        let mut d = Json::obj();
        d.set("cycles", Json::U64(cycles));
        d
    }

    #[test]
    fn put_get_round_trips() {
        let (dir, store) = temp_store("rt");
        assert!(matches!(store.get(7).unwrap(), Lookup::Miss));
        store.put(7, &doc(1234)).unwrap();
        match store.get(7).unwrap() {
            Lookup::Hit(d) => assert_eq!(d.to_string(), doc(1234).to_string()),
            other => panic!("{other:?}"),
        }
        assert_eq!(store.len().unwrap(), 1);
        store.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_byte_flip_is_quarantined() {
        let (dir, store) = temp_store("flip");
        store.put(42, &doc(99)).unwrap();
        let path = store.entry_path(42);
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            match store.get(42).unwrap() {
                Lookup::Quarantined(_) => {}
                other => panic!("flip at byte {i} survived: {other:?}"),
            }
            // The entry is gone from the main directory...
            assert!(matches!(store.get(42).unwrap(), Lookup::Miss), "flip at byte {i}");
            // ...and preserved in quarantine.
            assert_eq!(store.quarantined(), 1, "flip at byte {i}");
            std::fs::remove_dir_all(dir.join("quarantine")).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncations_and_key_swaps_are_quarantined() {
        let (dir, store) = temp_store("trunc");
        store.put(1, &doc(5)).unwrap();
        let good = std::fs::read(store.entry_path(1)).unwrap();

        // Truncated frame.
        std::fs::write(store.entry_path(1), &good[..good.len() - 3]).unwrap();
        assert!(matches!(store.get(1).unwrap(), Lookup::Quarantined(_)));

        // A valid frame copied under the wrong key.
        std::fs::write(store.entry_path(2), &good).unwrap();
        match store.get(2).unwrap() {
            Lookup::Quarantined(e) => assert!(e.to_string().contains("key mismatch"), "{e}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(store.quarantined(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sustained corruption — every lookup quarantining a fresh key —
    /// must not grow the quarantine directory without bound.
    #[test]
    fn quarantine_growth_is_bounded() {
        let (dir, store) = temp_store("bounded");
        for key in 0..(QUARANTINE_CAP as u64 + 40) {
            store.put(key, &doc(key)).unwrap();
            let path = store.entry_path(key);
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(store.get(key).unwrap(), Lookup::Quarantined(_)), "key {key}");
        }
        assert!(
            store.quarantined() <= QUARANTINE_CAP,
            "quarantine grew to {} entries (cap {QUARANTINE_CAP})",
            store.quarantined()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reopening a store sweeps an over-full quarantine directory left by
    /// a previous run, including orphaned `.reason` notes.
    #[test]
    fn open_sweeps_stale_quarantine() {
        let dir = std::env::temp_dir().join(format!("fac_store_sweep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        for i in 0..(QUARANTINE_CAP + 30) {
            std::fs::write(qdir.join(format!("{i:016x}.cell")), b"junk").unwrap();
            std::fs::write(qdir.join(format!("{i:016x}.reason")), b"why").unwrap();
        }
        // Stale notes whose entries are long gone.
        for i in 0..5 {
            std::fs::write(qdir.join(format!("orphan{i}.reason")), b"stale").unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert!(store.quarantined() <= QUARANTINE_CAP, "{}", store.quarantined());
        let reasons = std::fs::read_dir(&qdir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "reason"))
            .count();
        assert!(reasons <= QUARANTINE_CAP, "{reasons} reason notes survive the sweep");
        assert!(
            !qdir.join("orphan0.reason").exists(),
            "orphaned reason notes must be swept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `.reason` note names the detecting component, the failing
    /// check, and the store key — triage without `--events`.
    #[test]
    fn quarantine_reasons_carry_provenance() {
        let (dir, store) = temp_store("prov");
        store.put(0xabcd, &doc(1)).unwrap();
        let path = store.entry_path(0xabcd);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match store.get(0xabcd).unwrap() {
            Lookup::Quarantined(fault) => assert_eq!(fault.check, "checksum", "{fault}"),
            other => panic!("{other:?}"),
        }
        let note =
            std::fs::read_to_string(dir.join("quarantine/000000000000abcd.reason")).unwrap();
        let header = note.lines().next().unwrap();
        assert_eq!(header, "component=read-path check=checksum key=0x000000000000abcd");
        assert!(note.lines().nth(1).unwrap().contains("checksum mismatch"), "{note}");

        // A key swap is a different check, same provenance shape.
        let good = {
            store.put(5, &doc(2)).unwrap();
            std::fs::read(store.entry_path(5)).unwrap()
        };
        std::fs::write(store.entry_path(6), &good).unwrap();
        match store.get(6).unwrap() {
            Lookup::Quarantined(fault) => assert_eq!(fault.check, "key"),
            other => panic!("{other:?}"),
        }
        let note =
            std::fs::read_to_string(dir.join("quarantine/0000000000000006.reason")).unwrap();
        assert!(note.starts_with("component=read-path check=key key=0x0000000000000006"), "{note}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The scrubber walk: sorted keys, in-place verification, corrupt
    /// frames quarantined with `component=scrubber` provenance, and a
    /// clean second pass after recompute.
    #[test]
    fn scrub_detects_quarantines_and_comes_back_clean() {
        let (dir, store) = temp_store("scrub");
        for key in [3u64, 1, 2] {
            store.put(key, &doc(key * 10)).unwrap();
        }
        assert_eq!(store.keys().unwrap(), vec![1, 2, 3]);

        // A fault-free pass is all Clean.
        for key in store.keys().unwrap() {
            assert!(matches!(store.scrub_key(key).unwrap(), Scrub::Clean), "key {key}");
        }

        // Flip one byte in the middle of frame 2 — the scrubber must
        // catch it, quarantine it, and say who found it.
        let path = store.entry_path(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match store.scrub_key(2).unwrap() {
            Scrub::Corrupt(fault) => assert_eq!(fault.check, "checksum"),
            other => panic!("{other:?}"),
        }
        assert_eq!(store.quarantined(), 1);
        let note =
            std::fs::read_to_string(dir.join("quarantine/0000000000000002.reason")).unwrap();
        assert!(
            note.starts_with("component=scrubber check=checksum key=0x0000000000000002"),
            "{note}"
        );

        // The quarantined frame reads as a miss → transparent recompute —
        // and the recomputed frame scrubs clean.
        assert!(matches!(store.get(2).unwrap(), Lookup::Miss));
        assert!(matches!(store.scrub_key(2).unwrap(), Scrub::Missing));
        store.put(2, &doc(20)).unwrap();
        for key in store.keys().unwrap() {
            assert!(matches!(store.scrub_key(key).unwrap(), Scrub::Clean), "key {key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The server reads the store without a lock, so several threads can
    /// meet one corrupt frame at once. Exactly one of them quarantines it;
    /// the rest see a miss, never an I/O error, and the quarantine holds
    /// one frame and one note.
    #[test]
    fn concurrent_readers_quarantine_a_corrupt_frame_once() {
        let (dir, store) = temp_store("race");
        let path = store.entry_path(9);
        for round in 0..20 {
            store.put(9, &doc(round)).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let gate = std::sync::Barrier::new(8);
            let outcomes: Vec<Result<Lookup, SimError>> = std::thread::scope(|s| {
                let readers: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            gate.wait();
                            store.get(9)
                        })
                    })
                    .collect();
                readers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let mut quarantined = 0;
            for outcome in outcomes {
                match outcome {
                    Ok(Lookup::Quarantined(_)) => quarantined += 1,
                    Ok(Lookup::Miss) => {}
                    other => panic!("round {round}: {other:?}"),
                }
            }
            assert_eq!(quarantined, 1, "round {round}");
            let mut names: Vec<String> = std::fs::read_dir(dir.join("quarantine"))
                .unwrap()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            let want = ["0000000000000009.cell", "0000000000000009.reason"];
            assert_eq!(names, want, "round {round}");
            std::fs::remove_dir_all(dir.join("quarantine")).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recompute_after_quarantine_restores_the_entry() {
        let (dir, store) = temp_store("requick");
        store.put(3, &doc(7)).unwrap();
        let path = store.entry_path(3);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.get(3).unwrap(), Lookup::Quarantined(_)));
        store.put(3, &doc(7)).unwrap();
        assert!(matches!(store.get(3).unwrap(), Lookup::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}

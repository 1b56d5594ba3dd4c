//! Atomic artifact writes and the filesystem seam for fault injection.
//!
//! Every durable artifact the benchmark layer produces — `--json`
//! documents, fuzz repros, chrome traces — goes through [`write_atomic`]:
//! the bytes land in a hidden temporary file in the same directory, are
//! fsynced, and only then renamed over the destination. A crash (or a
//! plain I/O failure) at any point leaves the previous artifact intact;
//! readers never observe a half-written file.
//!
//! The primitive operations behind that sequence (and behind the
//! content-addressed store in `serve::store`) are factored into the small
//! [`Fs`] trait so the chaos harness ([`crate::chaos::ChaosFs`]) can
//! inject ENOSPC, short writes, fsync failures, and rename loss without
//! touching any production code path. [`RealFs`] is the pass-through
//! implementation used everywhere by default.

use fac_sim::SimError;
use std::io::Write;
use std::path::Path;

/// The filesystem operations the durability layer depends on.
///
/// This is the seam chaos testing hooks into: the store and the atomic
/// writer only ever touch disk through these five methods, so a fault
/// plan wrapped around them exercises exactly the failure surface a real
/// flaky disk would. Implementations must be shareable across threads
/// (`&self` receivers, `Sync`): the `--resume` pool workers share one
/// store without a lock.
pub trait Fs: Send + Sync {
    /// Reads the entire contents of `path`.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Creates (or truncates) `path` and writes `bytes` to it. A chaotic
    /// implementation may persist only a prefix — that is precisely the
    /// torn-write scenario the store's checksums exist to catch.
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Flushes `path`'s contents to stable storage (`fsync`).
    fn sync(&self, path: &Path) -> std::io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;
}

/// The real filesystem: every [`Fs`] method maps 1:1 onto `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl Fs for RealFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> std::io::Result<()> {
        std::fs::OpenOptions::new().read(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// Writes `bytes` to `path` atomically (temporary file + fsync + rename).
///
/// # Errors
///
/// [`SimError::Io`] carrying the destination path when any step fails; on
/// failure the destination is untouched (the temporary file may remain
/// and is overwritten by the next attempt).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    write_atomic_via(&RealFs, path, bytes)
}

/// [`write_atomic`] routed through an explicit [`Fs`] — the store uses
/// this so an injected [`crate::chaos::ChaosFs`] covers its commit path.
///
/// # Errors
///
/// [`SimError::Io`] carrying the destination path when any step fails.
pub fn write_atomic_via(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    let label = path.display().to_string();
    let err = |e: std::io::Error| SimError::io(&label, e);
    let file_name = path
        .file_name()
        .ok_or_else(|| err(std::io::Error::other("path has no file name")))?
        .to_string_lossy();
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));

    fs.write(&tmp, bytes).map_err(err)?;
    fs.sync(&tmp).map_err(err)?;
    fs.rename(&tmp, path).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fac_io_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An [`Fs`] that stages data faithfully but fails the publishing
    /// rename — the "crash between fsync and rename" window.
    struct FailRename;

    impl Fs for FailRename {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealFs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealFs.write(path, bytes)
        }
        fn sync(&self, path: &Path) -> std::io::Result<()> {
            RealFs.sync(path)
        }
        fn rename(&self, _from: &Path, _to: &Path) -> std::io::Result<()> {
            Err(std::io::Error::other("simulated crash before rename"))
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(path)
        }
    }

    #[test]
    fn writes_and_overwrites() {
        let dir = temp_dir("rw");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":1}");
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":2}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write interrupted after the data is staged but before the rename
    /// publishes it leaves the previous artifact byte-identical — the
    /// crash-safety property the whole module exists for.
    #[test]
    fn interrupted_write_leaves_old_artifact_intact() {
        let dir = temp_dir("torn");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"old contents").unwrap();

        let err = write_atomic_via(&FailRename, &path, b"new contents").unwrap_err();
        assert!(matches!(err, SimError::Io { .. }), "got {err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"old contents", "artifact was torn");

        // The next attempt recovers without manual cleanup.
        write_atomic(&path, b"new contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_destination_is_a_typed_error() {
        let missing = std::path::Path::new("/nonexistent-dir-for-fac/artifact.json");
        assert!(matches!(write_atomic(missing, b"x"), Err(SimError::Io { .. })));
    }
}

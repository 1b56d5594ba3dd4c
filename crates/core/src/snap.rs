//! A tiny self-describing byte codec for machine state snapshots.
//!
//! The crash-safety layer (`fac-sim`'s checkpoint files, `fac-bench`'s
//! result store) needs to persist simulator state without pulling in an
//! external serialization crate. This module is the shared primitive: a
//! length-checked little-endian writer/reader pair plus the FNV-1a hash
//! used both as an integrity checksum over snapshot and store payloads and
//! to derive the store's content addresses.
//!
//! Every `read_*` call is bounds-checked: a truncated or corrupted buffer
//! surfaces as a typed [`SnapError`] naming what was being decoded, never
//! as a panic or a silently wrong value.
//!
//! ```
//! use fac_core::snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.u32(0xdead_beef);
//! w.bytes(b"payload");
//! let buf = w.into_bytes();
//!
//! let mut r = SnapReader::new(&buf);
//! assert_eq!(r.u32("word").unwrap(), 0xdead_beef);
//! assert_eq!(r.bytes("blob").unwrap(), b"payload");
//! r.finish().unwrap();
//! ```

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`]). Chain calls to hash discontiguous data.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A decode failure: the buffer was truncated, oversized, or held a value
/// the decoder cannot honour. Carries a human-readable reason naming the
/// field being decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// What went wrong, and on which field.
    pub reason: String,
}

impl SnapError {
    /// A decode error with the given reason.
    pub fn new(reason: impl Into<String>) -> SnapError {
        SnapError { reason: reason.into() }
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for SnapError {}

/// Appends little-endian scalars and length-prefixed byte strings to a
/// growable buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length as a `u64`.
    pub fn len_of(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len_of(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Decodes a [`SnapWriter`] buffer, bounds-checking every read.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::new(format!(
                "truncated while decoding {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is an error (corruption
    /// must never decode to a valid value).
    pub fn bool(&mut self, what: &str) -> Result<bool, SnapError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("bad bool byte {b:#04x} decoding {what}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self, what: &str) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Reads a collection length and checks it against `max` (a corrupt
    /// length must not trigger a huge allocation).
    pub fn len_of(&mut self, max: usize, what: &str) -> Result<usize, SnapError> {
        let n = self.u64(what)?;
        if n > max as u64 {
            return Err(SnapError::new(format!(
                "implausible length {n} decoding {what} (limit {max})"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], SnapError> {
        let n = self.len_of(self.remaining(), what)?;
        self.take(n, what)
    }

    /// Asserts the buffer was consumed exactly — trailing garbage is
    /// corruption, not padding.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::new(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.i32(-42);
        w.u64(u64::MAX);
        w.bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.i32("d").unwrap(), -42);
        assert_eq!(r.u64("e").unwrap(), u64::MAX);
        assert_eq!(r.bytes("f").unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let buf = w.into_bytes();
        let mut r = SnapReader::new(&buf[..3]);
        let err = r.u64("field").unwrap_err();
        assert!(err.reason.contains("field"), "{err}");
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = SnapReader::new(&[2]);
        assert!(r.bool("flag").is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let buf = w.into_bytes();
        assert!(SnapReader::new(&buf).len_of(1024, "entries").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let r = SnapReader::new(&[0]);
        assert!(r.finish().is_err());
    }

    #[test]
    fn fnv1a_is_stable_and_chainable() {
        let whole = fnv1a(FNV_OFFSET, b"hello world");
        let split = fnv1a(fnv1a(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, split);
        // Pinned value: the checksum lives in committed artifacts.
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

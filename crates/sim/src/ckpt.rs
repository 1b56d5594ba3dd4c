//! Checkpoint framing: the container around a serialized machine state.
//!
//! A snapshot file is self-describing and tamper-evident:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"FACSNAP\0"` |
//! | 8      | 4    | format version (little-endian u32, currently 1) |
//! | 12     | 8    | payload length (little-endian u64) |
//! | 20     | n    | payload (see [`crate::Session::checkpoint`]) |
//! | 20 + n | 8    | FNV-1a checksum of the payload (little-endian u64) |
//!
//! The payload itself opens with two fingerprints — FNV-1a digests of the
//! machine configuration and of the program — so a snapshot can only be
//! restored into the exact (configuration, program) pair that produced it.
//! Everything after the fingerprints is the field-by-field machine state
//! written with [`fac_core::snap::SnapWriter`].
//!
//! Any deviation — wrong magic, unknown version, truncation, trailing
//! bytes, checksum mismatch, fingerprint mismatch, or an implausible field
//! while decoding — is rejected with a typed error before any simulation
//! state is touched.

use crate::checker::InvariantChecker;
use crate::exec::ArchState;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;
use crate::MachineConfig;
use fac_asm::Program;
use fac_core::snap::{fnv1a, SnapError, SnapReader, SnapWriter, FNV_OFFSET};
use fac_mem::{CacheStats, TlbStats};

/// File magic: identifies a fast-address-calculation machine snapshot.
pub(crate) const MAGIC: &[u8; 8] = b"FACSNAP\0";
/// Current snapshot format version.
pub(crate) const VERSION: u32 = 1;
/// Bytes of framing around the payload (magic + version + length + checksum).
const OVERHEAD: usize = 8 + 4 + 8 + 8;

/// Wraps a payload in the snapshot container (magic, version, length,
/// payload, checksum).
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(FNV_OFFSET, payload).to_le_bytes());
    out
}

/// Validates the container and returns the payload slice.
pub(crate) fn unframe(bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < OVERHEAD {
        return Err(SnapError::new(format!(
            "truncated snapshot: {} bytes, need at least {OVERHEAD}",
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        return Err(SnapError::new("not a FACSNAP snapshot (bad magic)".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapError::new(format!(
            "unsupported snapshot version {version} (this build reads version {VERSION})"
        )));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let expected = (bytes.len() - OVERHEAD) as u64;
    if len != expected {
        return Err(SnapError::new(format!(
            "snapshot length mismatch: header claims {len} payload bytes, file holds {expected}"
        )));
    }
    let payload = &bytes[20..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = fnv1a(FNV_OFFSET, payload);
    if stored != computed {
        return Err(SnapError::new(format!(
            "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(payload)
}

/// FNV-1a digest of the machine configuration's canonical rendering. The
/// configuration is plain `Copy` data (no maps), so its `Debug` output is
/// deterministic and captures every timing-relevant knob.
///
/// Public because the campaign server keys its content-addressed result
/// cache on (configuration fingerprint × program fingerprint) — the same
/// identities the checkpoint frames verify on restore.
pub fn config_fingerprint(config: &crate::MachineConfig) -> u64 {
    fnv1a_debug(FNV_OFFSET, config)
}

/// `fnv1a` over `value`'s `Debug` rendering, streamed through the hash
/// instead of collected into a `String` first. FNV-1a is bytewise, so the
/// digest is the same either way.
fn fnv1a_debug(state: u64, value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(state);
    // Writing into `Fnv` cannot fail, so neither can the formatting.
    let _ = std::fmt::Write::write_fmt(&mut h, format_args!("{value:?}"));
    h.0
}

/// FNV-1a digest of the program identity: name, layout registers, every
/// instruction and every data blob. Symbol tables are deliberately
/// excluded (their map order is not canonical, and they do not affect
/// execution).
pub fn program_fingerprint(program: &Program) -> u64 {
    #[cfg(test)]
    FINGERPRINTS.with(|n| n.set(n.get() + 1));
    let mut h = FNV_OFFSET;
    h = fnv1a(h, program.name.as_bytes());
    for word in [
        program.text_base,
        program.entry,
        program.gp,
        program.sp,
        program.heap_base,
    ] {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h = fnv1a(h, &program.static_bytes.to_le_bytes());
    h = fnv1a(h, &(program.text.len() as u64).to_le_bytes());
    for insn in &program.text {
        h = fnv1a_debug(h, insn);
    }
    h = fnv1a(h, &(program.data.len() as u64).to_le_bytes());
    for blob in &program.data {
        h = fnv1a_debug(h, blob);
    }
    h
}

#[cfg(test)]
thread_local! {
    /// `program_fingerprint` calls made on this thread, so a test can
    /// count what one run costs.
    pub(crate) static FINGERPRINTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Wraps a purely architectural state in a full machine snapshot — the
/// hand-off from the fast functional tier ([`crate::tier`]) to the
/// detailed pipeline. The payload is byte-compatible with
/// [`crate::Session::checkpoint`]: the architectural registers and memory
/// come from `state`, while every timing structure (pipeline, statistics,
/// invariant checker) is written *fresh*, exactly as [`crate::Machine::begin`]
/// would build it. Restoring the result with [`crate::Machine::restore`]
/// therefore yields a detailed session that starts timing from a cold
/// pipeline at `state`'s program point, with zeroed statistics — so a
/// measurement window's CPI is purely the window's own work.
///
/// The caller is responsible for `state.strict_mem` matching
/// `config.strict_mem` (the fast tier guarantees this by construction);
/// the fingerprints guard config/program identity as for any snapshot.
pub fn functional_snapshot(
    config: &MachineConfig,
    program: &Program,
    state: &ArchState,
) -> Vec<u8> {
    let (config_fp, program_fp) = (config_fingerprint(config), program_fingerprint(program));
    functional_snapshot_keyed(config, config_fp, program_fp, state)
}

/// [`functional_snapshot`] with both fingerprints supplied by the caller:
/// [`crate::tier::run_sampled`] computes them once per run, not once per
/// window.
pub(crate) fn functional_snapshot_keyed(
    config: &MachineConfig,
    config_fp: u64,
    program_fp: u64,
    state: &ArchState,
) -> Vec<u8> {
    // Always carry fresh checker state: a checking machine (debug builds,
    // --checks) requires it, and a non-checking machine skips past it.
    let (pipe, checker) = (Pipeline::new(*config), InvariantChecker::new(config));
    encode(config_fp, program_fp, state, &SimStats::default(), &pipe, Some(&checker))
}

/// Frames one machine state under its two fingerprints: the one payload
/// layout behind both [`functional_snapshot`] and
/// [`crate::Session::checkpoint`].
pub(crate) fn encode(
    config_fp: u64,
    program_fp: u64,
    state: &ArchState,
    stats: &SimStats,
    pipe: &Pipeline,
    checker: Option<&InvariantChecker>,
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64(config_fp);
    w.u64(program_fp);
    state.save_state(&mut w);
    save_stats(stats, &mut w);
    pipe.save_state(&mut w);
    match checker {
        None => w.u8(0),
        Some(chk) => {
            w.u8(1);
            chk.save_state(&mut w);
        }
    }
    frame(&w.into_bytes())
}

fn save_cache_stats(s: &CacheStats, w: &mut SnapWriter) {
    w.u64(s.accesses);
    w.u64(s.reads);
    w.u64(s.writes);
    w.u64(s.misses);
    w.u64(s.read_misses);
    w.u64(s.writebacks);
}

fn load_cache_stats(r: &mut SnapReader<'_>) -> Result<CacheStats, SnapError> {
    Ok(CacheStats {
        accesses: r.u64("cache stats accesses")?,
        reads: r.u64("cache stats reads")?,
        writes: r.u64("cache stats writes")?,
        misses: r.u64("cache stats misses")?,
        read_misses: r.u64("cache stats read_misses")?,
        writebacks: r.u64("cache stats writebacks")?,
    })
}

/// Serializes every statistics counter.
fn save_stats(s: &SimStats, w: &mut SnapWriter) {
    w.u64(s.insts);
    w.u64(s.cycles);
    w.u64(s.loads);
    w.u64(s.stores);
    for v in s.loads_by_class {
        w.u64(v);
    }
    for v in s.stores_by_class {
        w.u64(v);
    }
    w.u64(s.loads_reg_reg);
    for h in &s.load_offsets {
        w.u64(h.neg);
        for v in h.by_bits {
            w.u64(v);
        }
        w.u64(h.more);
    }
    w.u64(s.branches);
    w.u64(s.branch_mispredicts);
    for p in [&s.pred_loads, &s.pred_stores] {
        w.u64(p.attempts_const);
        w.u64(p.fails_const);
        w.u64(p.attempts_rr);
        w.u64(p.fails_rr);
        w.u64(p.not_speculated);
    }
    for v in s.fail_causes {
        w.u64(v);
    }
    w.u64(s.verify_catches);
    w.u64(s.extra_accesses);
    w.u64(s.store_buffer_stalls);
    save_cache_stats(&s.icache, w);
    save_cache_stats(&s.dcache, w);
    match &s.tlb {
        None => w.bool(false),
        Some(t) => {
            w.bool(true);
            w.u64(t.accesses);
            w.u64(t.misses);
        }
    }
    match &s.ltb {
        None => w.bool(false),
        Some(l) => {
            w.bool(true);
            w.u64(l.predictions);
            w.u64(l.correct);
            w.u64(l.no_prediction);
        }
    }
    w.u64(s.mem_footprint);
}

/// Restores [`save_stats`].
pub(crate) fn load_stats(r: &mut SnapReader<'_>) -> Result<SimStats, SnapError> {
    let mut s = SimStats {
        insts: r.u64("stats insts")?,
        cycles: r.u64("stats cycles")?,
        loads: r.u64("stats loads")?,
        stores: r.u64("stats stores")?,
        ..SimStats::default()
    };
    for v in &mut s.loads_by_class {
        *v = r.u64("stats loads_by_class")?;
    }
    for v in &mut s.stores_by_class {
        *v = r.u64("stats stores_by_class")?;
    }
    s.loads_reg_reg = r.u64("stats loads_reg_reg")?;
    for h in &mut s.load_offsets {
        h.neg = r.u64("offset histogram neg")?;
        for v in &mut h.by_bits {
            *v = r.u64("offset histogram bucket")?;
        }
        h.more = r.u64("offset histogram more")?;
    }
    s.branches = r.u64("stats branches")?;
    s.branch_mispredicts = r.u64("stats branch_mispredicts")?;
    for p in [&mut s.pred_loads, &mut s.pred_stores] {
        p.attempts_const = r.u64("pred attempts_const")?;
        p.fails_const = r.u64("pred fails_const")?;
        p.attempts_rr = r.u64("pred attempts_rr")?;
        p.fails_rr = r.u64("pred fails_rr")?;
        p.not_speculated = r.u64("pred not_speculated")?;
    }
    for v in &mut s.fail_causes {
        *v = r.u64("stats fail_causes")?;
    }
    s.verify_catches = r.u64("stats verify_catches")?;
    s.extra_accesses = r.u64("stats extra_accesses")?;
    s.store_buffer_stalls = r.u64("stats store_buffer_stalls")?;
    s.icache = load_cache_stats(r)?;
    s.dcache = load_cache_stats(r)?;
    s.tlb = if r.bool("tlb stats present")? {
        Some(TlbStats { accesses: r.u64("tlb stats accesses")?, misses: r.u64("tlb stats misses")? })
    } else {
        None
    };
    s.ltb = if r.bool("ltb stats present")? {
        Some(fac_core::LtbStats {
            predictions: r.u64("ltb stats predictions")?,
            correct: r.u64("ltb stats correct")?,
            no_prediction: r.u64("ltb stats no_prediction")?,
        })
    } else {
        None
    };
    s.mem_footprint = r.u64("stats mem_footprint")?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let payload = b"hello snapshot".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), &payload[..]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = frame(&[]);
        assert_eq!(unframe(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let framed = frame(b"payload bytes here");
        for n in 0..framed.len() {
            assert!(unframe(&framed[..n]).is_err(), "prefix of {n} bytes accepted");
        }
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let framed = frame(b"sensitive machine state");
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            assert!(unframe(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut framed = frame(b"x");
        framed[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = unframe(&framed).unwrap_err();
        assert!(err.to_string().contains("version"), "got {err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut framed = frame(b"x");
        framed.push(0);
        assert!(unframe(&framed).is_err());
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = SimStats { insts: 7, cycles: 11, loads: 3, ..SimStats::default() };
        s.load_offsets[1].record(42);
        s.tlb = Some(TlbStats { accesses: 5, misses: 2 });
        s.ltb = Some(fac_core::LtbStats { predictions: 9, correct: 8, no_prediction: 1 });
        let mut w = SnapWriter::new();
        save_stats(&s, &mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = load_stats(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }
}

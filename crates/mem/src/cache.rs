//! Parameterized cache tag-array model.

use core::fmt;

/// Geometry and policy of a [`Cache`].
///
/// The model is a *tag array*: it tracks which blocks are resident (and
/// dirty) to produce hit/miss/writeback behavior; data always lives in
/// [`crate::Memory`]. This is exactly what the timing simulation needs and
/// mirrors how trace-driven cache simulators of the era worked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u32,
    /// Block (line) size in bytes (power of two).
    pub block_bytes: u32,
    /// Associativity (1 = direct-mapped).
    pub ways: u32,
    /// Write-back (true) or write-through (false). The paper's data cache
    /// is write-back, write-allocate (Table 5).
    pub write_back: bool,
    /// Allocate a block on a write miss.
    pub write_allocate: bool,
}

impl CacheConfig {
    /// Direct-mapped, write-back, write-allocate cache — the Table 5 shape.
    pub fn direct_mapped(size_bytes: u32, block_bytes: u32) -> CacheConfig {
        CacheConfig {
            size_bytes,
            block_bytes,
            ways: 1,
            write_back: true,
            write_allocate: true,
        }
    }

    /// Set-associative variant of [`CacheConfig::direct_mapped`].
    pub fn set_associative(size_bytes: u32, block_bytes: u32, ways: u32) -> CacheConfig {
        CacheConfig { ways, ..CacheConfig::direct_mapped(size_bytes, block_bytes) }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / self.block_bytes / self.ways
    }

    fn validate(&self) {
        assert!(self.size_bytes.is_power_of_two(), "cache size must be a power of two");
        assert!(self.block_bytes.is_power_of_two(), "block size must be a power of two");
        assert!(self.ways.is_power_of_two() && self.ways >= 1, "ways must be a power of two");
        assert!(self.sets() >= 1, "cache must have at least one set");
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The access hit in the cache.
    pub hit: bool,
    /// A dirty block was evicted (write-back traffic).
    pub writeback: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Total misses.
    pub misses: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses; 0 when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%), {} writebacks",
            self.accesses,
            self.misses,
            self.miss_ratio() * 100.0,
            self.writebacks
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
    /// LRU timestamp (larger = more recent).
    stamp: u64,
}

/// A write-back/write-allocate cache tag array with LRU replacement.
///
/// ```
/// use fac_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::direct_mapped(1024, 32));
/// assert!(!c.access(0x0, false).hit);
/// assert!(c.access(0x1c, false).hit);       // same block
/// assert!(!c.access(0x400, false).hit);     // conflicting block
/// assert!(!c.access(0x0, false).hit);       // original was evicted
/// assert_eq!(c.stats().misses, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every dimension is a power of two, so an address splits into bit
    /// fields — `tag | set index | block offset` — as in the paper's §3:
    /// the set index is `(addr >> block_shift) & set_mask`, the tag is
    /// `addr >> tag_shift`, and a set's lines start at `set << ways_shift`.
    block_shift: u32,
    set_mask: u32,
    tag_shift: u32,
    ways_shift: u32,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates a cold cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (non-power-of-two sizes).
    pub fn new(config: CacheConfig) -> Cache {
        config.validate();
        let lines = vec![Line::default(); (config.sets() * config.ways) as usize];
        let block_shift = config.block_bytes.trailing_zeros();
        Cache {
            block_shift,
            set_mask: config.sets() - 1,
            tag_shift: block_shift + config.sets().trailing_zeros(),
            ways_shift: config.ways.trailing_zeros(),
            config,
            lines,
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Serializes the tag array, statistics and LRU clock for a machine
    /// checkpoint.
    pub fn save_state(&self, w: &mut fac_core::snap::SnapWriter) {
        w.len_of(self.lines.len());
        for l in &self.lines {
            w.bool(l.valid);
            w.bool(l.dirty);
            w.u32(l.tag);
            w.u64(l.stamp);
        }
        w.u64(self.stats.accesses);
        w.u64(self.stats.reads);
        w.u64(self.stats.writes);
        w.u64(self.stats.misses);
        w.u64(self.stats.read_misses);
        w.u64(self.stats.writebacks);
        w.u64(self.tick);
    }

    /// Restores [`Cache::save_state`] into a cache of the same geometry.
    ///
    /// # Errors
    ///
    /// [`fac_core::snap::SnapError`] when the line count differs from this
    /// cache's or the buffer is corrupt.
    pub fn load_state(
        &mut self,
        r: &mut fac_core::snap::SnapReader<'_>,
    ) -> Result<(), fac_core::snap::SnapError> {
        let n = r.len_of(self.lines.len(), "cache lines")?;
        if n != self.lines.len() {
            return Err(fac_core::snap::SnapError::new(format!(
                "cache geometry mismatch: snapshot has {n} lines, cache has {}",
                self.lines.len()
            )));
        }
        for l in &mut self.lines {
            l.valid = r.bool("cache line valid")?;
            l.dirty = r.bool("cache line dirty")?;
            l.tag = r.u32("cache line tag")?;
            l.stamp = r.u64("cache line stamp")?;
        }
        self.stats.accesses = r.u64("cache stats accesses")?;
        self.stats.reads = r.u64("cache stats reads")?;
        self.stats.writes = r.u64("cache stats writes")?;
        self.stats.misses = r.u64("cache stats misses")?;
        self.stats.read_misses = r.u64("cache stats read_misses")?;
        self.stats.writebacks = r.u64("cache stats writebacks")?;
        self.tick = r.u64("cache tick")?;
        Ok(())
    }

    /// The block number of `addr`: the address without its block offset.
    #[inline]
    pub fn block(&self, addr: u32) -> u32 {
        addr >> self.block_shift
    }

    fn set_index(&self, addr: u32) -> u32 {
        self.block(addr) & self.set_mask
    }

    fn tag(&self, addr: u32) -> u32 {
        addr >> self.tag_shift
    }

    fn set_range(&self, set: u32) -> std::ops::Range<usize> {
        let start = (set << self.ways_shift) as usize;
        start..start + (1 << self.ways_shift)
    }

    /// Checks residency without updating state or statistics.
    pub fn probe(&self, addr: u32) -> bool {
        let tag = self.tag(addr);
        self.lines[self.set_range(self.set_index(addr))]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Performs an access (read if `write` is false), updating replacement
    /// state and statistics, and allocating/evicting per the write policy.
    pub fn access(&mut self, addr: u32, write: bool) -> AccessResult {
        self.tick += 1;
        self.stats.accesses += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        let tag = self.tag(addr);
        let range = self.set_range(self.set_index(addr));
        let tick = self.tick;

        // Hit path.
        if let Some(line) = self.lines[range.clone()]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.stamp = tick;
            if write && self.config.write_back {
                line.dirty = true;
            }
            return AccessResult { hit: true, writeback: false };
        }

        // Miss path.
        self.stats.misses += 1;
        if !write {
            self.stats.read_misses += 1;
        }

        let allocate = !write || self.config.write_allocate;
        let mut writeback = false;
        if allocate {
            let victim = self.lines[range]
                .iter_mut()
                .min_by_key(|l| if l.valid { l.stamp } else { 0 })
                .expect("cache set is non-empty");
            if victim.valid && victim.dirty {
                writeback = true;
                self.stats.writebacks += 1;
            }
            *victim = Line {
                valid: true,
                dirty: write && self.config.write_back,
                tag,
                stamp: tick,
            };
        }
        AccessResult { hit: false, writeback }
    }

    /// Invalidates everything (keeps statistics).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig::direct_mapped(256, 16)) // 16 sets
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x4f, false).hit); // same 16-byte block
        assert!(!c.access(0x50, false).hit); // next block
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = small();
        c.access(0x00, false);
        c.access(0x100, false); // same set, different tag: evicts
        assert!(!c.access(0x00, false).hit);
    }

    #[test]
    fn write_back_generates_writeback_on_eviction() {
        let mut c = small();
        c.access(0x00, true); // allocate dirty
        let r = c.access(0x100, false); // evicts dirty block
        assert!(!r.hit);
        assert!(r.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x00, false);
        let r = c.access(0x100, false);
        assert!(!r.hit && !r.writeback);
    }

    #[test]
    fn set_associative_lru() {
        let mut c = Cache::new(CacheConfig::set_associative(256, 16, 2)); // 8 sets
        // Three blocks mapping to the same set (stride = sets*block = 128).
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch 0x000: now 0x080 is LRU
        c.access(0x100, false); // evicts 0x080
        assert!(c.access(0x000, false).hit);
        assert!(!c.access(0x080, false).hit);
    }

    #[test]
    fn write_no_allocate_skips_allocation() {
        let mut cfg = CacheConfig::direct_mapped(256, 16);
        cfg.write_allocate = false;
        let mut c = Cache::new(cfg);
        assert!(!c.access(0x40, true).hit);
        assert!(!c.access(0x40, false).hit); // still not resident
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0x40, false);
        let before = *c.stats();
        assert!(c.probe(0x40));
        assert!(!c.probe(0x140));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0x40, false);
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn stats_display() {
        let mut c = small();
        c.access(0x0, false);
        assert_eq!(c.stats().to_string(), "1 accesses, 1 misses (100.00%), 0 writebacks");
    }

    #[test]
    fn table5_geometry() {
        let c = Cache::new(CacheConfig::direct_mapped(16 * 1024, 32));
        assert_eq!(c.config().sets(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig::direct_mapped(3000, 32));
    }
}

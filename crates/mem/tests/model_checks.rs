//! Model-checking property tests: the cache against a naive reference
//! implementation, the memory against a `HashMap` of bytes, and the store
//! buffer against a plain FIFO.

use fac_mem::{Cache, CacheConfig, CacheStats, Memory, StoreBuffer};
use proptest::prelude::*;
use std::collections::HashMap;

/// A deliberately naive LRU cache: a vector of (set, tag, dirty) with
/// timestamps, no cleverness. It splits addresses by division and
/// remainder, so it also checks the real cache's shift-and-mask indexing.
/// The real cache must agree exactly.
struct RefCache {
    cfg: CacheConfig,
    lines: Vec<(u32, u32, bool, u64)>, // (set, tag, dirty, stamp)
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache { cfg, lines: Vec::new(), tick: 0, stats: CacheStats::default() }
    }

    fn access(&mut self, addr: u32, write: bool) -> (bool, bool) {
        let (hit, writeback) = self.lookup(addr, write);
        self.stats.accesses += 1;
        self.stats.reads += u64::from(!write);
        self.stats.writes += u64::from(write);
        self.stats.misses += u64::from(!hit);
        self.stats.read_misses += u64::from(!hit && !write);
        self.stats.writebacks += u64::from(writeback);
        (hit, writeback)
    }

    fn lookup(&mut self, addr: u32, write: bool) -> (bool, bool) {
        self.tick += 1;
        let block = addr / self.cfg.block_bytes;
        let set = block % self.cfg.sets();
        let tag = block / self.cfg.sets();
        if let Some(line) = self.lines.iter_mut().find(|l| l.0 == set && l.1 == tag) {
            line.3 = self.tick;
            if write && self.cfg.write_back {
                line.2 = true;
            }
            return (true, false);
        }
        // Miss.
        let mut writeback = false;
        if !write || self.cfg.write_allocate {
            let in_set = self.lines.iter().filter(|l| l.0 == set).count();
            if in_set as u32 >= self.cfg.ways {
                // Evict LRU within the set.
                let idx = self
                    .lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.0 == set)
                    .min_by_key(|(_, l)| l.3)
                    .map(|(i, _)| i)
                    .expect("set non-empty");
                writeback = self.lines[idx].2;
                self.lines.remove(idx);
            }
            self.lines.push((set, tag, write && self.cfg.write_back, self.tick));
        }
        (false, writeback)
    }
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (0u32..=3, 4u32..=6, any::<bool>(), any::<bool>()).prop_map(
        |(ways_log, block_log, write_back, write_allocate)| CacheConfig {
            size_bytes: 1024,
            block_bytes: 1 << block_log,
            ways: 1 << ways_log,
            write_back,
            write_allocate,
        },
    )
}

/// Random power-of-two geometries — 1 to 8 ways, 16/32/64-byte blocks, 1
/// to 64 sets — plus the associativity ablation's 16 KB, 32-byte-block
/// shapes at 1, 2 and 4 ways.
fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
    prop_oneof![
        (0u32..=3, 4u32..=6, 0u32..=6, any::<bool>(), any::<bool>()).prop_map(
            |(ways_log, block_log, sets_log, write_back, write_allocate)| CacheConfig {
                size_bytes: 1 << (ways_log + block_log + sets_log),
                block_bytes: 1 << block_log,
                ways: 1 << ways_log,
                write_back,
                write_allocate,
            },
        ),
        (0u32..=2).prop_map(|ways_log| CacheConfig::set_associative(16 * 1024, 32, 1 << ways_log)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shift-and-mask indexed cache agrees with the division-based
    /// reference on every access (hit and writeback) and in its final
    /// statistics. Addresses fall within four times the capacity, so sets
    /// conflict, and carry random high bits, so every tag bit is exercised.
    #[test]
    fn shift_indexing_matches_division_reference(
        cfg in arb_geometry(),
        trace in proptest::collection::vec((0u32..4, any::<u32>(), any::<bool>()), 1..400),
    ) {
        let mut real = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (i, &(high, low, write)) in trace.iter().enumerate() {
            let addr = (high << 30) | (low % (4 * cfg.size_bytes));
            let r = real.access(addr, write);
            let (hit, wb) = reference.access(addr, write);
            prop_assert_eq!(r.hit, hit, "access {}: addr {:#x} write {}", i, addr, write);
            prop_assert_eq!(r.writeback, wb, "access {}: writeback mismatch", i);
        }
        prop_assert_eq!(*real.stats(), reference.stats);
    }

    /// The production cache agrees with the naive reference on every
    /// access of a random trace, for every geometry and write policy.
    #[test]
    fn cache_matches_reference_model(
        cfg in arb_config(),
        trace in proptest::collection::vec((0u32..8192, any::<bool>()), 1..300),
    ) {
        let mut real = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (i, &(addr, write)) in trace.iter().enumerate() {
            let r = real.access(addr, write);
            let (hit, wb) = reference.access(addr, write);
            prop_assert_eq!(r.hit, hit, "access {}: addr {:#x} write {}", i, addr, write);
            prop_assert_eq!(r.writeback, wb, "access {}: writeback mismatch", i);
        }
        // Statistics agree with the trace.
        prop_assert_eq!(real.stats().accesses, trace.len() as u64);
        prop_assert_eq!(
            real.stats().writes,
            trace.iter().filter(|t| t.1).count() as u64
        );
    }

    /// Byte memory agrees with a HashMap reference under random reads and
    /// writes of mixed widths.
    #[test]
    fn memory_matches_hashmap(
        ops in proptest::collection::vec(
            (any::<u32>(), 0u8..3, any::<u32>(), any::<bool>()),
            1..200,
        ),
    ) {
        let mut mem = Memory::new();
        let mut reference: HashMap<u32, u8> = HashMap::new();
        for &(addr, width, value, is_write) in &ops {
            let size = 1u32 << width; // 1, 2, or 4 bytes
            if is_write {
                match size {
                    1 => mem.write_u8(addr, value as u8),
                    2 => mem.write_u16(addr, value as u16),
                    _ => mem.write_u32(addr, value),
                }
                for i in 0..size {
                    reference.insert(
                        addr.wrapping_add(i),
                        (value >> (8 * i)) as u8,
                    );
                }
            } else {
                let got = match size {
                    1 => mem.read_u8(addr) as u32,
                    2 => mem.read_u16(addr) as u32,
                    _ => mem.read_u32(addr),
                };
                let mut want = 0u32;
                for i in 0..size {
                    want |= (*reference.get(&addr.wrapping_add(i)).unwrap_or(&0) as u32)
                        << (8 * i);
                }
                prop_assert_eq!(got, want, "read {}B at {:#x}", size, addr);
            }
        }
    }

    /// The store buffer is an exact bounded FIFO.
    #[test]
    fn store_buffer_is_a_bounded_fifo(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..200),
        cap in 1usize..8,
    ) {
        let mut sb = StoreBuffer::new(cap);
        let mut reference: Vec<u32> = Vec::new();
        for (i, &(addr, push)) in ops.iter().enumerate() {
            if push {
                let displaced = sb.push(addr, 4, i as u64);
                if reference.len() == cap {
                    let oldest = reference.remove(0);
                    prop_assert_eq!(displaced.map(|e| e.addr), Some(oldest));
                } else {
                    prop_assert!(displaced.is_none());
                }
                reference.push(addr);
            } else {
                let got = sb.retire().map(|e| e.addr);
                let want = if reference.is_empty() { None } else { Some(reference.remove(0)) };
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(sb.len(), reference.len());
        }
    }
}

//! The cycle-level timing model: a 4-way in-order-issue superscalar with
//! out-of-order completion, modelled as a constrained scoreboard over the
//! dynamic instruction stream (the classic trace-driven structure of the
//! paper's era).
//!
//! Pipeline shape (§5.5): a traditional 5-stage pipe — IF, ID, EX, MEM, WB —
//! so an instruction fetched in cycle `f` issues (enters EX) no earlier than
//! `f + 2`. ALU results are ready after EX; non-speculative loads compute
//! their address in EX and access the cache in MEM (2-cycle latency). With
//! fast address calculation, a load whose address predicts correctly
//! accesses the cache during EX and completes in 1 cycle; a misprediction
//! replays the access in MEM, and accesses issued in the following cycle
//! lose their speculation slot (except a load directly after a misspeculated
//! load).

use crate::btb::Btb;
use crate::config::{FuConfig, FuTiming, LoadLatencyMode, MachineConfig, PipelineOrg};
use crate::exec::{dst_regs, src_regs, Executed, MemRef, RegList, SB_REGS};
use crate::obs::{CacheKind, Event, NullObserver, Observer, StallKind};
use crate::stats::{RefClass, SimStats};
use fac_asm::Program;
use fac_core::{AddrFields, AnyPredictor, Ltb, Predictor};
use fac_isa::Insn;
use fac_mem::{Cache, Tlb};
use std::collections::VecDeque;

/// Ring buffer tracking data-cache port usage per cycle. Slots are lazily
/// reset when a new cycle maps onto them, so no global clearing is needed.
#[derive(Debug, Clone)]
struct PortRing {
    slots: Vec<(u64, u32, u32)>, // (cycle, reads, writes)
}

const PORT_RING: usize = 1 << 14;

impl PortRing {
    fn new() -> PortRing {
        PortRing { slots: vec![(u64::MAX, 0, 0); PORT_RING] }
    }

    fn slot(&mut self, cycle: u64) -> &mut (u64, u32, u32) {
        let s = &mut self.slots[(cycle as usize) & (PORT_RING - 1)];
        if s.0 != cycle {
            *s = (cycle, 0, 0);
        }
        s
    }

    fn reads(&mut self, cycle: u64) -> u32 {
        self.slot(cycle).1
    }

    fn add_read(&mut self, cycle: u64) {
        self.slot(cycle).1 += 1;
    }

    fn add_write(&mut self, cycle: u64) {
        self.slot(cycle).2 += 1;
    }

    fn writes(&mut self, cycle: u64) -> u32 {
        self.slot(cycle).2
    }
}

/// One functional-unit pool.
#[derive(Debug, Clone)]
struct Pool {
    next_free: Vec<u64>,
}

impl Pool {
    fn new(units: u32) -> Pool {
        Pool { next_free: vec![0; units.max(1) as usize] }
    }

    /// Earliest cycle ≥ `c` at which a unit is free.
    fn earliest(&self, c: u64) -> u64 {
        self.next_free.iter().copied().min().unwrap_or(0).max(c)
    }

    /// Claims a unit at cycle `c` for `interval` cycles. A pool can never be
    /// empty ([`Pool::new`] allocates at least one unit), but the claim
    /// degrades to a no-op rather than panicking if it somehow were.
    fn claim(&mut self, c: u64, interval: u64) {
        if let Some(unit) = self.next_free.iter_mut().min_by_key(|f| **f) {
            debug_assert!(*unit <= c);
            *unit = c + interval;
        }
    }
}

/// The functional-unit pool an instruction issues to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuClass {
    /// `nop` and `halt`: no unit, no structural hazard.
    None,
    /// Integer ALU (branches and jumps execute here too).
    IntAlu,
    /// Load/store unit; the result latency comes from the memory path.
    LoadStore,
    /// FP add/sub/compare/convert.
    FpAdd,
    /// Shared integer multiply/divide unit.
    IntMul(FuKind),
    /// Shared FP multiply/divide/square-root unit.
    FpMul(FuKind),
}

/// Which operation a shared multiply/divide unit performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuKind {
    /// Multiply.
    Mul,
    /// Divide (and FP square root).
    Div,
}

impl FuClass {
    fn of(insn: &Insn) -> FuClass {
        use fac_isa::{FpOp, MulDivOp};
        match insn {
            Insn::Nop | Insn::Halt => FuClass::None,
            Insn::Load { .. } | Insn::Store { .. } | Insn::LoadFp { .. } | Insn::StoreFp { .. } => {
                FuClass::LoadStore
            }
            Insn::MulDiv { op, .. } => match op {
                MulDivOp::Mult | MulDivOp::Multu => FuClass::IntMul(FuKind::Mul),
                MulDivOp::Div | MulDivOp::Divu => FuClass::IntMul(FuKind::Div),
            },
            Insn::Fp { op, .. } => match op {
                FpOp::Mul => FuClass::FpMul(FuKind::Mul),
                FpOp::Div | FpOp::Sqrt => FuClass::FpMul(FuKind::Div),
                _ => FuClass::FpAdd,
            },
            Insn::FpCmp { .. } | Insn::CvtFromW { .. } | Insn::TruncToW { .. } => FuClass::FpAdd,
            _ => FuClass::IntAlu,
        }
    }

    fn timing(self, fu: &FuConfig) -> FuTiming {
        match self {
            FuClass::None => FuTiming { latency: 1, interval: 1 },
            FuClass::IntAlu => fu.int_alu,
            FuClass::LoadStore => FuTiming { latency: 1, interval: 1 }, // handled by mem path
            FuClass::FpAdd => fu.fp_add,
            FuClass::IntMul(FuKind::Mul) => fu.int_mul,
            FuClass::IntMul(FuKind::Div) => fu.int_div,
            FuClass::FpMul(FuKind::Mul) => fu.fp_mul,
            FuClass::FpMul(FuKind::Div) => fu.fp_div,
        }
    }
}

/// Everything the timing model needs to know about an instruction that
/// does not depend on its dynamic execution: scoreboard operands, unit
/// class and timing, and whether it redirects control. A program has a few
/// hundred static instructions but retires millions of dynamic ones, so a
/// simulation decodes each `program.text` slot once into a decode table
/// and the pipeline reads the slot instead of re-deriving it per retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInsn {
    /// Source scoreboard registers ([`src_regs`]).
    pub srcs: RegList,
    /// Destination scoreboard registers ([`dst_regs`]).
    pub dsts: RegList,
    /// The functional-unit class.
    pub class: FuClass,
    /// That class's timing under the machine's [`FuConfig`].
    pub timing: FuTiming,
    /// A branch or jump ([`Insn::is_control`]).
    pub control: bool,
}

impl StaticInsn {
    /// Decodes `insn` for a machine whose functional units are `fu`.
    pub fn decode(insn: &Insn, fu: &FuConfig) -> StaticInsn {
        let class = FuClass::of(insn);
        StaticInsn {
            srcs: src_regs(insn),
            dsts: dst_regs(insn),
            class,
            timing: class.timing(fu),
            control: insn.is_control(),
        }
    }
}

/// One [`StaticInsn`] per `program.text` slot, built when a simulation
/// starts (or resumes from a checkpoint). It is derived from the program
/// and configuration alone, so it is rebuilt rather than checkpointed.
#[derive(Debug, Clone)]
pub(crate) struct DecodeTable {
    text_base: u32,
    slots: Vec<StaticInsn>,
}

impl DecodeTable {
    pub(crate) fn new(program: &Program, cfg: &MachineConfig) -> DecodeTable {
        DecodeTable {
            text_base: program.text_base,
            slots: program.text.iter().map(|i| StaticInsn::decode(i, &cfg.fu)).collect(),
        }
    }

    /// The slot of `pc`, which must be an instruction
    /// [`crate::ArchState::step`] just executed (so it lies in the text
    /// segment and is word-aligned).
    pub(crate) fn get(&self, pc: u32) -> &StaticInsn {
        &self.slots[(pc.wrapping_sub(self.text_base) >> 2) as usize]
    }
}

/// Per-instruction pipeline timing, as reported by
/// [`Pipeline::advance_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueInfo {
    /// Cycle the instruction's fetch group was fetched.
    pub fetch: u64,
    /// Cycle the instruction issued (entered EX).
    pub issue: u64,
    /// Cycle its result became available.
    pub complete: u64,
    /// The access replayed in MEM after an address misprediction.
    pub replayed: bool,
}

/// The timing engine. Feed it the dynamic instruction stream (from
/// [`crate::ArchState::step`]) in program order via [`Pipeline::advance`];
/// read the final cycle count from [`Pipeline::finish`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: MachineConfig,
    predictor: Option<AnyPredictor>,
    ltb: Option<Ltb>,
    icache: Cache,
    dcache: Cache,
    btb: Btb,
    tlb: Option<Tlb>,

    reg_ready: [u64; SB_REGS],
    last_issue: u64,
    issued_now: u32,
    loads_now: u32,
    stores_now: u32,
    ports: PortRing,

    pools_int: Pool,
    pools_ls: Pool,
    pools_fpadd: Pool,
    pools_imul: Pool,
    pools_fpmul: Pool,

    next_fetch: u64,
    group_fetch: u64,
    group_left: u32,
    group_block: u32,

    /// Enter cycles of stores waiting in the store buffer.
    sb_queue: VecDeque<u64>,
    /// Next cycle to examine for store-buffer retirement.
    sb_cursor: u64,

    /// `(cycle, was_load)` of the most recent misprediction replay.
    mispredict_block: Option<(u64, bool)>,
    /// Cycle of the most recent *store* access: memory operations execute
    /// in order (§5.5), so a later access may not reach the cache before an
    /// earlier store has — the reason the paper speculates stores at all.
    last_store_access: u64,
    /// Miss status holding registers of the non-blocking cache:
    /// `(fill_completion_cycle, block_address)` per outstanding miss.
    mshrs: Vec<(u64, u32)>,
    max_complete: u64,
}

impl Pipeline {
    /// Creates a cold pipeline for the given machine.
    pub fn new(cfg: MachineConfig) -> Pipeline {
        let predictor = cfg.fac.map(|f| {
            AnyPredictor::new(
                Predictor::new(
                    AddrFields::for_set_associative(
                        cfg.dcache.size_bytes,
                        cfg.dcache.block_bytes,
                        cfg.dcache.ways,
                    ),
                    f.predictor,
                ),
                cfg.fault_plan,
            )
        });
        let ltb = match (&predictor, cfg.ltb_entries) {
            (None, Some(entries)) => Some(Ltb::new(entries)),
            _ => None,
        };
        Pipeline {
            predictor,
            ltb,
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            btb: Btb::new(cfg.btb_entries),
            tlb: cfg.model_tlb.then(|| Tlb::new(64, 4096)),
            reg_ready: [0; SB_REGS],
            last_issue: 0,
            issued_now: 0,
            loads_now: 0,
            stores_now: 0,
            ports: PortRing::new(),
            pools_int: Pool::new(cfg.fu.int_alu_units),
            pools_ls: Pool::new(cfg.fu.load_store_units),
            pools_fpadd: Pool::new(cfg.fu.fp_add_units),
            pools_imul: Pool::new(cfg.fu.int_mul_units),
            pools_fpmul: Pool::new(cfg.fu.fp_mul_units),
            next_fetch: 0,
            group_fetch: 0,
            group_left: 0,
            group_block: u32::MAX,
            sb_queue: VecDeque::new(),
            sb_cursor: 0,
            mispredict_block: None,
            last_store_access: 0,
            mshrs: vec![(0, u32::MAX); cfg.mshr_entries.max(1) as usize],
            max_complete: 0,
            cfg,
        }
    }

    fn pool(&mut self, class: FuClass) -> Option<&mut Pool> {
        match class {
            FuClass::None => None,
            FuClass::IntAlu => Some(&mut self.pools_int),
            FuClass::LoadStore => Some(&mut self.pools_ls),
            FuClass::FpAdd => Some(&mut self.pools_fpadd),
            FuClass::IntMul(_) => Some(&mut self.pools_imul),
            FuClass::FpMul(_) => Some(&mut self.pools_fpmul),
        }
    }

    /// Assigns a fetch cycle to the next dynamic instruction.
    ///
    /// The front end fetches **any** `fetch_width` contiguous instructions
    /// per cycle (Table 5), so a fetch group may span an I-cache block
    /// boundary; each block the group touches costs an I-cache access, and
    /// a miss on either delays the group.
    fn fetch_cycle<O: Observer>(&mut self, pc: u32, stats: &mut SimStats, obs: &mut O) -> u64 {
        let block = self.icache.block(pc);
        if self.group_left == 0 {
            // New fetch group: bounded run-ahead of the issue stage (small
            // fetch buffer), plus the I-cache access for the group.
            let mut f = self.next_fetch.max(self.last_issue.saturating_sub(4));
            if !self.icache.access(pc, false).hit {
                if obs.enabled() {
                    obs.on_event(&Event::CacheMiss {
                        cycle: f,
                        cache: CacheKind::ICache,
                        pc,
                        addr: pc,
                        is_store: false,
                    });
                }
                f += self.cfg.miss_latency;
            }
            stats.icache = *self.icache.stats();
            self.group_fetch = f;
            self.next_fetch = f + 1;
            self.group_left = self.cfg.fetch_width;
            self.group_block = block;
        } else if block != self.group_block {
            // The group ran into the next block: a second I-cache access,
            // stalling the group if it misses.
            self.group_block = block;
            if !self.icache.access(pc, false).hit {
                if obs.enabled() {
                    obs.on_event(&Event::CacheMiss {
                        cycle: self.group_fetch,
                        cache: CacheKind::ICache,
                        pc,
                        addr: pc,
                        is_store: false,
                    });
                }
                self.group_fetch += self.cfg.miss_latency;
                self.next_fetch = self.group_fetch + 1;
            }
            stats.icache = *self.icache.stats();
        }
        self.group_left -= 1;
        self.group_fetch
    }

    /// Extra cycles a miss at `access` costs, through the miss status
    /// holding registers: a miss to a block already being filled merges
    /// into that MSHR (finishing when the fill does); otherwise it claims a
    /// free MSHR, waiting for the oldest fill when all are busy (Table 5's
    /// bounded non-blocking interface).
    fn miss_fill_latency(&mut self, access: u64, addr: u32) -> u64 {
        if self.cfg.perfect_dcache {
            return 0;
        }
        let block = self.dcache.block(addr);
        // Merge with an in-flight fill of the same block.
        if let Some(&(done, _)) = self.mshrs.iter().find(|&&(done, b)| b == block && done > access)
        {
            return done - access;
        }
        // The MSHR file always has at least one entry (`Pipeline::new`
        // clamps); if it somehow did not, model a plain blocking miss
        // rather than panicking.
        let Some(slot) = self.mshrs.iter_mut().min_by_key(|(done, _)| *done) else {
            return self.cfg.miss_latency;
        };
        let start = access.max(slot.0);
        *slot = (start + self.cfg.miss_latency, block);
        slot.0 - access
    }

    /// Retires buffered stores into cycles now known to be idle. Called
    /// when the issue point advances to `c`: no future access can land in a
    /// cycle before `c` any more, so any such cycle with no cache reads or
    /// writes is a free cache cycle (§5.5: "the store buffer retires stored
    /// data to the data cache during cycles in which the data cache is
    /// unused").
    fn sb_drain_to(&mut self, c: u64) {
        while self.sb_cursor < c {
            let cy = self.sb_cursor;
            self.sb_cursor += 1;
            if let Some(&enter) = self.sb_queue.front() {
                if enter < cy
                    && self.ports.reads(cy) == 0
                    && self.ports.writes(cy) < self.cfg.dcache_write_ports
                {
                    self.sb_queue.pop_front();
                    self.ports.add_write(cy);
                    self.max_complete = self.max_complete.max(cy);
                }
            } else {
                self.sb_cursor = c;
            }
        }
    }

    /// Store-buffer admission at cycle `c`: a full buffer stalls the
    /// pipeline while the oldest entry is forcibly retired to the cache
    /// (§5.5: "the entire pipeline is stalled and the oldest entry in the
    /// store buffer is retired").
    fn sb_admit<O: Observer>(&mut self, mut c: u64, stats: &mut SimStats, obs: &mut O) -> u64 {
        if self.sb_queue.len() >= self.cfg.store_buffer_entries {
            stats.store_buffer_stalls += 2;
            if obs.enabled() {
                obs.on_event(&Event::Stall { cycle: c, kind: StallKind::StoreBuffer, penalty: 2 });
            }
            self.sb_queue.pop_front();
            self.ports.add_write(c + 1);
            c += 2;
        }
        c
    }

    /// Enqueues a store that entered the buffer at cycle `enter`.
    fn sb_book_retire(&mut self, enter: u64) {
        self.sb_queue.push_back(enter);
    }

    /// Times one memory access issued at `c`. Returns `(result_latency,
    /// mispredicted)`. Cache/TLB state is updated with the *true* address.
    fn mem_timing<O: Observer>(
        &mut self,
        c: u64,
        pc: u32,
        mref: &MemRef,
        stats: &mut SimStats,
        obs: &mut O,
    ) -> (u64, bool) {
        if let Some(tlb) = &mut self.tlb {
            tlb.access(mref.addr);
        }

        if self.predictor.is_none() {
            // Take the LTB out so the borrow checker sees the rest of the
            // pipeline as free — and so there is no "ltb configured" expect
            // to trip.
            if let Some(mut ltb) = self.ltb.take() {
                let r = self.mem_timing_ltb(c, pc, mref, stats, &mut ltb, obs);
                self.ltb = Some(ltb);
                return r;
            }
        }

        let counters = if mref.is_store { &mut stats.pred_stores } else { &mut stats.pred_loads };

        // Figure-2 what-if: all loads complete their access in EX.
        if self.cfg.load_latency == LoadLatencyMode::OneCycle {
            counters.not_speculated += 1;
            self.ports.add_read(c);
            let hit = self.dcache.access(mref.addr, mref.is_store).hit;
            if !hit && obs.enabled() {
                obs.on_event(&Event::CacheMiss {
                    cycle: c,
                    cache: CacheKind::DCache,
                    pc,
                    addr: mref.addr,
                    is_store: mref.is_store,
                });
            }
            let pen = if hit { 0 } else { self.miss_fill_latency(c, mref.addr) };
            if mref.is_store {
                let enter = self.sb_admit(c, stats, obs).max(c);
                self.sb_book_retire(enter);
                return (1, false);
            }
            return (1 + pen, false);
        }

        let spec = match &mut self.predictor {
            Some(p) if p.should_speculate(mref.offset, mref.is_store) => {
                // Accesses in the cycle after a misprediction lose their
                // speculative slot — except a load right after a
                // misspeculated load. And because the model executes all
                // memory accesses in order (§5.5), an access cannot start
                // in EX if an earlier access has not reached the cache yet
                // — this is exactly why the paper speculates stores too.
                let blocked = match self.mispredict_block {
                    Some((bc, was_load)) if bc + 1 == c => !was_load || mref.is_store,
                    _ => false,
                } || self.last_store_access > c;
                if blocked {
                    None
                } else {
                    Some(p.predict(mref.base_value, mref.offset))
                }
            }
            _ => None,
        };

        match spec {
            None => {
                // Non-speculative path: address in EX, cache in MEM.
                counters.not_speculated += 1;
                let access = c + 1;
                if mref.is_store {
                    self.last_store_access = self.last_store_access.max(access);
                }
                self.ports.add_read(access);
                let hit = self.dcache.access(mref.addr, mref.is_store).hit;
                if !hit && obs.enabled() {
                    obs.on_event(&Event::CacheMiss {
                        cycle: access,
                        cache: CacheKind::DCache,
                        pc,
                        addr: mref.addr,
                        is_store: mref.is_store,
                    });
                }
                let pen = if hit { 0 } else { self.miss_fill_latency(access, mref.addr) };
                if mref.is_store {
                    let enter = self.sb_admit(access, stats, obs).max(access);
                    self.sb_book_retire(enter);
                    (2, false)
                } else {
                    (2 + pen, false)
                }
            }
            Some(pred) => {
                if mref.is_reg_reg() {
                    counters.attempts_rr += 1;
                } else {
                    counters.attempts_const += 1;
                }
                // The speculative access itself (EX stage).
                if mref.is_store {
                    self.last_store_access = self.last_store_access.max(c);
                }
                self.ports.add_read(c);
                // The speculation is consumed only when the circuit raised
                // no failure signal AND the decoupled verification compare
                // (full-adder address vs. predicted address) agrees. For the
                // exact circuit the signals are conservative, so the second
                // conjunct is redundant; under fault injection it is the
                // backstop that keeps bad speculations out of the
                // architectural path.
                let consumed = pred.is_correct() && pred.predicted == pred.actual;
                if obs.enabled() {
                    let class = RefClass::of(mref.base_reg);
                    obs.on_event(&Event::Speculate {
                        cycle: c,
                        pc,
                        class,
                        is_store: mref.is_store,
                        predicted: pred.predicted,
                    });
                    obs.on_event(&Event::Verify {
                        cycle: c,
                        pc,
                        ok: consumed,
                        compare_caught: pred.is_correct() && !consumed,
                    });
                    if pred.is_correct() && !consumed {
                        obs.on_event(&Event::FaultInjected {
                            cycle: c,
                            pc,
                            predicted: pred.predicted,
                            actual: pred.actual,
                        });
                    }
                }
                if consumed {
                    let hit = self.dcache.access(mref.addr, mref.is_store).hit;
                    if !hit && obs.enabled() {
                        obs.on_event(&Event::CacheMiss {
                            cycle: c,
                            cache: CacheKind::DCache,
                            pc,
                            addr: mref.addr,
                            is_store: mref.is_store,
                        });
                    }
                    let pen = if hit { 0 } else { self.miss_fill_latency(c, mref.addr) };
                    if mref.is_store {
                        let enter = self.sb_admit(c, stats, obs).max(c);
                        self.sb_book_retire(enter);
                        (1, false)
                    } else {
                        (1 + pen, false)
                    }
                } else {
                    // Misprediction: the speculative access was wasted;
                    // replay with the true address in MEM.
                    if mref.is_reg_reg() {
                        counters.fails_rr += 1;
                    } else {
                        counters.fails_const += 1;
                    }
                    stats.extra_accesses += 1;
                    if pred.is_correct() {
                        // No failure signal fired: the decoupled address
                        // compare alone caught this one.
                        stats.verify_catches += 1;
                    }
                    if let Some(cause) = pred.cause() {
                        stats.record_cause(cause);
                    }
                    let replay = c + 1;
                    if obs.enabled() {
                        obs.on_event(&Event::Replay {
                            cycle: replay,
                            pc,
                            class: RefClass::of(mref.base_reg),
                            is_store: mref.is_store,
                            cause: pred.cause(),
                            offset: mref.offset_value(),
                        });
                    }
                    if mref.is_store {
                        self.last_store_access = self.last_store_access.max(replay);
                    }
                    self.ports.add_read(replay);
                    let hit = self.dcache.access(mref.addr, mref.is_store).hit;
                    if !hit && obs.enabled() {
                        obs.on_event(&Event::CacheMiss {
                            cycle: replay,
                            cache: CacheKind::DCache,
                            pc,
                            addr: mref.addr,
                            is_store: mref.is_store,
                        });
                    }
                    let pen = if hit { 0 } else { self.miss_fill_latency(replay, mref.addr) };
                    self.mispredict_block = Some((c, !mref.is_store));
                    if mref.is_store {
                        let enter = self.sb_admit(replay, stats, obs).max(replay);
                        self.sb_book_retire(enter);
                        (2, false)
                    } else {
                        (2 + pen, true)
                    }
                }
            }
        }
    }

    /// Times one memory access under load-target-buffer prediction: the
    /// LTB guesses the effective address from the load PC during fetch, so
    /// a confident, correct guess lets the access start in EX like FAC; a
    /// wrong guess costs a replay, and a cold/unconfident entry takes the
    /// normal 2-cycle path.
    fn mem_timing_ltb<O: Observer>(
        &mut self,
        c: u64,
        pc: u32,
        mref: &MemRef,
        stats: &mut SimStats,
        ltb: &mut Ltb,
        obs: &mut O,
    ) -> (u64, bool) {
        let blocked = match self.mispredict_block {
            Some((bc, was_load)) if bc + 1 == c => !was_load || mref.is_store,
            _ => false,
        } || self.last_store_access > c;
        let guess = if blocked || mref.is_store {
            // Keep the LTB load-only, like Golden & Mudge's design.
            None
        } else {
            ltb.predict(pc)
        };
        ltb.update(pc, mref.addr, guess);
        let counters = if mref.is_store { &mut stats.pred_stores } else { &mut stats.pred_loads };
        match guess {
            Some(addr) if addr == mref.addr => {
                counters.attempts_const += 1;
                if obs.enabled() {
                    let class = RefClass::of(mref.base_reg);
                    obs.on_event(&Event::Speculate {
                        cycle: c,
                        pc,
                        class,
                        is_store: mref.is_store,
                        predicted: addr,
                    });
                    obs.on_event(&Event::Verify { cycle: c, pc, ok: true, compare_caught: false });
                }
                self.ports.add_read(c);
                let hit = self.dcache.access(mref.addr, mref.is_store).hit;
                let pen = if hit { 0 } else { self.miss_fill_latency(c, mref.addr) };
                if obs.enabled() && !hit {
                    obs.on_event(&Event::CacheMiss {
                        cycle: c,
                        cache: CacheKind::DCache,
                        pc,
                        addr: mref.addr,
                        is_store: mref.is_store,
                    });
                }
                (1 + pen, false)
            }
            Some(addr) => {
                counters.attempts_const += 1;
                counters.fails_const += 1;
                stats.extra_accesses += 1;
                if obs.enabled() {
                    let class = RefClass::of(mref.base_reg);
                    obs.on_event(&Event::Speculate {
                        cycle: c,
                        pc,
                        class,
                        is_store: mref.is_store,
                        predicted: addr,
                    });
                    obs.on_event(&Event::Verify { cycle: c, pc, ok: false, compare_caught: false });
                    obs.on_event(&Event::Replay {
                        cycle: c + 1,
                        pc,
                        class,
                        is_store: mref.is_store,
                        cause: None,
                        offset: mref.offset_value(),
                    });
                }
                self.ports.add_read(c);
                self.ports.add_read(c + 1);
                let hit = self.dcache.access(mref.addr, mref.is_store).hit;
                let pen = if hit { 0 } else { self.miss_fill_latency(c + 1, mref.addr) };
                if obs.enabled() && !hit {
                    obs.on_event(&Event::CacheMiss {
                        cycle: c + 1,
                        cache: CacheKind::DCache,
                        pc,
                        addr: mref.addr,
                        is_store: mref.is_store,
                    });
                }
                self.mispredict_block = Some((c, !mref.is_store));
                (2 + pen, true)
            }
            None => {
                counters.not_speculated += 1;
                if mref.is_store {
                    self.last_store_access = self.last_store_access.max(c + 1);
                }
                self.ports.add_read(c + 1);
                let hit = self.dcache.access(mref.addr, mref.is_store).hit;
                let pen = if hit { 0 } else { self.miss_fill_latency(c + 1, mref.addr) };
                if obs.enabled() && !hit {
                    obs.on_event(&Event::CacheMiss {
                        cycle: c + 1,
                        cache: CacheKind::DCache,
                        pc,
                        addr: mref.addr,
                        is_store: mref.is_store,
                    });
                }
                if mref.is_store {
                    let enter = self.sb_admit(c + 1, stats, obs).max(c + 1);
                    self.sb_book_retire(enter);
                    (2, false)
                } else {
                    (2 + pen, false)
                }
            }
        }
    }

    /// Advances the pipeline by one committed instruction; returns the
    /// cycle at which it issued.
    pub fn advance(&mut self, ex: &Executed, stats: &mut SimStats) -> u64 {
        self.advance_traced(ex, stats).issue
    }

    /// Like [`Pipeline::advance`] but returns the full per-instruction
    /// timing. Decodes `ex.insn` on every call; a whole-program simulation
    /// decodes each static instruction once instead and calls
    /// [`Pipeline::advance_obs`].
    pub fn advance_traced(&mut self, ex: &Executed, stats: &mut SimStats) -> IssueInfo {
        let si = StaticInsn::decode(&ex.insn, &self.cfg.fu);
        self.advance_obs(ex, &si, stats, &mut NullObserver)
    }

    /// The one timing path: [`Pipeline::advance_traced`] with `ex.insn`
    /// already decoded into `si` (which must equal
    /// [`StaticInsn::decode`] of it under this pipeline's configuration),
    /// also emitting cycle-stamped [`Event`]s into `obs`. With
    /// [`NullObserver`] every emission site monomorphizes away, so the
    /// plain entry points cost nothing.
    pub fn advance_obs<O: Observer>(
        &mut self,
        ex: &Executed,
        si: &StaticInsn,
        stats: &mut SimStats,
        obs: &mut O,
    ) -> IssueInfo {
        debug_assert_eq!(*si, StaticInsn::decode(&ex.insn, &self.cfg.fu), "stale decode slot");
        let fetch = self.fetch_cycle(ex.pc, stats, obs);
        let class = si.class;
        let timing = si.timing;

        // Earliest issue: in-order, after decode, operands ready. Under
        // the AGI organization, non-memory non-control operations execute
        // one stage later (next to cache access), so their operands may
        // arrive a cycle after issue and their results appear a cycle
        // later — which removes the load-use hazard but creates the
        // address-use hazard on memory operations (whose base registers
        // are still needed at issue, in the address-generation stage).
        let agi_late = self.cfg.pipeline_org == PipelineOrg::Agi
            && ex.mem.is_none()
            && !si.control
            && class != FuClass::None;
        let mut c = self.last_issue.max(fetch + 2);
        for src in si.srcs.iter() {
            let ready = self.reg_ready[src as usize];
            c = c.max(if agi_late { ready.saturating_sub(1) } else { ready });
        }

        let is_mem = ex.mem.is_some();
        let is_load = ex.mem.map(|m| !m.is_store).unwrap_or(false);
        let is_store = ex.mem.map(|m| m.is_store).unwrap_or(false);

        // Structural hazards: issue width, memory issue limits, FU
        // availability, data-cache read ports.
        loop {
            let (issued, loads, stores) = if c == self.last_issue {
                (self.issued_now, self.loads_now, self.stores_now)
            } else {
                (0, 0, 0)
            };
            // "Up to 2 loads or 1 store per cycle": loads and store probes
            // share the two replicated read ports, at most one store.
            if issued >= self.cfg.issue_width
                || (is_load && loads >= self.cfg.max_loads_per_cycle)
                || (is_store && stores >= self.cfg.max_stores_per_cycle)
                || (is_mem && loads + stores >= self.cfg.max_loads_per_cycle)
            {
                c += 1;
                continue;
            }
            if let Some(pool) = self.pool(class) {
                let e = pool.earliest(c);
                if e > c {
                    c = e;
                    continue;
                }
            }
            if is_mem {
                // A memory access needs a read port in EX (speculative) or
                // MEM; conservatively require one free in the window.
                let need_at = c + 1;
                if self.ports.reads(c) >= self.cfg.dcache_read_ports
                    && self.ports.reads(need_at) >= self.cfg.dcache_read_ports
                {
                    c += 1;
                    continue;
                }
            }
            break;
        }

        // Claim resources.
        self.sb_drain_to(c);
        if c != self.last_issue {
            self.last_issue = c;
            self.issued_now = 0;
            self.loads_now = 0;
            self.stores_now = 0;
        }
        self.issued_now += 1;
        if is_load {
            self.loads_now += 1;
        }
        if is_store {
            self.stores_now += 1;
        }
        let interval = timing.interval;
        if let Some(pool) = self.pool(class) {
            pool.claim(c, interval);
        }

        // Result latency.
        let (latency, replayed) = if let Some(mref) = &ex.mem {
            self.mem_timing(c, ex.pc, mref, stats, obs)
        } else {
            (timing.latency + agi_late as u64, false)
        };

        // Scoreboard updates. For post-increment accesses the base-register
        // update is an ALU-side result, ready a cycle after issue.
        if let Some(mref) = &ex.mem {
            let mut first = true;
            let has_data_dst = !mref.is_store;
            for d in si.dsts.iter() {
                let ready = if has_data_dst && first { c + latency } else { c + 1 };
                self.reg_ready[d as usize] = self.reg_ready[d as usize].max(ready);
                first = false;
            }
        } else {
            for d in si.dsts.iter() {
                self.reg_ready[d as usize] = self.reg_ready[d as usize].max(c + latency);
            }
        }
        self.max_complete = self.max_complete.max(c + latency);

        // Control flow: BTB prediction and redirect costs.
        if si.control {
            stats.branches += 1;
            let actual_taken = ex.taken.is_some();
            let target = ex.taken.unwrap_or(ex.pc.wrapping_add(4));
            let correct = match self.btb.predict(ex.pc) {
                Some(t) => actual_taken && t == target,
                None => !actual_taken,
            };
            self.btb.update(ex.pc, actual_taken, target);
            if !correct {
                stats.branch_mispredicts += 1;
                // Resolve at end of EX; refetch after the penalty. With the
                // 2-deep front end this costs `penalty` issue bubbles. The
                // AGI organization resolves branches one stage later (§6).
                let agi_extra = (self.cfg.pipeline_org == PipelineOrg::Agi) as u64;
                self.next_fetch = c + self.cfg.branch_mispredict_penalty - 1 + agi_extra;
                self.group_left = 0;
            } else if actual_taken {
                self.group_left = 0;
            }
        }

        IssueInfo { fetch, issue: c, complete: c + latency, replayed }
    }

    /// Finalizes the simulation: returns the total cycle count (last
    /// completion, including draining the store buffer) and writes the
    /// cache/TLB statistics into `stats`.
    pub fn finish(&mut self, stats: &mut SimStats) -> u64 {
        stats.icache = *self.icache.stats();
        stats.dcache = *self.dcache.stats();
        if let Some(tlb) = &self.tlb {
            stats.tlb = Some(*tlb.stats());
        }
        if let Some(ltb) = &self.ltb {
            stats.ltb = Some(*ltb.stats());
        }
        // Remaining buffered stores drain one per cycle after the last
        // instruction completes.
        let end = self.max_complete.max(self.last_issue);
        end + self.sb_queue.len() as u64 + 1
    }

    /// Live data-cache port bookings as `(cycle, reads, writes)` — the
    /// invariant checker scans these at the end of a run. Only slots touched
    /// within the last `PORT_RING` cycles are still live; older ones were
    /// lazily recycled.
    pub(crate) fn port_usage(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.ports.slots.iter().copied().filter(|s| s.0 != u64::MAX)
    }

    /// Serializes the complete timing state for a machine checkpoint:
    /// predictor/LTB/TLB streams, cache tag arrays, BTB, scoreboard,
    /// port-ring bookings, FU pools, fetch-group cursors, store buffer,
    /// replay-blocking state and MSHRs. Everything [`Pipeline::new`]
    /// derives from the configuration alone (geometry, latencies) is not
    /// written — the restore side rebuilds it from the same configuration.
    pub(crate) fn save_state(&self, w: &mut fac_core::snap::SnapWriter) {
        match &self.predictor {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                p.save_state(w);
            }
        }
        match &self.ltb {
            None => w.u8(0),
            Some(ltb) => {
                w.u8(1);
                ltb.save_state(w);
            }
        }
        self.icache.save_state(w);
        self.dcache.save_state(w);
        self.btb.save_state(w);
        match &self.tlb {
            None => w.u8(0),
            Some(tlb) => {
                w.u8(1);
                tlb.save_state(w);
            }
        }

        for c in self.reg_ready {
            w.u64(c);
        }
        w.u64(self.last_issue);
        w.u32(self.issued_now);
        w.u32(self.loads_now);
        w.u32(self.stores_now);

        // Port ring: only live (non-sentinel) slots, as (index, booking).
        let live: Vec<(usize, (u64, u32, u32))> = self
            .ports
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.0 != u64::MAX)
            .map(|(i, s)| (i, *s))
            .collect();
        w.len_of(live.len());
        for (i, (cycle, reads, writes)) in live {
            w.u32(i as u32);
            w.u64(cycle);
            w.u32(reads);
            w.u32(writes);
        }

        for pool in [
            &self.pools_int,
            &self.pools_ls,
            &self.pools_fpadd,
            &self.pools_imul,
            &self.pools_fpmul,
        ] {
            w.len_of(pool.next_free.len());
            for c in &pool.next_free {
                w.u64(*c);
            }
        }

        w.u64(self.next_fetch);
        w.u64(self.group_fetch);
        w.u32(self.group_left);
        w.u32(self.group_block);

        w.len_of(self.sb_queue.len());
        for c in &self.sb_queue {
            w.u64(*c);
        }
        w.u64(self.sb_cursor);

        match self.mispredict_block {
            None => w.u8(0),
            Some((cycle, was_load)) => {
                w.u8(1);
                w.u64(cycle);
                w.bool(was_load);
            }
        }
        w.u64(self.last_store_access);
        w.len_of(self.mshrs.len());
        for (cycle, block) in &self.mshrs {
            w.u64(*cycle);
            w.u32(*block);
        }
        w.u64(self.max_complete);
    }

    /// Restores [`Pipeline::save_state`] into a pipeline freshly built
    /// from the same configuration.
    pub(crate) fn load_state(
        &mut self,
        r: &mut fac_core::snap::SnapReader<'_>,
    ) -> Result<(), fac_core::snap::SnapError> {
        use fac_core::snap::SnapError;
        let opt = |present: bool, have: bool, what: &str| -> Result<(), SnapError> {
            if present != have {
                return Err(SnapError::new(format!(
                    "{what} mismatch: snapshot {}, machine {}",
                    if present { "has one" } else { "has none" },
                    if have { "has one" } else { "has none" }
                )));
            }
            Ok(())
        };

        let has = r.bool("predictor present")?;
        opt(has, self.predictor.is_some(), "predictor")?;
        if let Some(p) = &mut self.predictor {
            p.load_state(r)?;
        }
        let has = r.bool("ltb present")?;
        opt(has, self.ltb.is_some(), "ltb")?;
        if let Some(ltb) = &mut self.ltb {
            ltb.load_state(r)?;
        }
        self.icache.load_state(r)?;
        self.dcache.load_state(r)?;
        self.btb.load_state(r)?;
        let has = r.bool("tlb present")?;
        opt(has, self.tlb.is_some(), "tlb")?;
        if let Some(tlb) = &mut self.tlb {
            tlb.load_state(r)?;
        }

        for c in &mut self.reg_ready {
            *c = r.u64("reg_ready")?;
        }
        self.last_issue = r.u64("last_issue")?;
        self.issued_now = r.u32("issued_now")?;
        self.loads_now = r.u32("loads_now")?;
        self.stores_now = r.u32("stores_now")?;

        self.ports.slots.fill((u64::MAX, 0, 0));
        let live = r.len_of(PORT_RING, "port ring live slots")?;
        for _ in 0..live {
            let i = r.u32("port ring slot index")? as usize;
            let cycle = r.u64("port ring slot cycle")?;
            let reads = r.u32("port ring slot reads")?;
            let writes = r.u32("port ring slot writes")?;
            if i >= PORT_RING || cycle == u64::MAX {
                return Err(SnapError::new(format!("bad port ring slot {i}")));
            }
            self.ports.slots[i] = (cycle, reads, writes);
        }

        for pool in [
            &mut self.pools_int,
            &mut self.pools_ls,
            &mut self.pools_fpadd,
            &mut self.pools_imul,
            &mut self.pools_fpmul,
        ] {
            let n = r.len_of(pool.next_free.len(), "fu pool units")?;
            if n != pool.next_free.len() {
                return Err(SnapError::new(format!(
                    "fu pool mismatch: snapshot has {n} units, machine has {}",
                    pool.next_free.len()
                )));
            }
            for c in &mut pool.next_free {
                *c = r.u64("fu pool next_free")?;
            }
        }

        self.next_fetch = r.u64("next_fetch")?;
        self.group_fetch = r.u64("group_fetch")?;
        self.group_left = r.u32("group_left")?;
        self.group_block = r.u32("group_block")?;

        let n = r.len_of(self.cfg.store_buffer_entries, "store buffer queue")?;
        self.sb_queue.clear();
        for _ in 0..n {
            self.sb_queue.push_back(r.u64("store buffer entry")?);
        }
        self.sb_cursor = r.u64("sb_cursor")?;

        self.mispredict_block = if r.bool("mispredict_block present")? {
            Some((r.u64("mispredict_block cycle")?, r.bool("mispredict_block was_load")?))
        } else {
            None
        };
        self.last_store_access = r.u64("last_store_access")?;
        let n = r.len_of(self.cfg.mshr_entries as usize, "mshrs")?;
        self.mshrs.clear();
        for _ in 0..n {
            let cycle = r.u64("mshr cycle")?;
            let block = r.u32("mshr block")?;
            self.mshrs.push((cycle, block));
        }
        self.max_complete = r.u64("max_complete")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ArchState, Executed};
    use fac_asm::{Asm, SoftwareSupport};

    fn run_cycles(cfg: MachineConfig, build: impl FnOnce(&mut Asm)) -> (u64, SimStats) {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let p = a.link("t", &SoftwareSupport::on()).unwrap();
        let mut st = ArchState::new(&p);
        let mut pipe = Pipeline::new(cfg);
        let mut stats = SimStats::default();
        while !st.halted {
            let ex: Executed = st.step(&p).unwrap();
            stats.insts += 1;
            pipe.advance(&ex, &mut stats);
        }
        stats.cycles = pipe.finish(&mut stats);
        (stats.cycles, stats)
    }

    #[test]
    fn independent_alu_ops_issue_wide() {
        use fac_isa::Reg;
        // 8 independent ALU ops should take ~2 issue cycles, not 8.
        let (cycles, _) = run_cycles(MachineConfig::paper_baseline(), |a| {
            for i in 0..8 {
                a.li(Reg::new(8 + i), i as i32);
            }
        });
        // Fetch depth + 2 issue groups + drain; generous bound.
        assert!(cycles < 20, "got {cycles}");
    }

    #[test]
    fn dependent_chain_is_serial() {
        use fac_isa::Reg;
        let (fast, _) = run_cycles(MachineConfig::paper_baseline(), |a| {
            for i in 0..16 {
                a.li(Reg::new(8 + (i % 8)), i as i32);
            }
        });
        let (slow, _) = run_cycles(MachineConfig::paper_baseline(), |a| {
            a.li(Reg::T0, 1);
            for _ in 0..16 {
                a.addiu(Reg::T0, Reg::T0, 1);
            }
        });
        assert!(slow > fast, "dependent chain ({slow}) must beat wide issue ({fast})");
    }

    #[test]
    fn load_use_hazard_costs_a_cycle_without_fac() {
        use fac_isa::Reg;
        let body = |a: &mut Asm| {
            a.gp_word("x", 5);
            // Load-use chain, repeated.
            for _ in 0..32 {
                a.lw_gp(Reg::T0, "x", 0);
                a.addiu(Reg::T1, Reg::T0, 1);
            }
        };
        let (base, _) = run_cycles(MachineConfig::paper_baseline(), body);
        let (fac, stats) = run_cycles(MachineConfig::paper_baseline().with_fac(), body);
        assert!(fac < base, "FAC ({fac}) should beat baseline ({base})");
        assert_eq!(stats.pred_loads.fails(), 0, "gp-aligned loads must predict");
    }

    #[test]
    fn one_cycle_loads_match_fac_upper_bound() {
        use fac_isa::Reg;
        let body = |a: &mut Asm| {
            a.gp_word("x", 5);
            for _ in 0..32 {
                a.lw_gp(Reg::T0, "x", 0);
                a.addiu(Reg::T1, Reg::T0, 1);
            }
        };
        let (one, _) = run_cycles(MachineConfig::paper_baseline().with_one_cycle_loads(), body);
        let (fac, _) = run_cycles(MachineConfig::paper_baseline().with_fac(), body);
        // Perfect prediction ⇒ FAC should be within a cycle or two of the
        // 1-cycle-load what-if.
        assert!(fac <= one + 2, "fac {fac} vs one-cycle {one}");
    }

    #[test]
    fn cache_misses_hurt() {
        use fac_isa::Reg;
        let stride_body = |a: &mut Asm| {
            a.far_array("big", 256 * 1024, 32);
            a.la(Reg::S0, "big", 0);
            a.li(Reg::T2, 64);
            a.label("loop");
            // Stride through 64 cache-conflicting blocks (16 KB apart).
            a.lw(Reg::T0, 0, Reg::S0);
            a.lui(Reg::AT, 0); // filler
            a.li(Reg::T3, 16384);
            a.addu(Reg::S0, Reg::S0, Reg::T3);
            a.addiu(Reg::T2, Reg::T2, -1);
            a.bgtz(Reg::T2, "loop");
        };
        let (normal, s1) = run_cycles(MachineConfig::paper_baseline(), stride_body);
        let (perfect, _) = run_cycles(
            MachineConfig::paper_baseline().with_perfect_dcache(),
            stride_body,
        );
        assert!(s1.dcache.misses > 32, "expected conflict misses");
        assert!(normal > perfect, "misses ({normal}) must cost over perfect ({perfect})");
    }

    #[test]
    fn store_buffer_fills_under_store_bursts() {
        use fac_isa::Reg;
        let (_, stats) = run_cycles(MachineConfig::paper_baseline(), |a| {
            a.gp_array("buf", 512, 4);
            a.gp_addr(Reg::S0, "buf", 0);
            for i in 0..64 {
                a.sw(Reg::ZERO, (4 * (i % 64)) as i16, Reg::S0);
            }
        });
        assert!(stats.store_buffer_stalls > 0, "64 back-to-back stores must stall");
    }

    #[test]
    fn branch_mispredicts_counted_and_costly() {
        use fac_isa::Reg;
        // A data-dependent alternating branch mispredicts under 2-bit
        // counters roughly every iteration once in the toggling state.
        let body = |a: &mut Asm| {
            a.li(Reg::S0, 64);
            a.li(Reg::S1, 0);
            a.label("loop");
            a.andi(Reg::T0, Reg::S0, 1);
            a.beq(Reg::T0, Reg::ZERO, "even");
            a.addiu(Reg::S1, Reg::S1, 1);
            a.label("even");
            a.addiu(Reg::S0, Reg::S0, -1);
            a.bgtz(Reg::S0, "loop");
        };
        let (_, stats) = run_cycles(MachineConfig::paper_baseline(), body);
        assert!(stats.branch_mispredicts > 10);
        assert!(stats.branches > 100);
    }

    #[test]
    fn ltb_predicts_stable_load_addresses() {
        use fac_isa::Reg;
        let body = |a: &mut Asm| {
            a.gp_word("x", 5);
            // The same load PC hits the same address every iteration: an
            // LTB's best case.
            a.li(Reg::S0, 64);
            a.label("loop");
            a.lw_gp(Reg::T0, "x", 0);
            a.addiu(Reg::T1, Reg::T0, 1);
            a.addiu(Reg::S0, Reg::S0, -1);
            a.bgtz(Reg::S0, "loop");
        };
        let (base, _) = run_cycles(MachineConfig::paper_baseline(), body);
        let (ltb, stats) = run_cycles(MachineConfig::paper_baseline().with_ltb(512), body);
        assert!(ltb < base, "ltb {ltb} should beat base {base}");
        let s = stats.ltb.expect("ltb stats recorded");
        assert!(s.predictions > 32);
        assert!(s.accuracy() > 0.9, "accuracy {}", s.accuracy());
    }

    #[test]
    fn fac_takes_precedence_over_ltb() {
        use fac_isa::Reg;
        let cfg = MachineConfig::paper_baseline().with_fac().with_ltb(64);
        let (_, stats) = run_cycles(cfg, |a| {
            a.gp_word("x", 1);
            a.lw_gp(Reg::T0, "x", 0);
        });
        assert!(stats.ltb.is_none(), "LTB must be inert when FAC is on");
        assert_eq!(stats.pred_loads.attempts(), 1);
    }

    #[test]
    fn agi_pipeline_hides_load_use_latency() {
        use fac_isa::Reg;
        // Pure load-use chain: AGI removes the bubble the LUI pipe pays.
        let body = |a: &mut Asm| {
            a.gp_word("x", 5);
            for _ in 0..64 {
                a.lw_gp(Reg::T0, "x", 0);
                a.addiu(Reg::T1, Reg::T0, 1);
                a.addiu(Reg::T2, Reg::T1, 1);
            }
        };
        let (lui, _) = run_cycles(MachineConfig::paper_baseline(), body);
        let (agi, _) = run_cycles(MachineConfig::paper_baseline().with_agi_pipeline(), body);
        assert!(agi < lui, "agi {agi} should beat lui {lui} on load-use chains");
    }

    #[test]
    fn agi_pipeline_pays_the_address_use_hazard() {
        use fac_isa::Reg;
        // Compute a base, then immediately load through it: AGI stalls.
        let body = |a: &mut Asm| {
            a.gp_array("buf", 64, 4);
            a.gp_addr(Reg::S0, "buf", 0);
            for _ in 0..64 {
                a.addiu(Reg::S1, Reg::S0, 4); // address computation
                a.lw(Reg::T0, 0, Reg::S1); // immediately used as a base
            }
        };
        let (lui, _) = run_cycles(MachineConfig::paper_baseline(), body);
        let (agi, _) = run_cycles(MachineConfig::paper_baseline().with_agi_pipeline(), body);
        assert!(
            agi >= lui,
            "agi {agi} should not beat lui {lui} on address-use chains"
        );
    }

    #[test]
    fn bounded_mshrs_throttle_miss_bursts() {
        use fac_isa::Reg;
        // Independent loads striding across cache blocks: every one misses,
        // so outstanding misses pile onto the MSHRs.
        let body = |a: &mut Asm| {
            a.far_array("big", 128 * 1024, 32);
            a.la(Reg::S0, "big", 0);
            for i in 0..48i32 {
                a.lw(Reg::new(8 + (i % 8) as u8), 0, Reg::S0);
                a.addiu(Reg::S0, Reg::S0, 2048); // new block & set each time
            }
        };
        let mut one = MachineConfig::paper_baseline();
        one.mshr_entries = 1;
        let mut many = MachineConfig::paper_baseline();
        many.mshr_entries = 16;
        let (c1, s1) = run_cycles(one, body);
        let (c16, s16) = run_cycles(many, body);
        assert!(s1.dcache.misses >= 48);
        assert_eq!(s1.dcache.misses, s16.dcache.misses);
        assert!(
            c1 > c16,
            "1 MSHR ({c1}) must serialize misses that 16 MSHRs ({c16}) overlap"
        );
    }

    #[test]
    fn mshr_merging_bounds_same_block_misses() {
        use fac_isa::Reg;
        // Two back-to-back loads to the same (missing) block: the second
        // merges into the first fill rather than waiting two full misses.
        let body = |a: &mut Asm| {
            a.far_array("arr", 4096, 32);
            a.la(Reg::S0, "arr", 0);
            a.lw(Reg::T0, 0, Reg::S0);
            a.lw(Reg::T1, 4, Reg::S0);
            a.addu(Reg::T2, Reg::T0, Reg::T1);
        };
        let mut cfg = MachineConfig::paper_baseline();
        cfg.mshr_entries = 1;
        let (cycles, stats) = run_cycles(cfg, body);
        // One miss (the second access hits the tag array after allocate) —
        // regardless, the whole thing fits well under two serialized fills.
        assert!(stats.dcache.misses <= 2);
        assert!(cycles < 40, "got {cycles}");
    }

    #[test]
    fn misprediction_replays_add_bandwidth() {
        use fac_isa::Reg;
        // Loads with offsets crossing block boundaries from an unaligned
        // base: high misprediction rate.
        let (_, stats) = run_cycles(MachineConfig::paper_baseline().with_fac(), |a| {
            a.far_array("arr", 4096, 4);
            a.la(Reg::S0, "arr", 28); // base offset-in-block 28
            for _ in 0..32 {
                a.lw(Reg::T0, 8, Reg::S0); // 28+8 crosses the 32-byte block
            }
        });
        assert!(stats.pred_loads.fails() >= 32);
        assert_eq!(stats.extra_accesses, stats.pred_loads.fails() + stats.pred_stores.fails());
    }
}

#[cfg(test)]
mod port_ring_tests {
    use super::{PortRing, PORT_RING};
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn aliased_cycles_never_leak_counts() {
        let mut ring = PortRing::new();
        let c = 100u64;
        ring.add_read(c);
        ring.add_write(c);
        assert_eq!((ring.reads(c), ring.writes(c)), (1, 1));
        // A cycle one full ring later maps onto the same slot: it must see
        // fresh zeros, not cycle 100's bookings…
        let aliased = c + PORT_RING as u64;
        assert_eq!((ring.reads(aliased), ring.writes(aliased)), (0, 0));
        // …and that lazy reset recycled the slot, so the old cycle's counts
        // are gone rather than resurrected.
        assert_eq!((ring.reads(c), ring.writes(c)), (0, 0));
    }

    #[test]
    fn far_aliases_behave_like_near_ones() {
        let mut ring = PortRing::new();
        for k in 0..4u64 {
            let c = 7 + k * PORT_RING as u64;
            assert_eq!(ring.reads(c), 0, "alias {k} saw stale data");
            ring.add_read(c);
            ring.add_read(c);
            assert_eq!(ring.reads(c), 2);
        }
    }

    /// One step of the reference model: touching `cycle` evicts any *other*
    /// cycle that shares its slot, exactly like the ring's lazy reset.
    fn touch(model: &mut HashMap<u64, (u32, u32)>, cycle: u64) {
        let mask = PORT_RING as u64 - 1;
        model.retain(|&k, _| k == cycle || (k & mask) != (cycle & mask));
        model.entry(cycle).or_insert((0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring agrees with a map-based reference model on arbitrary
        /// interleavings of bookings and queries whose cycles span several
        /// full ring lengths (so slots alias and must recycle lazily).
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec(
                (0u64..4, 0u64..PORT_RING as u64, 0u8..4),
                1..200,
            )
        ) {
            let mut ring = PortRing::new();
            let mut model: HashMap<u64, (u32, u32)> = HashMap::new();
            for (wrap, offset, op) in ops {
                let cycle = wrap * PORT_RING as u64 + offset;
                touch(&mut model, cycle);
                let entry = model.get_mut(&cycle).unwrap();
                match op {
                    0 => {
                        ring.add_read(cycle);
                        entry.0 += 1;
                    }
                    1 => {
                        ring.add_write(cycle);
                        entry.1 += 1;
                    }
                    2 => prop_assert_eq!(ring.reads(cycle), entry.0),
                    _ => prop_assert_eq!(ring.writes(cycle), entry.1),
                }
            }
        }
    }
}

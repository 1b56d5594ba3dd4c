//! The golden reference oracle and the lockstep differential checker.
//!
//! The paper's safety claim — speculative cache access behind fast address
//! calculation is *architecturally invisible* — deserves machine-checked
//! ground truth, not just reviewed code. This module provides it in two
//! layers:
//!
//! * [`Oracle`]: a deliberately simple, non-pipelined, non-speculative
//!   interpreter over `fac-isa` programs. It shares **no execution code**
//!   with `exec.rs`/`pipeline.rs` — only the instruction definitions — and
//!   keeps its own independent paged memory ([`GoldenMem`]). Anything the
//!   two executors disagree on is a bug in one of them, by construction.
//! * [`Lockstep`]: runs the full [`Machine`](crate::Machine) (functional
//!   executor **and** timing pipeline, including any
//!   [`FaultPlan`](fac_core::FaultPlan) under test) side by side with the
//!   oracle, comparing the complete architectural state after every
//!   retired instruction and the touched memory at halt. The *first*
//!   mismatch surfaces as [`SimError::Divergence`] with a readable diff.
//!
//! Both executors run under the same watchdog step budget, so a program
//! that never halts becomes [`SimError::Runaway`] instead of a hang — a
//! property the fuzz harness in `fac-bench` depends on.

use crate::config::MachineConfig;
use crate::exec::{ArchState, ExecError};
use crate::machine::{check_budget, record_ref, SimError, SimReport};
use crate::obs::{NullObserver, Observer};
use crate::pipeline::{DecodeTable, Pipeline};
use crate::stats::SimStats;
use fac_asm::Program;
use fac_core::{AddrFields, FaultPlan, FaultyPredictor, Predictor};
use fac_isa::{
    AddrMode, AluImmOp, AluOp, BranchCond, FReg, FpCond, FpFmt, FpOp, Insn, LoadOp, MulDivOp,
    Reg, ShiftOp,
};
use std::collections::HashMap;

/// Page granule of the golden memory. Deliberately different from the main
/// simulator's page size so a paging bug in either store cannot mask the
/// same bug in the other.
const GOLD_PAGE: u32 = 1024;

/// The oracle's private sparse byte store: little-endian, zero on untouched
/// reads, independent of `fac_mem::Memory`.
#[derive(Debug, Clone, Default)]
pub struct GoldenMem {
    pages: HashMap<u32, Box<[u8; GOLD_PAGE as usize]>>,
}

impl GoldenMem {
    /// An empty memory.
    pub fn new() -> GoldenMem {
        GoldenMem::default()
    }

    /// One byte (zero if the page was never written).
    pub fn byte(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr / GOLD_PAGE)) {
            Some(page) => page[(addr % GOLD_PAGE) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page on demand.
    pub fn set_byte(&mut self, addr: u32, value: u8) {
        let page = self
            .pages
            .entry(addr / GOLD_PAGE)
            .or_insert_with(|| Box::new([0u8; GOLD_PAGE as usize]));
        page[(addr % GOLD_PAGE) as usize] = value;
    }

    /// A little-endian read of `size` (1, 2, 4 or 8) bytes, composed
    /// byte-wise so unaligned and page-straddling accesses need no special
    /// cases — the same lenient semantics the main simulator models.
    pub fn read(&self, addr: u32, size: u32) -> u64 {
        let mut v = 0u64;
        for i in (0..size).rev() {
            v = (v << 8) | u64::from(self.byte(addr.wrapping_add(i)));
        }
        v
    }

    /// The little-endian write matching [`GoldenMem::read`].
    pub fn write(&mut self, addr: u32, size: u32, value: u64) {
        for i in 0..size {
            self.set_byte(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Bulk image load (used for the program's data segment).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.set_byte(addr.wrapping_add(i as u32), b);
        }
    }

    /// Iterates every allocated page as `(base_address, bytes)`, in
    /// unspecified order.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8; GOLD_PAGE as usize])> {
        self.pages.iter().map(|(idx, page)| (idx * GOLD_PAGE, page.as_ref()))
    }
}

/// The memory effect of one retired oracle instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenStore {
    /// Effective address of the store.
    pub addr: u32,
    /// Bytes written.
    pub size: u32,
    /// The value written (zero-extended into 64 bits).
    pub value: u64,
}

/// One entry of the oracle's retirement-ordered architectural trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenStep {
    /// PC of the retired instruction.
    pub pc: u32,
    /// The instruction itself.
    pub insn: Insn,
    /// PC after the instruction (fall-through or taken target).
    pub next_pc: u32,
    /// The store effect, if the instruction was a store.
    pub store: Option<GoldenStore>,
}

/// The golden reference interpreter: one instruction per step, no pipeline,
/// no speculation, no cache — architectural semantics only.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Program counter.
    pub pc: u32,
    /// Integer register file (`regs[0]` pinned to zero).
    pub regs: [u32; 32],
    /// FP register file, raw bits.
    pub fregs: [u64; 32],
    /// HI register.
    pub hi: u32,
    /// LO register.
    pub lo: u32,
    /// FP condition flag.
    pub fcc: bool,
    /// The oracle's own memory.
    pub mem: GoldenMem,
    /// Set by `halt`.
    pub halted: bool,
}

impl Oracle {
    /// Initial state for `program`: data image loaded, `$gp`/`$sp` set, PC
    /// at the entry point.
    pub fn new(program: &Program) -> Oracle {
        let mut mem = GoldenMem::new();
        for blob in &program.data {
            mem.load(blob.addr, &blob.bytes);
        }
        let mut regs = [0u32; 32];
        regs[Reg::GP.index()] = program.gp;
        regs[Reg::SP.index()] = program.sp;
        Oracle {
            pc: program.entry,
            regs,
            fregs: [0u64; 32],
            hi: 0,
            lo: 0,
            fcc: false,
            mem,
            halted: false,
        }
    }

    /// Retires one instruction.
    ///
    /// # Errors
    ///
    /// [`SimError::Exec`] with `BadPc` when the PC leaves the text segment.
    pub fn step(&mut self, program: &Program) -> Result<GoldenStep, SimError> {
        let insn = match program.insn_index(self.pc) {
            Some(idx) => program.text[idx],
            None => return Err(SimError::Exec(ExecError::BadPc(self.pc))),
        };
        let pc = self.pc;
        let eff = exec_insn(self, pc, insn).map_err(SimError::Exec)?;
        self.pc = eff.next_pc;
        Ok(GoldenStep { pc, insn, next_pc: eff.next_pc, store: eff.store })
    }

    /// Runs `program` to halt under a watchdog budget, returning the number
    /// of retired instructions.
    ///
    /// # Errors
    ///
    /// [`SimError::Runaway`] when `max_steps` instructions retire without a
    /// halt; [`SimError::Exec`] when the PC leaves the text segment.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> Result<u64, SimError> {
        let mut steps = 0u64;
        while !self.halted {
            check_budget(steps, max_steps)?;
            self.step(program)?;
            steps += 1;
        }
        Ok(steps)
    }
}

/// The architectural register file and memory an [`exec_insn`] call reads
/// and writes — everything instruction semantics need, nothing an executor
/// is free to represent its own way.
///
/// Two independent cores implement this: the [`Oracle`] over its private
/// [`GoldenMem`], and the fast functional tier in [`crate::tier`] over the
/// main simulator's [`ArchState`]. Both therefore retire every instruction
/// through the *same* semantics function, so "the fast tier computes what
/// the oracle computes" holds by construction, while the detailed
/// pipeline's executor (`exec.rs`) remains fully independent code for the
/// differential checks to bite on.
pub trait ExecCore {
    /// Reads an integer register (`$zero` reads 0).
    fn reg(&self, r: Reg) -> u32;
    /// Writes an integer register (writes to `$zero` are dropped).
    fn set_reg(&mut self, r: Reg, v: u32);
    /// Reads an FP register's raw bits.
    fn freg(&self, f: FReg) -> u64;
    /// Writes an FP register's raw bits.
    fn set_freg(&mut self, f: FReg, v: u64);
    /// Reads HI.
    fn hi(&self) -> u32;
    /// Writes HI.
    fn set_hi(&mut self, v: u32);
    /// Reads LO.
    fn lo(&self) -> u32;
    /// Writes LO.
    fn set_lo(&mut self, v: u32);
    /// Reads the FP condition flag.
    fn fcc(&self) -> bool;
    /// Writes the FP condition flag.
    fn set_fcc(&mut self, v: bool);
    /// Marks the core halted (the `halt` instruction).
    fn halt(&mut self);
    /// Loads `size` bytes (1, 2, 4 or 8) at `addr`, zero-extended and
    /// little-endian. `pc` is the faulting instruction for strict-memory
    /// traps; the lenient oracle never fails.
    ///
    /// # Errors
    ///
    /// A strict-memory core returns [`ExecError::Misaligned`] or
    /// [`ExecError::Unmapped`].
    fn load(&mut self, pc: u32, addr: u32, size: u32) -> Result<u64, ExecError>;
    /// Stores the low `size` bytes of `value` at `addr`, little-endian.
    ///
    /// # Errors
    ///
    /// A strict-memory core returns [`ExecError::Misaligned`].
    fn store(&mut self, pc: u32, addr: u32, size: u32, value: u64) -> Result<(), ExecError>;
}

/// What [`exec_insn`] tells its caller beyond the state updates it already
/// applied: where control goes next, and the store effect (for lockstep
/// memory comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEffect {
    /// PC after the instruction (fall-through or taken target).
    pub next_pc: u32,
    /// The memory write, if the instruction was a store.
    pub store: Option<GoldenStore>,
}

/// Effective address and optional post-update of an addressing mode.
fn address<C: ExecCore>(core: &C, ea: AddrMode) -> (u32, Option<(Reg, u32)>) {
    match ea {
        AddrMode::BaseDisp { base, disp } => {
            let a = (i64::from(core.reg(base)) + i64::from(disp)) as u32;
            (a, None)
        }
        AddrMode::BaseIndex { base, index } => {
            let a = (i64::from(core.reg(base)) + i64::from(core.reg(index))) as u32;
            (a, None)
        }
        AddrMode::PostInc { base, step } => {
            let b = core.reg(base);
            let updated = (i64::from(b) + i64::from(step)) as u32;
            (b, Some((base, updated)))
        }
    }
}

/// Executes one instruction against `core`: the single architectural
/// semantics shared by the [`Oracle`] and the fast functional tier
/// ([`crate::tier`]). The caller owns instruction fetch (it knows where
/// `insn` came from) and the PC update (it knows how it tracks control
/// flow); this function applies every register, flag, and memory effect
/// and reports the successor PC.
///
/// # Errors
///
/// Whatever the core's [`ExecCore::load`] / [`ExecCore::store`] return —
/// strict-memory traps surface here, before any architectural update from
/// the faulting instruction is applied.
pub fn exec_insn<C: ExecCore>(core: &mut C, pc: u32, insn: Insn) -> Result<ExecEffect, ExecError> {
    let fall = pc.wrapping_add(4);
    let mut next = fall;
    let mut store = None;
    let branch_target = |off: i16| fall.wrapping_add((i32::from(off) as u32) << 2);

    match insn {
        Insn::Nop => {}
        Insn::Halt => core.halt(),
        Insn::Alu { op, rd, rs, rt } => {
            let (a, b) = (core.reg(rs), core.reg(rt));
            let v = match op {
                AluOp::Add | AluOp::Addu => (i64::from(a) + i64::from(b)) as u32,
                AluOp::Sub | AluOp::Subu => (i64::from(a) - i64::from(b)) as u32,
                AluOp::And => a & b,
                AluOp::Or => a | b,
                AluOp::Xor => a ^ b,
                AluOp::Nor => !(a | b),
                AluOp::Slt => u32::from((a as i32) < (b as i32)),
                AluOp::Sltu => u32::from(a < b),
                AluOp::Sllv => b << (a & 31),
                AluOp::Srlv => b >> (a & 31),
                AluOp::Srav => ((b as i32) >> (a & 31)) as u32,
            };
            core.set_reg(rd, v);
        }
        Insn::AluImm { op, rt, rs, imm } => {
            let a = core.reg(rs);
            let v = match op {
                AluImmOp::Addi | AluImmOp::Addiu => (i64::from(a) + i64::from(imm)) as u32,
                AluImmOp::Slti => u32::from((a as i32) < i32::from(imm)),
                AluImmOp::Sltiu => u32::from(a < (i32::from(imm) as u32)),
                AluImmOp::Andi => a & u32::from(imm as u16),
                AluImmOp::Ori => a | u32::from(imm as u16),
                AluImmOp::Xori => a ^ u32::from(imm as u16),
            };
            core.set_reg(rt, v);
        }
        Insn::Shift { op, rd, rt, shamt } => {
            let b = core.reg(rt);
            let s = u32::from(shamt) & 31;
            let v = match op {
                ShiftOp::Sll => b << s,
                ShiftOp::Srl => b >> s,
                ShiftOp::Sra => ((b as i32) >> s) as u32,
            };
            core.set_reg(rd, v);
        }
        Insn::Lui { rt, imm } => core.set_reg(rt, u32::from(imm) << 16),
        Insn::MulDiv { op, rs, rt } => {
            let (a, b) = (core.reg(rs), core.reg(rt));
            let (hi, lo) = match op {
                MulDivOp::Mult => {
                    let p = i64::from(a as i32) * i64::from(b as i32);
                    (((p as u64) >> 32) as u32, p as u32)
                }
                MulDivOp::Multu => {
                    let p = u64::from(a) * u64::from(b);
                    ((p >> 32) as u32, p as u32)
                }
                MulDivOp::Div => {
                    if b == 0 {
                        (0, 0)
                    } else {
                        let (sa, sb) = (a as i32, b as i32);
                        (sa.wrapping_rem(sb) as u32, sa.wrapping_div(sb) as u32)
                    }
                }
                MulDivOp::Divu => {
                    if b == 0 {
                        (0, 0)
                    } else {
                        (a % b, a / b)
                    }
                }
            };
            core.set_hi(hi);
            core.set_lo(lo);
        }
        Insn::Mfhi { rd } => {
            let v = core.hi();
            core.set_reg(rd, v);
        }
        Insn::Mflo { rd } => {
            let v = core.lo();
            core.set_reg(rd, v);
        }
        Insn::Load { op, rt, ea } => {
            let (addr, post) = address(core, ea);
            let raw = core.load(pc, addr, op.size())?;
            let v = match op {
                LoadOp::Lb => i32::from(raw as u8 as i8) as u32,
                LoadOp::Lbu => raw as u32,
                LoadOp::Lh => i32::from(raw as u16 as i16) as u32,
                LoadOp::Lhu => raw as u32,
                LoadOp::Lw => raw as u32,
            };
            core.set_reg(rt, v);
            if let Some((base, updated)) = post {
                core.set_reg(base, updated);
            }
        }
        Insn::Store { op, rt, ea } => {
            let (addr, post) = address(core, ea);
            let size = op.size();
            let value = u64::from(core.reg(rt)) & (u64::MAX >> (64 - 8 * size));
            core.store(pc, addr, size, value)?;
            if let Some((base, updated)) = post {
                core.set_reg(base, updated);
            }
            store = Some(GoldenStore { addr, size, value });
        }
        Insn::LoadFp { fmt, ft, ea } => {
            let (addr, post) = address(core, ea);
            let raw = core.load(pc, addr, fmt.size())?;
            core.set_freg(ft, raw);
            if let Some((base, updated)) = post {
                core.set_reg(base, updated);
            }
        }
        Insn::StoreFp { fmt, ft, ea } => {
            let (addr, post) = address(core, ea);
            let size = fmt.size();
            let value = match fmt {
                FpFmt::S => u64::from(core.freg(ft) as u32),
                FpFmt::D => core.freg(ft),
            };
            core.store(pc, addr, size, value)?;
            if let Some((base, updated)) = post {
                core.set_reg(base, updated);
            }
            store = Some(GoldenStore { addr, size, value });
        }
        Insn::Fp { op, fmt, fd, fs, ft } => match fmt {
            FpFmt::D => {
                let a = f64::from_bits(core.freg(fs));
                let b = f64::from_bits(core.freg(ft));
                core.set_freg(fd, fp_op(op, a, b).to_bits());
            }
            FpFmt::S => {
                let a = f32::from_bits(core.freg(fs) as u32);
                let b = f32::from_bits(core.freg(ft) as u32);
                core.set_freg(fd, u64::from(fp_op32(op, a, b).to_bits()));
            }
        },
        Insn::FpCmp { cond, fmt, fs, ft } => {
            let (a, b) = match fmt {
                FpFmt::D => (f64::from_bits(core.freg(fs)), f64::from_bits(core.freg(ft))),
                FpFmt::S => (
                    f64::from(f32::from_bits(core.freg(fs) as u32)),
                    f64::from(f32::from_bits(core.freg(ft) as u32)),
                ),
            };
            core.set_fcc(match cond {
                FpCond::Eq => a == b,
                FpCond::Lt => a < b,
                FpCond::Le => a <= b,
            });
        }
        Insn::Bc1 { on_true, off } => {
            if core.fcc() == on_true {
                next = branch_target(off);
            }
        }
        Insn::Mtc1 { rt, fs } => {
            let v = u64::from(core.reg(rt));
            core.set_freg(fs, v);
        }
        Insn::Mfc1 { rt, fs } => {
            let bits = core.freg(fs) as u32;
            core.set_reg(rt, bits);
        }
        Insn::CvtFromW { fmt, fd, fs } => {
            let w = core.freg(fs) as u32 as i32;
            let v = match fmt {
                FpFmt::D => f64::from(w).to_bits(),
                FpFmt::S => u64::from((w as f32).to_bits()),
            };
            core.set_freg(fd, v);
        }
        Insn::TruncToW { fmt, fd, fs } => {
            let v = match fmt {
                FpFmt::D => f64::from_bits(core.freg(fs)),
                FpFmt::S => f64::from(f32::from_bits(core.freg(fs) as u32)),
            };
            core.set_freg(fd, u64::from((v as i32) as u32));
        }
        Insn::Branch { cond, rs, rt, off } => {
            let (a, b) = (core.reg(rs), core.reg(rt));
            let taken = match cond {
                BranchCond::Eq => a == b,
                BranchCond::Ne => a != b,
                BranchCond::Lez => (a as i32) <= 0,
                BranchCond::Gtz => (a as i32) > 0,
                BranchCond::Ltz => (a as i32) < 0,
                BranchCond::Gez => (a as i32) >= 0,
            };
            if taken {
                next = branch_target(off);
            }
        }
        Insn::J { target } => next = target << 2,
        Insn::Jal { target } => {
            core.set_reg(Reg::RA, fall);
            next = target << 2;
        }
        Insn::Jr { rs } => next = core.reg(rs),
        Insn::Jalr { rd, rs } => {
            let t = core.reg(rs);
            core.set_reg(rd, fall);
            next = t;
        }
    }

    Ok(ExecEffect { next_pc: next, store })
}

impl ExecCore for Oracle {
    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    fn freg(&self, f: FReg) -> u64 {
        self.fregs[f.index()]
    }

    fn set_freg(&mut self, f: FReg, v: u64) {
        self.fregs[f.index()] = v;
    }

    fn hi(&self) -> u32 {
        self.hi
    }

    fn set_hi(&mut self, v: u32) {
        self.hi = v;
    }

    fn lo(&self) -> u32 {
        self.lo
    }

    fn set_lo(&mut self, v: u32) {
        self.lo = v;
    }

    fn fcc(&self) -> bool {
        self.fcc
    }

    fn set_fcc(&mut self, v: bool) {
        self.fcc = v;
    }

    fn halt(&mut self) {
        self.halted = true;
    }

    fn load(&mut self, _pc: u32, addr: u32, size: u32) -> Result<u64, ExecError> {
        Ok(self.mem.read(addr, size))
    }

    fn store(&mut self, _pc: u32, addr: u32, size: u32, value: u64) -> Result<(), ExecError> {
        self.mem.write(addr, size, value);
        Ok(())
    }
}

fn fp_op(op: FpOp, a: f64, b: f64) -> f64 {
    match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Abs => a.abs(),
        FpOp::Neg => -a,
        FpOp::Mov => a,
        FpOp::Sqrt => a.sqrt(),
    }
}

fn fp_op32(op: FpOp, a: f32, b: f32) -> f32 {
    match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Abs => a.abs(),
        FpOp::Neg => -a,
        FpOp::Mov => a,
        FpOp::Sqrt => a.sqrt(),
    }
}

/// The lockstep differential checker: the full machine and the oracle, one
/// instruction at a time, with the complete architectural state compared at
/// every retirement.
///
/// ```
/// use fac_asm::{Asm, SoftwareSupport};
/// use fac_isa::Reg;
/// use fac_sim::{Lockstep, MachineConfig};
///
/// let mut a = Asm::new();
/// a.gp_word("x", 20);
/// a.lw_gp(Reg::T0, "x", 0);
/// a.addiu(Reg::T0, Reg::T0, 22);
/// a.sw_gp(Reg::T0, "x", 0);
/// a.halt();
/// let program = a.link("demo", &SoftwareSupport::on()).unwrap();
///
/// let report = Lockstep::new(MachineConfig::paper_baseline().with_fac())
///     .run(&program)
///     .unwrap();
/// assert_eq!(report.final_state.regs[Reg::T0.index()], 42);
/// ```
#[derive(Debug, Clone)]
pub struct Lockstep {
    config: MachineConfig,
    max_insts: u64,
    escape: Option<FaultPlan>,
}

impl Lockstep {
    /// A lockstep run of the machine described by `config` against the
    /// oracle, with the default watchdog budget.
    pub fn new(config: MachineConfig) -> Lockstep {
        Lockstep { config, max_insts: 2_000_000_000, escape: None }
    }

    /// Caps both executors at `max` retired instructions
    /// ([`SimError::Runaway`] past that).
    pub fn with_max_insts(mut self, max: u64) -> Lockstep {
        self.max_insts = max;
        self
    }

    /// Sabotage mode for self-testing the checker: model a broken pipeline
    /// whose *verification circuit is disconnected*, so a speculated load
    /// whose fault plan mispredicts silently retires the value read at the
    /// **predicted** (wrong) address. A sound verification path makes this
    /// state unreachable — [`Lockstep::run`] under this mode must therefore
    /// report [`SimError::Divergence`], and a checker that stays silent is
    /// itself broken.
    pub fn with_escaped_speculation(mut self, plan: FaultPlan) -> Lockstep {
        self.escape = Some(plan);
        self
    }

    /// The watchdog budget.
    pub fn max_insts(&self) -> u64 {
        self.max_insts
    }

    /// Runs machine and oracle in lockstep. On success the report is the
    /// machine's own (timing statistics included), so `--oracle` runs
    /// compose with all existing reporting.
    ///
    /// # Errors
    ///
    /// Everything [`crate::Machine::run`] can return, plus
    /// [`SimError::Divergence`] at the first architectural mismatch.
    pub fn run(&self, program: &Program) -> Result<SimReport, SimError> {
        self.run_observed(program, &mut NullObserver)
    }

    /// [`Lockstep::run`] with a live [`Observer`] on the machine side (the
    /// oracle is invisible to observers — it has no timing to report).
    ///
    /// # Errors
    ///
    /// Same as [`Lockstep::run`].
    pub fn run_observed<O: Observer>(
        &self,
        program: &Program,
        obs: &mut O,
    ) -> Result<SimReport, SimError> {
        self.config.validate()?;
        let mut state = ArchState::new(program);
        state.strict_mem = self.config.strict_mem;
        let decoded = DecodeTable::new(program, &self.config);
        let mut pipe = Pipeline::new(self.config);
        let mut stats = SimStats::default();
        let mut oracle = Oracle::new(program);
        let mut saboteur = self.escape.map(|plan| {
            let fields = AddrFields::for_set_associative(
                self.config.dcache.size_bytes,
                self.config.dcache.block_bytes,
                self.config.dcache.ways,
            );
            let pred_cfg = self.config.fac.map(|f| f.predictor).unwrap_or_default();
            FaultyPredictor::new(Predictor::new(fields, pred_cfg), plan)
        });

        while !state.halted {
            check_budget(stats.insts, self.max_insts)?;
            let step = stats.insts;
            let ex = state.step(program)?;
            if let Some(fp) = &mut saboteur {
                escape_speculation(fp, &mut state, &ex);
            }
            let gold = oracle.step(program)?;
            stats.insts += 1;
            record_ref(&mut stats, &ex);
            compare_step(step, &state, &ex, &oracle, &gold)?;
            pipe.advance_obs(&ex, decoded.get(ex.pc), &mut stats, obs);
        }

        if !oracle.halted {
            return Err(SimError::Divergence {
                step: stats.insts,
                pc: oracle.pc,
                expected: "oracle still running".into(),
                actual: "machine halted".into(),
            });
        }
        compare_memory(stats.insts, &state, &oracle)?;

        stats.cycles = pipe.finish(&mut stats);
        stats.mem_footprint = state.mem.footprint();
        Ok(SimReport { program: program.name.clone(), stats, final_state: state })
    }
}

/// Models escaped speculation (see [`Lockstep::with_escaped_speculation`]):
/// when the faulted predictor claims success on a wrong predicted address,
/// the machine's destination register silently receives the data at that
/// wrong address.
fn escape_speculation(fp: &mut FaultyPredictor, state: &mut ArchState, ex: &crate::Executed) {
    let Some(mref) = &ex.mem else { return };
    if mref.is_store || !fp.should_speculate(mref.offset, false) {
        return;
    }
    let pred = fp.predict(mref.base_value, mref.offset);
    if pred.signals.any() || pred.predicted == pred.actual {
        return; // flagged for replay, or coincidentally right: no escape
    }
    let Insn::Load { op, rt, ea } = ex.insn else { return };
    if let AddrMode::PostInc { base, .. } = ea {
        if base == rt {
            return; // the post-update overwrote the loaded value anyway
        }
    }
    let wrong = match op {
        LoadOp::Lb => state.mem.read_u8(pred.predicted) as i8 as i32 as u32,
        LoadOp::Lbu => u32::from(state.mem.read_u8(pred.predicted)),
        LoadOp::Lh => state.mem.read_u16(pred.predicted) as i16 as i32 as u32,
        LoadOp::Lhu => u32::from(state.mem.read_u16(pred.predicted)),
        LoadOp::Lw => state.mem.read_u32(pred.predicted),
    };
    if !rt.is_zero() {
        state.regs[rt.index()] = wrong;
    }
}

/// Builds the divergence error for one mismatched quantity.
pub(crate) fn diverged<T: std::fmt::LowerHex>(
    step: u64,
    pc: u32,
    what: impl std::fmt::Display,
    expected: T,
    actual: T,
) -> SimError {
    SimError::Divergence {
        step,
        pc,
        expected: format!("{what} = {expected:#010x}"),
        actual: format!("{what} = {actual:#010x}"),
    }
}

/// Compares the full architectural state after one lockstep retirement.
fn compare_step(
    step: u64,
    state: &ArchState,
    ex: &crate::Executed,
    oracle: &Oracle,
    gold: &GoldenStep,
) -> Result<(), SimError> {
    let pc = gold.pc;
    if ex.pc != gold.pc {
        return Err(diverged(step, pc, "retired pc", gold.pc, ex.pc));
    }
    if ex.insn != gold.insn {
        return Err(SimError::Divergence {
            step,
            pc,
            expected: format!("insn `{}`", gold.insn),
            actual: format!("insn `{}`", ex.insn),
        });
    }
    if let Some(st) = &gold.store {
        let machine_wrote = state.mem.read_bytes(st.addr, st.size as usize);
        let oracle_wrote: Vec<u8> =
            (0..st.size).map(|i| oracle.mem.byte(st.addr.wrapping_add(i))).collect();
        if machine_wrote != oracle_wrote {
            return Err(SimError::Divergence {
                step,
                pc,
                expected: format!("mem[{:#010x};{}] = {:02x?}", st.addr, st.size, oracle_wrote),
                actual: format!("mem[{:#010x};{}] = {:02x?}", st.addr, st.size, machine_wrote),
            });
        }
        match &ex.mem {
            Some(m) if m.is_store => {
                if m.addr != st.addr {
                    return Err(diverged(step, pc, "store address", st.addr, m.addr));
                }
            }
            _ => {
                return Err(SimError::Divergence {
                    step,
                    pc,
                    expected: format!("a store to {:#010x}", st.addr),
                    actual: "no store effect".into(),
                });
            }
        }
    }
    for i in 1..32 {
        if state.regs[i] != oracle.regs[i] {
            return Err(diverged(step, pc, Reg::new(i as u8), oracle.regs[i], state.regs[i]));
        }
    }
    for i in 0..32 {
        if state.fregs[i] != oracle.fregs[i] {
            return Err(diverged(
                step,
                pc,
                fac_isa::FReg::new(i as u8),
                oracle.fregs[i],
                state.fregs[i],
            ));
        }
    }
    if state.hi != oracle.hi {
        return Err(diverged(step, pc, "hi", oracle.hi, state.hi));
    }
    if state.lo != oracle.lo {
        return Err(diverged(step, pc, "lo", oracle.lo, state.lo));
    }
    if state.fcc != oracle.fcc {
        return Err(SimError::Divergence {
            step,
            pc,
            expected: format!("fcc = {}", oracle.fcc),
            actual: format!("fcc = {}", state.fcc),
        });
    }
    if state.pc != oracle.pc {
        return Err(diverged(step, pc, "next pc", oracle.pc, state.pc));
    }
    Ok(())
}

/// Final sweep at halt: every byte the oracle's memory holds must read back
/// identically from the machine's memory. (The converse needs no sweep —
/// every machine store was already matched against the oracle's at
/// retirement.)
pub(crate) fn compare_memory(step: u64, state: &ArchState, oracle: &Oracle) -> Result<(), SimError> {
    for (base, page) in oracle.mem.pages() {
        for (i, &want) in page.iter().enumerate() {
            let addr = base.wrapping_add(i as u32);
            let got = state.mem.read_u8(addr);
            if got != want {
                return Err(SimError::Divergence {
                    step,
                    pc: state.pc,
                    expected: format!("final mem[{addr:#010x}] = {want:#04x}"),
                    actual: format!("final mem[{addr:#010x}] = {got:#04x}"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fac_asm::{Asm, SoftwareSupport};
    use fac_core::FaultKind;

    fn sum_program() -> Program {
        let mut a = Asm::new();
        a.gp_array("data", 256, 4);
        a.gp_word("checksum", 0);
        a.gp_addr(Reg::S0, "data", 0);
        a.li(Reg::T0, 64);
        a.li(Reg::T1, 3);
        a.label("fill");
        a.sw_pi(Reg::T1, Reg::S0, 4);
        a.addiu(Reg::T1, Reg::T1, 7);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bgtz(Reg::T0, "fill");
        a.gp_addr(Reg::S0, "data", 0);
        a.li(Reg::T0, 64);
        a.li(Reg::V0, 0);
        a.label("sum");
        a.lw_pi(Reg::T2, Reg::S0, 4);
        a.addu(Reg::V0, Reg::V0, Reg::T2);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bgtz(Reg::T0, "sum");
        a.sw_gp(Reg::V0, "checksum", 0);
        a.halt();
        a.link("sum", &SoftwareSupport::on()).unwrap()
    }

    #[test]
    fn oracle_alone_matches_expected_arithmetic() {
        let p = sum_program();
        let mut o = Oracle::new(&p);
        let steps = o.run(&p, 100_000).unwrap();
        assert!(o.halted);
        assert!(steps > 0);
        let expected: u32 = (0..64).map(|i| 3 + 7 * i).sum();
        assert_eq!(o.regs[Reg::V0.index()], expected);
        assert_eq!(o.mem.read(p.symbol("checksum"), 4) as u32, expected);
    }

    #[test]
    fn lockstep_agrees_on_baseline_and_fac() {
        let p = sum_program();
        for cfg in [
            MachineConfig::paper_baseline(),
            MachineConfig::paper_baseline().with_fac(),
            MachineConfig::paper_baseline().with_fac().with_tlb(),
        ] {
            let r = Lockstep::new(cfg).run(&p).unwrap();
            assert!(r.stats.cycles > 0);
        }
    }

    #[test]
    fn lockstep_agrees_under_every_builtin_fault_plan() {
        let p = sum_program();
        for plan in FaultPlan::builtin() {
            let cfg = MachineConfig::paper_baseline().with_fac().with_fault_plan(plan);
            Lockstep::new(cfg).run(&p).unwrap_or_else(|e| panic!("{plan}: {e}"));
        }
    }

    #[test]
    fn escaped_speculation_is_detected_as_divergence() {
        let p = sum_program();
        let plan = FaultPlan::new(FaultKind::SilentWrong);
        let err = Lockstep::new(MachineConfig::paper_baseline().with_fac())
            .with_escaped_speculation(plan)
            .run(&p)
            .unwrap_err();
        match err {
            SimError::Divergence { expected, actual, .. } => assert_ne!(expected, actual),
            other => panic!("expected a divergence, got {other}"),
        }
    }

    #[test]
    fn oracle_watchdog_fires() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let p = a.link("spin", &SoftwareSupport::on()).unwrap();
        let mut o = Oracle::new(&p);
        assert_eq!(o.run(&p, 500).unwrap_err(), SimError::Runaway(500));
        let err = Lockstep::new(MachineConfig::paper_baseline())
            .with_max_insts(500)
            .run(&p)
            .unwrap_err();
        assert_eq!(err, SimError::Runaway(500));
    }

    #[test]
    fn golden_mem_is_little_endian_and_zero_filled() {
        let mut m = GoldenMem::new();
        assert_eq!(m.read(0x1234, 8), 0);
        m.write(0x10, 4, 0x0403_0201);
        assert_eq!(m.byte(0x10), 0x01);
        assert_eq!(m.byte(0x13), 0x04);
        assert_eq!(m.read(0x0e, 4), 0x0201_0000); // straddles the write start
        // Page-straddling write.
        m.write(GOLD_PAGE - 2, 4, 0xdead_beef);
        assert_eq!(m.read(GOLD_PAGE - 2, 4), 0xdead_beef);
    }
}

//! Tiered execution: a fast functional tier and SMARTS-style sampled timing.
//!
//! The detailed 5-stage model in [`crate::Machine`] prices every
//! instruction at full pipeline fidelity, which caps campaign throughput
//! long before billion-instruction workloads. This module adds the two
//! standard escape hatches:
//!
//! * [`Functional`] — a fast architectural-only interpreter built on a
//!   decoded-basic-block cache: each block is decoded once into a flat
//!   `Vec` of closed-form micro-ops ([`Op`]) and re-dispatched from the
//!   cache on every revisit, with the cache invalidated when the program
//!   fingerprint changes. Instruction semantics are the *same*
//!   [`crate::oracle::exec_insn`] the golden-reference interpreter
//!   retires through (the closed-form fast paths are pinned against it by
//!   the differential suite in `tests/tiered.rs` and by
//!   [`run_fast_verified`]).
//! * [`run_sampled`] — a sampling driver that alternates functional
//!   fast-forward with detailed measurement windows. The hand-off is the
//!   existing checkpoint frame: [`crate::functional_snapshot`] wraps the
//!   functional [`ArchState`] in a snapshot payload with fresh timing
//!   state, and [`crate::Machine::restore`] turns it into a live detailed
//!   [`crate::Session`]. Per-window cycle counts are stitched into a
//!   whole-program CPI estimate with a standard-error bound
//!   ([`SampledReport::cpi_stderr`]).
//!
//! Every tier shares the single step-budget rule (`check_budget`), so
//! `SimError::Runaway` fires at the identical instruction count whether a
//! program runs functionally, sampled, or fully detailed.

use crate::ckpt::{config_fingerprint, functional_snapshot_keyed, program_fingerprint};
use crate::exec::{ArchState, ExecError};
use crate::machine::{check_budget, Machine, SimError};
use crate::oracle::{compare_memory, diverged, exec_insn, ExecCore, Oracle};
use crate::{ConfigError, MachineConfig};
use fac_asm::Program;
use fac_isa::{
    AddrMode, AluImmOp, AluOp, BranchCond, FReg, FpCond, FpFmt, FpOp, Insn, LoadOp, MulDivOp,
    Reg, ShiftOp, StoreOp,
};

/// Decoded blocks never grow past this many micro-ops: bounds decode
/// latency for straight-line code and keeps fuel accounting responsive.
const MAX_BLOCK_OPS: usize = 64;

/// A decoded addressing mode with the displacement sign-extension done at
/// decode time.
#[derive(Debug, Clone, Copy)]
enum Ea {
    /// `disp(base)` — displacement already sign-extended to 32 bits.
    BaseDisp { base: Reg, disp: u32 },
    /// `(base+index)`.
    BaseIndex { base: Reg, index: Reg },
    /// `(base)+step` — post-increment, step already sign-extended.
    PostInc { base: Reg, step: u32 },
}

impl Ea {
    fn decode(ea: AddrMode) -> Ea {
        match ea {
            AddrMode::BaseDisp { base, disp } => {
                Ea::BaseDisp { base, disp: disp as i32 as u32 }
            }
            AddrMode::BaseIndex { base, index } => Ea::BaseIndex { base, index },
            AddrMode::PostInc { base, step } => Ea::PostInc { base, step: step as i32 as u32 },
        }
    }

    /// Effective address and optional post-update, matching
    /// [`crate::oracle::exec_insn`]'s address arithmetic bit-for-bit
    /// (sign-extended displacement, wrapping add).
    fn resolve(self, state: &ArchState) -> (u32, Option<(Reg, u32)>) {
        match self {
            Ea::BaseDisp { base, disp } => {
                (state.regs[base.index()].wrapping_add(disp), None)
            }
            Ea::BaseIndex { base, index } => (
                state.regs[base.index()].wrapping_add(state.regs[index.index()]),
                None,
            ),
            Ea::PostInc { base, step } => {
                let b = state.regs[base.index()];
                (b, Some((base, b.wrapping_add(step))))
            }
        }
    }
}

/// One closed-form micro-op of a decoded block. The hot integer core
/// (ALU, shifts, loads/stores, branches with precomputed targets) executes
/// without re-decoding; everything else falls back to [`Op::Exec`], which
/// routes through the shared [`exec_insn`] semantics — so the fast tier is
/// never *wrong* on a cold opcode, merely less specialized.
#[derive(Debug, Clone, Copy)]
enum Op {
    Nop,
    Halt,
    Alu { op: AluOp, rd: Reg, rs: Reg, rt: Reg },
    AluImm { op: AluImmOp, rt: Reg, rs: Reg, imm: i16 },
    Shift { op: ShiftOp, rd: Reg, rt: Reg, shamt: u8 },
    /// `lui` with the shift applied at decode time.
    Lui { rt: Reg, value: u32 },
    Load { op: LoadOp, rt: Reg, ea: Ea },
    Store { op: StoreOp, rt: Reg, ea: Ea },
    /// Conditional branch with the taken target precomputed.
    Branch { cond: BranchCond, rs: Reg, rt: Reg, target: u32 },
    /// `j` with the absolute target precomputed.
    Jump { target: u32 },
    /// `jal`: precomputed target and link value.
    Link { target: u32, link: u32 },
    JumpReg { rs: Reg },
    /// `jalr`: precomputed link value.
    LinkReg { rd: Reg, rs: Reg, link: u32 },
    /// FP condition branch with the taken target precomputed.
    Bc1 { on_true: bool, target: u32 },
    MulDiv { op: MulDivOp, rs: Reg, rt: Reg },
    Mfhi { rd: Reg },
    Mflo { rd: Reg },
    LoadFp { fmt: FpFmt, ft: FReg, ea: Ea },
    StoreFp { fmt: FpFmt, ft: FReg, ea: Ea },
    Fp { op: FpOp, fmt: FpFmt, fd: FReg, fs: FReg, ft: FReg },
    FpCmp { cond: FpCond, fmt: FpFmt, fs: FReg, ft: FReg },
    Mtc1 { rt: Reg, fs: FReg },
    Mfc1 { rt: Reg, fs: FReg },
    CvtFromW { fmt: FpFmt, fd: FReg, fs: FReg },
    /// Fallback: anything without a closed form (`trunc.w`).
    Exec(Insn),
}

/// Decodes one instruction at `pc`; the flag is `true` for block
/// terminators (control transfers and `halt`).
fn decode_op(insn: Insn, pc: u32) -> (Op, bool) {
    let fall = pc.wrapping_add(4);
    let branch_target = |off: i16| fall.wrapping_add((i32::from(off) as u32) << 2);
    match insn {
        Insn::Nop => (Op::Nop, false),
        Insn::Halt => (Op::Halt, true),
        Insn::Alu { op, rd, rs, rt } => (Op::Alu { op, rd, rs, rt }, false),
        Insn::AluImm { op, rt, rs, imm } => (Op::AluImm { op, rt, rs, imm }, false),
        Insn::Shift { op, rd, rt, shamt } => (Op::Shift { op, rd, rt, shamt }, false),
        Insn::Lui { rt, imm } => (Op::Lui { rt, value: u32::from(imm) << 16 }, false),
        Insn::Load { op, rt, ea } => (Op::Load { op, rt, ea: Ea::decode(ea) }, false),
        Insn::Store { op, rt, ea } => (Op::Store { op, rt, ea: Ea::decode(ea) }, false),
        Insn::Branch { cond, rs, rt, off } => {
            (Op::Branch { cond, rs, rt, target: branch_target(off) }, true)
        }
        Insn::J { target } => (Op::Jump { target: target << 2 }, true),
        Insn::Jal { target } => (Op::Link { target: target << 2, link: fall }, true),
        Insn::Jr { rs } => (Op::JumpReg { rs }, true),
        Insn::Jalr { rd, rs } => (Op::LinkReg { rd, rs, link: fall }, true),
        Insn::Bc1 { on_true, off } => (Op::Bc1 { on_true, target: branch_target(off) }, true),
        Insn::MulDiv { op, rs, rt } => (Op::MulDiv { op, rs, rt }, false),
        Insn::Mfhi { rd } => (Op::Mfhi { rd }, false),
        Insn::Mflo { rd } => (Op::Mflo { rd }, false),
        Insn::LoadFp { fmt, ft, ea } => (Op::LoadFp { fmt, ft, ea: Ea::decode(ea) }, false),
        Insn::StoreFp { fmt, ft, ea } => (Op::StoreFp { fmt, ft, ea: Ea::decode(ea) }, false),
        Insn::Fp { op, fmt, fd, fs, ft } => (Op::Fp { op, fmt, fd, fs, ft }, false),
        Insn::FpCmp { cond, fmt, fs, ft } => (Op::FpCmp { cond, fmt, fs, ft }, false),
        Insn::Mtc1 { rt, fs } => (Op::Mtc1 { rt, fs }, false),
        Insn::Mfc1 { rt, fs } => (Op::Mfc1 { rt, fs }, false),
        Insn::CvtFromW { fmt, fd, fs } => (Op::CvtFromW { fmt, fd, fs }, false),
        other => (Op::Exec(other), false),
    }
}

/// A pre-decoded run of straight-line code starting at some instruction
/// index, ending at the first control transfer, `halt`, block-size cap, or
/// end of text.
#[derive(Debug)]
struct DecodedBlock {
    ops: Vec<Op>,
}

fn decode_block(program: &Program, idx: usize) -> DecodedBlock {
    let mut ops = Vec::new();
    for (i, &insn) in program.text[idx..].iter().take(MAX_BLOCK_OPS).enumerate() {
        let pc = program.text_base.wrapping_add(((idx + i) as u32) << 2);
        let (op, terminator) = decode_op(insn, pc);
        ops.push(op);
        if terminator {
            break;
        }
    }
    DecodedBlock { ops }
}

/// The decoded-block cache: one slot per instruction index (blocks may
/// overlap — a branch into the middle of a straight-line run simply decodes
/// its own suffix block), invalidated wholesale when the program
/// fingerprint changes.
///
/// A cache can outlive one [`Functional`] run and be re-attached with
/// [`Functional::with_cache`], which is how a campaign amortizes decoding
/// across repeated runs of the same program.
#[derive(Debug, Default)]
pub struct BlockCache {
    program_fp: u64,
    blocks: Vec<Option<Box<DecodedBlock>>>,
    decoded: u64,
    invalidations: u64,
}

impl BlockCache {
    /// Creates an empty cache (bound to no program yet).
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Binds the cache to `program`: a no-op when the program fingerprint
    /// matches what the cache was decoded from, a full invalidation
    /// otherwise.
    pub fn sync(&mut self, program: &Program) {
        let fp = program_fingerprint(program);
        if fp != self.program_fp {
            if !self.blocks.is_empty() {
                self.invalidations += 1;
            }
            self.blocks.clear();
            self.program_fp = fp;
        }
        if self.blocks.len() != program.text.len() {
            self.blocks.resize_with(program.text.len(), || None);
        }
    }

    /// Blocks decoded since construction (monotone; survives `sync`).
    pub fn decoded_blocks(&self) -> u64 {
        self.decoded
    }

    /// Times a `sync` threw away a populated cache.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// The decoded block starting at instruction index `idx`, decoding it
    /// on first touch. The caller must have `sync`ed this cache to
    /// `program`.
    fn block(&mut self, program: &Program, idx: usize) -> &DecodedBlock {
        let slot = &mut self.blocks[idx];
        if slot.is_none() {
            *slot = Some(Box::new(decode_block(program, idx)));
            self.decoded += 1;
        }
        slot.as_deref().expect("slot filled above")
    }
}

/// Adapts [`ArchState`] to the shared [`ExecCore`] semantics for the
/// [`Op::Exec`] fallback: same register files, and loads/stores that honour
/// strict-memory mode through [`ArchState`]'s own trap rules.
struct ArchCore<'a>(&'a mut ArchState);

impl ExecCore for ArchCore<'_> {
    fn reg(&self, r: Reg) -> u32 {
        self.0.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.0.regs[r.index()] = v;
        }
    }

    fn freg(&self, f: FReg) -> u64 {
        self.0.fregs[f.index()]
    }

    fn set_freg(&mut self, f: FReg, v: u64) {
        self.0.fregs[f.index()] = v;
    }

    fn hi(&self) -> u32 {
        self.0.hi
    }

    fn set_hi(&mut self, v: u32) {
        self.0.hi = v;
    }

    fn lo(&self) -> u32 {
        self.0.lo
    }

    fn set_lo(&mut self, v: u32) {
        self.0.lo = v;
    }

    fn fcc(&self) -> bool {
        self.0.fcc
    }

    fn set_fcc(&mut self, v: bool) {
        self.0.fcc = v;
    }

    fn halt(&mut self) {
        self.0.halted = true;
    }

    fn load(&mut self, pc: u32, addr: u32, size: u32) -> Result<u64, ExecError> {
        self.0.check_mem(pc, addr, size, false)?;
        Ok(match size {
            1 => u64::from(self.0.mem.read_u8(addr)),
            2 => u64::from(self.0.mem.read_u16(addr)),
            4 => u64::from(self.0.mem.read_u32(addr)),
            _ => self.0.mem.read_u64(addr),
        })
    }

    fn store(&mut self, pc: u32, addr: u32, size: u32, value: u64) -> Result<(), ExecError> {
        self.0.check_mem(pc, addr, size, true)?;
        match size {
            1 => self.0.mem.write_u8(addr, value as u8),
            2 => self.0.mem.write_u16(addr, value as u16),
            4 => self.0.mem.write_u32(addr, value as u32),
            _ => self.0.mem.write_u64(addr, value),
        }
        Ok(())
    }
}

fn set_reg(state: &mut ArchState, r: Reg, v: u32) {
    if !r.is_zero() {
        state.regs[r.index()] = v;
    }
}

/// `a / b`, strength-reduced to `a * (1/b)` when `b` is a normal power of
/// two whose reciprocal is also normal. Both operations then round the
/// same exact real value `a·2⁻ᵏ`, so the result is bit-identical to the
/// hardware divide for every `a` (including NaN/∞/±0 propagation) — the
/// point is dodging the ~20-cycle FP divide latency that otherwise
/// serializes stencil kernels like `tomcatv` (which divides by 4 and 8 in
/// its inner loop). Pinned against the plain `a / b` the oracle executes
/// by the differential suite.
#[inline]
fn div_f64(a: f64, b: f64) -> f64 {
    const MANT: u64 = (1 << 52) - 1;
    let bits = b.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if bits & MANT == 0 && (1..=2045).contains(&exp) {
        let recip = (bits & (1 << 63)) | ((2046 - exp) << 52);
        a * f64::from_bits(recip)
    } else {
        a / b
    }
}

/// The `f32` twin of [`div_f64`].
#[inline]
fn div_f32(a: f32, b: f32) -> f32 {
    const MANT: u32 = (1 << 23) - 1;
    let bits = b.to_bits();
    let exp = (bits >> 23) & 0xff;
    if bits & MANT == 0 && (1..=253).contains(&exp) {
        let recip = (bits & (1 << 31)) | ((254 - exp) << 23);
        a * f32::from_bits(recip)
    } else {
        a / b
    }
}

/// Executes one micro-op, returning the successor PC. Closed-form cases
/// mirror [`exec_insn`] exactly (pinned by the differential tests); the
/// rest *are* [`exec_insn`] via [`ArchCore`].
#[inline(always)]
fn exec_op(state: &mut ArchState, pc: u32, op: &Op) -> Result<u32, ExecError> {
    let fall = pc.wrapping_add(4);
    match *op {
        Op::Nop => {}
        Op::Halt => state.halted = true,
        Op::Alu { op, rd, rs, rt } => {
            let (a, b) = (state.regs[rs.index()], state.regs[rt.index()]);
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
            set_reg(state, rd, v);
        }
        Op::AluImm { op, rt, rs, imm } => {
            let a = state.regs[rs.index()];
            let v = match op {
                AluImmOp::Addi | AluImmOp::Addiu => (i64::from(a) + i64::from(imm)) as u32,
                AluImmOp::Slti => u32::from((a as i32) < i32::from(imm)),
                AluImmOp::Sltiu => u32::from(a < (i32::from(imm) as u32)),
                AluImmOp::Andi => a & u32::from(imm as u16),
                AluImmOp::Ori => a | u32::from(imm as u16),
                AluImmOp::Xori => a ^ u32::from(imm as u16),
            };
            set_reg(state, rt, v);
        }
        Op::Shift { op, rd, rt, shamt } => {
            let b = state.regs[rt.index()];
            let s = u32::from(shamt) & 31;
            let v = match op {
                ShiftOp::Sll => b << s,
                ShiftOp::Srl => b >> s,
                ShiftOp::Sra => ((b as i32) >> s) as u32,
            };
            set_reg(state, rd, v);
        }
        Op::Lui { rt, value } => set_reg(state, rt, value),
        Op::Load { op, rt, ea } => {
            let (addr, post) = ea.resolve(state);
            state.check_mem(pc, addr, op.size(), false)?;
            let v = match op {
                LoadOp::Lb => state.mem.read_u8(addr) as i8 as i32 as u32,
                LoadOp::Lbu => u32::from(state.mem.read_u8(addr)),
                LoadOp::Lh => state.mem.read_u16(addr) as i16 as i32 as u32,
                LoadOp::Lhu => u32::from(state.mem.read_u16(addr)),
                LoadOp::Lw => state.mem.read_u32(addr),
            };
            set_reg(state, rt, v);
            if let Some((base, updated)) = post {
                set_reg(state, base, updated);
            }
        }
        Op::Store { op, rt, ea } => {
            let (addr, post) = ea.resolve(state);
            state.check_mem(pc, addr, op.size(), true)?;
            let v = state.regs[rt.index()];
            match op {
                StoreOp::Sb => state.mem.write_u8(addr, v as u8),
                StoreOp::Sh => state.mem.write_u16(addr, v as u16),
                StoreOp::Sw => state.mem.write_u32(addr, v),
            }
            if let Some((base, updated)) = post {
                set_reg(state, base, updated);
            }
        }
        Op::Branch { cond, rs, rt, target } => {
            let (a, b) = (state.regs[rs.index()], state.regs[rt.index()]);
            let taken = match cond {
                BranchCond::Eq => a == b,
                BranchCond::Ne => a != b,
                BranchCond::Lez => (a as i32) <= 0,
                BranchCond::Gtz => (a as i32) > 0,
                BranchCond::Ltz => (a as i32) < 0,
                BranchCond::Gez => (a as i32) >= 0,
            };
            if taken {
                return Ok(target);
            }
        }
        Op::Jump { target } => return Ok(target),
        Op::Link { target, link } => {
            set_reg(state, Reg::RA, link);
            return Ok(target);
        }
        Op::JumpReg { rs } => return Ok(state.regs[rs.index()]),
        Op::LinkReg { rd, rs, link } => {
            let t = state.regs[rs.index()];
            set_reg(state, rd, link);
            return Ok(t);
        }
        Op::Bc1 { on_true, target } => {
            if state.fcc == on_true {
                return Ok(target);
            }
        }
        Op::MulDiv { op, rs, rt } => {
            let (a, b) = (state.regs[rs.index()], state.regs[rt.index()]);
            match op {
                MulDivOp::Mult => {
                    let p = (a as i32 as i64).wrapping_mul(b as i32 as i64) as u64;
                    state.lo = p as u32;
                    state.hi = (p >> 32) as u32;
                }
                MulDivOp::Multu => {
                    let p = u64::from(a).wrapping_mul(u64::from(b));
                    state.lo = p as u32;
                    state.hi = (p >> 32) as u32;
                }
                MulDivOp::Div => {
                    if b == 0 {
                        state.lo = 0;
                        state.hi = 0;
                    } else {
                        state.lo = (a as i32).wrapping_div(b as i32) as u32;
                        state.hi = (a as i32).wrapping_rem(b as i32) as u32;
                    }
                }
                MulDivOp::Divu => {
                    state.lo = a.checked_div(b).unwrap_or(0);
                    state.hi = a.checked_rem(b).unwrap_or(0);
                }
            }
        }
        Op::Mfhi { rd } => set_reg(state, rd, state.hi),
        Op::Mflo { rd } => set_reg(state, rd, state.lo),
        Op::LoadFp { fmt, ft, ea } => {
            let (addr, post) = ea.resolve(state);
            state.check_mem(pc, addr, fmt.size(), false)?;
            state.fregs[ft.index()] = match fmt {
                FpFmt::S => u64::from(state.mem.read_u32(addr)),
                FpFmt::D => state.mem.read_u64(addr),
            };
            if let Some((base, updated)) = post {
                set_reg(state, base, updated);
            }
        }
        Op::StoreFp { fmt, ft, ea } => {
            let (addr, post) = ea.resolve(state);
            state.check_mem(pc, addr, fmt.size(), true)?;
            match fmt {
                FpFmt::S => state.mem.write_u32(addr, state.fregs[ft.index()] as u32),
                FpFmt::D => state.mem.write_u64(addr, state.fregs[ft.index()]),
            }
            if let Some((base, updated)) = post {
                set_reg(state, base, updated);
            }
        }
        Op::Fp { op, fmt, fd, fs, ft } => match fmt {
            FpFmt::D => {
                let a = f64::from_bits(state.fregs[fs.index()]);
                let b = f64::from_bits(state.fregs[ft.index()]);
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => div_f64(a, b),
                    FpOp::Abs => a.abs(),
                    FpOp::Neg => -a,
                    FpOp::Mov => a,
                    FpOp::Sqrt => a.sqrt(),
                };
                state.fregs[fd.index()] = v.to_bits();
            }
            FpFmt::S => {
                let a = f32::from_bits(state.fregs[fs.index()] as u32);
                let b = f32::from_bits(state.fregs[ft.index()] as u32);
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => div_f32(a, b),
                    FpOp::Abs => a.abs(),
                    FpOp::Neg => -a,
                    FpOp::Mov => a,
                    FpOp::Sqrt => a.sqrt(),
                };
                state.fregs[fd.index()] = u64::from(v.to_bits());
            }
        },
        Op::FpCmp { cond, fmt, fs, ft } => {
            let (a, b) = match fmt {
                FpFmt::D => (
                    f64::from_bits(state.fregs[fs.index()]),
                    f64::from_bits(state.fregs[ft.index()]),
                ),
                FpFmt::S => (
                    f64::from(f32::from_bits(state.fregs[fs.index()] as u32)),
                    f64::from(f32::from_bits(state.fregs[ft.index()] as u32)),
                ),
            };
            state.fcc = match cond {
                FpCond::Eq => a == b,
                FpCond::Lt => a < b,
                FpCond::Le => a <= b,
            };
        }
        Op::Mtc1 { rt, fs } => state.fregs[fs.index()] = u64::from(state.regs[rt.index()]),
        Op::Mfc1 { rt, fs } => {
            let bits = state.fregs[fs.index()] as u32;
            set_reg(state, rt, bits);
        }
        Op::CvtFromW { fmt, fd, fs } => {
            let w = state.fregs[fs.index()] as u32 as i32;
            state.fregs[fd.index()] = match fmt {
                FpFmt::D => f64::from(w).to_bits(),
                FpFmt::S => u64::from((w as f32).to_bits()),
            };
        }
        Op::Exec(insn) => {
            let eff = exec_insn(&mut ArchCore(state), pc, insn)?;
            return Ok(eff.next_pc);
        }
    }
    Ok(fall)
}

/// The fast functional tier: architectural state only, driven through the
/// decoded-block cache. 10–100× the detailed model's instruction
/// throughput (see EXPERIMENTS.md), bit-identical architectural results —
/// pinned by [`run_fast_verified`] and the three-way differential matrix
/// in the test suite.
#[derive(Debug)]
pub struct Functional<'p> {
    program: &'p Program,
    state: ArchState,
    cache: BlockCache,
    insts: u64,
    max_insts: u64,
}

impl<'p> Functional<'p> {
    /// Creates a functional interpreter at `program`'s entry point with
    /// lenient memory, a fresh block cache, and the default 2 × 10⁹
    /// instruction budget.
    pub fn new(program: &'p Program) -> Functional<'p> {
        let mut cache = BlockCache::new();
        cache.sync(program);
        Functional {
            program,
            state: ArchState::new(program),
            cache,
            insts: 0,
            max_insts: 2_000_000_000,
        }
    }

    /// Enables strict data-memory semantics (trap misaligned accesses and
    /// loads from unmapped pages), matching
    /// [`MachineConfig::with_strict_mem`](crate::MachineConfig).
    pub fn with_strict_mem(mut self, strict: bool) -> Functional<'p> {
        self.state.strict_mem = strict;
        self
    }

    /// Caps total retired instructions; the watchdog fires as
    /// [`SimError::Runaway`] at exactly the same boundary as every other
    /// tier (shared `check_budget` rule).
    pub fn with_max_insts(mut self, max: u64) -> Functional<'p> {
        self.max_insts = max;
        self
    }

    /// Replaces the block cache with one carried over from an earlier run
    /// (re-`sync`ed to this program, so a stale cache self-invalidates).
    pub fn with_cache(mut self, mut cache: BlockCache) -> Functional<'p> {
        cache.sync(self.program);
        self.cache = cache;
        self
    }

    /// The current architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Consumes the interpreter, yielding its architectural state.
    pub fn into_state(self) -> ArchState {
        self.state
    }

    /// The program's fingerprint, as hashed when the block cache was
    /// bound to it.
    pub(crate) fn program_fp(&self) -> u64 {
        self.cache.program_fp
    }

    /// Gives the block cache back for reuse by a later run.
    pub fn into_cache(self) -> BlockCache {
        self.cache
    }

    /// Retired instructions so far (including any adopted via
    /// [`Functional::adopt`]).
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Whether the program has executed its `halt`.
    pub fn halted(&self) -> bool {
        self.state.halted
    }

    /// Replaces the architectural state with one that progressed outside
    /// this tier — the sampled driver hands the detailed window's final
    /// state back here — and accounts its `retired` instructions against
    /// this tier's budget.
    pub fn adopt(&mut self, state: ArchState, retired: u64) {
        self.state = state;
        self.insts += retired;
    }

    /// Executes at most `fuel` instructions, stopping early at `halt`.
    /// Returns the number retired by this call.
    ///
    /// # Errors
    ///
    /// [`SimError::Runaway`] at budget exhaustion, [`SimError::Exec`] when
    /// the PC leaves the text segment or a strict-memory trap fires.
    pub fn run(&mut self, fuel: u64) -> Result<u64, SimError> {
        let mut done = 0u64;
        'blocks: while done < fuel && !self.state.halted {
            let Some(idx) = self.program.insn_index(self.state.pc) else {
                return Err(SimError::Exec(ExecError::BadPc(self.state.pc)));
            };
            let this = &mut *self;
            let block = this.cache.block(this.program, idx);
            // Whole blocks retire check-free when both the fuel and the
            // instruction budget admit every op — blocks are straight-line
            // by construction, so nothing inside can branch or halt early.
            // Near either limit the tail falls back to per-op accounting:
            // `Runaway` must fire at the identical count on every tier.
            let n = block.ops.len() as u64;
            let headroom = (fuel - done).min(this.max_insts.saturating_sub(this.insts));
            if n <= headroom {
                // `pc` rides in a local so the compiler keeps it in a
                // register across the whole block instead of spilling to
                // `state.pc` around every (opaque) `exec_op` call.
                let mut pc = this.state.pc;
                for (i, op) in block.ops.iter().enumerate() {
                    match exec_op(&mut this.state, pc, op) {
                        Ok(next) => pc = next,
                        Err(e) => {
                            this.state.pc = pc;
                            this.insts += i as u64;
                            return Err(SimError::Exec(e));
                        }
                    }
                }
                this.state.pc = pc;
                this.insts += n;
                done += n;
            } else {
                for op in &block.ops {
                    check_budget(this.insts, this.max_insts)?;
                    let pc = this.state.pc;
                    this.state.pc = exec_op(&mut this.state, pc, op).map_err(SimError::Exec)?;
                    this.insts += 1;
                    done += 1;
                    if this.state.halted || done >= fuel {
                        continue 'blocks;
                    }
                }
            }
        }
        Ok(done)
    }

    /// Runs until `halt` (or an error). Returns instructions retired by
    /// this call.
    ///
    /// # Errors
    ///
    /// Same as [`Functional::run`].
    pub fn run_to_halt(&mut self) -> Result<u64, SimError> {
        self.run(u64::MAX)
    }
}

/// The fast tier's answer: architectural outcome only — no cycles, no
/// cache statistics, because nothing timed was simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct FastReport {
    /// Program name.
    pub program: String,
    /// Retired instructions.
    pub insts: u64,
    /// Final architectural state.
    pub final_state: ArchState,
}

/// Runs `program` to halt on the fast functional tier under `config`'s
/// memory discipline (only `strict_mem` matters to an untimed run).
///
/// # Errors
///
/// [`SimError::InvalidConfig`], [`SimError::Runaway`], or
/// [`SimError::Exec`] as for any run.
pub fn run_fast(
    config: &MachineConfig,
    program: &Program,
    max_insts: u64,
) -> Result<FastReport, SimError> {
    config.validate()?;
    let mut f = Functional::new(program)
        .with_strict_mem(config.strict_mem)
        .with_max_insts(max_insts);
    f.run_to_halt()?;
    Ok(FastReport {
        program: program.name.clone(),
        insts: f.insts(),
        final_state: f.into_state(),
    })
}

/// [`run_fast`] with the golden [`Oracle`] in lockstep: every retired
/// instruction's full architectural state (registers, FP registers, HI,
/// LO, the condition flag, the PC) is compared, and the final memory is
/// swept byte-for-byte. This is the fast-tier analogue of
/// [`crate::Lockstep`].
///
/// # Errors
///
/// [`SimError::Divergence`] naming the first mismatched quantity, plus
/// everything [`run_fast`] can return.
pub fn run_fast_verified(
    config: &MachineConfig,
    program: &Program,
    max_insts: u64,
) -> Result<FastReport, SimError> {
    config.validate()?;
    let mut fast = Functional::new(program)
        .with_strict_mem(config.strict_mem)
        .with_max_insts(max_insts);
    let mut oracle = Oracle::new(program);
    while !fast.halted() {
        let step = fast.insts();
        if fast.run(1)? == 0 {
            break;
        }
        oracle.step(program)?;
        compare_arch(step, fast.state(), &oracle)?;
    }
    if !oracle.halted {
        return Err(SimError::Divergence {
            step: fast.insts(),
            pc: oracle.pc,
            expected: "oracle still running".into(),
            actual: "fast tier halted".into(),
        });
    }
    compare_memory(fast.insts(), fast.state(), &oracle)?;
    Ok(FastReport {
        program: program.name.clone(),
        insts: fast.insts(),
        final_state: fast.into_state(),
    })
}

/// Compares the fast tier's complete architectural state against the
/// oracle's after the same number of retired instructions.
fn compare_arch(step: u64, state: &ArchState, oracle: &Oracle) -> Result<(), SimError> {
    for i in 0..32 {
        if state.regs[i] != oracle.regs[i] {
            return Err(diverged(step, state.pc, Reg::new(i as u8), oracle.regs[i], state.regs[i]));
        }
    }
    for i in 0..32 {
        if state.fregs[i] != oracle.fregs[i] {
            return Err(diverged(
                step,
                state.pc,
                format!("f{i}"),
                oracle.fregs[i],
                state.fregs[i],
            ));
        }
    }
    if state.hi != oracle.hi {
        return Err(diverged(step, state.pc, "hi", oracle.hi, state.hi));
    }
    if state.lo != oracle.lo {
        return Err(diverged(step, state.pc, "lo", oracle.lo, state.lo));
    }
    if state.fcc != oracle.fcc {
        return Err(diverged(step, state.pc, "fcc", u32::from(oracle.fcc), u32::from(state.fcc)));
    }
    if state.pc != oracle.pc {
        return Err(diverged(step, state.pc, "next pc", oracle.pc, state.pc));
    }
    Ok(())
}

/// The sampling regime: every `every` instructions, the first `window` of
/// them run through the detailed pipeline; the rest fast-forward
/// functionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Sampling period in instructions.
    pub every: u64,
    /// Detailed measurement window at the start of each period, in
    /// instructions. Must satisfy `1 <= window <= every`.
    pub window: u64,
}

impl SampleSpec {
    /// Validates `1 <= window <= every`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadSampleSpec`] otherwise.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 || self.window > self.every {
            return Err(ConfigError::BadSampleSpec { every: self.every, window: self.window });
        }
        Ok(())
    }
}

/// One detailed measurement window of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Whole-program instruction index at which the window began.
    pub start_inst: u64,
    /// Instructions the window retired (the last window may be short).
    pub insts: u64,
    /// Cycles the window consumed, including the pipeline drain.
    pub cycles: u64,
}

/// The sampled tier's answer: an extrapolated whole-program timing
/// estimate with its sampling error, plus the exact architectural outcome
/// (the functional tier retired every instruction between windows, so
/// `final_state` is not an estimate).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledReport {
    /// Program name.
    pub program: String,
    /// Total retired instructions (exact).
    pub insts: u64,
    /// Every measurement window, in program order.
    pub windows: Vec<WindowStats>,
    /// Instructions measured in detail (Σ window insts).
    pub measured_insts: u64,
    /// Cycles measured in detail (Σ window cycles).
    pub measured_cycles: u64,
    /// Estimated cycles per instruction: `measured_cycles /
    /// measured_insts`.
    pub cpi: f64,
    /// Standard error of the per-window CPI sample — `s / √n` with `s` the
    /// sample standard deviation over the `n` windows. `0.0` with fewer
    /// than two windows (no spread to estimate; treat the estimate as
    /// unbounded, see DESIGN.md §13).
    pub cpi_stderr: f64,
    /// Extrapolated whole-program cycles: `round(cpi × insts)`.
    pub est_cycles: u64,
    /// Final architectural state (exact, not sampled).
    pub final_state: ArchState,
}

/// Runs `program` under the SMARTS-style sampling regime: each period of
/// `spec.every` instructions opens with `spec.window` instructions through
/// the full detailed pipeline (cold timing structures — see DESIGN.md §13
/// for the bias discussion), and fast-forwards the remainder functionally.
/// The window-first phase guarantees at least one measurement window for
/// any program that retires at least one instruction.
///
/// The functional-to-detailed hand-off is a real checkpoint (the code
/// behind [`crate::functional_snapshot`] → [`crate::Machine::restore`]),
/// so the detailed window starts from exactly the architectural state the
/// fast tier produced, fingerprint-verified. The program and config are
/// fingerprinted once per run, not once per window.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for a bad `config` or `spec`;
/// [`SimError::Runaway`] when `max_insts` is exhausted (unified budget
/// across both tiers); otherwise as [`crate::Machine::run`].
pub fn run_sampled(
    config: &MachineConfig,
    program: &Program,
    spec: SampleSpec,
    max_insts: u64,
) -> Result<SampledReport, SimError> {
    spec.validate()?;
    config.validate()?;
    // The global budget is enforced here, across both tiers; the detailed
    // session's own watchdog would double-count window instructions.
    let machine = Machine::new(*config).with_max_insts(u64::MAX);
    let mut fun = Functional::new(program)
        .with_strict_mem(config.strict_mem)
        .with_max_insts(max_insts);
    // Neither can change during the run, and the block cache has already
    // hashed the program.
    let (config_fp, program_fp) = (config_fingerprint(config), fun.program_fp());
    let mut windows = Vec::new();

    while !fun.halted() {
        let start = fun.insts();
        let snap = functional_snapshot_keyed(config, config_fp, program_fp, fun.state());
        let mut sess = machine.restore_labelled(program, program_fp, &snap, "<memory>")?;
        let mut w = 0u64;
        while w < spec.window && !sess.halted() {
            check_budget(fun.insts() + w, max_insts)?;
            if !sess.step()? {
                break;
            }
            w += 1;
        }
        let rep = sess.finish()?;
        windows.push(WindowStats { start_inst: start, insts: rep.stats.insts, cycles: rep.stats.cycles });
        fun.adopt(rep.final_state, w);
        if !fun.halted() && spec.every > spec.window {
            fun.run(spec.every - spec.window)?;
        }
    }

    let measured_insts: u64 = windows.iter().map(|w| w.insts).sum();
    let measured_cycles: u64 = windows.iter().map(|w| w.cycles).sum();
    let cpi = if measured_insts == 0 {
        0.0
    } else {
        measured_cycles as f64 / measured_insts as f64
    };
    let cpis: Vec<f64> = windows
        .iter()
        .filter(|w| w.insts > 0)
        .map(|w| w.cycles as f64 / w.insts as f64)
        .collect();
    let cpi_stderr = if cpis.len() < 2 {
        0.0
    } else {
        let n = cpis.len() as f64;
        let mean = cpis.iter().sum::<f64>() / n;
        let var = cpis.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (n - 1.0);
        (var / n).sqrt()
    };
    let insts = fun.insts();
    let est_cycles = (cpi * insts as f64).round() as u64;
    Ok(SampledReport {
        program: program.name.clone(),
        insts,
        windows,
        measured_insts,
        measured_cycles,
        cpi,
        cpi_stderr,
        est_cycles,
        final_state: fun.into_state(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fac_asm::{Asm, SoftwareSupport};

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
        a.li(Reg::T2, 0);
        a.label("sum");
        a.lw_pi(Reg::T3, Reg::S0, 4);
        a.addu(Reg::T2, Reg::T2, Reg::T3);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bgtz(Reg::T0, "sum");
        a.sw_gp(Reg::T2, "checksum", 0);
        a.halt();
        a.link("sum", &SoftwareSupport::on()).unwrap()
    }

    #[test]
    fn fast_tier_matches_oracle_on_sum() {
        let program = sum_program();
        let cfg = MachineConfig::paper_baseline();
        let fast = run_fast_verified(&cfg, &program, 1_000_000).unwrap();
        let mut oracle = Oracle::new(&program);
        let steps = oracle.run(&program, 1_000_000).unwrap();
        assert_eq!(fast.insts, steps);
    }

    #[test]
    fn block_cache_invalidates_on_program_change() {
        let program = sum_program();
        let mut f = Functional::new(&program);
        f.run_to_halt().unwrap();
        let cache = f.into_cache();
        assert!(cache.decoded_blocks() > 0);
        assert_eq!(cache.invalidations(), 0);

        // A different program must flush the cache exactly once.
        let mut a = Asm::new();
        a.li(Reg::T0, 1);
        a.halt();
        let other = a.link("other", &SoftwareSupport::on()).unwrap();
        let mut f2 = Functional::new(&other).with_cache(cache);
        f2.run_to_halt().unwrap();
        let cache = f2.into_cache();
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn sampled_run_fingerprints_the_program_once() {
        let program = sum_program();
        let cfg = MachineConfig::paper_baseline().with_fac();
        let before = crate::ckpt::FINGERPRINTS.with(std::cell::Cell::get);
        let spec = SampleSpec { every: 40, window: 10 };
        let r = run_sampled(&cfg, &program, spec, 1_000_000).unwrap();
        assert!(r.windows.len() > 3, "{} windows", r.windows.len());
        assert_eq!(crate::ckpt::FINGERPRINTS.with(std::cell::Cell::get) - before, 1);
    }

    /// The keyed hand-off `run_sampled` uses keeps both fingerprint checks:
    /// a frame keyed to another config or program, or a restore expecting
    /// another program, is a typed checkpoint error.
    #[test]
    fn keyed_hand_off_rejects_mismatched_fingerprints() {
        let program = sum_program();
        let cfg = MachineConfig::paper_baseline();
        let machine = Machine::new(cfg);
        let mut fun = Functional::new(&program);
        fun.run(5).unwrap();
        let (cfp, pfp) = (config_fingerprint(&cfg), fun.program_fp());
        assert_eq!(pfp, program_fingerprint(&program));
        let keyed = |cfp, pfp| functional_snapshot_keyed(&cfg, cfp, pfp, fun.state());
        let restore = |snap: &[u8], pfp| machine.restore_labelled(&program, pfp, snap, "<memory>");

        assert!(restore(&keyed(cfp, pfp), pfp).is_ok());
        let (good, bad_cfg, bad_prog) = (keyed(cfp, pfp), keyed(cfp ^ 1, pfp), keyed(cfp, pfp ^ 1));
        for (snap, want) in [(bad_cfg, pfp), (bad_prog, pfp), (good, pfp ^ 1)] {
            assert!(matches!(restore(&snap, want), Err(SimError::Checkpoint { .. })));
        }
    }

    #[test]
    fn sample_spec_validation() {
        assert!(SampleSpec { every: 100, window: 10 }.validate().is_ok());
        assert!(SampleSpec { every: 100, window: 100 }.validate().is_ok());
        assert!(SampleSpec { every: 100, window: 0 }.validate().is_err());
        assert!(SampleSpec { every: 100, window: 101 }.validate().is_err());
    }

    #[test]
    fn sampled_cpi_is_exact_when_every_inst_is_measured() {
        // window == every means the "sampled" run measures everything:
        // the estimate must equal the straight detailed run exactly.
        let program = sum_program();
        let cfg = MachineConfig::paper_baseline().with_fac();
        let full = Machine::new(cfg).run(&program).unwrap();
        let spec = SampleSpec { every: 50, window: 50 };
        let sampled = run_sampled(&cfg, &program, spec, 1_000_000).unwrap();
        assert_eq!(sampled.insts, full.stats.insts);
        assert_eq!(sampled.measured_insts, full.stats.insts);
        assert_eq!(sampled.final_state.regs, full.final_state.regs);
        assert_eq!(sampled.final_state.mem, full.final_state.mem);
    }
}

//! Regression: `RegList::push` asserts on overflow (capacity 4). Prove the
//! assert is unreachable from `src_regs`/`dst_regs` for every *encodable*
//! instruction — i.e. a hostile program image can crash the simulator only
//! with a typed error, never a panic in the scoreboard bookkeeping.
//!
//! The same sweeps pin the pipeline's decode table: every
//! [`StaticInsn::decode`] slot must carry exactly the operands, control
//! flag, functional-unit class and timing the per-instruction decoders
//! give.

use fac_isa::{decode, encode, FpOp, Insn, MulDivOp};
use fac_sim::{dst_regs, src_regs, FuClass, FuConfig, FuKind, FuTiming, StaticInsn};

/// The unit class of `insn`, written out independently of the pipeline's
/// and exhaustively, so a new instruction shape must be classified here
/// too.
fn expected_class(insn: &Insn) -> FuClass {
    match insn {
        Insn::Nop | Insn::Halt => FuClass::None,
        Insn::Load { .. } | Insn::Store { .. } | Insn::LoadFp { .. } | Insn::StoreFp { .. } => {
            FuClass::LoadStore
        }
        Insn::MulDiv { op: MulDivOp::Mult | MulDivOp::Multu, .. } => FuClass::IntMul(FuKind::Mul),
        Insn::MulDiv { op: MulDivOp::Div | MulDivOp::Divu, .. } => FuClass::IntMul(FuKind::Div),
        Insn::Fp { op: FpOp::Mul, .. } => FuClass::FpMul(FuKind::Mul),
        Insn::Fp { op: FpOp::Div | FpOp::Sqrt, .. } => FuClass::FpMul(FuKind::Div),
        Insn::Fp { op: FpOp::Add | FpOp::Sub | FpOp::Abs | FpOp::Neg | FpOp::Mov, .. }
        | Insn::FpCmp { .. }
        | Insn::CvtFromW { .. }
        | Insn::TruncToW { .. } => FuClass::FpAdd,
        Insn::Alu { .. }
        | Insn::AluImm { .. }
        | Insn::Shift { .. }
        | Insn::Lui { .. }
        | Insn::Mfhi { .. }
        | Insn::Mflo { .. }
        | Insn::Mtc1 { .. }
        | Insn::Mfc1 { .. }
        | Insn::Bc1 { .. }
        | Insn::Branch { .. }
        | Insn::J { .. }
        | Insn::Jal { .. }
        | Insn::Jr { .. }
        | Insn::Jalr { .. } => FuClass::IntAlu,
    }
}

/// A unit configuration whose every class has a distinct timing, so a slot
/// that picked the wrong class's timing cannot pass by coincidence.
fn distinct_fu() -> FuConfig {
    let t = |latency, interval| FuTiming { latency, interval };
    FuConfig {
        int_alu: t(2, 1),
        int_mul: t(3, 2),
        int_div: t(21, 19),
        fp_add: t(5, 3),
        fp_mul: t(7, 4),
        fp_div: t(13, 11),
        ..FuConfig::default()
    }
}

fn expected_timing(class: FuClass, fu: &FuConfig) -> FuTiming {
    match class {
        FuClass::None | FuClass::LoadStore => FuTiming { latency: 1, interval: 1 },
        FuClass::IntAlu => fu.int_alu,
        FuClass::FpAdd => fu.fp_add,
        FuClass::IntMul(FuKind::Mul) => fu.int_mul,
        FuClass::IntMul(FuKind::Div) => fu.int_div,
        FuClass::FpMul(FuKind::Mul) => fu.fp_mul,
        FuClass::FpMul(FuKind::Div) => fu.fp_div,
    }
}

/// The decode-table slot of `insn` equals what the decoders say.
fn assert_slot_matches(insn: &Insn) {
    for fu in [FuConfig::default(), distinct_fu()] {
        let class = expected_class(insn);
        let want = StaticInsn {
            srcs: src_regs(insn),
            dsts: dst_regs(insn),
            class,
            timing: expected_timing(class, &fu),
            control: insn.is_control(),
        };
        assert_eq!(StaticInsn::decode(insn, &fu), want, "{insn:?}");
    }
}

/// Sweeps every combination of the shape-selecting bits of the encoding
/// (major opcode + function/format fields) with several register-field
/// patterns. Register numbers never change *how many* pushes an opcode
/// performs (only `$zero` is skipped), so covering every decodable shape
/// covers every reachable push count.
#[test]
fn no_encodable_insn_overflows_the_reg_lists() {
    // Register-field patterns: all zeros, all ones, and two mixed patterns
    // (so base == index aliasing and hi/lo fields are both exercised).
    let mids: [u32; 4] = [0x0000, 0xffff, 0xa5a5, 0x5a5a];
    let mut decoded = 0u64;
    for hi in 0u32..256 {
        for lo in 0u32..4096 {
            for mid in mids {
                let word = (hi << 24) | (mid << 8) | lo;
                let Ok(insn) = decode(word) else { continue };
                decoded += 1;
                let s = src_regs(&insn);
                let d = dst_regs(&insn);
                assert!(s.len() <= 3, "{insn:?}: {} sources", s.len());
                assert!(d.len() <= 2, "{insn:?}: {} destinations", d.len());
                assert_slot_matches(&insn);
            }
        }
    }
    assert!(decoded > 1000, "sweep decoded only {decoded} instructions");
}

/// Deterministic pseudo-random sweep over full 32-bit words, so bit
/// positions outside the structured sweep above get exercised too.
#[test]
fn random_words_never_overflow_the_reg_lists() {
    let mut state = 0x5eed_cafe_f00d_u64;
    let mut decoded = 0u64;
    for _ in 0..2_000_000 {
        state = state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let word = (state >> 16) as u32;
        let Ok(insn) = decode(word) else { continue };
        decoded += 1;
        // Round-trip: whatever decodes must re-encode to something that
        // decodes to the same instruction (the set of encodable insns).
        let canon = decode(encode(&insn)).expect("canonical form decodes");
        let _ = (src_regs(&canon), dst_regs(&canon));
        let s = src_regs(&insn);
        let d = dst_regs(&insn);
        assert!(s.len() + d.len() <= 5, "{insn:?}");
        assert_slot_matches(&insn);
    }
    assert!(decoded > 0, "random sweep never hit a valid encoding");
}

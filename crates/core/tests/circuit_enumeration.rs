//! Exhaustive check of the fast-address-calculation circuit on small
//! geometries (block-offset bits B and set-index bits S each 1–3).
//!
//! For every geometry, every base × offset pair over the low B+S+2 bits is
//! enumerated, with the bits above drawn from boundary classes (zero, all
//! ones, sign bit only, large negative), for constant and register offsets
//! alike. Two properties must hold on every pair:
//!
//! * **soundness** — when no failure signal fires, the predicted set index
//!   and block offset equal those of the full-adder address;
//! * **exactness of each signal** — `overflow`, `gen_carry`,
//!   `large_neg_const` and `neg_index_reg` fire exactly when their §3
//!   condition holds, recomputed here bit by bit from the operands.

use fac_core::{AddrFields, IndexCompose, Offset, Predictor, PredictorConfig};

/// Bit `i` of `v`.
fn bit(v: u32, i: u32) -> bool {
    (v >> i) & 1 == 1
}

/// The four §3 conditions for `base + offset`, each written from its
/// definition: `(overflow, gen_carry, large_neg_const, neg_index_reg)`.
fn conditions(b: u32, s: u32, base: u32, offset: Offset) -> (bool, bool, bool, bool) {
    let ofs = offset.value();
    let negative = (ofs as i32) < 0;
    let neg_const = negative && !offset.is_reg();
    // Condition 1: the B-bit block-offset sum carries out. For a negative
    // constant the offset's upper bits are (ideally) all ones, so a carry
    // out cancels them and its *absence* is a borrow into the set index.
    let block = 1u64 << b;
    let lo_sum = u64::from(base) % block + u64::from(ofs) % block;
    let carry_out = lo_sum >= block;
    let overflow = carry_out != neg_const;
    // The set-index bits the circuit ORs with the base: the offset's own,
    // inverted for a negative constant.
    let ofs_index_bit = |i: u32| bit(ofs, i) != neg_const;
    // Condition 2: some set-index bit is set in both operands, so the
    // carry-free composition would drop a generated carry.
    let gen_carry = (b..b + s).any(|i| bit(base, i) && ofs_index_bit(i));
    // Condition 3: a negative constant whose set-index bits are not all
    // ones (its magnitude reaches into the set index).
    let large_neg_const = neg_const && (b..b + s).any(|i| !bit(ofs, i));
    // Condition 4: a negative register offset.
    let neg_index_reg = negative && offset.is_reg();
    (overflow, gen_carry, large_neg_const, neg_index_reg)
}

/// Values of `width` bits (16 or 32) whose low `low_bits` are `low` and
/// whose upper bits come from one of the boundary classes.
fn with_high(width: u32, low_bits: u32, low: u32) -> [u32; 4] {
    let full = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    let high = full & !((1u32 << low_bits) - 1);
    let sign = 1u32 << (width - 1);
    [
        low,                               // zero
        high | low,                        // all ones
        sign | low,                        // sign bit only
        sign | (0x2aaa_aaaa & high) | low, // large negative
    ]
}

#[test]
fn small_geometries_are_enumerated_exactly() {
    // How often each signal fired and how often none did, so the test
    // cannot pass vacuously.
    let mut fired = [0u64; 4];
    let mut clean = 0u64;
    for b in 1..=3u32 {
        for s in 1..=3u32 {
            let fields = AddrFields::new(b, s);
            let low_bits = b + s + 2;
            let predictors = [IndexCompose::Or, IndexCompose::Xor].map(|compose| {
                Predictor::new(fields, PredictorConfig { compose, ..PredictorConfig::default() })
            });
            let offsets: Vec<Offset> = (0..1u32 << low_bits)
                .flat_map(|low| {
                    let consts =
                        with_high(16, low_bits, low).map(|v| Offset::Const(v as u16 as i16));
                    let regs = with_high(32, low_bits, low).map(Offset::Reg);
                    consts.into_iter().chain(regs)
                })
                .collect();
            for base_low in 0..1u32 << low_bits {
                for base in with_high(32, low_bits, base_low) {
                    for &offset in &offsets {
                        let want = conditions(b, s, base, offset);
                        let actual = base.wrapping_add(offset.value());
                        for p in &predictors {
                            let pr = p.predict(base, offset);
                            let sig = pr.signals;
                            let got = (
                                sig.overflow,
                                sig.gen_carry,
                                sig.large_neg_const,
                                sig.neg_index_reg,
                            );
                            assert_eq!(
                                got,
                                want,
                                "B={b} S={s} {:?} base {base:#x} offset {offset:?}: \
                                 signals (overflow, gen_carry, large_neg_const, neg_index_reg)",
                                p.config().compose
                            );
                            assert_eq!(pr.actual, actual);
                            if !sig.any() {
                                assert_eq!(
                                    (fields.index(pr.predicted), fields.block_offset(pr.predicted)),
                                    (fields.index(actual), fields.block_offset(actual)),
                                    "B={b} S={s} {:?} base {base:#x} offset {offset:?}: \
                                     unsound prediction {:#x}, full adder {actual:#x}",
                                    p.config().compose,
                                    pr.predicted
                                );
                            }
                        }
                        let (o, g, l, n) = want;
                        for (count, hit) in fired.iter_mut().zip([o, g, l, n]) {
                            *count += u64::from(hit);
                        }
                        clean += u64::from(!(o || g || l || n));
                    }
                }
            }
        }
    }
    assert!(fired.iter().all(|&c| c > 0), "a signal never fired: {fired:?}");
    assert!(clean > 0, "no pair predicted cleanly");
}

//! The field GF(2^255 − 19), in radix 2^51.
//!
//! [`Fe`] holds an element as five 51-bit limbs in `u64`s, so a product
//! of two limbs, and a sum of five such products with the `19` fold of
//! `2^255 ≡ 19` applied, fit a `u128` without intermediate carries. Every
//! operation returns limbs below `2^52` ("weakly reduced"); only
//! [`Fe::to_bytes`] produces the canonical value below `p`.
//!
//! [`x25519`](crate::x25519) runs its ladder and its fixed-base path on
//! `Fe`, and [`schnorr`](crate::schnorr) its group operations (the group
//! is `GF(p)^*`).
//!
//! Every [`Fe::mul`](std::ops::Mul) and [`Fe::square`] adds one to a
//! per-thread count, read with [`mul_count`]: the cost of an asymmetric
//! operation in field multiplications, exactly repeatable, independent of
//! the machine.

use crate::u256::U256;
use std::cell::Cell;
use std::ops::{Add, Mul, Neg, Sub};

const MASK: u64 = (1 << 51) - 1;

/// The prime `p = 2^255 − 19`.
pub const P: U256 = U256([
    0xffff_ffff_ffff_ffed,
    u64::MAX,
    u64::MAX,
    0x7fff_ffff_ffff_ffff,
]);

thread_local! {
    static MULS: Cell<u64> = const { Cell::new(0) };
}

/// Field multiplications (squarings included) this thread has made so
/// far. Take the difference around an operation to cost it.
pub fn mul_count() -> u64 {
    MULS.with(Cell::get)
}

fn count_mul() {
    MULS.with(|m| m.set(m.get() + 1));
}

/// An element of GF(2^255 − 19): five little-endian 51-bit limbs.
#[derive(Clone, Copy, Debug)]
pub struct Fe([u64; 5]);

impl Fe {
    /// The value 0.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The value 1.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// A small constant.
    pub const fn from_u64(x: u64) -> Fe {
        Fe([x & MASK, x >> 51, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes, ignoring bit 255 (RFC 7748 §5).
    /// Values in `[p, 2^255)` are accepted and act as their residue.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let w = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let (w0, w1, w2, w3) = (w(0), w(1), w(2), w(3));
        Fe([
            w0 & MASK,
            (w0 >> 51 | w1 << 13) & MASK,
            (w1 >> 38 | w2 << 26) & MASK,
            (w2 >> 25 | w3 << 39) & MASK,
            (w3 >> 12) & MASK,
        ])
    }

    /// The canonical encoding: the residue in `[0, p)`, 32 little-endian
    /// bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut h = carry(self.0);
        // q = 1 exactly when h ≥ p, i.e. when h + 19 reaches 2^255.
        let mut q = (h[0] + 19) >> 51;
        for limb in &h[1..] {
            q = (limb + q) >> 51;
        }
        // h − q·p = h + 19q − q·2^255: add, carry, drop bit 255.
        h[0] += 19 * q;
        for i in 0..4 {
            h[i + 1] += h[i] >> 51;
            h[i] &= MASK;
        }
        h[4] &= MASK;
        let words = [
            h[0] | h[1] << 51,
            h[1] >> 13 | h[2] << 38,
            h[2] >> 26 | h[3] << 25,
            h[3] >> 39 | h[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Converts from an integer; values ≥ `p` act as their residue.
    pub fn from_u256(x: U256) -> Fe {
        // The top bit carries 2^255 ≡ 19.
        Fe::from_bytes(&x.to_bytes_le()) + Fe::from_u64(19 * (x.0[3] >> 63))
    }

    /// The canonical residue as an integer.
    pub fn to_u256(&self) -> U256 {
        U256::from_bytes_le(&self.to_bytes())
    }

    /// `self^2`, sharing the symmetric cross products (15 limb products
    /// against `mul`'s 25).
    pub fn square(&self) -> Fe {
        count_mul();
        let [a0, a1, a2, a3, a4] = self.0;
        let (d0, d1, d2) = (2 * a0, 2 * a1, 2 * a2);
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        reduce_wide([
            m(a0, a0) + m(d1, a4_19) + m(d2, a3_19),
            m(d0, a1) + m(d2, a4_19) + m(a3, a3_19),
            m(d0, a2) + m(a1, a1) + m(2 * a3, a4_19),
            m(d0, a3) + m(d1, a2) + m(a4, a4_19),
            m(d0, a4) + m(d1, a3) + m(a2, a2),
        ])
    }

    /// `self · s` for a small constant (not counted: it is one limb
    /// product per limb).
    pub fn mul_small(&self, s: u32) -> Fe {
        reduce_wide(self.0.map(|a| m(a, s.into())))
    }

    /// `self^(p−2)`, the inverse (0 maps to 0), by the addition chain of
    /// 254 squarings and 11 multiplications.
    pub fn invert(&self) -> Fe {
        let z = *self;
        let z2 = z.square();
        let z9 = z2.square().square() * z;
        let z11 = z9 * z2;
        let z_5_0 = z11.square() * z9; // z^(2^5 − 1)
        let z_10_0 = z_5_0.pow2k(5) * z_5_0;
        let z_20_0 = z_10_0.pow2k(10) * z_10_0;
        let z_40_0 = z_20_0.pow2k(20) * z_20_0;
        let z_50_0 = z_40_0.pow2k(10) * z_10_0;
        let z_100_0 = z_50_0.pow2k(50) * z_50_0;
        let z_200_0 = z_100_0.pow2k(100) * z_100_0;
        let z_250_0 = z_200_0.pow2k(50) * z_50_0;
        // (2^250 − 1)·2^5 + 11 = 2^255 − 21 = p − 2.
        z_250_0.pow2k(5) * z11
    }

    /// `self^(2^k)`: `k` squarings.
    fn pow2k(&self, k: u32) -> Fe {
        let mut x = *self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// `self^exp` with 4-bit fixed windows: 14 multiplications for the
    /// table, then 4 squarings and one multiplication per remaining
    /// digit (329 in all). The digit sequence, and so the memory access
    /// pattern, follows `exp`: use on public exponents, or where that is
    /// accepted.
    pub fn pow(&self, exp: &U256) -> Fe {
        let mut table = [Fe::ONE; 16];
        table[1] = *self;
        for j in 2..16 {
            table[j] = table[j - 1] * *self;
        }
        let mut acc = table[nibble(exp, 63)];
        for i in (0..63).rev() {
            acc = acc.pow2k(4) * table[nibble(exp, i)];
        }
        acc
    }

    /// Swaps `a` and `b` when `choice` is 1, leaves them when 0, with
    /// the same instructions either way.
    pub fn cswap(a: &mut Fe, b: &mut Fe, choice: u64) {
        let mask = 0u64.wrapping_sub(choice);
        for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
            let t = mask & (*x ^ *y);
            *x ^= t;
            *y ^= t;
        }
    }

    /// Sets `self` to `other` when `choice` is 1, without branching.
    pub fn cmov(&mut self, other: &Fe, choice: u64) {
        let mask = 0u64.wrapping_sub(choice);
        for (x, y) in self.0.iter_mut().zip(other.0) {
            *x ^= mask & (*x ^ y);
        }
    }
}

/// The full product of two limbs. The operands stay `u64` so that each
/// is one 64×64 → 128-bit multiply, not a `u128` × `u128` one.
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// Hex digit `i` (0 = least significant) of `x`.
pub(crate) fn nibble(x: &U256, i: usize) -> usize {
    ((x.0[i / 16] >> (4 * (i % 16))) & 15) as usize
}

/// One parallel carry pass: limbs below 2^64 come out below
/// 2^51 + 19·2^13.
fn carry(l: [u64; 5]) -> [u64; 5] {
    let c = l.map(|x| x >> 51);
    [
        (l[0] & MASK) + 19 * c[4],
        (l[1] & MASK) + c[0],
        (l[2] & MASK) + c[1],
        (l[3] & MASK) + c[2],
        (l[4] & MASK) + c[3],
    ]
}

/// Carries five `u128` column sums down to weakly reduced limbs.
fn reduce_wide(mut c: [u128; 5]) -> Fe {
    let mut out = [0u64; 5];
    for i in 0..4 {
        c[i + 1] += c[i] >> 51;
        out[i] = c[i] as u64 & MASK;
    }
    out[4] = c[4] as u64 & MASK;
    // The top carry is below 2^64 / 19 for inputs below 2^54.
    let top = (c[4] >> 51) as u64;
    out[0] += 19 * top;
    out[1] += out[0] >> 51;
    out[0] &= MASK;
    Fe(out)
}

impl Add for Fe {
    type Output = Fe;
    fn add(self, rhs: Fe) -> Fe {
        let mut l = self.0;
        for (x, y) in l.iter_mut().zip(rhs.0) {
            *x += y;
        }
        Fe(carry(l))
    }
}

impl Sub for Fe {
    type Output = Fe;
    fn sub(self, rhs: Fe) -> Fe {
        // Add 16p first (limbs 2^55 − 304 and 2^55 − 16), which no
        // weakly reduced limb reaches, so no limb underflows.
        let sixteen_p = [(MASK - 18) << 4, MASK << 4, MASK << 4, MASK << 4, MASK << 4];
        let mut l = self.0;
        for i in 0..5 {
            l[i] = l[i] + sixteen_p[i] - rhs.0[i];
        }
        Fe(carry(l))
    }
}

impl Neg for Fe {
    type Output = Fe;
    fn neg(self) -> Fe {
        Fe::ZERO - self
    }
}

impl Mul for Fe {
    type Output = Fe;
    fn mul(self, rhs: Fe) -> Fe {
        count_mul();
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = rhs.0;
        // Limb products at or above 2^255 fold back multiplied by 19.
        let (b1_19, b2_19, b3_19, b4_19) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);
        reduce_wide([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::u256::naive_reduce_wide;
    use proptest::prelude::*;

    fn arb_u256() -> impl Strategy<Value = U256> {
        prop::array::uniform4(any::<u64>()).prop_map(U256)
    }

    /// The oracle: schoolbook product, reduced by long division.
    fn oracle_mul(a: U256, b: U256) -> U256 {
        naive_reduce_wide(a.widening_mul(b), P)
    }

    fn reduced(x: U256) -> U256 {
        naive_reduce_wide([x.0[0], x.0[1], x.0[2], x.0[3], 0, 0, 0, 0], P)
    }

    /// `a + b`, `a − b` and `a + (−a)` against integer arithmetic.
    fn check_add_sub(a: U256, b: U256) {
        let (fa, fb) = (Fe::from_u256(a), Fe::from_u256(b));
        let (ra, rb) = (reduced(a), reduced(b));
        let (sum, carry) = ra.overflowing_add(rb);
        assert!(!carry);
        assert_eq!((fa + fb).to_u256(), reduced(sum));
        assert_eq!(((fa - fb) + fb).to_u256(), ra);
        assert_eq!((fa + -fa).to_u256(), U256::ZERO);
    }

    #[test]
    fn extreme_values_match_the_oracle() {
        let max = U256([u64::MAX; 4]);
        let top = U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]); // 2^255 − 1
        let extremes = [
            U256::ZERO,
            U256::ONE,
            P.wrapping_sub(U256::ONE),
            P,
            top,
            max,
        ];
        for a in extremes {
            for b in extremes {
                let (fa, fb) = (Fe::from_u256(a), Fe::from_u256(b));
                assert_eq!((fa * fb).to_u256(), oracle_mul(a, b));
                check_add_sub(a, b);
            }
            assert_eq!(Fe::from_u256(a).square().to_u256(), oracle_mul(a, a));
        }
    }

    #[test]
    fn encoding_is_canonical() {
        // p and p + 1 (both below 2^255) encode as 0 and 1.
        assert_eq!(Fe::from_bytes(&P.to_bytes_le()).to_bytes(), [0; 32]);
        let p1 = P.overflowing_add(U256::ONE).0;
        assert_eq!(Fe::from_bytes(&p1.to_bytes_le()).to_u256(), U256::ONE);
        // 2^255 − 1 = p + 18.
        assert_eq!(Fe::from_bytes(&[0xff; 32]).to_u256(), U256::from(18u64));
        // −1 is p − 1.
        assert_eq!((-Fe::ONE).to_u256(), P.wrapping_sub(U256::ONE));
        assert_eq!(
            Fe::from_u256(U256([u64::MAX; 4])).to_u256(),
            U256::from(37u64)
        );
    }

    #[test]
    fn invert_and_pow_small_cases() {
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0; 32]);
        for x in [1u64, 2, 3, 12345, 0xffff_ffff] {
            let x = Fe::from_u64(x);
            assert_eq!((x * x.invert()).to_u256(), U256::ONE);
        }
        let g = Fe::from_u64(3);
        let mut acc = Fe::ONE;
        for e in 0..40u64 {
            assert_eq!(g.pow(&U256::from(e)).to_u256(), acc.to_u256());
            acc = acc * g;
        }
    }

    #[test]
    fn counts_muls_and_squares() {
        let x = Fe::from_u64(7);
        let before = mul_count();
        let _ = x * x;
        let _ = x.square();
        let _ = x.mul_small(121665);
        assert_eq!(mul_count() - before, 2);
        let before = mul_count();
        let _ = x.invert();
        assert_eq!(mul_count() - before, 254 + 11);
        let before = mul_count();
        let _ = x.pow(&P);
        assert_eq!(mul_count() - before, 14 + 63 * 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mul_square_invert_match_the_oracle(a in arb_u256(), b in arb_u256()) {
            let (fa, fb) = (Fe::from_u256(a), Fe::from_u256(b));
            prop_assert_eq!((fa * fb).to_u256(), oracle_mul(a, b));
            prop_assert_eq!(fa.square().to_u256(), oracle_mul(a, a));
            prop_assert_eq!(fa.mul_small(121665).to_u256(), oracle_mul(a, U256::from(121665u64)));
            let inv = fa.invert().to_u256();
            let expect = if reduced(a).is_zero() { U256::ZERO } else { U256::ONE };
            prop_assert_eq!(oracle_mul(reduced(a), inv), expect);
        }

        #[test]
        fn add_sub_neg_match_the_oracle(a in arb_u256(), b in arb_u256()) {
            let (fa, fb) = (Fe::from_u256(a), Fe::from_u256(b));
            check_add_sub(a, b);
            // Products of sums and differences, as the curve formulas
            // build them.
            prop_assert_eq!(
                ((fa + fb) * (fa - fb)).to_u256(),
                (fa.square() - fb.square()).to_u256()
            );
        }
    }
}

//! Fixed-width 256-bit unsigned integers, and the exponent arithmetic
//! of [`schnorr`](crate::schnorr): integers modulo `p − 1 = 2^255 − 20`
//! with the pseudo-Mersenne fold `2^255 ≡ 20`.
//!
//! The field GF(2^255 − 19) itself is [`field`](crate::field).

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer, little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", crate::hex::encode(&self.to_bytes_be()))
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", crate::hex::encode(&self.to_bytes_be()))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for U256 {
    fn from(x: u64) -> Self {
        U256([x, 0, 0, 0])
    }
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0; 4]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Parses from 32 big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let chunk: [u8; 8] = bytes[i * 8..(i + 1) * 8].try_into().unwrap();
            limbs[3 - i] = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serialises to 32 big-endian bytes.
    pub fn to_bytes_be(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Parses from 32 little-endian bytes (the X25519 wire order).
    pub fn from_bytes_le(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let chunk: [u8; 8] = bytes[i * 8..(i + 1) * 8].try_into().unwrap();
            limbs[i] = u64::from_le_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serialises to 32 little-endian bytes.
    pub fn to_bytes_le(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Addition with carry-out.
    pub fn overflowing_add(self, other: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Subtraction with borrow-out.
    pub fn overflowing_sub(self, other: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Wrapping subtraction (used only when `self >= other` is known).
    pub fn wrapping_sub(self, other: U256) -> U256 {
        self.overflowing_sub(other).0
    }

    /// Full 256×256 → 512-bit multiplication, little-endian limbs.
    pub fn widening_mul(self, other: U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = out[i + j] as u128 + self.0[i] as u128 * other.0[j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + 4;
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        out
    }
}

/// Arithmetic modulo `m = 2^255 - c` for small `c`.
///
/// Reduction uses the pseudo-Mersenne fold `2^255 ≡ c (mod m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecialModulus {
    c: u64,
    modulus: U256,
}

/// The Schnorr exponent modulus, `p − 1 = 2^255 − 20`.
pub const P25519_MINUS_1: SpecialModulus = SpecialModulus::new(20);

impl SpecialModulus {
    /// Creates the modulus `2^255 - c`. `c` must be small (< 2^32) so that
    /// at most three folds reduce any 512-bit value.
    pub const fn new(c: u64) -> Self {
        assert!(c > 0 && c < (1 << 32));
        // 2^255 - c: low limb underflows from 0 - c with the 2^255 bit set
        // at limb 3.
        let low = 0u64.wrapping_sub(c);
        SpecialModulus {
            c,
            modulus: U256([low, u64::MAX, u64::MAX, (1u64 << 63) - 1]),
        }
    }

    /// The modulus value `2^255 - c`.
    pub fn modulus(&self) -> U256 {
        self.modulus
    }

    /// Reduces a 256-bit value (folds the top bit, then subtracts).
    pub fn reduce(&self, x: U256) -> U256 {
        let mut v = x;
        // Fold bit 255: x = hi * 2^255 + lo ≡ hi * c + lo.
        loop {
            let hi = v.0[3] >> 63;
            if hi == 0 {
                break;
            }
            let lo = U256([v.0[0], v.0[1], v.0[2], v.0[3] & ((1u64 << 63) - 1)]);
            let (sum, overflow) = lo.overflowing_add(U256::from(hi * self.c));
            debug_assert!(!overflow);
            v = sum;
        }
        while v >= self.modulus {
            v = v.wrapping_sub(self.modulus);
        }
        v
    }

    /// Reduces a 512-bit product.
    pub fn reduce_wide(&self, mut w: [u64; 8]) -> U256 {
        // While bits at or above 255 are present, fold them down.
        loop {
            let has_high = w[4] != 0 || w[5] != 0 || w[6] != 0 || w[7] != 0 || (w[3] >> 63) != 0;
            if !has_high {
                break;
            }
            // hi = w >> 255 (shift right 3 limbs + 63 bits).
            let mut hi = [0u64; 8];
            for (i, limb) in hi.iter_mut().enumerate().take(5) {
                let lo_part = w.get(i + 3).copied().unwrap_or(0) >> 63;
                let hi_part = w.get(i + 4).copied().unwrap_or(0) << 1;
                *limb = lo_part | hi_part;
            }
            // lo = w & (2^255 - 1).
            let lo = [w[0], w[1], w[2], w[3] & ((1u64 << 63) - 1), 0, 0, 0, 0];
            // w = hi * c + lo.
            let mut carry = 0u128;
            for i in 0..8 {
                let t = hi[i] as u128 * self.c as u128 + lo[i] as u128 + carry;
                w[i] = t as u64;
                carry = t >> 64;
            }
            debug_assert_eq!(carry, 0);
        }
        let mut v = U256([w[0], w[1], w[2], w[3]]);
        while v >= self.modulus {
            v = v.wrapping_sub(self.modulus);
        }
        v
    }

    /// `(a + b) mod m`; inputs must already be reduced.
    pub fn add(&self, a: U256, b: U256) -> U256 {
        debug_assert!(a < self.modulus && b < self.modulus);
        let (sum, overflow) = a.overflowing_add(b);
        if overflow {
            // sum = a + b - 2^256; 2^256 ≡ 2c (mod m).
            let (fixed, _) = sum.overflowing_add(U256::from(2 * self.c));
            self.reduce(fixed)
        } else {
            self.reduce(sum)
        }
    }

    /// `(a * b) mod m`; inputs must already be reduced.
    pub fn mul(&self, a: U256, b: U256) -> U256 {
        self.reduce_wide(a.widening_mul(b))
    }

    /// Samples a uniformly random value in `[0, m)`.
    pub fn random(&self, rng: &mut impl rand::RngCore) -> U256 {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            bytes[31] &= 0x7f; // restrict to 255 bits
            let v = U256::from_bytes_le(&bytes);
            if v < self.modulus {
                return v;
            }
        }
    }
}

/// Naive bit-by-bit long division reduction, the test oracle of the
/// fold here and of [`field`](crate::field).
#[cfg(test)]
pub(crate) fn naive_reduce_wide(w: [u64; 8], m: U256) -> U256 {
    let mut rem = U256::ZERO;
    for bit in (0..512).rev() {
        // rem = rem * 2 + bit
        let carry_out = rem.0[3] >> 63;
        let mut r = U256([rem.0[0] << 1, 0, 0, 0]);
        for i in 1..4 {
            r.0[i] = (rem.0[i] << 1) | (rem.0[i - 1] >> 63);
        }
        let b = (w[bit / 64] >> (bit % 64)) & 1;
        r.0[0] |= b;
        rem = r;
        if carry_out != 0 || rem >= m {
            rem = rem.wrapping_sub(m);
        }
    }
    rem
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn modulus_constants() {
        // 2^255 - 20 ends in ...ffec little-endian.
        let q = P25519_MINUS_1.modulus().to_bytes_le();
        assert_eq!(q[0], 0xec);
        assert_eq!(q[31], 0x7f);
    }

    #[test]
    fn byte_roundtrips() {
        let v = U256([1, 2, 3, 4]);
        assert_eq!(U256::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(U256::from_bytes_le(&v.to_bytes_le()), v);
    }

    #[test]
    fn add_wraps_at_the_modulus() {
        let m = P25519_MINUS_1;
        assert_eq!(m.add(U256::from(5u64), U256::from(7u64)), U256::from(12u64));
        let minus_one = m.modulus().wrapping_sub(U256::ONE);
        assert_eq!(m.add(minus_one, U256::from(3u64)), U256::from(2u64));
    }

    fn arb_u256() -> impl Strategy<Value = U256> {
        prop::array::uniform4(any::<u64>()).prop_map(U256)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fold_reduction_matches_long_division(a in arb_u256(), b in arb_u256()) {
            let w = a.widening_mul(b);
            for m in [SpecialModulus::new(19), P25519_MINUS_1] {
                prop_assert_eq!(m.reduce_wide(w), naive_reduce_wide(w, m.modulus()));
            }
        }

        #[test]
        fn mul_commutes(a in arb_u256(), b in arb_u256()) {
            let m = P25519_MINUS_1;
            let (a, b) = (m.reduce(a), m.reduce(b));
            prop_assert_eq!(m.mul(a, b), m.mul(b, a));
        }

        #[test]
        fn mul_distributes(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
            let m = P25519_MINUS_1;
            let (a, b, c) = (m.reduce(a), m.reduce(b), m.reduce(c));
            prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
        }

        #[test]
        fn ord_consistent_with_sub(a in arb_u256(), b in arb_u256()) {
            let (_, borrow) = a.overflowing_sub(b);
            prop_assert_eq!(borrow, a < b);
        }
    }
}

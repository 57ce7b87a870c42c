//! X25519 Diffie-Hellman (RFC 7748) over [`Fe`], the radix-2^51 field.
//!
//! Used by the EndBox control channel (VPN handshake) and by the TLS shim
//! that forwards session keys into the enclave. Two paths compute the one
//! function:
//!
//! * [`x25519`] / [`shared_secret`] — the Montgomery ladder, for any `u`:
//!   255 steps of 4 squarings, 5 multiplications and a masked swap, then
//!   one inversion.
//! * [`public_key`] / [`keypair`] — the fixed base `u = 9`, about 3.4x
//!   fewer field multiplications: the scalar times the base point on the
//!   birationally equivalent twisted Edwards curve (edwards25519), from a
//!   table of its radix-16 multiples built once per process, mapped back
//!   by `u = (1 + y)/(1 − y)`.
//!
//! Both read the scalar's bits with the same instructions whatever their
//! value: the ladder swaps with a mask, the fixed-base path scans a whole
//! table row for each digit.

use crate::field::Fe;
use crate::u256::U256;
use std::sync::OnceLock;

/// Length of scalars, coordinates and shared secrets.
pub const KEY_LEN: usize = 32;

/// The standard base point `u = 9`.
pub const BASE_POINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

const A24: u32 = 121665; // (486662 - 2) / 4

/// Clamps a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Scalar multiplication on Curve25519: computes `k * u`.
///
/// `k` is clamped internally; `u` has its top bit masked, both per RFC 7748.
pub fn x25519(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*k);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let kt = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= kt;
        Fe::cswap(&mut x2, &mut x3, swap);
        Fe::cswap(&mut z2, &mut z3, swap);
        swap = kt;

        let a = x2 + z2;
        let aa = a.square();
        let b = x2 - z2;
        let bb = b.square();
        let e = aa - bb;
        let c = x3 + z3;
        let d = x3 - z3;
        let da = d * a;
        let cb = c * b;
        x3 = (da + cb).square();
        z3 = x1 * (da - cb).square();
        x2 = aa * bb;
        z2 = e * (aa + e.mul_small(A24));
    }
    Fe::cswap(&mut x2, &mut x3, swap);
    Fe::cswap(&mut z2, &mut z3, swap);
    (x2 * z2.invert()).to_bytes()
}

/// Computes the public key for a secret scalar: `x25519(secret, 9)`, by
/// the fixed-base path.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    fixed_base(&clamp_scalar(*secret)).to_bytes()
}

/// Generates an (unclamped secret, public key) pair from `rng`.
pub fn keypair(rng: &mut impl rand::RngCore) -> ([u8; 32], [u8; 32]) {
    let mut sk = [0u8; 32];
    rng.fill_bytes(&mut sk);
    let pk = public_key(&sk);
    (sk, pk)
}

/// Computes the shared secret between `secret` and a peer's `public`.
pub fn shared_secret(secret: &[u8; 32], public: &[u8; 32]) -> [u8; 32] {
    x25519(secret, public)
}

// --- the fixed-base path ---------------------------------------------------

/// A point of edwards25519, `−x² + y² = 1 + d·x²·y²`, in extended
/// coordinates: `x = X/Z`, `y = Y/Z`, `x·y = T/Z`.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point made ready for mixed addition: `(y + x, y − x, 2d·x·y)`.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Point {
    const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// `self + q` (madd-2008-hwcd-3 with `a = −1`; 7 multiplications).
    /// Complete: it holds for the identity and for doubling too.
    fn add_niels(&self, q: &Niels) -> Point {
        let a = (self.y - self.x) * q.y_minus_x;
        let b = (self.y + self.x) * q.y_plus_x;
        let c = self.t * q.xy2d;
        let d = self.z + self.z;
        let (e, f, g, h) = (b - a, d - c, d + c, b + a);
        Point {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }

    /// `2·self` (dbl-2008-hwcd with `a = −1`; 4 squarings, 4
    /// multiplications).
    fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz + zz;
        let e = (self.x + self.y).square() - a - b;
        let g = b - a;
        let f = g - c;
        let h = -(a + b);
        Point {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }

    fn to_niels(self, d2: Fe) -> Niels {
        let z_inv = self.z.invert();
        let (x, y) = (self.x * z_inv, self.y * z_inv);
        Niels {
            y_plus_x: y + x,
            y_minus_x: y - x,
            xy2d: x * y * d2,
        }
    }
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn cmov(&mut self, other: &Niels, choice: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, choice);
        self.y_minus_x.cmov(&other.y_minus_x, choice);
        self.xy2d.cmov(&other.xy2d, choice);
    }
}

/// The Edwards point that `u = 9` maps to. Its `y = (u − 1)/(u + 1) =
/// 4/5`; `x` is a square root of `(y² − 1)/(d·y² + 1)`, and which one does
/// not matter: `P` and `−P` share `y`, so every multiple maps to the same
/// `u` either way.
fn base_point(d: Fe) -> Point {
    let y = Fe::from_u64(4) * Fe::from_u64(5).invert();
    let yy = y.square();
    let x = sqrt((yy - Fe::ONE) * (d * yy + Fe::ONE).invert());
    Point {
        x,
        y,
        z: Fe::ONE,
        t: x * y,
    }
}

/// A square root of the square `a`, for `p ≡ 5 (mod 8)`: `r = a^((p+3)/8)`
/// squares to `±a`; when it gives `−a`, `r·√−1` is the root, where
/// `√−1 = 2^((p−1)/4)` (2 is a non-residue).
fn sqrt(a: Fe) -> Fe {
    // (p + 3)/8 = 2^252 − 2 and (p − 1)/4 = 2^253 − 5.
    let r = a.pow(&U256([u64::MAX - 1, u64::MAX, u64::MAX, (1 << 60) - 1]));
    if r.square().to_bytes() == a.to_bytes() {
        return r;
    }
    r * Fe::from_u64(2).pow(&U256([u64::MAX - 4, u64::MAX, u64::MAX, (1 << 61) - 1]))
}

/// Row `r` holds `1·P_r ..= 8·P_r` for `P_r = 256^r · B`: 32 rows of 8
/// entries, 30 KiB, built on first use (256 inversions, once per
/// process).
fn base_table() -> &'static [[Niels; 8]] {
    static TABLE: OnceLock<Vec<[Niels; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let d = -Fe::from_u64(121665) * Fe::from_u64(121666).invert();
        let d2 = d + d;
        let mut row_base = base_point(d);
        (0..32)
            .map(|_| {
                let step = row_base.to_niels(d2);
                let mut row = [step; 8];
                let mut multiple = row_base;
                for entry in &mut row[1..] {
                    multiple = multiple.add_niels(&step);
                    *entry = multiple.to_niels(d2);
                }
                for _ in 0..8 {
                    row_base = row_base.double();
                }
                row
            })
            .collect()
    })
}

/// `digit · P_r` from row `r`, for a digit in `[−8, 8]`: every entry is
/// read and the sign applied by mask, whatever the digit.
fn select(row: &[Niels; 8], digit: i8) -> Niels {
    let negative = u64::from(digit as u8 >> 7);
    let magnitude = u64::from(digit.unsigned_abs());
    let mut out = Niels::IDENTITY;
    for (j, entry) in (1u64..).zip(row) {
        out.cmov(entry, (magnitude ^ j).wrapping_sub(1) >> 63);
    }
    let minus = Niels {
        y_plus_x: out.y_minus_x,
        y_minus_x: out.y_plus_x,
        xy2d: -out.xy2d,
    };
    out.cmov(&minus, negative);
    out
}

/// The `u` of `k · B` for a clamped `k`: 64 mixed additions and 4
/// doublings on the table, then one inversion.
fn fixed_base(k: &[u8; 32]) -> Fe {
    let table = base_table();
    // Signed radix-16 digits, k = Σ e[i]·16^i with e[i] in [−8, 8): a
    // clamped scalar is below 2^255, so the top digit ends at most 8.
    let mut e = [0i8; 64];
    for (i, byte) in k.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in &mut e[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    // The odd digits (16^(2r+1) = 16 · 256^r), times 16, then the even.
    let mut h = Point::IDENTITY;
    for i in (1..64).step_by(2) {
        h = h.add_niels(&select(&table[i / 2], e[i]));
    }
    h = h.double().double().double().double();
    for i in (0..64).step_by(2) {
        h = h.add_niels(&select(&table[i / 2], e[i]));
    }
    // u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y).
    (h.z + h.y) * (h.z - h.y).invert()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::SeedableRng;

    #[test]
    fn rfc7748_vector_1() {
        let k = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_dh_section_6_1() {
        let alice_sk = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_sk = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let alice_pk = public_key(&alice_sk);
        let bob_pk = public_key(&bob_sk);
        assert_eq!(
            hex::encode(&alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = shared_secret(&alice_sk, &bob_pk);
        let s2 = shared_secret(&bob_sk, &alice_pk);
        assert_eq!(s1, s2);
        assert_eq!(
            hex::encode(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn rfc7748_iterated_section_5_2() {
        // k ← x25519(k, u), u ← old k, from k = u = 9.
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for i in 1..=1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
            if i == 1 {
                assert_eq!(
                    hex::encode(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn fixed_base_equals_the_ladder() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2018);
        let mut scalars = vec![[0u8; 32], [0xff; 32], [0x80; 32]];
        for _ in 0..64 {
            let mut k = [0u8; 32];
            rand::RngCore::fill_bytes(&mut rng, &mut k);
            scalars.push(k);
        }
        for k in &scalars {
            assert_eq!(
                public_key(k),
                x25519(k, &BASE_POINT),
                "scalar {}",
                hex::encode(k)
            );
        }
    }

    #[test]
    fn keypair_known_answer() {
        // Captured from the U256 ladder this path replaced.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (sk, pk) = keypair(&mut rng);
        assert_eq!(
            hex::encode(&sk),
            "5a76f94ef7fa58b3d22c484f963d5c4796792c9549d3f1d64072801e733829fb"
        );
        assert_eq!(
            hex::encode(&pk),
            "76007af74581679a0ca2bc7381ed7dee8aeac5f57da02dd5a3249704d14dc161"
        );
        let (_, pk2) = keypair(&mut rng);
        assert_eq!(
            hex::encode(&pk2),
            "9284b2109a7c63a469b54093ea4e4dd5f8692fdd8cac026d36beb18f1d59985e"
        );
        assert_eq!(
            hex::encode(&shared_secret(&sk, &pk2)),
            "6f5d232f4325288cd07130d01777108d353460956d4cbbd6791e11680404e76c"
        );
    }

    #[test]
    fn dh_commutes_for_random_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..8 {
            let (a_sk, a_pk) = keypair(&mut rng);
            let (b_sk, b_pk) = keypair(&mut rng);
            assert_eq!(shared_secret(&a_sk, &b_pk), shared_secret(&b_sk, &a_pk));
        }
    }

    #[test]
    fn clamping_is_idempotent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut k = [0u8; 32];
        rand::RngCore::fill_bytes(&mut rng, &mut k);
        let once = clamp_scalar(k);
        assert_eq!(clamp_scalar(once), once);
        assert_eq!(once[0] & 7, 0);
        assert_eq!(once[31] & 0x80, 0);
        assert_eq!(once[31] & 0x40, 0x40);
    }
}

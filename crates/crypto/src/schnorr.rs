//! Schnorr signatures over the multiplicative group of GF(2^255 − 19).
//!
//! The EndBox certificate authority, Quoting Enclave and configuration
//! signing all need an asymmetric signature. The real system used the
//! LibreSSL stack (RSA/ECDSA certificates); this reproduction uses textbook
//! Schnorr in `Z_p^*` with `p = 2^255 − 19` and generator `g = 2`, which
//! keeps the protocol shape (sign/verify with public-key certificates) while
//! staying within the from-scratch arithmetic of [`crate::field`] (the
//! group) and [`crate::u256`] (the exponents, mod `p − 1`).
//!
//! `g^x` — key generation, the signing nonce's commitment and the left
//! side of verification — reads a fixed-base comb for `g`, built once per
//! process: 63 field multiplications. `vk^e` in verification uses 4-bit
//! fixed windows ([`Fe::pow`]).
//!
//! This is a *simulation-grade* scheme: `p − 1` is not prime, so the group
//! has small subgroups and the scheme must not be used outside this
//! reproduction. Like the square-and-multiply it replaced, the comb's
//! table index follows the secret exponent's digits, so its memory
//! access pattern depends on the key and the nonce.

use crate::field::{self, Fe};
use crate::sha256::Sha256;
use crate::u256::{P25519_MINUS_1, U256};
use crate::CryptoError;
use std::sync::OnceLock;

/// `g^x` for the generator `g = 2`, from a comb of 64 rows of 16:
/// row `i` holds `g^(j·16^i)` for `j` in `0..16` (40 KiB), so `x`'s hex
/// digits `x_i` pick `∏ row_i[x_i]`.
fn g_pow(x: &U256) -> U256 {
    static COMB: OnceLock<Vec<[Fe; 16]>> = OnceLock::new();
    let comb = COMB.get_or_init(|| {
        let mut base = Fe::from_u64(2);
        (0..64)
            .map(|_| {
                let mut row = [Fe::ONE; 16];
                for j in 1..16 {
                    row[j] = row[j - 1] * base;
                }
                base = row[15] * base;
                row
            })
            .collect()
    });
    let mut acc = comb[0][field::nibble(x, 0)];
    for (i, row) in comb.iter().enumerate().skip(1) {
        acc = acc * row[field::nibble(x, i)];
    }
    acc.to_u256()
}

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SigningKey {
    sk: U256,
    vk: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey {{ vk: {:?}, sk: <redacted> }}", self.vk)
    }
}

/// A Schnorr verifying (public) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(U256);

/// A Schnorr signature `(r, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    r: U256,
    s: U256,
}

/// Serialised signature length in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Serialised public key length in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate(rng: &mut impl rand::RngCore) -> Self {
        let q = P25519_MINUS_1;
        let sk = loop {
            let candidate = q.random(rng);
            if !candidate.is_zero() {
                break candidate;
            }
        };
        let vk = VerifyingKey(g_pow(&sk));
        SigningKey { sk, vk }
    }

    /// Deterministically derives a key pair from a 32-byte seed
    /// (used for the simulated CPU-fused attestation keys).
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let q = P25519_MINUS_1;
        let mut h = Sha256::new();
        h.update(b"endbox-schnorr-key");
        h.update(seed);
        let digest = h.finalize();
        let mut sk = q.reduce(U256::from_bytes_be(&digest));
        if sk.is_zero() {
            sk = U256::ONE;
        }
        let vk = VerifyingKey(g_pow(&sk));
        SigningKey { sk, vk }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.vk
    }

    /// Serialises the secret scalar (for sealed storage only — never send
    /// this anywhere unprotected).
    pub fn to_bytes(&self) -> [u8; 32] {
        self.sk.to_bytes_be()
    }

    /// Restores a signing key from [`SigningKey::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] for out-of-range scalars.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        let sk = U256::from_bytes_be(bytes);
        if sk.is_zero() || sk >= P25519_MINUS_1.modulus() {
            return Err(CryptoError::InvalidKey);
        }
        let vk = VerifyingKey(g_pow(&sk));
        Ok(SigningKey { sk, vk })
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8], rng: &mut impl rand::RngCore) -> Signature {
        let q = P25519_MINUS_1;
        let k = loop {
            let candidate = q.random(rng);
            if !candidate.is_zero() {
                break candidate;
            }
        };
        let r = g_pow(&k);
        let e = challenge(&r, &self.vk, msg);
        let s = q.add(k, q.mul(e, self.sk));
        Signature { r, s }
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if verification fails.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        if sig.r.is_zero() || sig.r >= field::P || sig.s >= P25519_MINUS_1.modulus() {
            return Err(CryptoError::InvalidSignature);
        }
        let e = challenge(&sig.r, self, msg);
        let lhs = g_pow(&sig.s);
        let rhs = Fe::from_u256(sig.r) * Fe::from_u256(self.0).pow(&e);
        if lhs == rhs.to_u256() {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// Serialises to 32 bytes.
    pub fn to_bytes(self) -> [u8; PUBLIC_KEY_LEN] {
        self.0.to_bytes_be()
    }

    /// Parses from 32 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the value is not a valid group
    /// element (zero or ≥ p).
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Result<Self, CryptoError> {
        let v = U256::from_bytes_be(bytes);
        if v.is_zero() || v >= field::P {
            return Err(CryptoError::InvalidKey);
        }
        Ok(VerifyingKey(v))
    }
}

impl Signature {
    /// Serialises to 64 bytes (`r || s`, big-endian).
    pub fn to_bytes(self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.r.to_bytes_be());
        out[32..].copy_from_slice(&self.s.to_bytes_be());
        out
    }

    /// Parses from 64 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] on out-of-range components.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Result<Self, CryptoError> {
        let r = U256::from_bytes_be(bytes[..32].try_into().unwrap());
        let s = U256::from_bytes_be(bytes[32..].try_into().unwrap());
        if r.is_zero() || r >= field::P || s >= P25519_MINUS_1.modulus() {
            return Err(CryptoError::InvalidSignature);
        }
        Ok(Signature { r, s })
    }
}

/// Fiat-Shamir challenge `e = H(r || pk || msg) mod (p-1)`.
fn challenge(r: &U256, vk: &VerifyingKey, msg: &[u8]) -> U256 {
    let mut h = Sha256::new();
    h.update(b"endbox-schnorr-sig");
    h.update(&r.to_bytes_be());
    h.update(&vk.0.to_bytes_be());
    h.update(msg);
    P25519_MINUS_1.reduce(U256::from_bytes_be(&h.finalize()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello middleboxes", &mut rng);
        key.verifying_key()
            .verify(b"hello middleboxes", &sig)
            .unwrap();
    }

    #[test]
    fn rejects_tampered_message() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"config v1", &mut rng);
        assert_eq!(
            key.verifying_key().verify(b"config v2", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn rejects_wrong_key() {
        let mut rng = rng();
        let key1 = SigningKey::generate(&mut rng);
        let key2 = SigningKey::generate(&mut rng);
        let sig = key1.sign(b"msg", &mut rng);
        assert!(key2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"msg", &mut rng);
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 1;
        if let Ok(bad) = Signature::from_bytes(&bytes) {
            assert!(key.verifying_key().verify(b"msg", &bad).is_err());
        }
    }

    #[test]
    fn signature_serialisation_roundtrip() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"serialise me", &mut rng);
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        let vk = VerifyingKey::from_bytes(&key.verifying_key().to_bytes()).unwrap();
        vk.verify(b"serialise me", &parsed).unwrap();
    }

    #[test]
    fn signing_key_serialisation_roundtrip() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let restored = SigningKey::from_bytes(&key.to_bytes()).unwrap();
        assert_eq!(restored.verifying_key(), key.verifying_key());
        let sig = restored.sign(b"signed by the restored key", &mut rng);
        key.verifying_key()
            .verify(b"signed by the restored key", &sig)
            .unwrap();
        assert!(SigningKey::from_bytes(&[0u8; 32]).is_err());
        assert!(SigningKey::from_bytes(&[0xff; 32]).is_err());
    }

    #[test]
    fn known_answers() {
        // Captured from the square-and-multiply `pow` the comb replaced.
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        assert_eq!(
            hex::encode(&key.to_bytes()),
            "6cb8ad4703b360a1ae17533239e499a16104d9866d113a7e15780b2e0c2ec716"
        );
        assert_eq!(
            hex::encode(&key.verifying_key().to_bytes()),
            "11bca49e98a780a0b7e7fcd72f72681472ae60a0fbd2319a49a712e5696e68d5"
        );
        let sig = key.sign(b"endbox known answer", &mut rng);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "685c2e3814ca0a2d2c5ed53e2d7c4c71209fd9645390bfc307db4fcd83c5e181\
             78c99843cb7b9f6d67d2cd9f6cb374304c09c1422fbf2af9ea2be405b70ea20a"
        );
        key.verifying_key()
            .verify(b"endbox known answer", &sig)
            .unwrap();
        assert_eq!(
            hex::encode(&SigningKey::from_seed(&[7u8; 32]).verifying_key().to_bytes()),
            "154d8b6af3fcbd38265fe36f73e48bfcbbb399369f95e1cde5fd87ea2eea76f9"
        );
    }

    #[test]
    fn comb_matches_windowed_pow() {
        let mut rng = rng();
        for x in [
            U256::ZERO,
            U256::ONE,
            P25519_MINUS_1.modulus().wrapping_sub(U256::ONE),
        ]
        .into_iter()
        .chain((0..16).map(|_| P25519_MINUS_1.random(&mut rng)))
        {
            assert_eq!(g_pow(&x), Fe::from_u64(2).pow(&x).to_u256());
        }
    }

    #[test]
    fn from_seed_is_deterministic() {
        let k1 = SigningKey::from_seed(&[7u8; 32]);
        let k2 = SigningKey::from_seed(&[7u8; 32]);
        assert_eq!(k1.verifying_key(), k2.verifying_key());
        let k3 = SigningKey::from_seed(&[8u8; 32]);
        assert_ne!(k1.verifying_key(), k3.verifying_key());
    }

    #[test]
    fn rejects_out_of_range_encodings() {
        assert!(VerifyingKey::from_bytes(&[0u8; 32]).is_err());
        assert!(VerifyingKey::from_bytes(&[0xff; 32]).is_err());
        assert!(Signature::from_bytes(&[0xff; 64]).is_err());
        assert!(Signature::from_bytes(&[0u8; 64]).is_err());
    }

    #[test]
    fn distinct_messages_have_distinct_signatures() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let s1 = key.sign(b"a", &mut rng);
        let s2 = key.sign(b"b", &mut rng);
        assert_ne!(s1, s2);
    }
}

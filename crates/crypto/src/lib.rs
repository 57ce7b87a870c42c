//! Cryptographic primitives for the EndBox reproduction, implemented from
//! scratch.
//!
//! The EndBox paper links OpenVPN against TaLoS (a LibreSSL port running
//! inside SGX enclaves). This crate provides the same primitives in pure
//! Rust so they can run inside the simulated enclave of the `endbox-sgx` crate:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), streaming and one-shot.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), keyed once into ipad/opad
//!   midstates, and a small HKDF (RFC 5869).
//! * [`aes`] / [`modes`] — AES-128 (FIPS 197) with CBC (PKCS#7) and CTR.
//! * [`ghash`] — GHASH and AES-128-GCM (SP 800-38D): the data channel's
//!   one AEAD, which seals the enterprise suite's records and, as GMAC,
//!   tags the integrity-only suite's.
//! * [`x25519`] — Diffie-Hellman over Curve25519 (RFC 7748): a
//!   Montgomery ladder for shared secrets, and a fixed-base path for
//!   public keys (the base point's multiples on the equivalent Edwards
//!   curve, tabulated once per process).
//! * [`schnorr`] — Schnorr signatures over the multiplicative group of
//!   GF(2^255 − 19); used for the certificate authority, quote signing and
//!   configuration-file signing. (The real system used RSA/ECDSA via
//!   LibreSSL; Schnorr keeps the same protocol shape with far less code.)
//!   Powers of the generator come from a fixed-base comb built once per
//!   process.
//! * [`field`] — GF(2^255 − 19) in radix 2^51, the one field of the two
//!   previous modules, with a per-thread count of its multiplications
//!   ([`field::mul_count`]).
//! * [`u256`] — fixed-width 256-bit integers, and the Schnorr exponents
//!   modulo `p − 1`.
//!
//! All primitives are deterministic and dependency-free; randomness is
//! always passed in by the caller (`rand::RngCore`), which keeps the whole
//! EndBox simulation reproducible from a seed.
//!
//! # Two backends, chosen by the CPU
//!
//! AES-128, SHA-256 and GHASH each have two implementations with identical outputs. On x86-64,
//! [`aes::Aes128::new`] uses AES-NI when `is_x86_feature_detected!("aes")`,
//! [`sha256::Sha256::new`] uses the SHA extensions when `sha`, `ssse3`
//! and `sse4.1` are all present, and [`ghash::GhashKey::new`] uses the
//! carry-less multiplier (PCLMULQDQ) with `ssse3`; otherwise, and on
//! every other architecture, the portable scalar code runs (for GHASH,
//! one bit at a time). Where the CPU also has AVX2, VAES and VPCLMULQDQ
//! (Ice Lake, Zen 3 and later), the same two constructors pick the
//! 256-bit form of the data channel's two loops: CTR and GHASH then run
//! two blocks per instruction, 16 per iteration; the 128-bit loops stay
//! the hardware path on older AES-NI CPUs. The choice is made from the
//! CPU alone, once per key schedule or hasher: there is no cargo
//! feature, environment variable or parameter that selects a backend.
//!
//! Measured on the benchmark host (a 2-vCPU Xeon VM with VAES), pinned
//! to one CPU, on one 23 KB record, the `bulk_nop` batch of 16×1460 B:
//!
//! | operation | 256-bit (VAES, VPCLMULQDQ) | 128-bit (AES-NI, PCLMULQDQ) | portable path |
//! |---|---|---|---|
//! | [`ghash::Gcm`] seal (CTR, then GHASH over the ciphertext) | 0.13–0.17 ns/B | 0.26–0.41 ns/B | not measured |
//! | [`ghash::Gcm`] open (GHASH, then CTR into a copy) | 0.14–0.16 ns/B | 0.28–0.34 ns/B | not measured |
//! | GHASH alone | 0.07–0.08 ns/B | 0.13–0.19 ns/B | ≈ 17 ns/B ([`ghash::mul`], bit-serial) |
//! | CTR alone | 0.06–0.08 ns/B | 0.16–0.21 ns/B | not measured |
//! | `modes::cbc_encrypt` | — | ≈ 0.7 ns/B | 10.9 ns/B |
//! | `modes::cbc_decrypt` | — | ≈ 0.1 ns/B | 20.9 ns/B |
//! | `hmac::hmac_sha256` | — | ≈ 0.7 ns/B | 4.2 ns/B |
//!
//! On a CPU without AES-NI or PCLMULQDQ the record crypto falls back to
//! the portable AES and the bit-serial GHASH, two orders of magnitude
//! slower; nothing on the benchmark host runs that path
//! (`docs/architecture.md` §6).
//!
//! The intrinsics are the crate's only `unsafe` code and live in one
//! private module (`hw`); the crate root denies `unsafe_code` everywhere
//! else. Unit tests call every backend directly — the portable code, the
//! 128-bit loops (pinned even on a VAES CPU) and the 256-bit loops —
//! and require byte-equal results on random keys, IVs and lengths.
//!
//! # Example
//!
//! ```
//! use endbox_crypto::{sha256::sha256, hmac::hmac_sha256};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(digest[0], 0xba);
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

#![deny(unsafe_code)]

pub mod aes;
pub mod error;
pub mod field;
pub mod ghash;
pub mod hex;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod modes;
pub mod schnorr;
pub mod sha256;
pub mod u256;
pub mod x25519;

pub use error::CryptoError;

/// Compares two byte slices in time independent of their contents
/// (lengths are still revealed).
///
/// ```
/// assert!(endbox_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!endbox_crypto::ct_eq(b"abc", b"abd"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"hello", b"hello"));
        assert!(!ct_eq(b"hello", b"hellO"));
        assert!(!ct_eq(b"hello", b"hell"));
    }
}

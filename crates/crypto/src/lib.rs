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
//! * [`aes`] / [`modes`] — AES-128 (FIPS 197) with CBC (PKCS#7, in place
//!   or `Vec`-returning) and CTR.
//! * [`x25519`] — Diffie-Hellman over Curve25519 (RFC 7748).
//! * [`schnorr`] — Schnorr signatures over the multiplicative group of
//!   GF(2^255 − 19); used for the certificate authority, quote signing and
//!   configuration-file signing. (The real system used RSA/ECDSA via
//!   LibreSSL; Schnorr keeps the same protocol shape with far less code.)
//! * [`u256`] — fixed-width 256-bit arithmetic shared by the two previous
//!   modules.
//!
//! All primitives are deterministic and dependency-free; randomness is
//! always passed in by the caller (`rand::RngCore`), which keeps the whole
//! EndBox simulation reproducible from a seed.
//!
//! # Two backends, chosen by the CPU
//!
//! AES-128 and SHA-256 — the record crypto of the data channel — each
//! have two implementations with identical outputs. On x86-64,
//! [`aes::Aes128::new`] uses AES-NI when `is_x86_feature_detected!("aes")`
//! and [`sha256::Sha256::new`] uses the SHA extensions when `sha`, `ssse3`
//! and `sse4.1` are all present; otherwise, and on every other
//! architecture, the portable scalar code runs. The choice is made from
//! the CPU alone, once per key schedule or hasher: there is no cargo
//! feature, environment variable or parameter that selects a backend.
//! Measured on the benchmark host through `modes::cbc_encrypt`,
//! `modes::cbc_decrypt` and `hmac::hmac_sha256` on one 23 KB record:
//! about 0.7 / 0.1 / 0.8 ns/B on the hardware path against 10.9 / 20.9 /
//! 4.2 ns/B on the portable one (`docs/architecture.md` §6).
//!
//! The intrinsics are the crate's only `unsafe` code and live in one
//! private module (`hw`); the crate root denies `unsafe_code` everywhere
//! else. Unit tests call both backends directly and require byte-equal
//! results on random keys, IVs and lengths.
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

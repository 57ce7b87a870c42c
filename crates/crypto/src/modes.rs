//! Block cipher modes for AES-128: CBC with PKCS#7 padding, and CTR.
//!
//! EndBox's data channel uses AES-128-CBC with an HMAC-SHA256 tag (matching
//! OpenVPN's default static configuration in the paper); the TLS shim, and
//! the `TLSDecrypt` element that reads its records, use CTR
//! ([`ctr_xor`]: eight blocks in flight on AES-NI) for application-record
//! protection.
//!
//! A record is sealed with [`cbc_encrypt_then_mac_in_place`]: its contract
//! is [`cbc_encrypt_in_place`] followed by [`HmacSha256::update`] over the
//! whole buffer, and on AES-NI + SHA-NI it runs the two as one stitched
//! loop instead of one after the other. Without those extensions it is
//! that composition.

use crate::aes::{Aes128, BLOCK_LEN};
use crate::hmac::HmacSha256;
use crate::CryptoError;

/// Pads `buf[from..]` with PKCS#7 and encrypts it with AES-128-CBC where
/// it lies; `buf[..from]` (a header, an IV) is left alone. Afterwards
/// `buf[from..]` is a non-zero multiple of the block size.
///
/// This is how a record is sealed in one buffer: the caller writes the IV
/// and the plaintext into `buf`, encrypts from `from`, then appends the
/// tag — no second copy of the payload is ever made.
///
/// # Panics
///
/// Panics if `from > buf.len()`.
pub fn cbc_encrypt_in_place(aes: &Aes128, iv: &[u8; BLOCK_LEN], buf: &mut Vec<u8>, from: usize) {
    pad_pkcs7(buf, from);
    aes.cbc_encrypt_blocks(iv, &mut buf[from..]);
}

/// Encrypt-then-MAC in one pass: exactly
/// `cbc_encrypt_in_place(aes, iv, buf, from); mac.update(buf)`.
///
/// `buf[from..]` is padded with PKCS#7 and encrypted where it lies, and
/// then all of `buf` — the bytes before `from` (an IV) included — is
/// absorbed into `mac`, after whatever `mac` has absorbed already (a
/// record header); a tail short of a SHA-256 block stays buffered in
/// `mac` for [`HmacSha256::finalize`] or a further `update`. On a CPU
/// with AES-NI and SHA-NI the encryption and the MAC run in one stitched
/// loop — each SHA-256 compression of the oldest complete message block
/// carries the AES rounds of the next 64 bytes of CBC — so neither
/// latency-bound chain waits for the other; otherwise this *is* the
/// composition above.
///
/// ```
/// use endbox_crypto::{aes::Aes128, hmac::HmacSha256, modes};
/// let aes = Aes128::new(&[7u8; 16]);
/// let iv = [9u8; 16];
/// let keyed = HmacSha256::new(b"mac key");
///
/// let mut fused = iv.to_vec();
/// fused.extend_from_slice(b"attack at dawn");
/// let mut mac = keyed.clone();
/// modes::cbc_encrypt_then_mac_in_place(&aes, &iv, &mut fused, 16, &mut mac);
///
/// let mut apart = iv.to_vec();
/// apart.extend_from_slice(b"attack at dawn");
/// modes::cbc_encrypt_in_place(&aes, &iv, &mut apart, 16);
/// let mut reference = keyed.clone();
/// reference.update(&apart);
/// assert_eq!((fused, mac.finalize()), (apart, reference.finalize()));
/// ```
///
/// # Panics
///
/// Panics if `from > buf.len()`.
pub fn cbc_encrypt_then_mac_in_place(
    aes: &Aes128,
    iv: &[u8; BLOCK_LEN],
    buf: &mut Vec<u8>,
    from: usize,
    mac: &mut HmacSha256,
) {
    pad_pkcs7(buf, from);
    mac.update_cbc_encrypting(aes, iv, buf, from);
}

/// Pads `buf[from..]` to a non-zero multiple of the block size.
fn pad_pkcs7(buf: &mut Vec<u8>, from: usize) {
    let pad = BLOCK_LEN - ((buf.len() - from) % BLOCK_LEN);
    buf.resize(buf.len() + pad, pad as u8);
}

/// Decrypts AES-128-CBC `data` where it lies and checks the PKCS#7
/// padding. Returns the plaintext length: the plaintext is
/// `data[..len]`, the bytes after it are padding.
///
/// # Errors
///
/// [`CryptoError::InvalidLength`] if `data` is empty or not a multiple of
/// the block size (nothing is written), [`CryptoError::InvalidPadding`]
/// if the padding is malformed.
pub fn cbc_decrypt_in_place(
    aes: &Aes128,
    iv: &[u8; BLOCK_LEN],
    data: &mut [u8],
) -> Result<usize, CryptoError> {
    if data.is_empty() || !data.len().is_multiple_of(BLOCK_LEN) {
        return Err(CryptoError::InvalidLength);
    }
    aes.cbc_decrypt_blocks(iv, data);
    let pad = data[data.len() - 1] as usize;
    if pad == 0 || pad > BLOCK_LEN {
        return Err(CryptoError::InvalidPadding);
    }
    let len = data.len() - pad;
    if !data[len..].iter().all(|&b| b as usize == pad) {
        return Err(CryptoError::InvalidPadding);
    }
    Ok(len)
}

/// Encrypts `plaintext` with AES-128-CBC and PKCS#7 padding.
///
/// The output is always a non-zero multiple of the block size.
///
/// ```
/// use endbox_crypto::{aes::Aes128, modes};
/// let aes = Aes128::new(&[7u8; 16]);
/// let iv = [9u8; 16];
/// let ct = modes::cbc_encrypt(&aes, &iv, b"attack at dawn");
/// let pt = modes::cbc_decrypt(&aes, &iv, &ct).unwrap();
/// assert_eq!(pt, b"attack at dawn");
/// ```
pub fn cbc_encrypt(aes: &Aes128, iv: &[u8; BLOCK_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut data = Vec::with_capacity(plaintext.len() + BLOCK_LEN);
    data.extend_from_slice(plaintext);
    cbc_encrypt_in_place(aes, iv, &mut data, 0);
    data
}

/// Decrypts AES-128-CBC ciphertext and strips PKCS#7 padding.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if `ciphertext` is empty or not a
/// multiple of the block size, and [`CryptoError::InvalidPadding`] if the
/// padding is malformed.
pub fn cbc_decrypt(
    aes: &Aes128,
    iv: &[u8; BLOCK_LEN],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut out = ciphertext.to_vec();
    let len = cbc_decrypt_in_place(aes, iv, &mut out)?;
    out.truncate(len);
    Ok(out)
}

/// Applies AES-128-CTR keystream to `data` in place (encrypt == decrypt).
///
/// `nonce` provides the initial counter block. The whole 128-bit block is
/// the counter: it is incremented big-endian per block, and a carry out of
/// the low 32 bits moves on into byte 11 and above. On AES-NI eight
/// counter blocks are encrypted side by side; the bytes are those of the
/// one-block-at-a-time portable loop.
pub fn ctr_xor(aes: &Aes128, nonce: &[u8; BLOCK_LEN], data: &mut [u8]) {
    aes.ctr_xor(nonce, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn nist_key() -> Aes128 {
        Aes128::new(&hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap())
    }

    /// SP 800-38A F.2.1 (encrypt) and F.2.2 (decrypt): all four blocks.
    #[test]
    fn sp800_38a_cbc() {
        let aes = nist_key();
        let iv = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let pt = hex::decode(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        let want = "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2\
                    73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7";
        let ct = cbc_encrypt(&aes, &iv, &pt);
        // The NIST vector has no padding; ours adds a fifth block.
        assert_eq!(hex::encode(&ct[..64]), want);
        assert_eq!(ct.len(), 80);
        assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt);

        // F.2.2 proper: the four vector blocks alone, decrypted without
        // the padding check.
        let mut blocks = hex::decode(want).unwrap();
        aes.cbc_decrypt_blocks(&iv, &mut blocks);
        assert_eq!(blocks, pt);
    }

    #[test]
    fn in_place_matches_wrappers_at_every_length() {
        let aes = nist_key();
        let iv = [0x24u8; 16];
        for len in 0..=64usize {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let ct = cbc_encrypt(&aes, &iv, &pt);

            // Encrypt behind a header that must survive untouched.
            let mut buf = b"header".to_vec();
            buf.extend_from_slice(&pt);
            cbc_encrypt_in_place(&aes, &iv, &mut buf, 6);
            assert_eq!(&buf[..6], b"header", "len {len}");
            assert_eq!(&buf[6..], &ct[..], "len {len}");

            let body = &mut buf[6..];
            let n = cbc_decrypt_in_place(&aes, &iv, body).unwrap();
            assert_eq!(&body[..n], &pt[..], "len {len}");
            assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt, "len {len}");
        }
    }

    /// `(buf, tag, tag after a further update)` from the fused entry, for
    /// plaintext `body` behind the bytes `header`, after `prefix` has been
    /// absorbed into the MAC.
    fn fused(
        aes: &Aes128,
        keyed: &HmacSha256,
        iv: &[u8; 16],
        prefix: &[u8],
        header: &[u8],
        body: &[u8],
    ) -> (Vec<u8>, [u8; 32], [u8; 32]) {
        let mut buf = [header, body].concat();
        let mut mac = keyed.clone();
        mac.update(prefix);
        cbc_encrypt_then_mac_in_place(aes, iv, &mut buf, header.len(), &mut mac);
        let tag = mac.clone().finalize();
        mac.update(b"resumed");
        (buf, tag, mac.finalize())
    }

    /// The same from the composition on the portable backends, given the
    /// buffer `cbc_encrypt_in_place` left: the MAC over `prefix ‖ sealed`,
    /// then over `prefix ‖ sealed ‖ "resumed"`.
    fn composed(mac_key: &[u8], prefix: &[u8], sealed: Vec<u8>) -> (Vec<u8>, [u8; 32], [u8; 32]) {
        let mut mac = HmacSha256::portable(mac_key);
        mac.update(prefix);
        mac.update(&sealed);
        let tag = mac.clone().finalize();
        mac.update(b"resumed");
        (sealed, tag, mac.finalize())
    }

    fn portable_cbc(key: &[u8; 16], iv: &[u8; 16], header: &[u8], body: &[u8]) -> Vec<u8> {
        let mut sealed = [header, body].concat();
        cbc_encrypt_in_place(&Aes128::portable(key), iv, &mut sealed, header.len());
        sealed
    }

    /// Every plaintext length 0..=320 and every MAC prefix of 0..=63
    /// buffered bytes, behind no header and behind a 16-byte IV: the fused
    /// entry on the detected backends (the stitched kernel on a CPU with
    /// AES-NI and SHA-NI) equals the composition on the scalar ones, and
    /// so does the fused entry on the scalar backends (the fallback), at
    /// every length for the prefixes that bracket a block boundary.
    #[test]
    fn fused_seal_matches_composition_at_every_length_and_prefix() {
        let key = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let iv = [0x24u8; 16];
        let mac_key = b"record mac key";
        let (aes, keyed) = (Aes128::new(&key), HmacSha256::new(mac_key));
        let (scalar_aes, scalar_keyed) = (Aes128::portable(&key), HmacSha256::portable(mac_key));
        let prefix: Vec<u8> = (0..63u8).map(|i| i.wrapping_mul(29) ^ 0xa7).collect();
        let body: Vec<u8> = (0..320u16).map(|i| (i * 7 + 3) as u8).collect();
        for header in [&[][..], &iv[..]] {
            for len in 0..=body.len() {
                let sealed = portable_cbc(&key, &iv, header, &body[..len]);
                for p in 0..=prefix.len() {
                    let want = composed(mac_key, &prefix[..p], sealed.clone());
                    let got = fused(&aes, &keyed, &iv, &prefix[..p], header, &body[..len]);
                    assert_eq!(got, want, "prefix {p}, header {}, body {len}", header.len());
                    if [0, 1, 9, 47, 48, 63].contains(&p) {
                        let scalar = fused(
                            &scalar_aes,
                            &scalar_keyed,
                            &iv,
                            &prefix[..p],
                            header,
                            &body[..len],
                        );
                        assert_eq!(scalar, want, "scalar, prefix {p}, body {len}");
                    }
                }
            }
        }
    }

    mod fused_seal_agrees {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random keys, IVs, MAC prefixes and lengths up to 4 KiB, on
            /// the detected backends and on the scalar ones.
            #[test]
            fn with_its_composition(
                key in prop::array::uniform16(any::<u8>()),
                iv in prop::array::uniform16(any::<u8>()),
                mac_key in prop::collection::vec(any::<u8>(), 0..80),
                prefix in prop::collection::vec(any::<u8>(), 0..64),
                with_iv in any::<bool>(),
                body in prop::collection::vec(any::<u8>(), 0..4097),
            ) {
                let header = if with_iv { &iv[..] } else { &[][..] };
                let want = composed(&mac_key, &prefix, portable_cbc(&key, &iv, header, &body));
                let (aes, keyed) = (Aes128::new(&key), HmacSha256::new(&mac_key));
                prop_assert_eq!(fused(&aes, &keyed, &iv, &prefix, header, &body), want.clone());
                let (aes, keyed) = (Aes128::portable(&key), HmacSha256::portable(&mac_key));
                prop_assert_eq!(fused(&aes, &keyed, &iv, &prefix, header, &body), want);
            }
        }
    }

    #[test]
    fn in_place_decrypt_rejects_bad_lengths_without_writing() {
        let aes = nist_key();
        let mut data = [0x5au8; 17];
        assert_eq!(
            cbc_decrypt_in_place(&aes, &[0; 16], &mut data),
            Err(CryptoError::InvalidLength)
        );
        assert_eq!(data, [0x5au8; 17]);
        assert_eq!(
            cbc_decrypt_in_place(&aes, &[0; 16], &mut []),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn sp800_38a_ctr() {
        let aes = nist_key();
        let nonce = hex::decode_array::<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").unwrap();
        let mut data =
            hex::decode("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51")
                .unwrap();
        ctr_xor(&aes, &nonce, &mut data);
        assert_eq!(
            hex::encode(&data),
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
        );
    }

    #[test]
    fn cbc_rejects_bad_lengths() {
        let aes = nist_key();
        let iv = [0u8; 16];
        assert_eq!(cbc_decrypt(&aes, &iv, &[]), Err(CryptoError::InvalidLength));
        assert_eq!(
            cbc_decrypt(&aes, &iv, &[0u8; 17]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn cbc_rejects_corrupt_padding() {
        let aes = nist_key();
        let iv = [3u8; 16];
        let mut ct = cbc_encrypt(&aes, &iv, b"hello world");
        let n = ct.len();
        ct[n - 1] ^= 0xff; // garble last block -> padding check must fail
        assert!(cbc_decrypt(&aes, &iv, &ct).is_err());
    }

    #[test]
    fn cbc_all_plaintext_lengths() {
        let aes = nist_key();
        let iv = [0x42u8; 16];
        for len in 0..=48 {
            let pt: Vec<u8> = (0..len as u8).collect();
            let ct = cbc_encrypt(&aes, &iv, &pt);
            assert_eq!(ct.len() % 16, 0);
            assert!(ct.len() > pt.len(), "padding always added");
            assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn ctr_roundtrip_and_counter_carry() {
        let aes = nist_key();
        // Nonce that forces a carry out of the low byte after one block.
        let nonce = hex::decode_array::<16>("000000000000000000000000000000ff").unwrap();
        let original: Vec<u8> = (0..100).collect();
        let mut data = original.clone();
        ctr_xor(&aes, &nonce, &mut data);
        assert_ne!(data, original);
        ctr_xor(&aes, &nonce, &mut data);
        assert_eq!(data, original);
    }

    /// The counter is all 128 bits: when the low 32-bit word is all ones,
    /// the second block's counter carries into byte 11 instead of wrapping
    /// within the word.
    #[test]
    fn ctr_counter_carries_out_of_the_low_word() {
        let aes = nist_key();
        let nonce = hex::decode_array::<16>("f0f1f2f3f4f5f6f7f8f9fafbffffffff").unwrap();
        let mut keystream = [0u8; 2 * BLOCK_LEN];
        ctr_xor(&aes, &nonce, &mut keystream);
        let carried = hex::decode_array::<16>("f0f1f2f3f4f5f6f7f8f9fafc00000000").unwrap();
        assert_eq!(keystream[..BLOCK_LEN], aes.encrypt_block(&nonce));
        assert_eq!(keystream[BLOCK_LEN..], aes.encrypt_block(&carried));
    }
}

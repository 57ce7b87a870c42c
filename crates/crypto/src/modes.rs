//! Block cipher modes for AES-128: CBC with PKCS#7 padding, and CTR.
//!
//! The paper's OpenVPN protects records with AES-128-CBC and an
//! HMAC-SHA256 tag; here CBC serves the enclave's sealed storage and the
//! signed configuration update, and the data channel runs AES-GCM
//! ([`crate::ghash::Gcm`]) on [`ctr_xor`]'s keystream. The TLS shim, and
//! the `TLSDecrypt` element that reads its records, use CTR too (eight
//! blocks in flight on AES-NI).

use crate::aes::{Aes128, BLOCK_LEN};
use crate::CryptoError;

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
    let pad = BLOCK_LEN - plaintext.len() % BLOCK_LEN;
    let mut data = Vec::with_capacity(plaintext.len() + pad);
    data.extend_from_slice(plaintext);
    data.resize(plaintext.len() + pad, pad as u8);
    aes.cbc_encrypt_blocks(iv, &mut data);
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
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
        return Err(CryptoError::InvalidLength);
    }
    let mut out = ciphertext.to_vec();
    aes.cbc_decrypt_blocks(iv, &mut out);
    let pad = out[out.len() - 1] as usize;
    if pad == 0 || pad > BLOCK_LEN {
        return Err(CryptoError::InvalidPadding);
    }
    let len = out.len() - pad;
    if !out[len..].iter().all(|&b| b as usize == pad) {
        return Err(CryptoError::InvalidPadding);
    }
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

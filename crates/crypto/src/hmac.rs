//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA256.
///
/// A context holds the two SHA-256 midstates of its key — the hash state
/// after the ipad block and after the opad block — so everything that
/// depends only on the key is computed once, in [`HmacSha256::new`].
/// Cloning a freshly keyed context is therefore the cheap way to MAC many
/// messages under one key (the data channel keeps one per direction):
///
/// ```
/// use endbox_crypto::hmac::{hmac_sha256, HmacSha256};
/// let keyed = HmacSha256::new(b"key");
/// for msg in [&b"first"[..], b"second"] {
///     let mut m = keyed.clone();
///     m.update(msg);
///     assert_eq!(m.finalize(), hmac_sha256(b"key", msg));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Returns the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }

    /// Verifies `tag` against the absorbed message in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        crate::ct_eq(&self.finalize(), tag)
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut m = HmacSha256::new(key);
    m.update(data);
    m.finalize()
}

/// HKDF-Extract: derives a pseudorandom key from input keying material.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `out.len()` bytes bound to `info`.
///
/// # Panics
///
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut t: Vec<u8> = Vec::new();
    let mut written = 0;
    let mut counter = 1u8;
    while written < out.len() {
        let mut m = HmacSha256::new(prk);
        m.update(&t);
        m.update(info);
        m.update(&[counter]);
        let block = m.finalize();
        let take = (out.len() - written).min(DIGEST_LEN);
        out[written..written + take].copy_from_slice(&block[..take]);
        written += take;
        t = block.to_vec();
        counter = counter.wrapping_add(1);
    }
}

/// Convenience: full HKDF returning a fixed-size key.
pub fn hkdf<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
    let prk = hkdf_extract(salt, ikm);
    let mut out = [0u8; N];
    hkdf_expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 cases 1–4, 6 and 7 through one keyed context cloned per
    /// message — the way the data channel uses it.
    #[test]
    fn rfc4231_through_cloned_midstates() {
        let case4_key: Vec<u8> = (1..=25).collect();
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, msg, want) in cases {
            let keyed = HmacSha256::new(key);
            // Twice from the same midstates: keying is not consumed.
            for _ in 0..2 {
                let mut m = keyed.clone();
                let (head, tail) = msg.split_at(msg.len() / 2);
                m.update(head);
                m.update(tail);
                assert_eq!(hex::encode(&m.finalize()), want);
            }
        }
    }

    #[test]
    fn long_key_is_hashed() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        let mut m = HmacSha256::new(b"k");
        m.update(b"m");
        assert!(m.verify(&tag));
        let mut m = HmacSha256::new(b"k");
        m.update(b"m2");
        assert!(!m.verify(&tag));
    }

    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt = hex::decode("000102030405060708090a0b0c").unwrap();
        let info = hex::decode("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        hkdf_expand(&prk, &info, &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_output_sizes() {
        for n in [1usize, 31, 32, 33, 64, 100] {
            let prk = hkdf_extract(b"salt", b"ikm");
            let mut out = vec![0u8; n];
            hkdf_expand(&prk, b"info", &mut out);
            // Prefix property: shorter outputs are prefixes of longer ones.
            let mut long = vec![0u8; n + 7];
            hkdf_expand(&prk, b"info", &mut long);
            assert_eq!(&long[..n], &out[..]);
        }
    }
}

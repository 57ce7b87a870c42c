//! GHASH, GMAC and AES-128-GCM (NIST SP 800-38D), on one of two
//! GHASH backends.
//!
//! GCM encrypts a plaintext `P` with CTR and authenticates it together
//! with additional data `A` under the 96-bit nonce `N`:
//!
//! ```text
//! H  = E_K(0¹²⁸)
//! J0 = N ‖ 0x00000001
//! C  = P ⊕ E_K(inc32(J0)) ‖ E_K(inc32²(J0)) ‖ …
//! T  = GHASH_H(A ‖ 0-pad ‖ C ‖ 0-pad ‖ [8·len(A)]₆₄ ‖ [8·len(C)]₆₄) ⊕ E_K(J0)
//! ```
//!
//! where `GHASH_H(X₁ … Xₘ)` is `Y₀ = 0, Yᵢ = (Yᵢ₋₁ ⊕ Xᵢ)·H` in GF(2¹²⁸)
//! with the spec's bit order (the first bit of a block is the coefficient
//! of x⁰) and the polynomial x¹²⁸ + x⁷ + x² + x + 1. GMAC is GCM with an
//! empty plaintext. A nonce must never repeat under one key — under CTR a
//! repeated nonce leaks the XOR of two plaintexts: the data channel uses
//! `0³² ‖ packet_id₆₄`, and a direction's packet ids come from one
//! counter.
//!
//! * **PCLMULQDQ** (`crate::hw`, x86-64 only): a [`GhashKey`] holds
//!   H¹..H¹⁶, computed once, and multiplies eight blocks per reduction —
//!   16 per reduction, two per 256-bit instruction, where the CPU also
//!   has VPCLMULQDQ (with AVX2 and VAES).
//! * **Portable**: [`mul`], the spec's Algorithm 1 one bit at a time — the
//!   only path on CPUs without a carry-less multiplier (slow: every
//!   block costs 128 shift-and-XOR steps), and the oracle the kernel is
//!   tested against.
//!
//! [`GhashKey::new`] picks the backend once, from the CPU; nothing else
//! selects it. The CTR half is [`Aes128`]'s own (eight blocks in flight on
//! AES-NI, 16 on VAES).

use crate::aes::{Aes128, BLOCK_LEN, KEY_LEN};

/// GMAC tag size in bytes.
pub const TAG_LEN: usize = 16;
/// GMAC nonce size in bytes (the 96-bit IV of SP 800-38D).
pub const NONCE_LEN: usize = 12;

/// The reduction constant: x¹²⁸ = x⁷ + x² + x + 1, in the spec's
/// bit-reflected order.
const R: u128 = 0xe1 << 120;

/// The GF(2¹²⁸) product `x·y` of SP 800-38D Algorithm 1, bit by bit, on
/// blocks as the spec writes them.
///
/// ```
/// use endbox_crypto::ghash::mul;
/// let one = [0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
/// let y = [0x5a; 16];
/// assert_eq!(mul(&one, &y), y);
/// ```
pub fn mul(x: &[u8; BLOCK_LEN], y: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    mul_u128(u128::from_be_bytes(*x), u128::from_be_bytes(*y)).to_be_bytes()
}

/// [`mul`] on the blocks read big-endian: bit 127 is the spec's first
/// bit. Branch-free, so its time does not depend on `x` or `y`.
fn mul_u128(x: u128, y: u128) -> u128 {
    let (mut z, mut v) = (0u128, y);
    for i in (0..128).rev() {
        z ^= v & 0u128.wrapping_sub((x >> i) & 1);
        v = (v >> 1) ^ (R & 0u128.wrapping_sub(v & 1));
    }
    z
}

/// A GHASH key: the hash subkey H and, on the carry-less multiplier, its
/// first 16 powers — everything that depends on H, computed once.
#[derive(Clone)]
pub struct GhashKey {
    /// H read big-endian: the portable backend's operand.
    h: u128,
    /// The power table, when the CPU has a carry-less multiplier; the
    /// portable backend runs when it is `None`.
    #[cfg(target_arch = "x86_64")]
    clmul: Option<crate::hw::ClMul>,
}

impl std::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GhashKey { h: <redacted> }")
    }
}

impl GhashKey {
    /// Prepares the hash subkey `h`, on the carry-less multiplier when the
    /// CPU has one.
    pub fn new(h: &[u8; BLOCK_LEN]) -> Self {
        GhashKey {
            h: u128::from_be_bytes(*h),
            #[cfg(target_arch = "x86_64")]
            clmul: crate::hw::ClMul::new(h),
        }
    }

    /// A key pinned to the portable backend (the reference in
    /// backend-equality tests).
    #[cfg(test)]
    pub(crate) fn portable(h: &[u8; BLOCK_LEN]) -> Self {
        GhashKey {
            h: u128::from_be_bytes(*h),
            #[cfg(target_arch = "x86_64")]
            clmul: None,
        }
    }

    /// A key pinned to the 128-bit carry-less multiply loop, or `None`
    /// when the CPU has no carry-less multiplier.
    #[cfg(all(test, target_arch = "x86_64"))]
    pub(crate) fn narrow(h: &[u8; BLOCK_LEN]) -> Option<Self> {
        Some(GhashKey {
            h: u128::from_be_bytes(*h),
            clmul: Some(crate::hw::ClMul::narrow(h)?),
        })
    }

    /// Absorbs whole blocks into the accumulator `y`.
    fn absorb(&self, y: &mut [u8; BLOCK_LEN], blocks: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = &self.clmul {
            return hw.absorb(y, blocks);
        }
        let mut acc = u128::from_be_bytes(*y);
        for x in blocks.chunks_exact(BLOCK_LEN) {
            let x = u128::from_be_bytes(x.try_into().expect("one block"));
            acc = mul_u128(acc ^ x, self.h);
        }
        *y = acc.to_be_bytes();
    }
}

/// A running GHASH over a byte string, under a borrowed [`GhashKey`].
/// Bytes may arrive in pieces of any length; a piece that ends inside a
/// block waits for the next one.
///
/// ```
/// use endbox_crypto::ghash::{Ghash, GhashKey};
/// let key = GhashKey::new(&[0x42; 16]);
/// let mut whole = Ghash::new(&key);
/// whole.update(b"opcode, packet id and a body");
/// let mut pieces = Ghash::new(&key);
/// pieces.update(b"opcode, pa");
/// pieces.update(b"cket id and a body");
/// assert_eq!(whole.finalize(), pieces.finalize());
/// ```
#[derive(Debug, Clone)]
pub struct Ghash<'k> {
    key: &'k GhashKey,
    y: [u8; BLOCK_LEN],
    partial: [u8; BLOCK_LEN],
    filled: usize,
}

impl<'k> Ghash<'k> {
    /// `Y₀ = 0`.
    pub fn new(key: &'k GhashKey) -> Self {
        Ghash {
            key,
            y: [0; BLOCK_LEN],
            partial: [0; BLOCK_LEN],
            filled: 0,
        }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.filled > 0 {
            let take = (BLOCK_LEN - self.filled).min(bytes.len());
            self.partial[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < BLOCK_LEN {
                return;
            }
            self.key.absorb(&mut self.y, &self.partial);
            self.filled = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK_LEN;
        self.key.absorb(&mut self.y, &bytes[..whole]);
        self.filled = bytes.len() - whole;
        self.partial[..self.filled].copy_from_slice(&bytes[whole..]);
    }

    /// Zero-pads what has been absorbed to a whole block — the end of `A`
    /// or of `C` in GCM.
    pub fn pad(&mut self) {
        if self.filled > 0 {
            self.partial[self.filled..].fill(0);
            self.key.absorb(&mut self.y, &self.partial);
            self.filled = 0;
        }
    }

    /// Pads and returns the hash.
    pub fn finalize(mut self) -> [u8; BLOCK_LEN] {
        self.pad();
        self.y
    }
}

/// The longest plaintext GCM encrypts under one nonce: 2³² − 2 blocks
/// (SP 800-38D). [`Gcm::keystream_xor`]'s counter carries into all 128
/// bits where GCM's `inc32` wraps the low 32; below this bound the two
/// never differ.
pub const MAX_TEXT_LEN: u64 = ((1 << 32) - 2) * BLOCK_LEN as u64;

/// AES-128-GCM under one key: the key schedule and the GHASH key of
/// `H = E_K(0¹²⁸)`, both built once by [`Gcm::new`]. Sealing is
/// [`Gcm::keystream_xor`] then [`Gcm::tag`] over the ciphertext; opening
/// is the tag over the ciphertext, compared, then the keystream. GMAC is
/// the tag with no ciphertext.
///
/// ```
/// use endbox_crypto::{ghash::Gcm, hex};
/// // McGrew–Viega GCM test case 1: K = 0, IV = 0, nothing to protect.
/// let tag = Gcm::new(&[0; 16]).tag(&[0; 12], &[], &[]);
/// assert_eq!(hex::encode(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
/// ```
#[derive(Clone)]
pub struct Gcm {
    aes: Aes128,
    ghash: GhashKey,
}

impl std::fmt::Debug for Gcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gcm { key: <redacted> }")
    }
}

/// `J0 = nonce ‖ [counter]₃₂`.
fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    block[..NONCE_LEN].copy_from_slice(nonce);
    block[NONCE_LEN..].copy_from_slice(&counter.to_be_bytes());
    block
}

impl Gcm {
    /// Expands `key` and derives its hash subkey.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let aes = Aes128::new(key);
        let ghash = GhashKey::new(&aes.encrypt_block(&[0; BLOCK_LEN]));
        Gcm { aes, ghash }
    }

    /// The tag over `A = aad[0] ‖ aad[1] ‖ …` and the ciphertext `C`
    /// under `nonce`.
    pub fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[&[u8]], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut g = Ghash::new(&self.ghash);
        let mut aad_len = 0u64;
        for part in aad {
            g.update(part);
            aad_len += part.len() as u64;
        }
        g.pad();
        g.update(ciphertext);
        g.pad();
        let mut lengths = [0u8; BLOCK_LEN];
        lengths[..8].copy_from_slice(&(8 * aad_len).to_be_bytes());
        lengths[8..].copy_from_slice(&(8 * ciphertext.len() as u64).to_be_bytes());
        g.update(&lengths);
        let mask = self.aes.encrypt_block(&counter_block(nonce, 1));
        let mut tag = g.finalize();
        for (t, m) in tag.iter_mut().zip(mask) {
            *t ^= m;
        }
        tag
    }

    /// XORs the keystream of `nonce` — CTR from `inc32(J0)` — into `data`
    /// in place: encryption and decryption alike.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than [`MAX_TEXT_LEN`].
    pub fn keystream_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        assert!(
            data.len() as u64 <= MAX_TEXT_LEN,
            "GCM encrypts at most 2^32 - 2 blocks under one nonce"
        );
        self.aes.ctr_xor(&counter_block(nonce, 2), data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// GHASH of `bytes`, zero-padded, through the streaming entry.
    fn ghash(key: &GhashKey, bytes: &[u8]) -> [u8; 16] {
        let mut g = Ghash::new(key);
        g.update(bytes);
        g.finalize()
    }

    /// A GCM key whose AES and GHASH run on the portable backends.
    fn portable_gcm(key: &[u8; 16]) -> Gcm {
        let aes = Aes128::portable(key);
        Gcm {
            ghash: GhashKey::portable(&aes.encrypt_block(&[0; 16])),
            aes,
        }
    }

    /// A GCM key on the 128-bit AES-NI and PCLMULQDQ loops, or `None`
    /// when the CPU lacks either unit.
    #[cfg(target_arch = "x86_64")]
    fn narrow_gcm(key: &[u8; 16]) -> Option<Gcm> {
        let aes = Aes128::narrow(key)?;
        let ghash = GhashKey::narrow(&aes.encrypt_block(&[0; 16]))?;
        Some(Gcm { aes, ghash })
    }

    /// Every path this CPU runs, by name: the portable oracle, the
    /// 128-bit loops, and the 256-bit VAES and VPCLMULQDQ loops — the
    /// last two only where the CPU has them, so no path is ever compared
    /// with itself.
    fn gcm_paths(key: &[u8; 16]) -> Vec<(&'static str, Gcm)> {
        let mut paths = vec![("portable", portable_gcm(key))];
        #[cfg(target_arch = "x86_64")]
        {
            paths.extend(narrow_gcm(key).map(|gcm| ("128-bit", gcm)));
            let gcm = Gcm::new(key);
            let wide = matches!(&gcm.ghash.clmul, Some(hw) if hw.is_wide());
            if wide {
                paths.push(("256-bit", gcm));
            }
        }
        let names: Vec<&str> = paths.iter().map(|(name, _)| *name).collect();
        eprintln!("GCM paths compared: {names:?}");
        paths
    }

    /// McGrew–Viega test cases 1 (K = 0, IV = 0, nothing to protect) and
    /// 2 (one zero block of plaintext), sealed and opened through
    /// [`Gcm::keystream_xor`] and [`Gcm::tag`] on every path.
    #[test]
    fn gcm_test_cases_1_and_2() {
        let cases = [
            (0, "", "58e2fccefa7e3061367f1d57a4e7455a"),
            (
                16,
                "0388dace60b6a392f328c2b971b2fe78",
                "ab6e47d42cec13bdf53a67b21257bddf",
            ),
        ];
        for (path, gcm) in gcm_paths(&[0; 16]) {
            for (len, ciphertext, tag) in cases {
                let mut data = vec![0u8; len];
                gcm.keystream_xor(&[0; 12], &mut data);
                assert_eq!(hex::encode(&data), ciphertext, "{path}, {len} B");
                assert_eq!(hex::encode(&gcm.tag(&[0; 12], &[], &data)), tag, "{path}");
                gcm.keystream_xor(&[0; 12], &mut data);
                assert_eq!(data, vec![0u8; len], "{path}");
            }
        }
    }

    /// McGrew–Viega test cases 3 (a 64 B plaintext, no AAD) and 4 (its
    /// first 60 B behind 20 B of AAD), sealed and opened through
    /// [`Gcm::keystream_xor`] and [`Gcm::tag`] on every path.
    #[test]
    fn gcm_test_cases_3_and_4() {
        let key = hex::decode_array::<16>("feffe9928665731c6d6a8f9467308308").unwrap();
        let nonce = hex::decode_array::<12>("cafebabefacedbaddecaf888").unwrap();
        let plaintext = hex::decode(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        )
        .unwrap();
        let ciphertext = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                          21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";
        let aad = hex::decode("feedfacedeadbeeffeedfacedeadbeefabaddad2").unwrap();
        let cases: [(&[u8], usize, &str); 2] = [
            (&[], 64, "4d5c2af327cd64a62cf35abd2ba6fab4"),
            (&aad, 60, "5bc94fbc3221a5db94fae95ae7121a47"),
        ];
        for (path, gcm) in gcm_paths(&key) {
            for (aad, len, tag) in cases {
                let mut data = plaintext[..len].to_vec();
                gcm.keystream_xor(&nonce, &mut data);
                assert_eq!(hex::encode(&data), ciphertext[..2 * len], "{path}, {len} B");
                assert_eq!(
                    hex::encode(&gcm.tag(&nonce, &[aad], &data)),
                    tag,
                    "{path}, {len} B"
                );
                gcm.keystream_xor(&nonce, &mut data);
                assert_eq!(data, plaintext[..len], "{path}");
            }
        }
    }

    /// A GMAC tag from the portable pieces alone: the oracle.
    fn portable_tag(key: &[u8; 16], nonce: &[u8; 12], header: &[u8], body: &[u8]) -> [u8; 16] {
        portable_gcm(key).tag(nonce, &[header, body], &[])
    }

    /// Every length 0..=800 behind every header of 0..=15 bytes — the
    /// 16-block and eight-block groups, the whole-block tail and the
    /// partial last block all cross their boundaries, past three 256-byte
    /// groups — on every hardware path against the portable one, as
    /// GMAC's AAD and as GCM's ciphertext.
    #[test]
    fn kernel_matches_oracle_at_every_length_and_header() {
        let key = [0x3cu8; 16];
        let nonce = [0x91u8; 12];
        let bytes: Vec<u8> = (0..816u16).map(|i| (i * 13 + 5) as u8).collect();
        let mut paths = gcm_paths(&key);
        let (_, portable) = paths.remove(0);
        for p in 0..=15 {
            let (header, rest) = bytes.split_at(p);
            for len in 0..=800 {
                let body = &rest[..len];
                let gmac = portable.tag(&nonce, &[header, body], &[]);
                let gcm = portable.tag(&nonce, &[header], body);
                for (path, hw) in &paths {
                    assert_eq!(
                        hw.tag(&nonce, &[header, body], &[]),
                        gmac,
                        "{path}: header {p}, body {len}"
                    );
                    assert_eq!(
                        hw.tag(&nonce, &[header], body),
                        gcm,
                        "{path}: header {p}, ciphertext {len}"
                    );
                }
            }
        }
    }

    /// Two keys built from the same subkey give the same tags: the power
    /// table is a function of H alone.
    #[test]
    fn power_table_rebuilt_gives_the_same_tags() {
        let key = hex::decode_array::<16>("feffe9928665731c6d6a8f9467308308").unwrap();
        let (a, b) = (Gcm::new(&key), Gcm::new(&key));
        let body: Vec<u8> = (0..1000u16).map(|i| (i * 7) as u8).collect();
        for len in [0, 1, 16, 127, 128, 129, 1000] {
            let aad: [&[u8]; 2] = [b"\x06header!!", &body[..len]];
            assert_eq!(
                a.tag(&[7; 12], &aad, &[]),
                b.tag(&[7; 12], &aad, &[]),
                "len {len}"
            );
        }
    }

    #[test]
    fn mul_is_commutative_and_h_times_one_is_h() {
        let one = {
            let mut b = [0u8; 16];
            b[0] = 0x80;
            b
        };
        let (x, y) = ([0x1du8; 16], [0xb7u8; 16]);
        assert_eq!(mul(&x, &y), mul(&y, &x));
        assert_eq!(mul(&one, &x), x);
    }

    #[test]
    fn debug_redacts_keys() {
        let gcm = Gcm::new(&[0u8; 16]);
        assert!(!format!("{gcm:?}").contains("[0, 0"));
    }

    /// The kernels against the oracle on random keys, nonces, 1–15 byte
    /// headers and bodies up to 4 KiB. The hardware half is skipped on a
    /// CPU without a carry-less multiplier.
    #[cfg(target_arch = "x86_64")]
    mod backends_agree {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn gmac(
                key in prop::array::uniform16(any::<u8>()),
                nonce in prop::array::uniform16(any::<u8>()),
                header in prop::collection::vec(any::<u8>(), 1..16),
                body in prop::collection::vec(any::<u8>(), 0..4097),
            ) {
                let h = Aes128::new(&key).encrypt_block(&[0; 16]);
                let nonce: &[u8; 12] = nonce[..12].try_into().unwrap();
                let mut message = header.clone();
                message.extend_from_slice(&body);
                let expected = ghash(&GhashKey::portable(&h), &message);
                for (path, hw) in hw_keys(&h) {
                    prop_assert_eq!(ghash(&hw, &message), expected, "{}", path);
                }
                prop_assert_eq!(
                    Gcm::new(&key).tag(nonce, &[&header, &body], &[]),
                    portable_tag(&key, nonce, &header, &body)
                );
            }
        }

        /// The hardware GHASH keys this CPU runs, by name.
        fn hw_keys(h: &[u8; 16]) -> Vec<(&'static str, GhashKey)> {
            let narrow = GhashKey::narrow(h).map(|key| ("128-bit", key));
            let wide = Some(GhashKey::new(h))
                .filter(|key| matches!(&key.clmul, Some(hw) if hw.is_wide()))
                .map(|key| ("256-bit", key));
            narrow.into_iter().chain(wide).collect()
        }

        /// Each hardware path against the bit-serial [`mul`], one block
        /// at a time, for every block count 0..=40 and for 1 461 blocks
        /// (a 23 KB record), from a nonzero accumulator: the groups of 16
        /// and of eight, their tails, and the accumulator's entry into
        /// the first product all in play. Names the paths it compared.
        #[test]
        fn absorb_matches_bit_serial_mul_at_every_block_count() {
            let h = [0x66u8; 16];
            let keys = hw_keys(&h);
            let names: Vec<&str> = keys.iter().map(|(name, _)| *name).collect();
            eprintln!("GHASH paths compared with ghash::mul: {names:?}");
            let bytes: Vec<u8> = (0..1461 * 16).map(|i: u32| (i * 29 + 3) as u8).collect();
            let y0 = [0xc3u8; 16];
            for blocks in (0..=40).chain([1461]) {
                let data = &bytes[..16 * blocks];
                let mut expected = y0;
                for x in data.chunks_exact(16) {
                    let mut sum = expected;
                    for (s, b) in sum.iter_mut().zip(x) {
                        *s ^= b;
                    }
                    expected = mul(&sum, &h);
                }
                for (path, key) in &keys {
                    let mut y = y0;
                    key.absorb(&mut y, data);
                    assert_eq!(y, expected, "{path}, {blocks} blocks");
                }
            }
        }
    }
}

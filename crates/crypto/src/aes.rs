//! AES-128 block cipher (FIPS 197), on one of two backends.
//!
//! * **AES-NI** (`crate::hw`, x86-64 only): key schedule, `aesenc`/`aesdec`
//!   rounds and the CBC and CTR loops run on the CPU's AES unit — serial
//!   CBC encrypt (CBC chains every block on the previous one), eight
//!   blocks in flight for CBC decrypt and for CTR. Where the CPU also has
//!   VAES (with AVX2 and VPCLMULQDQ), CTR runs 16 blocks per iteration,
//!   two per 256-bit instruction.
//! * **Portable**: the byte-oriented implementation below — clear, and an
//!   order of magnitude slower (a `gmul` loop per `inv_mix_columns` byte).
//!   It is the only path on CPUs without AES-NI and the reference the
//!   hardware path is tested against.
//!
//! [`Aes128::new`] picks the backend once, from
//! `is_x86_feature_detected!("aes")`; nothing else selects it — no cargo
//! feature, no environment variable. The EndBox cost model charges the
//! cycle budget of a real software AES independently of either backend's
//! wall-clock speed.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Multiply by x in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication.
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key, ready for block operations.
///
/// ```
/// use endbox_crypto::aes::Aes128;
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let mut block = [0u8; 16];
/// let ct = aes.encrypt_block(&block);
/// assert_eq!(aes.decrypt_block(&ct), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    backend: Backend,
}

#[derive(Clone)]
enum Backend {
    #[cfg(target_arch = "x86_64")]
    AesNi(crate::hw::AesNi),
    Portable(Portable),
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128 { round_keys: <redacted> }")
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys, on the AES-NI unit when the
    /// CPU has one.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::hw::AesNi::new(key) {
            return Aes128 {
                backend: Backend::AesNi(hw),
            };
        }
        Aes128 {
            backend: Backend::Portable(Portable::new(key)),
        }
    }

    /// An expansion pinned to the portable backend (the reference in
    /// backend-equality tests).
    #[cfg(test)]
    pub(crate) fn portable(key: &[u8; KEY_LEN]) -> Self {
        Aes128 {
            backend: Backend::Portable(Portable::new(key)),
        }
    }

    /// An expansion pinned to the 128-bit AES-NI loops, or `None` without
    /// AES-NI: on a VAES host the 128-bit CTR loop is still tested.
    #[cfg(all(test, target_arch = "x86_64"))]
    pub(crate) fn narrow(key: &[u8; KEY_LEN]) -> Option<Self> {
        Some(Aes128 {
            backend: Backend::AesNi(crate::hw::AesNi::narrow(key)?),
        })
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.encrypt_block(block),
            Backend::Portable(p) => p.encrypt_block(block),
        }
    }

    /// Decrypts a single 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.decrypt_block(block),
            Backend::Portable(p) => p.decrypt_block(block),
        }
    }

    /// CBC-encrypts `data` (whole blocks, already padded) in place.
    pub(crate) fn cbc_encrypt_blocks(&self, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.cbc_encrypt(iv, data),
            Backend::Portable(p) => p.cbc_encrypt(iv, data),
        }
    }

    /// CBC-decrypts `data` (whole blocks) in place; padding stays.
    pub(crate) fn cbc_decrypt_blocks(&self, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.cbc_decrypt(iv, data),
            Backend::Portable(p) => p.cbc_decrypt(iv, data),
        }
    }

    /// XORs the CTR keystream from the 128-bit big-endian `counter` into
    /// `data` in place.
    pub(crate) fn ctr_xor(&self, counter: &[u8; BLOCK_LEN], data: &mut [u8]) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.ctr_xor(counter, data),
            Backend::Portable(p) => p.ctr_xor(counter, data),
        }
    }
}

/// The portable backend: an expanded key and byte-oriented rounds.
#[derive(Clone)]
pub(crate) struct Portable {
    round_keys: [[u8; BLOCK_LEN]; 11],
}

impl Portable {
    pub(crate) fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; BLOCK_LEN]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Portable { round_keys }
    }

    pub(crate) fn encrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[round]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[10]);
        s
    }

    pub(crate) fn decrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[10]);
        for round in (1..10).rev() {
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            add_round_key(&mut s, &self.round_keys[round]);
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        add_round_key(&mut s, &self.round_keys[0]);
        s
    }

    pub(crate) fn cbc_encrypt(&self, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK_LEN) {
            for i in 0..BLOCK_LEN {
                chunk[i] ^= prev[i];
            }
            let block: [u8; BLOCK_LEN] = (&*chunk).try_into().unwrap();
            prev = self.encrypt_block(&block);
            chunk.copy_from_slice(&prev);
        }
    }

    pub(crate) fn cbc_decrypt(&self, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK_LEN) {
            let block: [u8; BLOCK_LEN] = (&*chunk).try_into().unwrap();
            let mut pt = self.decrypt_block(&block);
            for i in 0..BLOCK_LEN {
                pt[i] ^= prev[i];
            }
            prev = block;
            chunk.copy_from_slice(&pt);
        }
    }

    pub(crate) fn ctr_xor(&self, nonce: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let mut counter = *nonce;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let keystream = self.encrypt_block(&counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            // Increment the whole block as one big-endian 128-bit integer.
            for i in (0..BLOCK_LEN).rev() {
                counter[i] = counter[i].wrapping_add(1);
                if counter[i] != 0 {
                    break;
                }
            }
        }
    }
}

// The state is stored column-major: byte (row r, column c) lives at s[4c + r],
// i.e. exactly the byte order of the input block.

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

fn shift_rows(s: &mut [u8; 16]) {
    // Row r is shifted left by r positions.
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[4 * c + r] = orig[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[4 * ((c + r) % 4) + r] = orig[4 * c + r];
        }
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        s[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] =
            gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        s[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        s[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        s[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips197_appendix_c1() {
        let key = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let pt = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let aes = Aes128::new(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(hex::encode(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn sp800_38a_ecb_block1() {
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let pt = hex::decode_array::<16>("6bc1bee22e409f96e93d7e117393172a").unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            hex::encode(&aes.encrypt_block(&pt)),
            "3ad77bb40d7a3660a89ecaf32466ef97"
        );
    }

    #[test]
    fn roundtrip_random_blocks() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            let aes = Aes128::new(&key);
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &b in SBOX.iter() {
            assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
    }

    #[test]
    fn gmul_matches_xtime() {
        for b in 0..=255u8 {
            assert_eq!(gmul(b, 2), xtime(b));
            assert_eq!(gmul(b, 1), b);
            assert_eq!(gmul(b, 3), xtime(b) ^ b);
        }
    }

    /// Both backends, called directly: byte-equal on a block and on CBC
    /// in both directions, for random keys, IVs and lengths. The hardware
    /// half is skipped on a CPU without AES-NI.
    #[cfg(target_arch = "x86_64")]
    mod backends_agree {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn block_and_cbc(
                key in prop::array::uniform16(any::<u8>()),
                iv in prop::array::uniform16(any::<u8>()),
                block in prop::array::uniform16(any::<u8>()),
                data in prop::collection::vec(any::<u8>(), 0..4097),
            ) {
                let Some(hw) = crate::hw::AesNi::new(&key) else {
                    return;
                };
                let portable = Portable::new(&key);
                prop_assert_eq!(hw.encrypt_block(&block), portable.encrypt_block(&block));
                prop_assert_eq!(hw.decrypt_block(&block), portable.decrypt_block(&block));

                // Whole blocks only: padding is the mode's job, not the
                // backend's.
                let data = &data[..data.len() - data.len() % BLOCK_LEN];
                let (mut a, mut b) = (data.to_vec(), data.to_vec());
                hw.cbc_encrypt(&iv, &mut a);
                portable.cbc_encrypt(&iv, &mut b);
                prop_assert_eq!(&a, &b);
                // Decrypt arbitrary bytes too, not only valid ciphertext.
                let (mut c, mut d) = (data.to_vec(), data.to_vec());
                hw.cbc_decrypt(&iv, &mut c);
                portable.cbc_decrypt(&iv, &mut d);
                prop_assert_eq!(c, d);
                hw.cbc_decrypt(&iv, &mut a);
                prop_assert_eq!(a, data);
            }

            /// CTR from a counter at most 300 below all ones in its low
            /// 32 bits, its low 64 bits or all 128, so a record of up to
            /// 4 KiB (256 blocks) often carries out of that word: the
            /// 256-bit loop's 64-bit add must hand the 64- and 128-bit
            /// carries to the 128-bit loop. Every hardware path this CPU
            /// runs against the portable one.
            #[test]
            fn ctr_across_a_low_word_carry(
                key in prop::array::uniform16(any::<u8>()),
                counter in prop::array::uniform16(any::<u8>()),
                below in 0u64..300,
                word in 0usize..3,
                data in prop::collection::vec(any::<u8>(), 0..4097),
            ) {
                let mut counter = counter;
                match word {
                    0 => counter[12..].copy_from_slice(&(u32::MAX - below as u32).to_be_bytes()),
                    1 => counter[8..].copy_from_slice(&(u64::MAX - below).to_be_bytes()),
                    _ => counter = (u128::MAX - below as u128).to_be_bytes(),
                }
                let mut expected = data.clone();
                Portable::new(&key).ctr_xor(&counter, &mut expected);
                for (path, hw) in hw_paths(&key) {
                    let mut out = data.clone();
                    hw.ctr_xor(&counter, &mut out);
                    prop_assert_eq!(&out, &expected, "{}", path);
                }
            }
        }

        /// The hardware CTR paths this CPU runs, by name: the 128-bit
        /// AES-NI loop, and the 256-bit VAES loop where the CPU has it.
        fn hw_paths(key: &[u8; 16]) -> Vec<(&'static str, crate::hw::AesNi)> {
            let narrow = crate::hw::AesNi::narrow(key).map(|hw| ("128-bit", hw));
            let wide = crate::hw::AesNi::new(key)
                .filter(crate::hw::AesNi::is_wide)
                .map(|hw| ("256-bit", hw));
            narrow.into_iter().chain(wide).collect()
        }

        /// Every length 0..=1100, and one block either side of each
        /// multiple of 256 up to 4 KiB — the 256-byte group, the 8-block
        /// group and the partial last block all cross their boundaries —
        /// from counters below a 32-bit, a 64-bit and the 128-bit wrap,
        /// on every hardware path against the portable one. Names the
        /// paths it compared: on a CPU without VAES only the 128-bit one
        /// runs, and never one path against itself.
        #[test]
        fn ctr_paths_agree_at_every_length() {
            let key = [0xa7u8; 16];
            let portable = Portable::new(&key);
            let paths = hw_paths(&key);
            let names: Vec<&str> = paths.iter().map(|(name, _)| *name).collect();
            eprintln!("CTR paths compared with the portable one: {names:?}");
            assert!(paths
                .iter()
                .all(|(name, hw)| hw.is_wide() == (*name == "256-bit")));
            let lens = (0..=1100).chain(
                (512..=4096)
                    .step_by(256)
                    .flat_map(|n| [n - 17, n - 1, n, n + 1, n + 16]),
            );
            let bytes: Vec<u8> = (0..4200u32).map(|i| (i * 31 + 7) as u8).collect();
            let counters = [
                0x0102_0304_0506_0708_090a_0b0c_ffff_ffe0u128,
                0x0102_0304_0506_0708_ffff_ffff_ffff_ffe0,
                u128::MAX - 0x1f,
            ];
            for len in lens {
                for counter in counters {
                    let counter = counter.to_be_bytes();
                    let mut expected = bytes[..len].to_vec();
                    portable.ctr_xor(&counter, &mut expected);
                    for (name, hw) in &paths {
                        let mut out = bytes[..len].to_vec();
                        hw.ctr_xor(&counter, &mut out);
                        assert_eq!(out, expected, "{name}, {len} B");
                    }
                }
            }
        }

        /// A path is chosen by the CPU alone: the 256-bit one whenever
        /// AVX2, VAES and VPCLMULQDQ are all present.
        #[test]
        fn wide_path_runs_where_the_cpu_has_it() {
            let wide = crate::hw::wide_detected();
            let names: Vec<&str> = hw_paths(&[0; 16]).iter().map(|(name, _)| *name).collect();
            let expected: &[&str] = match (is_x86_feature_detected!("aes"), wide) {
                (false, _) => &[],
                (true, false) => &["128-bit"],
                (true, true) => &["128-bit", "256-bit"],
            };
            assert_eq!(names, expected);
        }
    }

    #[test]
    fn debug_redacts_keys() {
        let aes = Aes128::new(&[0u8; 16]);
        assert!(!format!("{aes:?}").contains("[0, 0"));
    }
}

//! SHA-256 (FIPS 180-4), streaming and one-shot.
//!
//! The compression function runs on the CPU's SHA extensions when
//! [`Sha256::new`] finds `sha`, `ssse3` and `sse4.1` (x86-64 only), over
//! whole multi-block slices of the caller's data; otherwise — and as the
//! reference the hardware path is tested against — on the scalar
//! implementation below.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use endbox_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), endbox_crypto::sha256::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
    #[cfg(target_arch = "x86_64")]
    hw: Option<crate::hw::ShaNi>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher, on the SHA extensions when the CPU has
    /// them.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
            #[cfg(target_arch = "x86_64")]
            hw: crate::hw::ShaNi::detect(),
        }
    }

    /// A hasher pinned to the scalar compression function (the reference
    /// in backend-equality tests).
    #[cfg(test)]
    pub(crate) fn portable() -> Self {
        Sha256 {
            #[cfg(target_arch = "x86_64")]
            hw: None,
            ..Self::new()
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            let block = self.buffer;
            self.compress(&block);
            self.buffered = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        self.compress(blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit length.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        let n = self.buffered;
        pad[..n].copy_from_slice(&self.buffer[..n]);
        pad[n] = 0x80;
        let padded = if n < 56 { BLOCK_LEN } else { 2 * BLOCK_LEN };
        let bit_len = self.total_len.wrapping_mul(8);
        pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&pad[..padded]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks).
    fn compress(&mut self, blocks: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = self.hw {
            return hw.compress(&mut self.state, blocks);
        }
        for block in blocks.chunks_exact(BLOCK_LEN) {
            compress_portable(&mut self.state, block.try_into().expect("chunks_exact"));
        }
    }
}

fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
///
/// ```
/// let d = endbox_crypto::sha256::sha256(b"");
/// assert_eq!(endbox_crypto::hex::encode(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn check(msg: &[u8], want_hex: &str) {
        assert_eq!(hex::encode(&sha256(msg)), want_hex);
    }

    #[test]
    fn fips_vectors() {
        check(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
        check(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
        check(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    /// The SHA-extension path and the scalar path, byte-equal for random
    /// messages of every length class, fed in one piece and in two.
    /// Without the extensions both hashers are scalar and the test is
    /// vacuous.
    mod backends_agree {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn digest(
                data in prop::collection::vec(any::<u8>(), 0..4097),
                split in any::<prop::sample::Index>(),
            ) {
                let mut portable = Sha256::portable();
                portable.update(&data);
                let want = portable.finalize();
                prop_assert_eq!(sha256(&data), want);

                let at = split.index(data.len() + 1);
                let mut h = Sha256::new();
                h.update(&data[..at]);
                h.update(&data[at..]);
                prop_assert_eq!(h.finalize(), want);
            }
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 56-byte padding boundary and the 64-byte block
        // boundary exercise every padding branch.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xa5u8; len];
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }
}

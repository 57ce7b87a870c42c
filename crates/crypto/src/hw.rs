//! x86-64 hardware kernels: AES-NI for AES-128 and SHA-NI for SHA-256.
//!
//! This is the only module in the workspace that contains `unsafe`. The
//! fence is the type system: every `#[target_feature]` function is private
//! to this file and is only called through a value ([`AesNi`], [`ShaNi`])
//! whose sole constructor runs `is_x86_feature_detected!` first, so safe
//! code cannot reach an instruction the CPU lacks. The only other unsafe
//! operations are the unaligned 16-byte loads and stores, which go through
//! [`load`]/[`store`] on `[u8; 16]` references.
//!
//! The portable code in [`crate::aes`] and [`crate::sha256`] is the
//! reference these kernels are tested against (byte-equal on random
//! inputs) and the only path on other CPUs.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes and `storeu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The `i`-th 16-byte block of `bytes`.
fn block(bytes: &[u8], i: usize) -> &[u8; 16] {
    bytes[16 * i..16 * i + 16]
        .try_into()
        .expect("16-byte range")
}

fn block_mut(bytes: &mut [u8], i: usize) -> &mut [u8; 16] {
    (&mut bytes[16 * i..16 * i + 16])
        .try_into()
        .expect("16-byte range")
}

/// AES-128 on the AES-NI unit: both key schedules, expanded once.
#[derive(Clone, Copy)]
pub(crate) struct AesNi {
    enc: [__m128i; 11],
    /// Round keys of the equivalent inverse cipher (`aesimc` applied to
    /// the middle nine), in the order `aesdec` consumes them.
    dec: [__m128i; 11],
}

/// Blocks decrypted per iteration of the CBC-decrypt main loop: enough
/// independent `aesdec` chains in flight to cover the instruction's
/// latency.
const WIDE: usize = 8;

impl AesNi {
    /// Expands `key` on the AES-NI unit, or `None` when the CPU has none.
    pub(crate) fn new(key: &[u8; 16]) -> Option<AesNi> {
        if !is_x86_feature_detected!("aes") {
            return None;
        }
        // SAFETY: the `aes` feature was detected on the line above.
        Some(unsafe { Self::expand(key) })
    }

    pub(crate) fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `self` exists, so `new` detected the `aes` feature.
        store(&mut out, unsafe { self.encrypt_m128(load(block)) });
        out
    }

    pub(crate) fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `self` exists, so `new` detected the `aes` feature.
        store(&mut out, unsafe { self.decrypt_m128([load(block)]) }[0]);
        out
    }

    /// CBC-encrypts `data` in place.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of blocks.
    pub(crate) fn cbc_encrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "CBC works on whole blocks");
        // SAFETY: `self` exists, so `new` detected the `aes` feature.
        unsafe { self.cbc_encrypt_impl(iv, data) }
    }

    /// CBC-decrypts `data` in place.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of blocks.
    pub(crate) fn cbc_decrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "CBC works on whole blocks");
        // SAFETY: `self` exists, so `new` detected the `aes` feature.
        unsafe { self.cbc_decrypt_impl(iv, data) }
    }

    #[target_feature(enable = "aes")]
    fn expand(key: &[u8; 16]) -> AesNi {
        #[target_feature(enable = "aes")]
        fn step<const RCON: i32>(prev: __m128i) -> __m128i {
            let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(prev));
            let mut k = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
            k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
            k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
            _mm_xor_si128(k, assist)
        }
        let mut enc = [load(key); 11];
        enc[1] = step::<0x01>(enc[0]);
        enc[2] = step::<0x02>(enc[1]);
        enc[3] = step::<0x04>(enc[2]);
        enc[4] = step::<0x08>(enc[3]);
        enc[5] = step::<0x10>(enc[4]);
        enc[6] = step::<0x20>(enc[5]);
        enc[7] = step::<0x40>(enc[6]);
        enc[8] = step::<0x80>(enc[7]);
        enc[9] = step::<0x1b>(enc[8]);
        enc[10] = step::<0x36>(enc[9]);
        let mut dec = enc;
        dec[0] = enc[10];
        for r in 1..10 {
            dec[r] = _mm_aesimc_si128(enc[10 - r]);
        }
        dec[10] = enc[0];
        AesNi { enc, dec }
    }

    #[target_feature(enable = "aes")]
    fn encrypt_m128(&self, block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, self.enc[0]);
        for rk in &self.enc[1..10] {
            s = _mm_aesenc_si128(s, *rk);
        }
        _mm_aesenclast_si128(s, self.enc[10])
    }

    /// Decrypts `N` independent blocks with their round loops interleaved.
    #[target_feature(enable = "aes")]
    fn decrypt_m128<const N: usize>(&self, mut s: [__m128i; N]) -> [__m128i; N] {
        for b in &mut s {
            *b = _mm_xor_si128(*b, self.dec[0]);
        }
        for rk in &self.dec[1..10] {
            for b in &mut s {
                *b = _mm_aesdec_si128(*b, *rk);
            }
        }
        for b in &mut s {
            *b = _mm_aesdeclast_si128(*b, self.dec[10]);
        }
        s
    }

    #[target_feature(enable = "aes")]
    fn cbc_encrypt_impl(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut prev = load(iv);
        for i in 0..data.len() / 16 {
            let b = block_mut(data, i);
            prev = self.encrypt_m128(_mm_xor_si128(load(b), prev));
            store(b, prev);
        }
    }

    #[target_feature(enable = "aes")]
    fn cbc_decrypt_impl(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut prev = load(iv);
        let mut groups = data.chunks_exact_mut(16 * WIDE);
        for group in &mut groups {
            // Every ciphertext block of the group is in a register before
            // the first plaintext block is stored: in place is sound.
            let mut ct = [prev; WIDE];
            for (i, c) in ct.iter_mut().enumerate() {
                *c = load(block(group, i));
            }
            let pt = self.decrypt_m128(ct);
            for i in 0..WIDE {
                let chain = if i == 0 { prev } else { ct[i - 1] };
                store(block_mut(group, i), _mm_xor_si128(pt[i], chain));
            }
            prev = ct[WIDE - 1];
        }
        let tail = groups.into_remainder();
        for i in 0..tail.len() / 16 {
            let b = block_mut(tail, i);
            let ct = load(b);
            store(b, _mm_xor_si128(self.decrypt_m128([ct])[0], prev));
            prev = ct;
        }
    }
}

/// Proof that the CPU has the SHA extensions (and the SSSE3/SSE4.1
/// shuffles the kernel uses around them).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` when `sha`, `ssse3` and `sse4.1` are all present.
    pub(crate) fn detect() -> Option<ShaNi> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Runs the SHA-256 compression function over `blocks`, updating
    /// `state`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not a whole number of 64-byte blocks.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        assert_eq!(blocks.len() % 64, 0, "SHA-256 compresses whole blocks");
        // SAFETY: `self` exists, so `detect` saw all three features.
        unsafe { sha256_compress(state, blocks) }
    }
}

/// Four rounds on message words W[4g..4g+4] (`$w`), group index `$g`.
macro_rules! rounds4 {
    ($s0:ident, $s1:ident, $w:expr, $g:expr) => {{
        let k: &[u32; 4] = crate::sha256::K[4 * $g..4 * $g + 4]
            .try_into()
            .expect("four constants");
        let wk = _mm_add_epi32(
            $w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        $s1 = _mm_sha256rnds2_epu32($s1, $s0, wk);
        $s0 = _mm_sha256rnds2_epu32($s0, $s1, _mm_shuffle_epi32::<0x0e>(wk));
    }};
}

/// Completes the message group that follows `$cur` into `$next`.
macro_rules! schedule {
    ($prev:ident, $cur:ident, $next:ident) => {{
        $next = _mm_sha256msg2_epu32(
            _mm_add_epi32($next, _mm_alignr_epi8::<4>($cur, $prev)),
            $cur,
        );
    }};
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian words within each 32-bit lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // state = [a b c d | e f g h]; the instructions want ABEF / CDGH.
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut s0 = _mm_set_epi32(a, b, e, f);
    let mut s1 = _mm_set_epi32(c, d, g, h);

    for chunk in blocks.chunks_exact(64) {
        let (save0, save1) = (s0, s1);
        let mut w0 = _mm_shuffle_epi8(load(block(chunk, 0)), bswap);
        let mut w1 = _mm_shuffle_epi8(load(block(chunk, 1)), bswap);
        let mut w2 = _mm_shuffle_epi8(load(block(chunk, 2)), bswap);
        let mut w3 = _mm_shuffle_epi8(load(block(chunk, 3)), bswap);

        rounds4!(s0, s1, w0, 0);
        rounds4!(s0, s1, w1, 1);
        w0 = _mm_sha256msg1_epu32(w0, w1);
        rounds4!(s0, s1, w2, 2);
        w1 = _mm_sha256msg1_epu32(w1, w2);
        rounds4!(s0, s1, w3, 3);
        schedule!(w2, w3, w0);
        w2 = _mm_sha256msg1_epu32(w2, w3);

        rounds4!(s0, s1, w0, 4);
        schedule!(w3, w0, w1);
        w3 = _mm_sha256msg1_epu32(w3, w0);
        rounds4!(s0, s1, w1, 5);
        schedule!(w0, w1, w2);
        w0 = _mm_sha256msg1_epu32(w0, w1);
        rounds4!(s0, s1, w2, 6);
        schedule!(w1, w2, w3);
        w1 = _mm_sha256msg1_epu32(w1, w2);
        rounds4!(s0, s1, w3, 7);
        schedule!(w2, w3, w0);
        w2 = _mm_sha256msg1_epu32(w2, w3);

        rounds4!(s0, s1, w0, 8);
        schedule!(w3, w0, w1);
        w3 = _mm_sha256msg1_epu32(w3, w0);
        rounds4!(s0, s1, w1, 9);
        schedule!(w0, w1, w2);
        w0 = _mm_sha256msg1_epu32(w0, w1);
        rounds4!(s0, s1, w2, 10);
        schedule!(w1, w2, w3);
        w1 = _mm_sha256msg1_epu32(w1, w2);
        rounds4!(s0, s1, w3, 11);
        schedule!(w2, w3, w0);
        w2 = _mm_sha256msg1_epu32(w2, w3);

        rounds4!(s0, s1, w0, 12);
        schedule!(w3, w0, w1);
        w3 = _mm_sha256msg1_epu32(w3, w0);
        rounds4!(s0, s1, w1, 13);
        schedule!(w0, w1, w2);
        rounds4!(s0, s1, w2, 14);
        schedule!(w1, w2, w3);
        rounds4!(s0, s1, w3, 15);

        s0 = _mm_add_epi32(s0, save0);
        s1 = _mm_add_epi32(s1, save1);
    }

    // Lanes, high to low: s0 = A B E F, s1 = C D G H.
    let mut abef = [0u8; 16];
    let mut cdgh = [0u8; 16];
    store(&mut abef, s0);
    store(&mut cdgh, s1);
    let lane =
        |v: &[u8; 16], i: usize| u32::from_le_bytes(v[4 * i..4 * i + 4].try_into().expect("4"));
    *state = [
        lane(&abef, 3),
        lane(&abef, 2),
        lane(&cdgh, 3),
        lane(&cdgh, 2),
        lane(&abef, 1),
        lane(&abef, 0),
        lane(&cdgh, 1),
        lane(&cdgh, 0),
    ];
}

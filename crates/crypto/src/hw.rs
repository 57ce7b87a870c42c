//! x86-64 hardware kernels: AES-NI for AES-128, SHA-NI for SHA-256, and
//! PCLMULQDQ for GHASH — and, where the CPU has them, the 256-bit VAES
//! and VPCLMULQDQ forms for the data channel's two loops.
//!
//! Four kernels: the AES-128 key schedule and the CBC and CTR loops
//! (serial CBC encrypt; eight blocks in flight for CBC decrypt and for
//! CTR, whose 128-bit big-endian counter blocks are independent — the
//! CTR loop is the keystream of the data channel's AES-GCM); the SHA-256
//! compression function ([`sha256_block`]); and [`ClMul::absorb`], the
//! GHASH of both data-channel suites: the powers H¹..H¹⁶ are computed
//! once per key, and eight blocks are multiplied by H⁸..H¹, summed
//! unreduced and reduced once.
//!
//! On a CPU with AVX2, VAES and VPCLMULQDQ ([`Wide`]) the CTR and GHASH
//! loops run two blocks per instruction in `ymm` registers, 16 blocks
//! per iteration: CTR steps its counters in registers and encrypts them
//! with `_mm256_aesenc_epi128`; GHASH multiplies 16 blocks by H¹⁶..H¹
//! with `_mm256_clmulepi64_epi128` and reduces once. Each wide kernel
//! finishes the tail shorter than 256 bytes with the 128-bit code inside
//! its own AVX function, so the tail is VEX-encoded too. The wide loops
//! are chosen once per key, from the CPU; the 128-bit ones stay as the
//! only hardware path on AES-NI CPUs without VAES. No AVX-512: on the
//! benchmark host `zmm` was no faster than `ymm` on these loops.
//!
//! This is the only module in the workspace that contains `unsafe`. The
//! fence is the type system: every `#[target_feature]` function is private
//! to this file and is only called through a value ([`AesNi`], [`ShaNi`],
//! [`ClMul`], [`Wide`]) whose sole constructor runs
//! `is_x86_feature_detected!` first, so safe code cannot reach an
//! instruction the CPU lacks. The only other unsafe operations are the
//! unaligned 16- and 32-byte loads and stores, which go through
//! [`load`]/[`store`] and [`load256`]/[`store256`] on array references.
//!
//! The portable code in [`crate::aes`], [`crate::sha256`] and
//! [`crate::ghash`] is the reference these kernels are tested against
//! (byte-equal on random inputs) and the only path on other CPUs.

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

#[inline]
#[target_feature(enable = "avx")]
fn load256(bytes: &[u8; 32]) -> __m256i {
    // SAFETY: `bytes` is 32 readable bytes, `loadu` has no alignment
    // requirement, and the caller has AVX.
    unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx")]
fn store256(bytes: &mut [u8; 32], v: __m256i) {
    // SAFETY: `bytes` is 32 writable bytes, `storeu` has no alignment
    // requirement, and the caller has AVX.
    unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v) }
}

/// The `i`-th pair of 16-byte blocks of `bytes`.
fn pair(bytes: &[u8], i: usize) -> &[u8; 32] {
    bytes[32 * i..32 * i + 32]
        .try_into()
        .expect("32-byte range")
}

fn pair_mut(bytes: &mut [u8], i: usize) -> &mut [u8; 32] {
    (&mut bytes[32 * i..32 * i + 32])
        .try_into()
        .expect("32-byte range")
}

/// Proof that the CPU has AVX2, VAES and VPCLMULQDQ: the 256-bit forms
/// of `aesenc` and of the carry-less multiply, two blocks per
/// instruction.
#[derive(Clone, Copy)]
struct Wide(());

impl Wide {
    fn detect() -> Option<Wide> {
        (is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("vaes")
            && is_x86_feature_detected!("vpclmulqdq"))
        .then_some(Wide(()))
    }
}

/// Whether this CPU runs the 256-bit loops.
#[cfg(test)]
pub(crate) fn wide_detected() -> bool {
    Wide::detect().is_some()
}

/// Blocks per iteration of the 256-bit CTR and GHASH loops: eight `ymm`
/// registers of two blocks each.
const WIDE256: usize = 16;

/// The `pshufb` mask that reverses the bytes of a 128-bit lane, as its
/// low and high 64 bits.
const BYTE_REVERSE: [i64; 2] = [0x0809_0a0b_0c0d_0e0f, 0x0001_0203_0405_0607];

/// The 128-bit CTR loop of [`AesNi`] `$aes` over `$data` from the
/// counter `$ctr` (a `u128`): [`WIDE`] blocks per iteration, then one at
/// a time, the last possibly partial. A macro so that it is expanded
/// inside each kernel that runs it — the 128-bit kernel and the 256-bit
/// kernel's tail — and compiled with that kernel's target features: in
/// the AVX kernel it is VEX-encoded, where a function this large would
/// be called out of line, in SSE encoding.
macro_rules! ctr_xor_m128 {
    ($aes:expr, $ctr:expr, $data:expr) => {{
        let (aes, mut ctr, data): (&AesNi, u128, &mut [u8]) = ($aes, $ctr, $data);
        let mut groups = data.chunks_exact_mut(16 * WIDE);
        for group in &mut groups {
            let keystream = aes.encrypt_m128(std::array::from_fn::<_, WIDE, _>(|i| {
                load(&ctr.wrapping_add(i as u128).to_be_bytes())
            }));
            ctr = ctr.wrapping_add(WIDE as u128);
            for (i, k) in keystream.into_iter().enumerate() {
                let b = block_mut(group, i);
                store(b, _mm_xor_si128(load(b), k));
            }
        }
        for chunk in groups.into_remainder().chunks_mut(16) {
            let mut keystream = [0u8; 16];
            store(
                &mut keystream,
                aes.encrypt_m128([load(&ctr.to_be_bytes())])[0],
            );
            ctr = ctr.wrapping_add(1);
            for (b, k) in chunk.iter_mut().zip(keystream) {
                *b ^= k;
            }
        }
    }};
}

/// AES-128 on the AES-NI unit: both key schedules, expanded once.
#[derive(Clone, Copy)]
pub(crate) struct AesNi {
    enc: [__m128i; 11],
    /// Round keys of the equivalent inverse cipher (`aesimc` applied to
    /// the middle nine), in the order `aesdec` consumes them.
    dec: [__m128i; 11],
    /// `Some` when CTR runs 16 blocks per iteration on VAES.
    wide: Option<Wide>,
}

/// Blocks per iteration of the CBC-decrypt and CTR main loops — enough
/// independent `aesdec`/`aesenc` chains in flight to cover the
/// instruction's latency — and per GHASH reduction.
const WIDE: usize = 8;

impl AesNi {
    /// Expands `key` on the AES-NI unit, or `None` when the CPU has none.
    pub(crate) fn new(key: &[u8; 16]) -> Option<AesNi> {
        if !is_x86_feature_detected!("aes") {
            return None;
        }
        // SAFETY: the `aes` feature was detected on the line above.
        let mut aes = unsafe { Self::expand(key) };
        aes.wide = Wide::detect();
        Some(aes)
    }

    /// [`AesNi::new`] pinned to the 128-bit loops, so a VAES host still
    /// tests them.
    #[cfg(test)]
    pub(crate) fn narrow(key: &[u8; 16]) -> Option<AesNi> {
        Self::new(key).map(|aes| AesNi { wide: None, ..aes })
    }

    /// Whether CTR runs the 256-bit loop.
    #[cfg(test)]
    pub(crate) fn is_wide(&self) -> bool {
        self.wide.is_some()
    }

    pub(crate) fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `self` exists, so `new` detected the `aes` feature.
        store(&mut out, unsafe { self.encrypt_m128([load(block)]) }[0]);
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

    /// XORs the CTR keystream that starts at the 128-bit big-endian
    /// `counter` into `data`, in place; the last block may be partial.
    ///
    /// The 256-bit loop adds to the counter's low 64 bits only, so a call
    /// whose counters would carry out of them takes the 128-bit loop.
    pub(crate) fn ctr_xor(&self, counter: &[u8; 16], data: &mut [u8]) {
        let low = u64::from_be_bytes(counter[8..].try_into().expect("8 bytes"));
        let carries = low.checked_add(data.len().div_ceil(16) as u64).is_none();
        match self.wide {
            // SAFETY: `wide` is `Some` only when `Wide::detect` saw AVX2,
            // VAES and VPCLMULQDQ.
            Some(_) if !carries => unsafe { self.ctr_xor_wide(counter, data) },
            // SAFETY: `self` exists, so `new` detected the `aes` feature.
            _ => unsafe { self.ctr_xor_impl(counter, data) },
        }
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
        AesNi {
            enc,
            dec,
            wide: None,
        }
    }

    /// Encrypts `N` independent blocks with their round loops interleaved.
    #[inline]
    #[target_feature(enable = "aes")]
    fn encrypt_m128<const N: usize>(&self, mut s: [__m128i; N]) -> [__m128i; N] {
        for b in &mut s {
            *b = _mm_xor_si128(*b, self.enc[0]);
        }
        for rk in &self.enc[1..10] {
            for b in &mut s {
                *b = _mm_aesenc_si128(*b, *rk);
            }
        }
        for b in &mut s {
            *b = _mm_aesenclast_si128(*b, self.enc[10]);
        }
        s
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
            prev = self.encrypt_m128([_mm_xor_si128(load(b), prev)])[0];
            store(b, prev);
        }
    }

    /// CTR with [`WIDE`] counter blocks encrypted per iteration: unlike
    /// CBC encryption, the blocks are independent, so their `aesenc`
    /// chains overlap. The counter is the whole block, incremented as one
    /// big-endian 128-bit integer.
    #[target_feature(enable = "aes")]
    fn ctr_xor_impl(&self, counter: &[u8; 16], data: &mut [u8]) {
        ctr_xor_m128!(self, u128::from_be_bytes(*counter), data);
    }

    /// CTR with [`WIDE256`] counter blocks per iteration, two to a `ymm`
    /// register. The counters stay in registers byte-reversed — each
    /// lane a little-endian 128-bit integer — so stepping them is one
    /// 64-bit add, and one shuffle turns them back into big-endian
    /// blocks; the caller guarantees the add never carries out of the
    /// low 64 bits. The tail shorter than a group runs the 128-bit loop
    /// from the counter where the groups stopped.
    #[target_feature(enable = "avx2,vaes,vpclmulqdq")]
    fn ctr_xor_wide(&self, counter: &[u8; 16], data: &mut [u8]) {
        let mut rk = [_mm256_setzero_si256(); 11];
        for (r, k) in rk.iter_mut().zip(self.enc) {
            *r = _mm256_broadcastsi128_si256(k);
        }
        // Lane 0 holds the counter, lane 1 the counter plus one.
        let mut ctr = _mm256_add_epi64(
            byte_reverse256(_mm256_broadcastsi128_si256(load(counter))),
            _mm256_set_epi64x(0, 1, 0, 0),
        );
        let two = _mm256_set_epi64x(0, 2, 0, 2);
        let done = (data.len() / (16 * WIDE256) * WIDE256) as u128;
        let mut groups = data.chunks_exact_mut(16 * WIDE256);
        for group in &mut groups {
            let mut s = [ctr; WIDE256 / 2];
            for b in &mut s {
                *b = byte_reverse256(ctr);
                ctr = _mm256_add_epi64(ctr, two);
            }
            for b in &mut s {
                *b = _mm256_xor_si256(*b, rk[0]);
            }
            for k in &rk[1..10] {
                for b in &mut s {
                    *b = _mm256_aesenc_epi128(*b, *k);
                }
            }
            for (i, b) in s.into_iter().enumerate() {
                let keystream = _mm256_aesenclast_epi128(b, rk[10]);
                let p = pair_mut(group, i);
                store256(p, _mm256_xor_si256(load256(p), keystream));
            }
        }
        let next = u128::from_be_bytes(*counter).wrapping_add(done);
        ctr_xor_m128!(self, next, groups.into_remainder());
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

/// GHASH on the carry-less multiplier: the powers H¹..H¹⁶ of one hash
/// key, computed once, in the byte-reversed form the kernel multiplies.
#[derive(Clone, Copy)]
pub(crate) struct ClMul {
    /// `powers[i]` is H^(i+1).
    powers: [__m128i; WIDE256],
    /// `Some` when GHASH runs 16 blocks per reduction on VPCLMULQDQ.
    wide: Option<Wide>,
}

impl ClMul {
    /// The power table of the hash key `h`, or `None` when the CPU lacks
    /// `pclmulqdq` or the SSSE3 byte shuffle.
    pub(crate) fn new(h: &[u8; 16]) -> Option<ClMul> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("ssse3")) {
            return None;
        }
        // SAFETY: both features were detected on the line above.
        let mut clmul = unsafe { Self::expand(h) };
        clmul.wide = Wide::detect();
        Some(clmul)
    }

    /// [`ClMul::new`] pinned to the 128-bit loop, so a VPCLMULQDQ host
    /// still tests it.
    #[cfg(test)]
    pub(crate) fn narrow(h: &[u8; 16]) -> Option<ClMul> {
        Self::new(h).map(|clmul| ClMul {
            wide: None,
            ..clmul
        })
    }

    /// Whether GHASH runs the 256-bit loop.
    #[cfg(test)]
    pub(crate) fn is_wide(&self) -> bool {
        self.wide.is_some()
    }

    /// Absorbs the whole 16-byte `blocks` into the GHASH accumulator `y`:
    /// `y ← (y ⊕ X₁)·H`, then `(y ⊕ X₂)·H`, and so on.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not a whole number of blocks.
    pub(crate) fn absorb(&self, y: &mut [u8; 16], blocks: &[u8]) {
        assert_eq!(blocks.len() % 16, 0, "GHASH absorbs whole blocks");
        match self.wide {
            // SAFETY: `wide` is `Some` only when `Wide::detect` saw AVX2,
            // VAES and VPCLMULQDQ.
            Some(_) => unsafe { self.absorb_wide(y, blocks) },
            // SAFETY: `self` exists, so `new` detected both features.
            None => unsafe { self.absorb_impl(y, blocks) },
        }
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn expand(h: &[u8; 16]) -> ClMul {
        let h = byte_reverse(load(h));
        let mut powers = [h; WIDE256];
        for i in 1..WIDE256 {
            powers[i] = gf128_reduce(clmul(powers[i - 1], h));
        }
        ClMul { powers, wide: None }
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb_impl(&self, y: &mut [u8; 16], blocks: &[u8]) {
        store(
            y,
            byte_reverse(self.absorb_m128(byte_reverse(load(y)), blocks)),
        );
    }

    /// Aggregated reduction on the byte-reversed accumulator `acc`: a
    /// group of `n ≤ 8` blocks is `(y ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕ … ⊕ Xₙ·H`, so
    /// its `n` products are independent, are summed unreduced, and pay
    /// one reduction.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb_m128(&self, mut acc: __m128i, blocks: &[u8]) -> __m128i {
        for group in blocks.chunks(16 * WIDE) {
            let n = group.len() / 16;
            let mut sum = [_mm_setzero_si128(); 3];
            for (i, h) in self.powers[..n].iter().rev().enumerate() {
                let mut x = byte_reverse(load(block(group, i)));
                if i == 0 {
                    x = _mm_xor_si128(x, acc);
                }
                for (s, p) in sum.iter_mut().zip(clmul(x, *h)) {
                    *s = _mm_xor_si128(*s, p);
                }
            }
            acc = gf128_reduce(sum);
        }
        acc
    }

    /// The aggregated reduction over [`WIDE256`] blocks, two to a `ymm`
    /// register: register `k` holds blocks `2k+1` and `2k+2` of the group
    /// and multiplies them by H¹⁶⁻²ᵏ and H¹⁵⁻²ᵏ, lane by lane. The 16
    /// products are summed unreduced, the two lanes folded, and the sum
    /// reduced once. The tail shorter than a group runs the 128-bit loop.
    #[target_feature(enable = "avx2,vaes,vpclmulqdq")]
    fn absorb_wide(&self, y: &mut [u8; 16], blocks: &[u8]) {
        let mut acc = byte_reverse(load(y));
        let mut groups = blocks.chunks_exact(16 * WIDE256);
        if groups.len() > 0 {
            let h: [__m256i; WIDE256 / 2] = std::array::from_fn(|k| {
                _mm256_set_m128i(self.powers[14 - 2 * k], self.powers[15 - 2 * k])
            });
            for group in &mut groups {
                let mut sum = [_mm256_setzero_si256(); 3];
                for (k, h) in h.iter().enumerate() {
                    let mut x = byte_reverse256(load256(pair(group, k)));
                    if k == 0 {
                        x = _mm256_xor_si256(x, _mm256_zextsi128_si256(acc));
                    }
                    for (s, p) in sum.iter_mut().zip(clmul256(x, *h)) {
                        *s = _mm256_xor_si256(*s, p);
                    }
                }
                acc = gf128_reduce(sum.map(|s| {
                    _mm_xor_si128(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s))
                }));
            }
        }
        acc = self.absorb_m128(acc, groups.remainder());
        store(y, byte_reverse(acc));
    }
}

/// The block with its 16 bytes in reverse order: GHASH's first bit (the
/// top bit of byte 0) becomes the register's bit 127.
#[inline]
#[target_feature(enable = "ssse3")]
fn byte_reverse(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(v, _mm_set_epi64x(BYTE_REVERSE[1], BYTE_REVERSE[0]))
}

/// [`byte_reverse`] in each 128-bit lane.
#[inline]
#[target_feature(enable = "avx2")]
fn byte_reverse256(v: __m256i) -> __m256i {
    let [lo, hi] = BYTE_REVERSE;
    _mm256_shuffle_epi8(v, _mm256_set_epi64x(hi, lo, hi, lo))
}

/// The unreduced 256-bit carry-less product of `a` and `b`, as the low,
/// middle and high 128-bit partial products (schoolbook: four
/// multiplications, the two cross terms summed).
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> [__m128i; 3] {
    [
        _mm_clmulepi64_si128::<0x00>(a, b),
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x01>(a, b),
            _mm_clmulepi64_si128::<0x10>(a, b),
        ),
        _mm_clmulepi64_si128::<0x11>(a, b),
    ]
}

/// [`clmul`] in each 128-bit lane of `a` and `b`.
#[inline]
#[target_feature(enable = "avx2,vpclmulqdq")]
fn clmul256(a: __m256i, b: __m256i) -> [__m256i; 3] {
    [
        _mm256_clmulepi64_epi128::<0x00>(a, b),
        _mm256_xor_si256(
            _mm256_clmulepi64_epi128::<0x01>(a, b),
            _mm256_clmulepi64_epi128::<0x10>(a, b),
        ),
        _mm256_clmulepi64_epi128::<0x11>(a, b),
    ]
}

/// Folds a [`clmul`] product (or a sum of them) into one field element:
/// the middle term joins the two halves, the 256-bit result shifts left
/// one bit (the operands are bit-reflected), and the shift-and-XOR
/// reduction modulo x¹²⁸ + x⁷ + x² + x + 1 of Gueron and Kounavis's
/// carry-less multiplication white paper brings it back to 128 bits.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn gf128_reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
    // hi:lo <<= 1
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );
    // First phase: the x⁶³, x⁶², x⁵⁷ multiples of the low half.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));
    // Second phase.
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), _mm_srli_si128::<4>(a)),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, b))
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

/// The four 16-byte quarters of a 64-byte message block.
fn quarters(chunk: &[u8]) -> [__m128i; 4] {
    std::array::from_fn(|i| load(block(chunk, i)))
}

/// The hash state as the SHA instructions hold it: `[ABEF, CDGH]`.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_load_state(state: &[u32; 8]) -> [__m128i; 2] {
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    [_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h)]
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_store_state([s0, s1]: [__m128i; 2]) -> [u32; 8] {
    // Lanes, high to low: s0 = A B E F, s1 = C D G H.
    let mut abef = [0u8; 16];
    let mut cdgh = [0u8; 16];
    store(&mut abef, s0);
    store(&mut cdgh, s1);
    let lane =
        |v: &[u8; 16], i: usize| u32::from_le_bytes(v[4 * i..4 * i + 4].try_into().expect("4"));
    [
        lane(&abef, 3),
        lane(&abef, 2),
        lane(&cdgh, 3),
        lane(&cdgh, 2),
        lane(&abef, 1),
        lane(&abef, 0),
        lane(&cdgh, 1),
        lane(&cdgh, 0),
    ]
}

/// One SHA-256 compression of the message block `words` (its four
/// 16-byte quarters as loaded, in order) into `[s0, s1]`.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_block([mut s0, mut s1]: [__m128i; 2], words: [__m128i; 4]) -> [__m128i; 2] {
    // Big-endian words within each 32-bit lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let (save0, save1) = (s0, s1);
    let [mut w0, mut w1, mut w2, mut w3] = words.map(|w| _mm_shuffle_epi8(w, bswap));

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

    [_mm_add_epi32(s0, save0), _mm_add_epi32(s1, save1)]
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    let mut s = sha256_load_state(state);
    for chunk in blocks.chunks_exact(64) {
        s = sha256_block(s, quarters(chunk));
    }
    *state = sha256_store_state(s);
}

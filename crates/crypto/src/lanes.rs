//! SHA-256 compression kernels and the lane-width dispatch.
//!
//! The LPPA hot path hashes thousands of *independent* short messages —
//! one HMAC tag per prefix. Three compression kernels serve it:
//!
//! * **portable scalar** — [`crate::sha256::compress_portable`], the
//!   FIPS 180-4 rounds in plain Rust. It runs everywhere and is the
//!   reference every other kernel is tested against;
//! * **SHA-NI** — one block on the x86 SHA extensions (`sha256rnds2`
//!   runs two rounds, `sha256msg1`/`sha256msg2` the message schedule).
//!   [`crate::sha256::compress`] takes it whenever the CPU has `sha`,
//!   `ssse3` and `sse4.1`, so every SHA-256 in the workspace — tags,
//!   seals, TTP opens, key schedules, the commitment ledger — runs on it
//!   without asking;
//! * **AVX2 8-lane** — the multi-buffer trick: one `__m256i` holds the
//!   same working variable of eight independent compressions, so eight
//!   blocks share one walk of the round structure.
//!
//! Every kernel is bit-identical to the portable one — property-tested
//! and cross-checked by the `batch_scalar_tags` oracle invariant — so the
//! kernel choice is a pure throughput matter with no observable effect on
//! any protocol output.
//!
//! # Lane-width selection
//!
//! A batch runs at one of two widths ([`SUPPORTED_WIDTHS`]):
//!
//! * width 1 sends each block through [`crate::sha256::compress`]
//!   (SHA-NI, else portable);
//! * width 8 sends each full group of eight through the AVX2 kernel and
//!   the rest through [`crate::sha256::compress`]; without AVX2 every
//!   block takes that per-block path.
//!
//! [`lane_width`] picks 1 when the CPU has SHA-NI (one SHA-NI block
//! costs less than an eighth of an AVX2 pass), else 8 when it has AVX2,
//! else 1. The `LPPA_SHA_LANES` environment variable (`1` or `8`; read
//! once per process) pins it, and CI diffs pinned-seed runs across both
//! widths to enforce the bit-identity contract.

use crate::sha256::{compress, BLOCK_LEN};
use std::sync::OnceLock;

/// Environment variable pinning the lane width (`1` or `8`).
pub const LANES_ENV: &str = "LPPA_SHA_LANES";

/// Lane widths with a dedicated dispatch, narrowest first.
pub const SUPPORTED_WIDTHS: [usize; 2] = [1, 8];

/// The widest kernel; batch callers sizing stack buffers can use this.
pub const MAX_LANES: usize = 8;

/// The lane width the process-wide kernel dispatch uses.
///
/// Honours [`LANES_ENV`] when set to a supported width; otherwise 1 with
/// SHA-NI, else 8 with AVX2, else 1. Cached after the first call.
pub fn lane_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        if let Ok(raw) = std::env::var(LANES_ENV) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if SUPPORTED_WIDTHS.contains(&n) {
                    return n;
                }
            }
        }
        default_width()
    })
}

/// The width [`lane_width`] picks when [`LANES_ENV`] does not pin one.
fn default_width() -> usize {
    if !sha_ni_available() && avx2_available() {
        8
    } else {
        1
    }
}

/// Whether the AVX2 8-lane kernel is usable on this CPU.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the SHA-NI kernel is usable on this CPU: it needs `sha` plus
/// the `ssse3` byte shuffle and the `sse4.1` blend. Detected once.
pub(crate) fn sha_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SHA_NI: OnceLock<bool> = OnceLock::new();
        *SHA_NI.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Space-separated CPU feature flags relevant to kernel selection, for
/// bench metadata. Reports detection results, not which kernel ran.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = vec!["sse2"]; // baseline on x86_64
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("sha") {
            flags.push("sha_ni");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
        flags.join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("portable")
    }
}

/// Folds `blocks[i]` into `states[i]` for every `i`, using the
/// process-wide lane width ([`lane_width`]).
///
/// Each (state, block) pair is an independent compression; the result is
/// bit-identical to calling the scalar compression once per pair.
///
/// # Panics
///
/// Panics if `states` and `blocks` differ in length.
pub fn compress_batch(states: &mut [[u32; 8]], blocks: &[[u8; BLOCK_LEN]]) {
    compress_batch_with_width(lane_width(), states, blocks);
}

/// [`compress_batch`] with an explicit lane width, for determinism tests
/// and the differential oracle.
///
/// # Panics
///
/// Panics if the lengths differ or `width` is not in [`SUPPORTED_WIDTHS`].
pub fn compress_batch_with_width(
    width: usize,
    states: &mut [[u32; 8]],
    blocks: &[[u8; BLOCK_LEN]],
) {
    assert_eq!(states.len(), blocks.len(), "one block per state");
    assert!(SUPPORTED_WIDTHS.contains(&width), "unsupported lane width {width}");

    // At width 8 with AVX2, full groups of eight take the 8-lane kernel
    // and only the remainder is left for the per-block loop below.
    #[cfg(target_arch = "x86_64")]
    let (states, blocks) = if width == 8 && avx2_available() {
        let full = states.len() - states.len() % 8;
        let (head, tail) = states.split_at_mut(full);
        for (s, b) in head.chunks_exact_mut(8).zip(blocks.chunks_exact(8)) {
            avx2::compress8(
                s.try_into().expect("chunks_exact_mut(8) yields 8 states"),
                b.try_into().expect("chunks_exact(8) yields 8 blocks"),
            );
        }
        (tail, &blocks[full..])
    } else {
        (states, blocks)
    };
    for (state, block) in states.iter_mut().zip(blocks) {
        compress(state, block);
    }
}

/// Single-block SHA-NI kernel: `sha256rnds2` runs two rounds on the
/// state held as an ABEF / CDGH register pair, and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time.
///
/// Its `unsafe` is confined to `core::arch` calls that are valid whenever
/// the CPU has `sha`, `ssse3` and `sse4.1`, which the safe [`compress`]
/// wrapper checks through the cached [`super::sha_ni_available`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod sha_ni {
    use crate::sha256::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Safe entry point: folds one block into `state`.
    ///
    /// # Panics
    ///
    /// Panics if SHA-NI is not available (callers gate on detection).
    #[inline]
    pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        assert!(super::sha_ni_available(), "SHA-NI kernel on a CPU without SHA-NI");
        // SAFETY: the assertion above proves the `sha`, `ssse3` and
        // `sse4.1` target features are supported by the running CPU, the
        // only requirement of the feature-gated function; its loads and
        // stores stay inside `state` and `block`.
        unsafe { compress_impl(state, block) }
    }

    /// Four rounds: adds round constants `4g..4g+4` to the schedule
    /// words in `$w`, then runs `sha256rnds2` on the low and the high
    /// pair. A macro (not a fn) so the intrinsics inline into the
    /// feature-gated body.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $g:expr) => {{
            let k = _mm_loadu_si128(K[4 * $g..].as_ptr() as *const __m128i);
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// The next four schedule words from the last sixteen, passed oldest
    /// group first: `msg1` adds σ0 of the oldest two groups, the
    /// `alignr` supplies `w[t-7]`, and `msg2` adds σ1 of the newest.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    /// # Safety
    ///
    /// The running CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_impl(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        // Byte-swaps each 32-bit word: the block is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let ptr = block.as_ptr() as *const __m128i;
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(ptr), bswap);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(ptr.add(1)), bswap);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(ptr.add(2)), bswap);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(ptr.add(3)), bswap);

        // Regroup a..h (two registers, a and e lowest) into the ABEF and
        // CDGH registers `sha256rnds2` works on.
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef0, cdgh0) = (abef, cdgh);

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        for g in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, g);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, g + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, g + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, g + 3);
        }

        // Feed-forward, then undo the regrouping.
        let feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef0), 0x1b);
        let dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh0), 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

/// 8-lane AVX2 kernel: one `__m256i` register holds the same working
/// variable for all eight lanes.
///
/// Its `unsafe` is confined to `core::arch` intrinsic calls that are
/// valid whenever AVX2 is present, which the safe [`compress8`] wrapper
/// checks at runtime.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use crate::sha256::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_or_si256,
        _mm256_set1_epi32, _mm256_set_epi32, _mm256_slli_epi32, _mm256_srli_epi32,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Safe entry point: compresses eight independent blocks at once.
    ///
    /// # Panics
    ///
    /// Panics if AVX2 is not available (callers gate on detection).
    pub(super) fn compress8(states: &mut [[u32; 8]; 8], blocks: &[[u8; BLOCK_LEN]; 8]) {
        assert!(std::arch::is_x86_feature_detected!("avx2"), "AVX2 kernel on non-AVX2 CPU");
        // SAFETY: the assertion above proves the `avx2` target feature is
        // supported by the running CPU, which is the only requirement of
        // the feature-gated function.
        unsafe { compress8_impl(states, blocks) }
    }

    /// AVX2 has no rotate; synthesize it from two shifts and an or. A
    /// macro (not a fn) because the shift intrinsics need constant
    /// immediates.
    macro_rules! rotr {
        ($x:expr, $r:literal) => {{
            let x = $x;
            _mm256_or_si256(_mm256_srli_epi32(x, $r), _mm256_slli_epi32(x, 32 - $r))
        }};
    }

    #[inline(always)]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn compress8_impl(states: &mut [[u32; 8]; 8], blocks: &[[u8; BLOCK_LEN]; 8]) {
        // Message schedule: w[t] carries word t of every lane. Loads are
        // gathered scalar-wise (8 lanes × 4 bytes, byte-swapped).
        let mut w = [_mm256_set1_epi32(0); 64];
        for (t, wt) in w.iter_mut().take(16).enumerate() {
            let word = |l: usize| -> i32 {
                let chunk = &blocks[l][4 * t..4 * t + 4];
                i32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]])
            };
            // set_epi32 takes arguments high-lane first.
            *wt = _mm256_set_epi32(
                word(7),
                word(6),
                word(5),
                word(4),
                word(3),
                word(2),
                word(1),
                word(0),
            );
        }
        for t in 16..64 {
            let x = w[t - 15];
            let y = w[t - 2];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(x, 7), rotr!(x, 18)),
                _mm256_srli_epi32(x, 3),
            );
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(y, 17), rotr!(y, 19)),
                _mm256_srli_epi32(y, 10),
            );
            w[t] = add(add(w[t - 16], s0), add(w[t - 7], s1));
        }

        // Transpose the eight states into eight working registers.
        let mut regs = [_mm256_set1_epi32(0); 8];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = _mm256_set_epi32(
                states[7][i] as i32,
                states[6][i] as i32,
                states[5][i] as i32,
                states[4][i] as i32,
                states[3][i] as i32,
                states[2][i] as i32,
                states[1][i] as i32,
                states[0][i] as i32,
            );
        }
        let (mut a, mut b, mut c, mut d) = (regs[0], regs[1], regs[2], regs[3]);
        let (mut e, mut f, mut g, mut h) = (regs[4], regs[5], regs[6], regs[7]);
        let (a0, b0, c0, d0, e0, f0, g0, h0) = (a, b, c, d, e, f, g, h);

        for t in 0..64 {
            let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 6), rotr!(e, 11)), rotr!(e, 25));
            // ch = (e & f) ^ (!e & g); andnot computes !x & y directly.
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let t1 = add(add(h, s1), add(add(ch, _mm256_set1_epi32(K[t] as i32)), w[t]));
            let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 2), rotr!(a, 13)), rotr!(a, 22));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let t2 = add(s0, maj);

            h = g;
            g = f;
            f = e;
            e = add(d, t1);
            d = c;
            c = b;
            b = a;
            a = add(t1, t2);
        }

        // Feed-forward, then scatter the lanes back out through a stack
        // buffer (one store per working register).
        let out = [
            add(a, a0),
            add(b, b0),
            add(c, c0),
            add(d, d0),
            add(e, e0),
            add(f, f0),
            add(g, g0),
            add(h, h0),
        ];
        let mut cols = [[0u32; 8]; 8];
        for (i, v) in out.iter().enumerate() {
            _mm256_storeu_si256(cols[i].as_mut_ptr() as *mut __m256i, *v);
        }
        for l in 0..8 {
            for i in 0..8 {
                states[l][i] = cols[i][l];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{compress_portable, H0};

    /// Deterministic pseudo-random block/state material (no RNG dep here;
    /// a simple LCG is plenty for kernel equivalence checks).
    fn splat(seed: u64, n: usize) -> (Vec<[u32; 8]>, Vec<[u8; BLOCK_LEN]>) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let states = (0..n)
            .map(|_| {
                let mut s = H0;
                for word in &mut s {
                    *word ^= next() as u32;
                }
                s
            })
            .collect();
        let blocks = (0..n)
            .map(|_| {
                let mut b = [0u8; BLOCK_LEN];
                for chunk in b.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&next().to_le_bytes());
                }
                b
            })
            .collect();
        (states, blocks)
    }

    /// The reference: one portable compression per pair.
    fn portable(states: &[[u32; 8]], blocks: &[[u8; BLOCK_LEN]]) -> Vec<[u32; 8]> {
        let mut out = states.to_vec();
        for (s, b) in out.iter_mut().zip(blocks) {
            compress_portable(s, b);
        }
        out
    }

    #[test]
    fn every_width_matches_scalar_compress() {
        for seed in 1..=8u64 {
            for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 23] {
                let (states0, blocks) = splat(seed * 1000 + n as u64, n);
                let want = portable(&states0, &blocks);
                for width in SUPPORTED_WIDTHS {
                    let mut got = states0.clone();
                    compress_batch_with_width(width, &mut got, &blocks);
                    assert_eq!(got, want, "width={width} n={n} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn default_width_matches_scalar() {
        let (states0, blocks) = splat(42, 13);
        let want = portable(&states0, &blocks);
        let mut got = states0;
        compress_batch(&mut got, &blocks);
        assert_eq!(got, want);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_portable() {
        if !avx2_available() {
            return; // nothing to compare on this machine
        }
        for seed in 1..=16u64 {
            let (states0, blocks) = splat(seed, 8);
            let want = portable(&states0, &blocks);
            let mut simd: [[u32; 8]; 8] = states0.try_into().unwrap();
            avx2::compress8(&mut simd, &blocks.try_into().unwrap());
            assert_eq!(simd.to_vec(), want, "seed={seed}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_kernel_matches_portable() {
        if !sha_ni_available() {
            return; // nothing to compare on this machine
        }
        let (mut states, mut blocks) = splat(7, 10_000);
        // Saturated and zero words, where a carry or shuffle slip shows.
        states.extend([[0; 8], [u32::MAX; 8], H0]);
        blocks.extend([[0xff; BLOCK_LEN], [0; BLOCK_LEN], [0x80; BLOCK_LEN]]);
        for (i, (state, block)) in states.iter().zip(&blocks).enumerate() {
            let mut want = *state;
            compress_portable(&mut want, block);
            let mut got = *state;
            sha_ni::compress(&mut got, block);
            assert_eq!(got, want, "pair {i}");
        }
    }

    #[test]
    fn sha_ni_hosts_default_to_width_1() {
        if !sha_ni_available() {
            return;
        }
        assert_eq!(default_width(), 1);
        if std::env::var_os(LANES_ENV).is_none() {
            assert_eq!(lane_width(), 1);
        }
    }

    #[test]
    fn lane_width_is_supported() {
        assert!(SUPPORTED_WIDTHS.contains(&lane_width()));
    }

    #[test]
    fn cpu_features_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}

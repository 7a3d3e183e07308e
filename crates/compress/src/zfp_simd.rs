//! AVX2 4-lane ZFP block-decode kernel.
//!
//! A v2 ZFP container (see [`crate::zfp`]) carries four independent block
//! sub-streams.  Bit-stream reads are inherently serial *within* a
//! sub-stream, but the four lanes' reads are independent chains the CPU
//! can overlap; the reconstruction math that follows — inverse Haar
//! lifting, exponent scaling, `f64 → f32` narrowing — is identical across
//! lanes and runs vectorized, one block per 64-bit lane:
//!
//! 1. Each lane scalar-reads one raw block (flag, exponent, widths,
//!    sign/magnitude coefficients) — four independent dependency chains.
//! 2. The 4×4 coefficient matrix is transposed so each ymm register holds
//!    one coefficient position across all four blocks, the inverse lifting
//!    runs in four vector add/sub/shift steps, and the integer
//!    coefficients convert to `f64` via the exponent-bias trick (exact for
//!    the ≤ 2^40 magnitudes valid streams produce).
//! 3. A per-block scale multiply, `f64 → f32` narrowing, and a 4×4 `f32`
//!    transpose put each block back in value order for one 16-byte store.
//!
//! Zero / verbatim blocks (rare: all-zero or non-finite data) drop that
//! round to the scalar finish.  Lanes near their payload end finish on the
//! checked scalar path, exactly like the portable decoder's last blocks.
//!
//! On valid streams the kernel is bit-exact with the scalar path: the
//! integer lifting wraps identically, the `i64 → f64` conversion is exact
//! in the valid coefficient range, and multiply + narrow use the same
//! round-to-nearest semantics as the scalar expressions.  (Corrupt streams
//! can produce coefficients beyond 2^51 where the conversion trick — like
//! the scalar path's wrapping arithmetic — yields garbage-but-defined
//! values; both paths reject or bound-check everything that matters
//! before this point.)

#![cfg(target_arch = "x86_64")]

use crate::bitstream::BitReader;
use crate::traits::CompressError;
use crate::zfp::{
    decode_blocks_scalar, finish_block_scalar, pow2, read_block_raw_unchecked, reconstruct_coeff,
    MAX_BLOCK_BITS, PRECISION,
};

/// Decodes a v2 ZFP payload with four sub-streams into `out`.
/// `subs` are `(byte offset, byte length)` per sub-stream within
/// `payload`; `parts` are `(block offset, block count)` per sub-stream.
/// The caller guarantees AVX2 support and `subs.len() == 4`.
pub(crate) fn decode_v2_avx2(
    payload: &[u8],
    subs: &[(usize, usize)],
    parts: &[(usize, usize)],
    out: &mut [f32],
) -> Result<(), CompressError> {
    debug_assert_eq!(subs.len(), 4);
    debug_assert_eq!(parts.len(), 4);
    let _span = errflow_obs::trace::span("codec.zfp.decode.avx2");
    let n = out.len();
    // Carve `out` into the four lanes' contiguous value ranges.
    let mut regions: Vec<&mut [f32]> = Vec::with_capacity(4);
    let mut rest: &mut [f32] = out;
    let mut consumed_vals = 0usize;
    for &(block_off, block_len) in parts {
        let v0 = (block_off * 4).min(n);
        let v1 = ((block_off + block_len) * 4).min(n);
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(v1 - v0);
        debug_assert_eq!(v0, consumed_vals);
        consumed_vals = v1;
        regions.push(head);
        rest = tail;
    }
    let mut readers: Vec<BitReader<'_>> = subs
        .iter()
        .map(|&(off, len)| BitReader::new(&payload[off..off + len]))
        .collect();
    let mut done = [0usize; 4];
    // SAFETY: dispatched only behind a runtime `simd::has_avx2()` check in
    // `zfp::decompress_v2_into`, matching the kernel's target feature.
    unsafe { kernel(&mut readers, &mut regions, &mut done) };
    // Per-lane scalar tail: partial last blocks and blocks too close to
    // the payload end for the unchecked reader.
    for ((r, region), &d) in readers.iter_mut().zip(regions.iter_mut()).zip(&done) {
        decode_blocks_scalar(r, &mut region[d..])?;
    }
    Ok(())
}

/// Vector round loop: runs while every lane has a full 4-value block and a
/// worst-case block footprint left in its payload.
// SAFETY: callers must guarantee AVX2 is available (enforced by the
// runtime dispatch in `decode_v2_avx2`); slice accesses are guarded by the
// round-entry length checks.
#[target_feature(enable = "avx2")]
unsafe fn kernel(readers: &mut [BitReader<'_>], regions: &mut [&mut [f32]], done: &mut [usize; 4]) {
    use std::arch::x86_64::*;

    // Exponent-bias constants for exact i64 → f64 conversion of |x| < 2^51:
    // (x + 2^52·1.5) reinterpreted as f64, minus 2^52·1.5.
    let magic_i = _mm256_set1_epi64x(0x4338000000000000);
    let magic_f = _mm256_set1_pd(6755399441055744.0);
    let sign_bit = _mm256_set1_epi64x(i64::MIN);
    let one = _mm256_set1_epi64x(1);

    // Arithmetic shift right by one on packed i64 (absent from AVX2):
    // logical shift, then restore the sign bit.
    // SAFETY: register-only AVX2 ops; only called from the AVX2 kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sra1(x: __m256i, sign_bit: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_srli_epi64::<1>(x), _mm256_and_si256(x, sign_bit))
    }
    // Exact-in-range i64 → f64 conversion (exponent-bias trick) followed
    // by the per-block scale multiply.
    // SAFETY: register-only AVX2 ops; only called from the AVX2 kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scaled_f64(x: __m256i, sc: __m256d, magic_i: __m256i, magic_f: __m256d) -> __m256d {
        _mm256_mul_pd(
            _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(x, magic_i)), magic_f),
            sc,
        )
    }
    // Inverse reversible Haar pair, vectorized: a = l + ((h + 1) >> 1),
    // b = a − h (wrapping, identical to the scalar `haar_inv`).
    // SAFETY: register-only AVX2 ops; only called from the AVX2 kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn haar_inv_v(
        l: __m256i,
        h: __m256i,
        one: __m256i,
        sign_bit: __m256i,
    ) -> (__m256i, __m256i) {
        let a = _mm256_add_epi64(l, sra1(_mm256_add_epi64(h, one), sign_bit));
        (a, _mm256_sub_epi64(a, h))
    }

    'outer: loop {
        for i in 0..4 {
            if regions[i].len() - done[i] < 4 || readers[i].remaining_bits() < MAX_BLOCK_BITS {
                break 'outer;
            }
        }
        // Stage 1: four independent scalar block reads (the serial part).
        // Peek every lane's header word first — four independent loads the
        // CPU overlaps — and pick the path from the flag + width fields
        // before advancing anything.
        let w: [u64; 4] = std::array::from_fn(|i| readers[i].peek_word());
        let mut widths = [0u32; 4];
        let mut fast = true;
        for i in 0..4 {
            widths[i] = ((w[i] >> 17) & 0x3F) as u32;
            // Zero/verbatim blocks or >27-bit coefficients (both rare on
            // real data) drop the round to the general path.
            if w[i] & 1 == 1 || widths[i] > 27 {
                fast = false;
            }
        }
        if !fast {
            for b in 0..4 {
                // SAFETY: (unchecked contract) the round-entry check above
                // proved every reader holds ≥ MAX_BLOCK_BITS, the worst-case
                // block size.  No cursor has advanced yet this round.
                let raw = read_block_raw_unchecked(&mut readers[b]);
                finish_block_scalar(&raw, &mut regions[b][done[b]..done[b] + 4]);
                done[b] += 4;
            }
            continue;
        }
        // Normal blocks with width ≤ 27: two sign+magnitude fields
        // (2 × 28 ≤ 56 bits) come out of each 57-bit window, so the whole
        // coefficient payload costs two loads instead of four dependent
        // per-coefficient reads.  Coefficients land directly in
        // coefficient-major order (`cols[j][b]` = coefficient j of lane b),
        // so stage 2 needs no transpose.
        let mut scales = [0f64; 4];
        let mut cols = [[0i64; 4]; 4];
        for b in 0..4 {
            let emax = ((w[b] >> 1) & 0x3FF) as i32 - 256;
            scales[b] = pow2(emax - (PRECISION - 2));
            let cut = ((w[b] >> 11) & 0x3F) as u32;
            let width = widths[b];
            let step = (1 + width) as usize;
            let mask = (1u64 << width) - 1;
            let r = &mut readers[b];
            // SAFETY: (unchecked contract) the round-entry check proved
            // ≥ MAX_BLOCK_BITS ≥ 23 + 4·(1 + 63) remain, and this path
            // consumes 23 + 4·(1 + width ≤ 27) bits — strictly fewer.
            r.advance_unchecked(23);
            let cw0 = r.peek_word();
            // SAFETY: (unchecked contract) as above — 2·step ≤ 56 of the
            // block's guaranteed remaining bits.
            r.advance_unchecked(2 * step);
            let cw1 = r.peek_word();
            // SAFETY: (unchecked contract) as above.
            r.advance_unchecked(2 * step);
            for j in 0..2 {
                let f0 = cw0 >> (j * step);
                cols[j][b] = reconstruct_coeff((f0 >> 1) & mask, cut, f0 & 1 == 1);
                let f1 = cw1 >> (j * step);
                cols[j + 2][b] = reconstruct_coeff((f1 >> 1) & mask, cut, f1 & 1 == 1);
            }
        }
        // Stage 2: inverse lifting + scale, one coefficient position per
        // ymm register (already coefficient-major).
        // SAFETY: each `cols[j]` is a 4×i64 array, a full 32-byte load.
        let ll = _mm256_loadu_si256(cols[0].as_ptr() as *const __m256i);
        let lh = _mm256_loadu_si256(cols[1].as_ptr() as *const __m256i);
        let h0 = _mm256_loadu_si256(cols[2].as_ptr() as *const __m256i);
        let h1 = _mm256_loadu_si256(cols[3].as_ptr() as *const __m256i);
        let (l0, l1) = haar_inv_v(ll, lh, one, sign_bit);
        let (va, vb) = haar_inv_v(l0, h0, one, sign_bit);
        let (vc, vd) = haar_inv_v(l1, h1, one, sign_bit);
        let sc = _mm256_loadu_pd(scales.as_ptr());
        let fa = _mm256_cvtpd_ps(scaled_f64(va, sc, magic_i, magic_f));
        let fb = _mm256_cvtpd_ps(scaled_f64(vb, sc, magic_i, magic_f));
        let fc = _mm256_cvtpd_ps(scaled_f64(vc, sc, magic_i, magic_f));
        let fd = _mm256_cvtpd_ps(scaled_f64(vd, sc, magic_i, magic_f));
        // Stage 3: 4×4 f32 transpose back to value-major, one 16-byte
        // store per block.
        let u0 = _mm_unpacklo_ps(fa, fb);
        let u1 = _mm_unpacklo_ps(fc, fd);
        let u2 = _mm_unpackhi_ps(fa, fb);
        let u3 = _mm_unpackhi_ps(fc, fd);
        let blocks = [
            _mm_movelh_ps(u0, u1),
            _mm_movehl_ps(u1, u0),
            _mm_movelh_ps(u2, u3),
            _mm_movehl_ps(u3, u2),
        ];
        for (b, blk) in blocks.iter().enumerate() {
            // SAFETY: the round-entry check guarantees ≥ 4 values remain
            // in lane b's region at offset `done[b]`.
            _mm_storeu_ps(regions[b][done[b]..].as_mut_ptr(), *blk);
            done[b] += 4;
        }
    }
}

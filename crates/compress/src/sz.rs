//! SZ-class error-bounded compressor.
//!
//! The SZ family (the paper's references \[6\], \[25\]) compresses scientific
//! floating-point data by (1) *predicting* each value from its already-
//! reconstructed neighbours, (2) quantizing the prediction residual into
//! bins of width `2·eb` so every reconstructed value lands within `eb` of
//! the original, and (3) entropy-coding the bin indices, which cluster
//! tightly around zero for smooth fields.  Values the predictor misses
//! (outliers) are stored verbatim.
//!
//! This implementation follows the classic SZ 1-D pipeline with a
//! best-of-two predictor (Lorenzo / linear extrapolation, chosen per value
//! from reconstructed history so the decoder can repeat the choice) and the
//! crate's canonical Huffman coder.  The error-bound contract is *strict*:
//! the quantizer verifies each reconstruction in `f32` and escapes to a
//! verbatim outlier whenever rounding would violate the budget.
//!
//! Both directions run as a single fused pass: the predictor only ever
//! looks two elements back, so compression keeps the reconstructed history
//! in two registers (predict + quantize + verify per element, no
//! reconstruction buffer), and [`Compressor::decompress_into`] streams the
//! inverse straight into the caller's slice through pooled
//! [`CodecScratch`](crate::CodecScratch) state.
//!
//! ## Stream format
//!
//! The serial predictor chain is the decode bottleneck: each value's
//! prediction needs the previous two *reconstructed* values, so one chain
//! of convert→multiply→add latency gates every element.  The **v2**
//! container (see [`crate::format`]) breaks the chain: values are split into
//! [`crate::format::V2_STREAMS`] contiguous segments, the predictor
//! restarts at each segment boundary (costing at most a few poorly
//! predicted values per segment), outlier tables are per-segment, and the
//! quantization symbols are entropy-coded with the multi-stream Huffman
//! block ([`crate::huffman::encode_multi`]).  Decode then runs four
//! independent predictor chains interleaved — roughly a 4× cut in chain
//! latency — on top of the lane-parallel entropy decode.  It is the only
//! layout this compressor writes or reads; the seed's single-stream v1
//! layout survives only in the frozen [`crate::reference`] oracle, which
//! the v2 decode matches bit for bit segment by segment.

use crate::error_bound::ErrorBound;
use crate::format::{self, BackendTag, V2_STREAMS};
use crate::huffman;
use crate::scratch::{self, CodecScratch};
use crate::traits::{check_tolerance, CompressError, Compressor};

/// Quantization codes live in `[-MAX_CODE, MAX_CODE]`; residuals outside
/// become outliers.  65k bins matches SZ's default `quantization_intervals`.
const MAX_CODE: i64 = 32_767;

/// Symbol 0 is the outlier escape; code `c` maps to `c + MAX_CODE + 1`.
const ESCAPE: u32 = 0;

/// SZ-class compressor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SzCompressor;

impl SzCompressor {
    /// Creates the compressor.
    pub fn new() -> Self {
        SzCompressor
    }

    /// Predicts element `i` from the last two reconstructed values: linear
    /// extrapolation `2·x̃_{i−1} − x̃_{i−2}` when two predecessors exist,
    /// Lorenzo (`x̃_{i−1}`) with one, zero otherwise.
    #[inline]
    fn predict(i: usize, prev: f32, prev2: f32) -> f64 {
        match i {
            0 => 0.0,
            1 => prev as f64,
            _ => 2.0 * prev as f64 - prev2 as f64,
        }
    }

    /// Fused predict + quantize + verify over one predictor segment: the
    /// reconstruction history the predictor needs is just the last two
    /// values, carried in registers, and it restarts at the segment start.
    /// Appends one symbol per value to `symbols` and escaped values to
    /// `outliers`; returns the number of outliers appended.
    pub(crate) fn quantize_segment(
        data: &[f32],
        eb: f64,
        symbols: &mut Vec<u32>,
        outliers: &mut Vec<f32>,
    ) -> usize {
        let outliers_before = outliers.len();
        let mut prev = 0.0f32;
        let mut prev2 = 0.0f32;
        for (i, &x) in data.iter().enumerate() {
            let pred = Self::predict(i, prev, prev2);
            let residual = x as f64 - pred;
            let code = (residual / (2.0 * eb)).round() as i64;
            let mut accepted = false;
            // unsigned_abs: the float→int cast saturates to i64::MIN for
            // huge negative residuals, where .abs() would overflow.
            if code.unsigned_abs() <= MAX_CODE as u64 {
                let r = (pred + 2.0 * eb * code as f64) as f32;
                // Strict check in f32: the cast may add half an ulp, so we
                // verify rather than trust the algebra.
                if ((x - r).abs() as f64) <= eb && r.is_finite() {
                    symbols.push((code + MAX_CODE + 1) as u32);
                    prev2 = prev;
                    prev = r;
                    accepted = true;
                }
            }
            if !accepted {
                symbols.push(ESCAPE);
                outliers.push(x);
                prev2 = prev;
                prev = x;
            }
        }
        outliers.len() - outliers_before
    }

    /// One quantization step of one predictor chain (the v2 encode fast
    /// path).  Same accept/reject semantics as [`Self::quantize_segment`],
    /// restructured for chain latency: the bin width divide becomes a
    /// multiply by the precomputed reciprocal, and the half-away-from-zero
    /// round is done branchlessly on the magnitude (baseline x86-64 lowers
    /// `f64::round` to a libm call, which would sit on the serial
    /// predict→quantize→verify chain).  The magnitude guard runs *before*
    /// rounding: anything at or past `MAX_CODE + 0.5` bins (including
    /// NaN/inf, which fail the compare) escapes to an outlier exactly as
    /// the reference round-then-range-check would.
    #[inline(always)]
    fn quant_step(
        i: usize,
        x: f32,
        eb: f64,
        inv2eb: f64,
        prev: &mut f32,
        prev2: &mut f32,
        outliers: &mut Vec<f32>,
    ) -> u32 {
        let pred = Self::predict(i, *prev, *prev2);
        let scaled = (x as f64 - pred) * inv2eb;
        let a = scaled.abs();
        if a < MAX_CODE as f64 + 0.5 {
            // a < 32767.5 bounds the truncation and keeps code_abs ≤
            // MAX_CODE after the half-up adjust, so the cast cannot
            // saturate and the symbol stays in range.
            let t = a as i64;
            let code_abs = t + i64::from(a - t as f64 >= 0.5);
            let code = if scaled < 0.0 { -code_abs } else { code_abs };
            let r = (pred + 2.0 * eb * code as f64) as f32;
            // Strict check in f32, exactly as the segment quantizer: the
            // cast may add half an ulp, so verify rather than trust algebra.
            if ((x - r).abs() as f64) <= eb && r.is_finite() {
                *prev2 = *prev;
                *prev = r;
                return (code + MAX_CODE + 1) as u32;
            }
        }
        outliers.push(x);
        *prev2 = *prev;
        *prev = x;
        ESCAPE
    }

    /// Four-lane interleaved quantization: the encode-side twin of
    /// [`Self::reconstruct_interleaved4`].  Each v2 segment is an
    /// independent predictor chain (the predictor restarts per segment), so
    /// one iteration advances four chains and their predict→scale→verify
    /// latency chains overlap instead of serializing.  Fills `symbols`
    /// (pre-sized to `data.len()`) in segment order, one outlier table per
    /// lane.
    fn quantize_interleaved4(
        data: &[f32],
        parts: &[(usize, usize)],
        eb: f64,
        symbols: &mut [u32],
        outliers: &mut [Vec<f32>; 4],
    ) {
        debug_assert_eq!(parts.len(), 4);
        debug_assert_eq!(symbols.len(), data.len());
        let inv2eb = 1.0 / (2.0 * eb);
        // `split_even` partitions the symbol buffer exactly, so the chained
        // splits cannot go out of bounds.
        let (s0, rest) = symbols.split_at_mut(parts[0].1);
        let (s1, rest) = rest.split_at_mut(parts[1].1);
        let (s2, s3) = rest.split_at_mut(parts[2].1);
        let mut segs: [&mut [u32]; 4] = [s0, s1, s2, s3];
        let mut prev = [0.0f32; 4];
        let mut prev2 = [0.0f32; 4];
        let min_len = parts.iter().map(|&(_, len)| len).min().unwrap_or(0);
        // Full rounds: all four lanes active, equal-length slices so the
        // bounds checks hoist out of the loop.
        {
            let d: [&[f32]; 4] = std::array::from_fn(|l| &data[parts[l].0..parts[l].0 + min_len]);
            let [s0, s1, s2, s3] = &mut segs;
            let [o0, o1, o2, o3] = outliers;
            for i in 0..min_len {
                s0[i] = Self::quant_step(i, d[0][i], eb, inv2eb, &mut prev[0], &mut prev2[0], o0);
                s1[i] = Self::quant_step(i, d[1][i], eb, inv2eb, &mut prev[1], &mut prev2[1], o1);
                s2[i] = Self::quant_step(i, d[2][i], eb, inv2eb, &mut prev[2], &mut prev2[2], o2);
                s3[i] = Self::quant_step(i, d[3][i], eb, inv2eb, &mut prev[3], &mut prev2[3], o3);
            }
        }
        // Ragged round: lanes one element longer than the shortest.
        for l in 0..4 {
            let (off, len) = parts[l];
            if len > min_len {
                segs[l][min_len] = Self::quant_step(
                    min_len,
                    data[off + min_len],
                    eb,
                    inv2eb,
                    &mut prev[l],
                    &mut prev2[l],
                    &mut outliers[l],
                );
            }
        }
    }

    /// Encodes the v2 multi-stream container:
    ///
    /// ```text
    /// [magic u64][tag=Sz u8][n_streams u8]
    /// [n u64][eb f64][n_outliers_s u32 × n_streams]
    /// [multi-stream Huffman block over the per-segment symbols]
    /// [outlier f32 tables, one per segment, concatenated]
    /// ```
    fn compress_v2(data: &[f32], eb: f64) -> Vec<u8> {
        let parts = format::split_even(data.len(), V2_STREAMS);
        let mut symbols: Vec<u32> = Vec::new();
        let mut lanes: [Vec<f32>; V2_STREAMS] = Default::default();
        // Size lanes for the outlier-storm case up front: near-lossless
        // budgets escape almost every value, and doubling-growth reallocs
        // on four megabyte-scale tables are pure memory traffic.
        for (lane, &(_, len)) in lanes.iter_mut().zip(&parts) {
            lane.reserve(len);
        }
        if V2_STREAMS == 4 {
            // Interleaved fast path (mirrors the decode side): four lanes
            // in flight hide the per-value chain latency.
            symbols.resize(data.len(), ESCAPE);
            Self::quantize_interleaved4(data, &parts, eb, &mut symbols, &mut lanes);
        } else {
            symbols.reserve(data.len());
            for (s, &(off, len)) in parts.iter().enumerate() {
                Self::quantize_segment(&data[off..off + len], eb, &mut symbols, &mut lanes[s]);
            }
        }

        // Reserve for the worst case (outlier-storm inputs where every value
        // escapes): header + collapsed symbol block + verbatim outliers.
        let n_outliers: usize = lanes.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(128 + symbols.len() + 4 * n_outliers);
        format::write_preamble(&mut out, BackendTag::Sz, V2_STREAMS);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&eb.to_le_bytes());
        for lane in &lanes {
            out.extend_from_slice(&(lane.len() as u32).to_le_bytes());
        }
        let segs: Vec<&[u32]> = parts
            .iter()
            .map(|&(off, len)| &symbols[off..off + len])
            .collect();
        huffman::encode_multi_into(&segs, &mut out);
        // Emit each lane's outlier table in place — the tables are already
        // segment-ordered, so no concatenation pass is needed.
        for lane in &lanes {
            format::write_f32_table(&mut out, lane);
        }
        out
    }

    /// Parses a v2 header and entropy-decodes the symbols into
    /// `scratch.symbols`.  Returns `(n, eb, spans)` where `spans` are the
    /// per-segment outlier tables' absolute `(start, end)` byte ranges.
    /// The declared outlier tables must exactly fill the remaining payload;
    /// a mismatch is a typed [`CompressError::CorruptStream`].
    fn decode_core_v2(
        stream: &[u8],
        scratch: &mut CodecScratch,
    ) -> Result<(usize, f64, Vec<(usize, usize)>), CompressError> {
        let mut pos = 0usize;
        let n_streams = format::read_preamble(stream, &mut pos, BackendTag::Sz)?;
        let n = crate::traits::read_len_u64(stream, &mut pos, "element count")?;
        let eb = crate::traits::read_f64(stream, &mut pos, "error bound")?;
        let mut counts: Vec<usize> = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            counts.push(crate::traits::read_len_u32(stream, &mut pos, "outlier count")? as usize);
        }
        let consumed =
            huffman::decode_multi_into(&stream[pos..], &mut scratch.symbols, &mut scratch.huff)?;
        if scratch.symbols.len() != n {
            return Err(CompressError::CorruptStream(format!(
                "expected {n} symbols, decoded {}",
                scratch.symbols.len()
            )));
        }
        let table_off = pos + consumed;
        let mut total = 0usize;
        for &c in &counts {
            total = c
                .checked_mul(4)
                .and_then(|b| total.checked_add(b))
                .ok_or_else(|| {
                    CompressError::CorruptStream("outlier table lengths overflow".into())
                })?;
        }
        // Strict framing: the declared per-segment outlier tables must sum
        // to exactly the remaining payload, no silent truncation or slack.
        if stream.len() - table_off != total {
            return Err(CompressError::CorruptStream(format!(
                "v2 outlier tables declare {total} bytes but the payload holds {}",
                stream.len() - table_off
            )));
        }
        let mut spans = Vec::with_capacity(n_streams);
        let mut start = table_off;
        for &c in &counts {
            spans.push((start, start + c * 4));
            start += c * 4;
        }
        Ok((n, eb, spans))
    }

    /// Fused inverse pass over one predictor segment, reading outliers from
    /// the segment's own table span.  The span must be consumed exactly.
    fn reconstruct_segment(
        stream: &[u8],
        span: (usize, usize),
        eb: f64,
        symbols: &[u32],
        out: &mut [f32],
    ) -> Result<(), CompressError> {
        debug_assert_eq!(symbols.len(), out.len());
        let (mut cur, end) = span;
        let mut prev = 0.0f32;
        let mut prev2 = 0.0f32;
        for (i, (&sym, slot)) in symbols.iter().zip(out.iter_mut()).enumerate() {
            let v = Self::lane_step(stream, i, sym, eb, &mut prev, &mut prev2, &mut cur, end)?;
            *slot = v;
        }
        if cur != end {
            return Err(CompressError::CorruptStream(format!(
                "segment outlier table has {} unread bytes",
                end - cur
            )));
        }
        Ok(())
    }

    /// One reconstruction step of one predictor chain: dequantize or read
    /// an outlier from the lane's own table span, then shift the history.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn lane_step(
        stream: &[u8],
        i: usize,
        sym: u32,
        eb: f64,
        prev: &mut f32,
        prev2: &mut f32,
        cur: &mut usize,
        end: usize,
    ) -> Result<f32, CompressError> {
        let v = if sym == ESCAPE {
            if end - *cur < 4 {
                return Err(CompressError::CorruptStream(
                    "segment outlier table exhausted".into(),
                ));
            }
            crate::traits::read_f32(stream, cur, "outlier table")?
        } else {
            let code = sym as i64 - MAX_CODE - 1;
            let pred = Self::predict(i, *prev, *prev2);
            (pred + 2.0 * eb * code as f64) as f32
        };
        *prev2 = *prev;
        *prev = v;
        Ok(v)
    }

    /// Four-lane interleaved reconstruction: one iteration advances four
    /// independent predictor chains, so the convert→multiply→add latency
    /// chains overlap instead of serializing.  `split_even` guarantees the
    /// segment lengths differ by at most one, so all the branchy tail work
    /// is a single ragged round.
    fn reconstruct_interleaved4(
        stream: &[u8],
        spans: &[(usize, usize)],
        eb: f64,
        symbols: &[u32],
        parts: &[(usize, usize)],
        out: &mut [f32],
    ) -> Result<(), CompressError> {
        debug_assert_eq!(spans.len(), 4);
        debug_assert_eq!(parts.len(), 4);
        // `split_even` partitions `out` exactly, so the chained splits
        // cannot go out of bounds.
        let (r0, rest) = out.split_at_mut(parts[0].1);
        let (r1, rest) = rest.split_at_mut(parts[1].1);
        let (r2, r3) = rest.split_at_mut(parts[2].1);
        let mut regions: [&mut [f32]; 4] = [r0, r1, r2, r3];
        let mut cur = [0usize; 4];
        let mut end = [0usize; 4];
        let mut prev = [0.0f32; 4];
        let mut prev2 = [0.0f32; 4];
        for l in 0..4 {
            cur[l] = spans[l].0;
            end[l] = spans[l].1;
        }
        let min_len = parts.iter().map(|&(_, len)| len).min().unwrap_or(0);
        // Full rounds: all four lanes active, equal-length slices so the
        // bounds checks hoist out of the loop.
        {
            let s: [&[u32]; 4] =
                std::array::from_fn(|l| &symbols[parts[l].0..parts[l].0 + min_len]);
            let [r0, r1, r2, r3] = &mut regions;
            for i in 0..min_len {
                r0[i] = Self::lane_step(
                    stream,
                    i,
                    s[0][i],
                    eb,
                    &mut prev[0],
                    &mut prev2[0],
                    &mut cur[0],
                    end[0],
                )?;
                r1[i] = Self::lane_step(
                    stream,
                    i,
                    s[1][i],
                    eb,
                    &mut prev[1],
                    &mut prev2[1],
                    &mut cur[1],
                    end[1],
                )?;
                r2[i] = Self::lane_step(
                    stream,
                    i,
                    s[2][i],
                    eb,
                    &mut prev[2],
                    &mut prev2[2],
                    &mut cur[2],
                    end[2],
                )?;
                r3[i] = Self::lane_step(
                    stream,
                    i,
                    s[3][i],
                    eb,
                    &mut prev[3],
                    &mut prev2[3],
                    &mut cur[3],
                    end[3],
                )?;
            }
        }
        // Ragged round: lanes one element longer than the shortest.
        for l in 0..4 {
            let (off, len) = parts[l];
            if len > min_len {
                let sym = symbols[off + min_len];
                regions[l][min_len] = Self::lane_step(
                    stream,
                    min_len,
                    sym,
                    eb,
                    &mut prev[l],
                    &mut prev2[l],
                    &mut cur[l],
                    end[l],
                )?;
            }
        }
        for l in 0..4 {
            if cur[l] != end[l] {
                return Err(CompressError::CorruptStream(format!(
                    "segment outlier table has {} unread bytes",
                    end[l] - cur[l]
                )));
            }
        }
        Ok(())
    }

    /// Reconstructs a v2 stream: interleaved four-lane fast path, generic
    /// per-segment loop otherwise.
    fn reconstruct_v2(
        stream: &[u8],
        spans: &[(usize, usize)],
        eb: f64,
        symbols: &[u32],
        out: &mut [f32],
    ) -> Result<(), CompressError> {
        let _span = errflow_obs::trace::span("codec.sz.v2.reconstruct");
        errflow_obs::counter("codec.decode.streams.sz").add(spans.len() as u64);
        let parts = format::split_even(out.len(), spans.len());
        // All-escape fast path: when every lane's outlier table holds one
        // value per element AND every symbol really is the escape, the
        // predictor history is never consulted and each lane is its table
        // verbatim.  Near-lossless tolerances (the serve hot path) put
        // almost every value over budget, so this turns the whole inverse
        // pass into a bulk copy.  The symbol scan keeps corrupt-stream
        // behaviour identical to the slow path, which only reads one table
        // entry per escape symbol.
        let all_escape = spans.iter().zip(&parts).all(|(&(s0, s1), &(off, len))| {
            s1 - s0 == 4 * len && symbols[off..off + len].iter().all(|&s| s == ESCAPE)
        });
        if all_escape {
            for (&(s0, _), &(off, len)) in spans.iter().zip(&parts) {
                format::read_f32_table(&stream[s0..s0 + 4 * len], &mut out[off..off + len]);
            }
            return Ok(());
        }
        if spans.len() == 4 {
            return Self::reconstruct_interleaved4(stream, spans, eb, symbols, &parts, out);
        }
        for (s, &(off, len)) in parts.iter().enumerate() {
            Self::reconstruct_segment(
                stream,
                spans[s],
                eb,
                &symbols[off..off + len],
                &mut out[off..off + len],
            )?;
        }
        Ok(())
    }
}

impl Compressor for SzCompressor {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn supports(&self, _bound: &ErrorBound) -> bool {
        // SZ supports both L∞ and L2 tolerances (Figs. 13, 14).
        true
    }

    fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
        let _span = errflow_obs::trace::span("codec.sz.compress");
        check_tolerance(bound.tolerance)?;
        Ok(Self::compress_v2(data, bound.pointwise_budget(data)))
    }

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        let _span = errflow_obs::trace::span("codec.sz.decompress");
        let mut scratch = scratch::acquire();
        let (n, eb, spans) = Self::decode_core_v2(stream, &mut scratch)?;
        // n == symbols.len() here, which the entropy decoder already
        // bounded by the actual payload size — safe to allocate.
        let mut recon = vec![0.0f32; n];
        Self::reconstruct_v2(stream, &spans, eb, &scratch.symbols, &mut recon)?;
        Ok(recon)
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        let (n, eb, spans) = Self::decode_core_v2(stream, scratch)?;
        if n != out.len() {
            return Err(CompressError::CorruptStream(format!(
                "stream declares {n} values, expected {}",
                out.len()
            )));
        }
        Self::reconstruct_v2(stream, &spans, eb, &scratch.symbols, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_bound::BoundMode;
    use errflow_tensor::rng::StdRng;

    fn smooth_field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                (t * 12.0).sin() + 0.3 * (t * 40.0).cos()
            })
            .collect()
    }

    #[test]
    fn roundtrip_respects_abs_linf_bound() {
        let data = smooth_field(4096);
        for tol in [1e-2, 1e-4, 1e-6] {
            let bound = ErrorBound::abs_linf(tol);
            let sz = SzCompressor::new();
            let stream = sz.compress(&data, &bound).unwrap();
            let recon = sz.decompress(&stream).unwrap();
            assert!(bound.verify(&data, &recon), "tol={tol}");
        }
    }

    #[test]
    fn roundtrip_respects_rel_bounds() {
        let data = smooth_field(2048);
        let sz = SzCompressor::new();
        for bound in [
            ErrorBound::rel_linf(1e-3),
            ErrorBound::abs_l2(1e-2),
            ErrorBound::rel_l2(1e-4),
        ] {
            let stream = sz.compress(&data, &bound).unwrap();
            let recon = sz.decompress(&stream).unwrap();
            assert!(bound.verify(&data, &recon), "{bound:?}");
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_field(16_384);
        let sz = SzCompressor::new();
        let stream = sz.compress(&data, &ErrorBound::rel_linf(1e-3)).unwrap();
        let ratio = (data.len() * 4) as f64 / stream.len() as f64;
        assert!(ratio > 8.0, "ratio = {ratio:.2}");
    }

    #[test]
    fn ratio_grows_with_tolerance() {
        let data = smooth_field(8192);
        let sz = SzCompressor::new();
        let len_at = |tol: f64| {
            sz.compress(&data, &ErrorBound::rel_linf(tol))
                .unwrap()
                .len()
        };
        assert!(len_at(1e-2) < len_at(1e-4));
        assert!(len_at(1e-4) < len_at(1e-6));
    }

    #[test]
    fn random_noise_still_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..2000).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn extreme_values_become_outliers() {
        let mut data = smooth_field(128);
        data[50] = 1e30;
        data[51] = -1e30;
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-4);
        let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
        assert!(bound.verify(&data, &recon));
        assert_eq!(recon[50], 1e30);
    }

    #[test]
    fn empty_and_single_element() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        let empty = sz.decompress(&sz.compress(&[], &bound).unwrap()).unwrap();
        assert!(empty.is_empty());
        let one = sz
            .decompress(&sz.compress(&[42.0], &bound).unwrap())
            .unwrap();
        assert!((one[0] - 42.0).abs() <= 1e-3);
    }

    #[test]
    fn invalid_tolerance_rejected() {
        let sz = SzCompressor::new();
        assert!(sz.compress(&[1.0], &ErrorBound::abs_linf(0.0)).is_err());
        assert!(sz
            .compress(&[1.0], &ErrorBound::abs_linf(f64::NAN))
            .is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let sz = SzCompressor::new();
        assert!(sz.decompress(&[1, 2, 3]).is_err());
        let stream = sz
            .compress(&smooth_field(100), &ErrorBound::abs_linf(1e-3))
            .unwrap();
        assert!(sz.decompress(&stream[..stream.len() / 2]).is_err());
    }

    #[test]
    fn supports_all_modes() {
        let sz = SzCompressor::new();
        for mode in [
            BoundMode::AbsLInf,
            BoundMode::RelLInf,
            BoundMode::AbsL2,
            BoundMode::RelL2,
        ] {
            assert!(sz.supports(&ErrorBound {
                tolerance: 1e-3,
                mode
            }));
        }
    }

    #[test]
    fn roundtrip_stats() {
        let data = smooth_field(4096);
        let sz = SzCompressor::new();
        let (recon, stats) = sz.roundtrip(&data, &ErrorBound::rel_linf(1e-3)).unwrap();
        assert_eq!(recon.len(), data.len());
        assert!(stats.ratio() > 1.0);
        assert!(stats.compress_secs >= 0.0);
    }

    #[test]
    fn prop_error_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xE0);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-6.0f64..-1.0));
            let n = rng.gen_range(1usize..512);
            // Mix of smooth signal and noise.
            let data: Vec<f32> = (0..n)
                .map(|i| ((i as f32) * 0.1).sin() * 5.0 + rng.gen_range(-1.0f32..1.0))
                .collect();
            let sz = SzCompressor::new();
            let bound = ErrorBound::abs_linf(tol);
            let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }

    #[test]
    fn v2_interleaved_quantizer_matches_segment_quantizer() {
        // With a power-of-two bin width the reciprocal multiply is exact,
        // so the interleaved encoder's accept/reject and code decisions
        // must match the per-segment reference bit for bit — including
        // rounding ties (residuals at exact half-bin multiples), values at
        // the MAX_CODE escape boundary, and verbatim extremes.
        let eb = 0.25f64;
        let mut rng = StdRng::seed_from_u64(0xE2);
        let mut data: Vec<f32> = Vec::new();
        for i in 0..4096 {
            data.push((i % 13) as f32 * 0.25 - 1.5); // exact tie candidates
        }
        for _ in 0..2048 {
            data.push(rng.gen_range(-50.0f32..50.0));
        }
        // Residuals near the code-range edge (MAX_CODE bins ≈ 16383.75
        // from a zero history) and verbatim outliers.
        data.extend_from_slice(&[16383.5, -16383.75, 16384.0, 1e30, -1e30, 0.0]);

        let parts = format::split_even(data.len(), 4);
        let mut want_symbols: Vec<u32> = Vec::new();
        let mut want_outliers: Vec<f32> = Vec::new();
        for &(off, len) in &parts {
            SzCompressor::quantize_segment(
                &data[off..off + len],
                eb,
                &mut want_symbols,
                &mut want_outliers,
            );
        }

        let mut got_symbols = vec![ESCAPE; data.len()];
        let mut lanes: [Vec<f32>; 4] = Default::default();
        SzCompressor::quantize_interleaved4(&data, &parts, eb, &mut got_symbols, &mut lanes);
        let got_outliers: Vec<f32> = lanes.iter().flatten().copied().collect();

        assert_eq!(got_symbols, want_symbols);
        assert_eq!(got_outliers, want_outliers);
        assert!(want_outliers.iter().any(|&v| v == 1e30), "extremes escape");
    }

    #[test]
    fn prop_l2_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xE1);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-4.0f64..-1.0));
            let data: Vec<f32> = (0..256).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let sz = SzCompressor::new();
            let bound = ErrorBound::abs_l2(tol);
            let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }
}

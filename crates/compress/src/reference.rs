//! Frozen pre-optimization ("seed-path") decoders, and the seed-layout
//! writers that feed them.
//!
//! The codec hot-path overhaul rewrote the Huffman/SZ/ZFP/MGARD decode
//! loops for throughput, and SZ/ZFP moved to the multi-stream v2 layout of
//! [`crate::format`].  This module preserves the original decode paths
//! verbatim — per-symbol table-probe Huffman decode, per-block `BitReader`
//! ZFP decode, per-level `Vec` MGARD reconstruction — over the seed's
//! single-stream (v1) layout, for two purposes:
//!
//! 1. **Parity oracle**: tests assert the optimized decoders reproduce the
//!    seed decoders bit for bit — MGARD on its one layout, ZFP on the
//!    whole payload, SZ on each v2 segment (the predictor restarts there).
//! 2. **Benchmark baseline**: `compress-bench` reports optimized throughput
//!    as a speedup over these functions, the same way `gemm-bench` gates
//!    the blocked kernel against `matmul_naive`.
//!
//! The v1 writers ([`sz_compress`], [`zfp_compress`]) exist only to give
//! the frozen decoders input; no library compressor writes or accepts v1.
//!
//! Nothing here should be "improved" — its value is staying fixed.

use crate::bitstream::BitWriter;
use crate::error_bound::ErrorBound;
use crate::traits::{check_tolerance, safe_capacity, CompressError, Compressor};
use crate::{format, huffman, zfp, MgardCompressor, SzCompressor};
use std::collections::HashMap;

const PEEK: u32 = 13;
const RUN_MARKER: u32 = u32::MAX;
const MAX_CODE: i64 = 32_767;
const ESCAPE: u32 = 0;
const PRECISION: i32 = 38;

/// Seed bit reader: byte-copy `peek_word`, per-call bounds checks.
struct RefBitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RefBitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        RefBitReader { buf, pos: 0 }
    }

    #[inline]
    fn bit_capacity(&self) -> usize {
        self.buf.len() * 8
    }

    #[inline]
    fn peek_word(&self) -> u64 {
        let byte = self.pos / 8;
        let shift = (self.pos % 8) as u32;
        let mut word = [0u8; 8];
        let end = (byte + 8).min(self.buf.len());
        if byte < self.buf.len() {
            word[..end - byte].copy_from_slice(&self.buf[byte..end]);
        }
        u64::from_le_bytes(word) >> shift
    }

    #[inline]
    fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.bit_capacity() {
            return None;
        }
        let bit = (self.buf[self.pos / 8] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    #[inline]
    fn read_bits(&mut self, n: u32) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        if self.pos + n as usize > self.bit_capacity() {
            return None;
        }
        let v = if n <= 57 {
            self.peek_word() & if n == 64 { u64::MAX } else { (1u64 << n) - 1 }
        } else {
            let lo = self.peek_word() & ((1u64 << 57) - 1);
            let mut tmp = RefBitReader {
                buf: self.buf,
                pos: self.pos + 57,
            };
            let hi = tmp.read_bits(n - 57)?;
            lo | (hi << 57)
        };
        self.pos += n as usize;
        Some(v)
    }

    #[inline]
    fn peek_bits_lossy(&self, n: u32) -> u64 {
        self.peek_word() & ((1u64 << n) - 1)
    }

    #[inline]
    fn skip_bits(&mut self, n: u32) {
        self.pos = (self.pos + n as usize).min(self.bit_capacity());
    }

    #[inline]
    fn remaining_bits(&self) -> usize {
        self.bit_capacity() - self.pos
    }
}

#[inline]
fn bitrev(v: u64, len: u8) -> u64 {
    v.reverse_bits() >> (64 - len as u32)
}

/// Checked fixed-width slice-to-array conversion: corrupt-stream error
/// instead of a panic when the slice is not exactly `N` bytes.
#[inline]
fn fixed<const N: usize>(bytes: &[u8], what: &str) -> Result<[u8; N], CompressError> {
    bytes
        .try_into()
        .map_err(|_| CompressError::CorruptStream(format!("truncated {what}")))
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let bytes = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| CompressError::CorruptStream("truncated u64".into()))?;
    *pos += 8;
    Ok(u64::from_le_bytes(fixed(bytes, "u64")?))
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, CompressError> {
    let bytes = buf
        .get(*pos..*pos + 4)
        .ok_or_else(|| CompressError::CorruptStream("truncated u32".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes(fixed(bytes, "u32")?))
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u32, CompressError> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| CompressError::CorruptStream("truncated varint".into()))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 35 {
            return Err(CompressError::CorruptStream("varint overflow".into()));
        }
    }
}

fn canonical_codes(lengths: &[(u32, u8)]) -> HashMap<u32, (u64, u8)> {
    let mut codes = HashMap::with_capacity(lengths.len());
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &(sym, len) in lengths {
        code <<= len - prev_len;
        codes.insert(sym, (code, len));
        code += 1;
        prev_len = len;
    }
    codes
}

fn rle_expand(
    transformed: &[u32],
    runs: &[u32],
    n_original: usize,
) -> Result<Vec<u32>, CompressError> {
    let mut out = Vec::with_capacity(safe_capacity(n_original, transformed.len() * 4));
    let mut run_it = runs.iter();
    for &s in transformed {
        if s == RUN_MARKER {
            let &count = run_it.next().ok_or_else(|| {
                CompressError::CorruptStream("run marker without a run length".into())
            })?;
            let &prev = out
                .last()
                .ok_or_else(|| CompressError::CorruptStream("run marker at stream start".into()))?;
            out.extend(std::iter::repeat_n(prev, count as usize));
        } else {
            out.push(s);
        }
        if out.len() > n_original {
            return Err(CompressError::CorruptStream(
                "expanded stream longer than declared".into(),
            ));
        }
    }
    if out.len() != n_original {
        return Err(CompressError::CorruptStream(format!(
            "expanded to {} symbols, expected {n_original}",
            out.len()
        )));
    }
    Ok(out)
}

/// Seed-path Huffman decode: fresh table/`HashMap` per call, one table
/// probe per symbol.
pub fn huffman_decode(stream: &[u8]) -> Result<(Vec<u32>, usize), CompressError> {
    let mut pos = 0usize;
    let n_original = read_u64(stream, &mut pos)? as usize;
    let rle_used = *stream
        .get(pos)
        .ok_or_else(|| CompressError::CorruptStream("truncated rle flag".into()))?
        != 0;
    pos += 1;
    let n_runs = read_u32(stream, &mut pos)? as usize;
    let mut runs = Vec::with_capacity(safe_capacity(n_runs, stream.len()));
    for _ in 0..n_runs {
        runs.push(read_varint(stream, &mut pos)?);
    }
    let n_symbols = read_u64(stream, &mut pos)? as usize;
    let n_distinct = read_u32(stream, &mut pos)? as usize;
    if n_symbols == 0 {
        if n_original != 0 {
            return Err(CompressError::CorruptStream(
                "empty payload for nonempty stream".into(),
            ));
        }
        return Ok((Vec::new(), pos));
    }
    if n_distinct == 0 {
        return Err(CompressError::CorruptStream(
            "nonempty payload with empty alphabet".into(),
        ));
    }
    let mut lengths = Vec::with_capacity(safe_capacity(n_distinct, stream.len()));
    for _ in 0..n_distinct {
        let sym = read_u32(stream, &mut pos)?;
        let len = *stream
            .get(pos)
            .ok_or_else(|| CompressError::CorruptStream("truncated code table".into()))?;
        pos += 1;
        if len == 0 || len > 64 {
            return Err(CompressError::CorruptStream(format!(
                "invalid code length {len}"
            )));
        }
        if let Some(&(_, prev)) = lengths.last() {
            if len < prev {
                return Err(CompressError::CorruptStream(
                    "code table not in canonical order".into(),
                ));
            }
        }
        lengths.push((sym, len));
    }
    {
        let max_len = lengths.last().map(|&(_, l)| l).unwrap_or(1) as u32;
        let mut kraft: u128 = 0;
        for &(_, len) in &lengths {
            kraft += 1u128 << (max_len - len as u32);
        }
        if kraft > (1u128 << max_len) {
            return Err(CompressError::CorruptStream(
                "code table violates the Kraft inequality".into(),
            ));
        }
    }
    let codes = canonical_codes(&lengths);

    let mut table = vec![(0u32, 0u8); 1 << PEEK];
    let mut max_len = 1u8;
    for &(_, len) in &lengths {
        max_len = max_len.max(len);
    }
    let mut first_code = vec![0u64; max_len as usize + 1];
    let mut count = vec![0u32; max_len as usize + 1];
    let mut offset = vec![0u32; max_len as usize + 1];
    {
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for (i, &(_, len)) in lengths.iter().enumerate() {
            code <<= len - prev_len;
            if count[len as usize] == 0 {
                first_code[len as usize] = code;
                offset[len as usize] = i as u32;
            }
            count[len as usize] += 1;
            code += 1;
            prev_len = len;
        }
    }
    let canonical_syms: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
    for (&sym, &(code, len)) in &codes {
        if (len as u32) <= PEEK {
            let base = bitrev(code, len) as usize;
            let step = 1usize << len;
            let mut idx = base;
            while idx < (1 << PEEK) {
                table[idx] = (sym, len);
                idx += step;
            }
        }
    }

    let payload_len = read_u64(stream, &mut pos)? as usize;
    let payload = stream
        .get(pos..pos + payload_len)
        .ok_or_else(|| CompressError::CorruptStream("truncated payload".into()))?;
    let consumed = pos + payload_len;

    let mut r = RefBitReader::new(payload);
    let mut out = Vec::with_capacity(safe_capacity(n_symbols, payload.len()));
    while out.len() < n_symbols {
        let peek = r.peek_bits_lossy(PEEK) as usize;
        let (sym, len) = table[peek];
        if len > 0 && (len as usize) <= r.remaining_bits() {
            r.skip_bits(len as u32);
            out.push(sym);
            continue;
        }
        let mut code = 0u64;
        let mut clen = 0usize;
        let sym = loop {
            let bit = r
                .read_bit()
                .ok_or_else(|| CompressError::CorruptStream("payload ended early".into()))?;
            code = (code << 1) | bit as u64;
            clen += 1;
            if clen > max_len as usize {
                return Err(CompressError::CorruptStream(
                    "no symbol matches the read prefix".into(),
                ));
            }
            let c = count[clen] as u64;
            if c > 0 && code >= first_code[clen] && code < first_code[clen] + c {
                let idx = offset[clen] as u64 + (code - first_code[clen]);
                break canonical_syms[idx as usize];
            }
        };
        out.push(sym);
    }
    let expanded = if rle_used {
        rle_expand(&out, &runs, n_original)?
    } else {
        if out.len() != n_original {
            return Err(CompressError::CorruptStream(format!(
                "decoded {} symbols, expected {n_original}",
                out.len()
            )));
        }
        out
    };
    Ok((expanded, consumed))
}

/// Seed-path SZ decompression: two-pass (Huffman, then predict) with a
/// growing reconstruction `Vec`.
pub fn sz_decompress(stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    if stream.len() < 16 {
        return Err(CompressError::CorruptStream("header too short".into()));
    }
    let n = u64::from_le_bytes(fixed(&stream[0..8], "length header")?) as usize;
    let eb = f64::from_le_bytes(fixed(&stream[8..16], "bound header")?);
    let (symbols, consumed) = huffman_decode(&stream[16..])?;
    if symbols.len() != n {
        return Err(CompressError::CorruptStream(format!(
            "expected {n} symbols, decoded {}",
            symbols.len()
        )));
    }
    let mut pos = 16 + consumed;
    let mut recon: Vec<f32> = Vec::with_capacity(safe_capacity(n, stream.len()));
    for (i, &sym) in symbols.iter().enumerate() {
        if sym == ESCAPE {
            let bytes = stream
                .get(pos..pos + 4)
                .ok_or_else(|| CompressError::CorruptStream("truncated outlier table".into()))?;
            pos += 4;
            recon.push(f32::from_le_bytes(fixed(bytes, "outlier")?));
        } else {
            let code = sym as i64 - MAX_CODE - 1;
            let pred = match i {
                0 => 0.0,
                1 => recon[0] as f64,
                _ => 2.0 * recon[i - 1] as f64 - recon[i - 2] as f64,
            };
            recon.push((pred + 2.0 * eb * code as f64) as f32);
        }
    }
    Ok(recon)
}

fn haar_inv(l: i64, h: i64) -> (i64, i64) {
    let a = l.wrapping_add(h.wrapping_add(1) >> 1);
    (a, a.wrapping_sub(h))
}

fn inv_transform(p: &mut [i64; 4]) {
    let [ll, lh, h0, h1] = *p;
    let (l0, l1) = haar_inv(ll, lh);
    let (a, b) = haar_inv(l0, h0);
    let (c, d) = haar_inv(l1, h1);
    *p = [a, b, c, d];
}

fn decode_block(r: &mut RefBitReader<'_>) -> Result<[f32; 4], CompressError> {
    let flag = r
        .read_bit()
        .ok_or_else(|| CompressError::CorruptStream("missing block flag".into()))?;
    if flag {
        let verbatim = r
            .read_bit()
            .ok_or_else(|| CompressError::CorruptStream("missing escape flag".into()))?;
        if !verbatim {
            return Ok([0.0; 4]);
        }
        let mut out = [0.0f32; 4];
        for o in &mut out {
            let bits = r
                .read_bits(32)
                .ok_or_else(|| CompressError::CorruptStream("truncated verbatim block".into()))?;
            *o = f32::from_bits(bits as u32);
        }
        return Ok(out);
    }
    let emax =
        r.read_bits(10)
            .ok_or_else(|| CompressError::CorruptStream("truncated emax".into()))? as i32
            - 256;
    let cut = r
        .read_bits(6)
        .ok_or_else(|| CompressError::CorruptStream("truncated cut".into()))? as u32;
    let width =
        r.read_bits(6)
            .ok_or_else(|| CompressError::CorruptStream("truncated width".into()))? as u32;
    let mut ints = [0i64; 4];
    for v in &mut ints {
        let neg = r
            .read_bit()
            .ok_or_else(|| CompressError::CorruptStream("truncated sign".into()))?;
        let mag = r
            .read_bits(width)
            .ok_or_else(|| CompressError::CorruptStream("truncated magnitude".into()))?
            as i64;
        let mut val = mag.wrapping_shl(cut);
        if cut > 0 && mag != 0 {
            val = val.wrapping_add(1i64.wrapping_shl(cut - 1));
        }
        *v = if neg { val.wrapping_neg() } else { val };
    }
    inv_transform(&mut ints);
    let scale = 2f64.powi(emax - (PRECISION - 2));
    Ok(std::array::from_fn(|i| (ints[i] as f64 * scale) as f32))
}

/// Seed-path ZFP decompression: per-block checked reads through the
/// byte-copy reader, `extend_from_slice` into the output.
pub fn zfp_decompress(stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    if stream.len() < 8 {
        return Err(CompressError::CorruptStream("header too short".into()));
    }
    let n = u64::from_le_bytes(fixed(&stream[0..8], "length header")?) as usize;
    let mut r = RefBitReader::new(&stream[8..]);
    let mut out = Vec::with_capacity(safe_capacity(n, stream.len()));
    while out.len() < n {
        let take = (n - out.len()).min(4);
        let block = decode_block(&mut r)?;
        out.extend_from_slice(&block[..take]);
    }
    Ok(out)
}

const COARSEST_LEN: usize = 3;
const MAX_LEVELS: usize = 24;

fn level_lengths(n: usize) -> Vec<usize> {
    let mut lens = vec![n];
    let mut cur = n;
    while cur > COARSEST_LEN && lens.len() < MAX_LEVELS {
        cur = cur.div_ceil(2);
        lens.push(cur);
    }
    lens
}

#[inline]
fn interpolate(recon: &[f32], i: usize, len: usize) -> f32 {
    if i + 1 < len {
        0.5 * (recon[i - 1] + recon[i + 1])
    } else {
        recon[i - 1]
    }
}

/// Seed-path MGARD decompression: fresh per-level reconstruction `Vec`s.
pub fn mgard_decompress(stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    if stream.len() < 20 {
        return Err(CompressError::CorruptStream("header too short".into()));
    }
    let n = u64::from_le_bytes(fixed(&stream[0..8], "length header")?) as usize;
    let eb = f64::from_le_bytes(fixed(&stream[8..16], "bound header")?);
    let coarse_len = u32::from_le_bytes(fixed(&stream[16..20], "coarse header")?) as usize;
    let lens = level_lengths(n);
    // `level_lengths` always returns at least one level (it starts from
    // `vec![n]`), so the fallback never fires.
    if coarse_len != lens.last().copied().unwrap_or(n) {
        return Err(CompressError::CorruptStream(format!(
            "coarse length {coarse_len} inconsistent with n={n}"
        )));
    }
    let mut pos = 20usize;
    let mut coarse = Vec::with_capacity(safe_capacity(coarse_len, stream.len()));
    for _ in 0..coarse_len {
        let bytes = stream
            .get(pos..pos + 4)
            .ok_or_else(|| CompressError::CorruptStream("truncated coarse level".into()))?;
        pos += 4;
        coarse.push(f32::from_le_bytes(fixed(bytes, "coarse level")?));
    }
    let (symbols, consumed) = huffman_decode(&stream[pos..])?;
    pos += consumed;

    let expected_symbols: usize = lens
        .iter()
        .take(lens.len().saturating_sub(1))
        .map(|&len| len / 2)
        .sum();
    if symbols.len() != expected_symbols {
        return Err(CompressError::CorruptStream(format!(
            "expected {expected_symbols} coefficients, decoded {}",
            symbols.len()
        )));
    }

    let mut sym_iter = symbols.into_iter();
    let mut recon_coarse = coarse;
    for k in (0..lens.len().saturating_sub(1)).rev() {
        let len = lens[k];
        let mut recon = vec![0.0f32; len];
        for (j, &v) in recon_coarse.iter().enumerate() {
            recon[2 * j] = v;
        }
        for i in (1..len).step_by(2) {
            let sym = sym_iter.next().ok_or_else(|| {
                CompressError::CorruptStream("coefficient stream exhausted".into())
            })?;
            if sym == ESCAPE {
                let bytes = stream.get(pos..pos + 4).ok_or_else(|| {
                    CompressError::CorruptStream("truncated outlier table".into())
                })?;
                pos += 4;
                recon[i] = f32::from_le_bytes(fixed(bytes, "outlier")?);
            } else {
                let code = sym as i64 - MAX_CODE - 1;
                let pred = interpolate(&recon, i, len);
                recon[i] = (pred as f64 + 2.0 * eb * code as f64) as f32;
            }
        }
        recon_coarse = recon;
    }
    Ok(recon_coarse)
}

/// Seed-layout (v1) SZ writer: `[n u64][eb f64][Huffman block][outlier
/// f32 table]`, one predictor chain over the whole payload.
pub fn sz_compress(data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
    check_tolerance(bound.tolerance)?;
    let eb = bound.pointwise_budget(data);
    let mut symbols = Vec::with_capacity(data.len());
    let mut outliers = Vec::new();
    SzCompressor::quantize_segment(data, eb, &mut symbols, &mut outliers);
    let mut out = Vec::new();
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&eb.to_le_bytes());
    huffman::encode_into(&symbols, &mut out);
    format::write_f32_table(&mut out, &outliers);
    Ok(out)
}

/// Seed-layout (v1) ZFP writer: `[n u64]` then every 4-value block in one
/// bit stream.
pub fn zfp_compress(data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
    check_tolerance(bound.tolerance)?;
    if bound.mode.is_l2() {
        return Err(CompressError::UnsupportedBound {
            backend: "zfp",
            reason: "ZFP supports pointwise (L-infinity) tolerances only".into(),
        });
    }
    let budget = bound.pointwise_budget(data);
    let mut w = BitWriter::new();
    for chunk in data.chunks(4) {
        zfp::encode_block(chunk, budget, &mut w);
    }
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Writes the layout [`decompress`] reads for a backend by
/// [`Compressor::name`]: the v1 writers above for `"sz"`/`"zfp"`, and
/// [`MgardCompressor`]'s own (only) layout for `"mgard"`.
pub fn compress(backend: &str, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
    match backend {
        "sz" => sz_compress(data, bound),
        "zfp" => zfp_compress(data, bound),
        "mgard" => MgardCompressor.compress(data, bound),
        other => Err(CompressError::CorruptStream(format!(
            "no reference writer for backend {other:?}"
        ))),
    }
}

/// Dispatches to the seed-path decoder for a backend by [`Compressor::name`]
/// (`"sz"`, `"zfp"`, `"mgard"`).
pub fn decompress(backend: &str, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    match backend {
        "sz" => sz_decompress(stream),
        "zfp" => zfp_decompress(stream),
        "mgard" => mgard_decompress(stream),
        other => Err(CompressError::CorruptStream(format!(
            "no reference decoder for backend {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::rng::StdRng;

    fn smooth_field(n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                (t * 11.0).sin() * 2.0 + 0.3 * (t * 47.0).cos() + 0.01 * rng.gen_range(-1.0f32..1.0)
            })
            .collect()
    }

    #[test]
    fn huffman_parity_with_optimized_decoder() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for _ in 0..32 {
            let n = rng.gen_range(0usize..4000);
            let alphabet = rng.gen_range(1u32..300);
            let mut symbols: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
            // Splice in some runs so the RLE path is exercised.
            if n > 200 {
                let v = rng.gen_range(0..alphabet);
                symbols[10..150].fill(v);
            }
            let enc = huffman::encode(&symbols);
            let seed = huffman_decode(&enc).expect("seed decode");
            let fast = huffman::decode(&enc).expect("optimized decode");
            assert_eq!(seed, fast);
        }
    }

    /// MGARD has one layout, so its optimized decoder must reproduce the
    /// seed decoder on the very same stream.  SZ/ZFP v2 parity against the
    /// v1 writers lives in `tests/v2_format.rs`.
    #[test]
    fn mgard_parity_with_seed_decoder() {
        let data = smooth_field(10_000);
        let stream = compress("mgard", &data, &ErrorBound::rel_linf(1e-4)).unwrap();
        let seed = decompress("mgard", &stream).unwrap();
        let fast = MgardCompressor::new().decompress(&stream).unwrap();
        assert!(seed
            .iter()
            .zip(&fast)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(seed.len(), fast.len());
    }

    #[test]
    fn unknown_backend_rejected() {
        assert!(decompress("nope", &[0u8; 32]).is_err());
    }
}

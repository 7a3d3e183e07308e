//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ- and MGARD-class compressors turn most values into small quantization
//! codes with a highly skewed distribution; entropy coding those codes is
//! where their compression ratio comes from.  This is a self-contained
//! canonical Huffman coder: the stream stores `(symbol, code length)` pairs
//! and the payload; canonical code assignment makes decode tables cheap to
//! rebuild.
//!
//! Decoding is table-driven and **register-batched**: the decoder loads a
//! 57-bit window of the payload into a 64-bit register once, then decodes
//! as many symbols as fit (typically 4–10 for skewed alphabets) with one
//! table lookup + shift each before refilling.  A `2^13`-entry prefix table
//! resolves every code of ≤ 13 bits in one lookup (the common case by
//! construction of Huffman codes over skewed distributions); longer codes
//! fall back to a bit-by-bit canonical walk.  This path dominates
//! decompression throughput for the SZ/MGARD backends, which is what the
//! paper's I/O figures measure.
//!
//! Both directions carry reusable scratch state ([`DecodeScratch`],
//! [`EncodeScratch`]) so steady-state coding performs no per-call
//! `HashMap`/table allocations; the plain [`encode`]/[`decode`] entry
//! points reuse a thread-local scratch transparently.  The byte format is
//! identical to the pre-optimization coder (checked by the parity tests in
//! [`crate::reference`]).
//!
//! ## Multi-stream (v2) coding
//!
//! Serial Huffman decode is latency-bound: every symbol's table lookup
//! depends on the previous symbol's length, so one dependency chain caps
//! throughput regardless of ILP or SIMD width.  The multi-stream entry
//! points ([`encode_multi`], [`decode_multi_into`]) break that chain by
//! splitting the input into [`crate::format::V2_STREAMS`] contiguous
//! segments that share one code table but carry **independent payloads**:
//! the decoder runs one chain per sub-stream, four of them interleaved in
//! one loop so the out-of-order core overlaps their latencies.  Runs are
//! collapsed per segment, so a run never straddles a sub-stream boundary.
//! This block format is the entropy layer of the v2 container streams
//! written by [`crate::SzCompressor`].

use crate::bitstream::{load_word, BitWriter};
use crate::traits::{read_len_u32, read_len_u64, read_u8, CompressError};
use std::cell::RefCell;
use std::collections::HashMap;

/// Width of the fast decode table (bits).
pub const PEEK: u32 = 13;

/// Marker symbol standing for "a run follows" after RLE.
pub const RUN_MARKER: u32 = u32::MAX;

/// Minimum repeat length worth collapsing into a run.  Below this, plain
/// Huffman (≈1 bit/symbol for the dominant code) beats the marker + varint
/// overhead of a run token.
pub const MIN_RUN: usize = 48;

/// Alphabets whose non-marker symbols all fit below this bound use dense
/// array frequency counting and code lookup instead of `HashMap`s.  The
/// SZ/MGARD quantization codes (≤ 2·`MAX_CODE`+1 = 65 535) always qualify.
const DENSE_SYMS: usize = 1 << 17;

/// Payloads shorter than this skip building the `2^PEEK`-entry fast table
/// (a ~512 KiB fill) and decode every symbol through the canonical walk —
/// cheaper for the small per-request payloads the serve path sees.
const TABLE_MIN_SYMBOLS: usize = 512;

/// Reverses the low `len` bits of `v`.
#[inline]
fn bitrev(v: u64, len: u8) -> u64 {
    v.reverse_bits() >> (64 - len as u32)
}

/// Reusable decoder state: the prefix table, canonical decode arrays, and
/// the intermediate symbol buffer for RLE expansion.  Obtain one via
/// `Default` (or as part of [`crate::CodecScratch`]) and pass it to
/// [`decode_into`]; buffers grow to the high-water mark and stay there.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// `2^PEEK` entries of `(symbol, code length)`; length 0 = slow path.
    table: Vec<(u32, u8)>,
    /// `2^PEEK` packed entries `len << 32 | sym` for the multi-stream
    /// decoder (one `u64` load yields both fields); length 0 = slow path.
    /// Only one of `table` / `table64` is filled per decode, depending on
    /// the entry point.
    table64: Vec<u64>,
    /// Parsed `(symbol, length)` pairs in canonical order.
    lengths: Vec<(u32, u8)>,
    /// Per-length first canonical code.
    first_code: Vec<u64>,
    /// Per-length code count.
    count: Vec<u32>,
    /// Per-length offset of the first symbol in canonical order.
    offset: Vec<u32>,
    /// Symbols in canonical order (parallel to `lengths`).
    syms: Vec<u32>,
    /// Decoded pre-RLE-expansion symbol stream.
    transformed: Vec<u32>,
    /// Parsed run lengths.
    runs: Vec<u32>,
}

/// Reusable encoder state: frequency table, code lookup, RLE buffers, and
/// the payload bit writer.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Dense symbol frequency counts (dense alphabets only).
    freq: Vec<u64>,
    /// Dense symbol → (bit-reversed code, length) lookup.
    lut: Vec<(u64, u8)>,
    /// RLE-collapsed symbol stream.
    transformed: Vec<u32>,
    /// Collected run lengths.
    runs: Vec<u32>,
    /// Payload writer (buffer reused across calls).
    writer: BitWriter,
    /// Per-sub-stream payload staging for the multi-stream encoder.
    payload_buf: Vec<u8>,
}

thread_local! {
    static ENC_SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::default());
    static DEC_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

/// Encodes a symbol sequence; returns a self-describing byte stream.
///
/// Runs of ≥ [`MIN_RUN`] identical symbols are collapsed to a
/// `(symbol, RUN_MARKER)` pair plus an out-of-band run length, so smooth
/// data — where the quantizer emits the same code for long stretches —
/// decodes at memory speed instead of per-symbol entropy-decode speed.
/// (This is the behaviour that makes real SZ's decompression fast at loose
/// tolerances, the Fig. 7 regime.)  RLE is skipped entirely if the input
/// ever uses the marker value itself.
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(symbols, &mut out);
    out
}

/// [`encode`] appending to an existing buffer, reusing a thread-local
/// [`EncodeScratch`] so steady-state encoding allocates nothing but the
/// output bytes.
pub fn encode_into(symbols: &[u32], out: &mut Vec<u8>) {
    ENC_SCRATCH.with(|s| encode_with(symbols, out, &mut s.borrow_mut()));
}

/// [`encode_into`] with caller-owned scratch state.
pub fn encode_with(symbols: &[u32], out: &mut Vec<u8>, s: &mut EncodeScratch) {
    // Every encode path (`encode`, `encode_into`) funnels through here, so
    // one span covers them all.
    let _span = errflow_obs::trace::span("codec.huffman.encode");
    out.extend_from_slice(&(symbols.len() as u64).to_le_bytes());

    s.transformed.clear();
    s.runs.clear();
    // Single fused pass: run detection doubles as the marker scan, so the
    // input is read once instead of twice (`contains` + collapse).
    let rle_ok = rle_collapse_checked(symbols, &mut s.transformed, &mut s.runs);
    let transformed: &[u32] = if rle_ok { &s.transformed } else { symbols };
    out.push(rle_ok as u8);
    out.extend_from_slice(&(s.runs.len() as u32).to_le_bytes());
    for &r in &s.runs {
        write_varint(out, r);
    }

    out.extend_from_slice(&(transformed.len() as u64).to_le_bytes());
    if transformed.is_empty() {
        out.extend_from_slice(&0u32.to_le_bytes());
        return;
    }

    let lengths = code_lengths(transformed, &mut s.freq);

    // Header: number of distinct symbols, then (symbol, length) pairs in
    // canonical order.
    out.extend_from_slice(&(lengths.len() as u32).to_le_bytes());
    for &(sym, len) in &lengths {
        out.extend_from_slice(&sym.to_le_bytes());
        out.push(len);
    }

    let (dense, marker_code, map) = build_encode_lut(&lengths, &mut s.lut);
    let w = &mut s.writer;
    w.reset();
    write_payload_symbols(w, transformed, dense, &s.lut, marker_code, &map);
    let payload_len = w.bit_len().div_ceil(8);
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    w.append_bytes_to(out);
}

/// Builds the symbol → (bit-reversed code, length) lookup shared by the
/// single- and multi-stream encoders.  The writer emits LSB-first, so
/// storing the bit-reversed canonical code produces the MSB-first stream
/// order decoding needs.  Dense array lookup for small alphabets (with the
/// `RUN_MARKER` code held out-of-band), `HashMap` fallback otherwise.
fn build_encode_lut(
    lengths: &[(u32, u8)],
    lut: &mut Vec<(u64, u8)>,
) -> (bool, (u64, u8), HashMap<u32, (u64, u8)>) {
    let max_sym = lengths
        .iter()
        .filter(|&&(sym, _)| sym != RUN_MARKER)
        .map(|&(sym, _)| sym)
        .max()
        .unwrap_or(0) as usize;
    let dense = max_sym < DENSE_SYMS;
    let mut marker_code = (0u64, 0u8);
    let mut map: HashMap<u32, (u64, u8)> = HashMap::new();
    if dense {
        // Grow-only: entries left over from a previous block are never
        // read, because every symbol the payload loop looks up appears in
        // this block's `lengths` and is overwritten below.
        if lut.len() <= max_sym {
            lut.resize(max_sym + 1, (0, 0));
        }
    } else {
        map.reserve(lengths.len());
    }
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &(sym, len) in lengths {
        code = code.wrapping_shl((len - prev_len) as u32);
        let rev = (bitrev(code, len), len);
        if dense {
            if sym == RUN_MARKER {
                marker_code = rev;
            } else {
                lut[sym as usize] = rev;
            }
        } else {
            map.insert(sym, rev);
        }
        code += 1;
        prev_len = len;
    }
    (dense, marker_code, map)
}

/// Writes one payload's worth of symbols through the lookup built by
/// [`build_encode_lut`].
fn write_payload_symbols(
    w: &mut BitWriter,
    symbols: &[u32],
    dense: bool,
    lut: &[(u64, u8)],
    marker_code: (u64, u8),
    map: &HashMap<u32, (u64, u8)>,
) {
    if dense {
        for &sym in symbols {
            let (rev, len) = if sym == RUN_MARKER {
                marker_code
            } else {
                lut[sym as usize]
            };
            w.write_bits(rev, len as u32);
        }
    } else {
        for sym in symbols {
            // audit:allow(panic-reach) encode-side invariant: `map` was built
            // from the histogram of this very slice, so every symbol has a
            // code; a miss is a bug, not an input condition.
            let &(rev, len) = map.get(sym).expect("symbol has a code");
            w.write_bits(rev, len as u32);
        }
    }
}

/// Flag-byte value marking a raw fixed-width (16-bit) symbol payload in
/// the multi-stream block: no code table, no RLE, symbols stored as `u16`
/// little-endian.  Values `0`/`1` remain the Huffman payload's RLE flag.
pub const FLAG_RAW16: u8 = 2;

/// Estimated size in bytes of the Huffman-coded block for a collapsed
/// symbol stream with histogram `sorted`, table included.  Uses integer
/// `ilog2` in place of the tree build, so the raw-vs-Huffman decision
/// costs one pass over the *distinct* symbols, not a tree construction.
/// `log2(n/f)` rounded against raw16 (over-estimating code lengths), so
/// borderline distributions keep the exact Huffman path.
fn estimated_huffman_bytes(sorted: &[(u32, u64)], n_sym: u64) -> usize {
    let log2n = u64::BITS - n_sym.max(1).leading_zeros(); // ceil-ish log2
    let mut bits = 0u64;
    for &(_, f) in sorted {
        let len = (log2n - (u64::BITS - 1 - f.max(1).leading_zeros())).max(1);
        bits += f * u64::from(len);
    }
    4 + 5 * sorted.len() + (bits / 8) as usize
}

/// Whether the multi-stream encoder should store this block as raw 16-bit
/// symbols instead of Huffman codes.  Eligible only when the input itself
/// is marker-free (`rle_ok`) and every symbol fits `u16`; chosen when the
/// estimated Huffman block (codes + table + run varints) is no smaller
/// than the fixed-width payload — the incompressible regime tight error
/// bounds push the quantizer into, where the tree build and bit-packing
/// are pure overhead.
fn choose_raw16(rle_ok: bool, sorted: &[(u32, u64)], n_original: usize, n_runs: usize) -> bool {
    if !rle_ok || n_original == 0 {
        return false;
    }
    let max_sym = sorted
        .iter()
        .rev()
        .find(|&&(sym, _)| sym != RUN_MARKER)
        .map(|&(sym, _)| sym);
    let Some(max_sym) = max_sym else {
        return false;
    };
    if max_sym > u32::from(u16::MAX) {
        return false;
    }
    let n_sym: u64 = sorted.iter().map(|&(_, f)| f).sum();
    2 * n_original < estimated_huffman_bytes(sorted, n_sym) + 2 * n_runs
}

/// Multi-stream variant of [`encode`]: `segments` are encoded against one
/// shared code table but into independent payloads, one per segment, so
/// they can be decoded as parallel lanes.  See the module docs.
pub fn encode_multi(segments: &[&[u32]]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_multi_into(segments, &mut out);
    out
}

/// [`encode_multi`] appending to an existing buffer via the thread-local
/// [`EncodeScratch`].
pub fn encode_multi_into(segments: &[&[u32]], out: &mut Vec<u8>) {
    ENC_SCRATCH.with(|s| encode_multi_with(segments, out, &mut s.borrow_mut()));
}

/// [`encode_multi_into`] with caller-owned scratch state.
///
/// Block layout (all integers little-endian):
///
/// ```text
/// n_original u64 | n_streams u8 | flag u8
/// per stream: n_original_s u64 | n_runs_s u32 | runs varint* | n_symbols_s u64
/// n_distinct u32 | (symbol u32, len u8)*          — shared code table
/// per stream: payload_len_s u64
/// concatenated payloads
/// ```
///
/// `flag` is `0`/`1` (Huffman payload, RLE off/on) or [`FLAG_RAW16`]:
/// raw payloads store the original symbols as fixed-width `u16`
/// little-endian with no runs and **no code-table section** (the
/// `n_distinct` field and table are absent; payload lengths follow the
/// per-stream headers directly).  The encoder picks raw16 when the
/// histogram says Huffman cannot beat 16 bits/symbol — the incompressible
/// regime where entropy coding is pure overhead in both directions.
///
/// RLE runs are collapsed **per segment**, so a run marker never leads a
/// sub-stream and expansion needs no cross-lane state.
pub fn encode_multi_with(segments: &[&[u32]], out: &mut Vec<u8>, s: &mut EncodeScratch) {
    let _span = errflow_obs::trace::span("codec.huffman.encode_multi");
    debug_assert!(
        !segments.is_empty() && segments.len() <= crate::format::MAX_STREAMS,
        "segment count {} outside 1..={}",
        segments.len(),
        crate::format::MAX_STREAMS
    );
    let n_original: usize = segments.iter().map(|seg| seg.len()).sum();
    out.extend_from_slice(&(n_original as u64).to_le_bytes());
    out.push(segments.len() as u8);

    s.transformed.clear();
    s.runs.clear();
    let mut t_bounds = Vec::with_capacity(segments.len() + 1);
    let mut r_bounds = Vec::with_capacity(segments.len() + 1);
    t_bounds.push(0usize);
    r_bounds.push(0usize);
    // Single fused pass per segment: run detection doubles as the marker
    // scan.  If any segment uses the marker symbol itself, the whole block
    // falls back to raw storage (rare — quantizer symbols never reach
    // `u32::MAX`), so the restart below re-reads the inputs only then.
    let mut rle_ok = true;
    for seg in segments {
        if !rle_collapse_checked(seg, &mut s.transformed, &mut s.runs) {
            rle_ok = false;
            break;
        }
        t_bounds.push(s.transformed.len());
        r_bounds.push(s.runs.len());
    }
    if !rle_ok {
        s.transformed.clear();
        s.runs.clear();
        t_bounds.truncate(1);
        r_bounds.truncate(1);
        for seg in segments {
            s.transformed.extend_from_slice(seg);
            t_bounds.push(s.transformed.len());
            r_bounds.push(s.runs.len());
        }
    }
    // Histogram once, then pick the payload mode: the same frequencies
    // feed either the raw16 decision (incompressible inputs skip the tree
    // build and bit-packing entirely) or the Huffman tree below.
    let sorted = if s.transformed.is_empty() {
        Vec::new()
    } else {
        frequencies(&s.transformed, &mut s.freq)
    };
    if choose_raw16(rle_ok, &sorted, n_original, s.runs.len()) {
        out.push(FLAG_RAW16);
        for seg in segments {
            out.extend_from_slice(&(seg.len() as u64).to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&(seg.len() as u64).to_le_bytes());
        }
        for seg in segments {
            out.extend_from_slice(&((seg.len() * 2) as u64).to_le_bytes());
        }
        for seg in segments {
            let start = out.len();
            out.resize(start + 2 * seg.len(), 0);
            for (dst, &sym) in out[start..].chunks_exact_mut(2).zip(*seg) {
                dst.copy_from_slice(&(sym as u16).to_le_bytes());
            }
        }
        return;
    }
    out.push(rle_ok as u8);
    for (i, seg) in segments.iter().enumerate() {
        out.extend_from_slice(&(seg.len() as u64).to_le_bytes());
        let seg_runs = &s.runs[r_bounds[i]..r_bounds[i + 1]];
        out.extend_from_slice(&(seg_runs.len() as u32).to_le_bytes());
        for &r in seg_runs {
            write_varint(out, r);
        }
        out.extend_from_slice(&((t_bounds[i + 1] - t_bounds[i]) as u64).to_le_bytes());
    }
    if s.transformed.is_empty() {
        out.extend_from_slice(&0u32.to_le_bytes());
        for _ in segments {
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        return;
    }

    let lengths = code_lengths_from_sorted(sorted);
    out.extend_from_slice(&(lengths.len() as u32).to_le_bytes());
    for &(sym, len) in &lengths {
        out.extend_from_slice(&sym.to_le_bytes());
        out.push(len);
    }

    let (dense, marker_code, map) = build_encode_lut(&lengths, &mut s.lut);
    s.payload_buf.clear();
    let mut payload_lens = Vec::with_capacity(segments.len());
    for i in 0..segments.len() {
        let w = &mut s.writer;
        w.reset();
        write_payload_symbols(
            w,
            &s.transformed[t_bounds[i]..t_bounds[i + 1]],
            dense,
            &s.lut,
            marker_code,
            &map,
        );
        let before = s.payload_buf.len();
        w.append_bytes_to(&mut s.payload_buf);
        payload_lens.push((s.payload_buf.len() - before) as u64);
    }
    for &l in &payload_lens {
        out.extend_from_slice(&l.to_le_bytes());
    }
    out.extend_from_slice(&s.payload_buf);
}

/// Collapses runs of ≥ [`MIN_RUN`] identical symbols into `transformed` /
/// `runs`.  A run of `s` with length `L` becomes `[s, RUN_MARKER]` plus an
/// out-of-band count `L − 1`.
///
/// The same pass doubles as the marker scan: if the input itself contains
/// [`RUN_MARKER`] the collapse is invalid, so everything this call appended
/// is rolled back and `false` is returned — the caller stores the symbols
/// raw.  Fusing the scan into run detection keeps encoding at one read of
/// the input instead of two.
fn rle_collapse_checked(symbols: &[u32], transformed: &mut Vec<u32>, runs: &mut Vec<u32>) -> bool {
    let t_start = transformed.len();
    let r_start = runs.len();
    transformed.reserve(symbols.len());
    let mut i = 0;
    while i < symbols.len() {
        let s = symbols[i];
        if s == RUN_MARKER {
            transformed.truncate(t_start);
            runs.truncate(r_start);
            return false;
        }
        let mut j = i + 1;
        while j < symbols.len() && symbols[j] == s && j - i < u32::MAX as usize {
            j += 1;
        }
        let len = j - i;
        if len >= MIN_RUN {
            transformed.push(s);
            transformed.push(RUN_MARKER);
            runs.push((len - 1) as u32);
        } else {
            transformed.extend(std::iter::repeat(s).take(len));
        }
        i = j;
    }
    true
}

/// Inverse of [`rle_collapse_checked`].  Appends to `out`; run expansion is a
/// single `Vec::resize` fill per run (memset speed for the dominant-symbol
/// stretches that make up smooth-field streams).
fn rle_expand_into(
    transformed: &[u32],
    runs: &[u32],
    n_original: usize,
    out: &mut Vec<u32>,
) -> Result<(), CompressError> {
    out.reserve(crate::traits::safe_capacity(
        n_original,
        transformed.len() * 4,
    ));
    rle_expand_segment(transformed, runs, n_original, out)
}

/// Segment-scoped RLE expansion: appends exactly `n_original` symbols onto
/// `out` (which may already hold earlier segments).  A run marker's
/// predecessor must lie **inside** this segment — the encoder collapses
/// runs per segment, so a marker leading a segment is corruption, and a
/// run can never replicate another sub-stream's data.
fn rle_expand_segment(
    transformed: &[u32],
    runs: &[u32],
    n_original: usize,
    out: &mut Vec<u32>,
) -> Result<(), CompressError> {
    let seg_start = out.len();
    let target = seg_start + n_original;
    let mut run_it = runs.iter();
    for &s in transformed {
        if s == RUN_MARKER {
            let &count = run_it.next().ok_or_else(|| {
                CompressError::CorruptStream("run marker without a run length".into())
            })?;
            if out.len() == seg_start {
                return Err(CompressError::CorruptStream(
                    "run marker at stream start".into(),
                ));
            }
            let prev = out[out.len() - 1];
            // Reject before materialising: a corrupt run length must not
            // drive a giant allocation just to fail the length check.
            if count as usize > target - out.len() {
                return Err(CompressError::CorruptStream(
                    "expanded stream longer than declared".into(),
                ));
            }
            out.resize(out.len() + count as usize, prev);
        } else {
            if out.len() >= target {
                return Err(CompressError::CorruptStream(
                    "expanded stream longer than declared".into(),
                ));
            }
            out.push(s);
        }
    }
    if out.len() != target {
        return Err(CompressError::CorruptStream(format!(
            "expanded to {} symbols, expected {n_original}",
            out.len() - seg_start
        )));
    }
    Ok(())
}

/// Decodes a stream produced by [`encode`].  Returns the symbols and the
/// number of bytes consumed from `stream`.
pub fn decode(stream: &[u8]) -> Result<(Vec<u32>, usize), CompressError> {
    DEC_SCRATCH.with(|s| {
        let mut out = Vec::new();
        let consumed = decode_into(stream, &mut out, &mut s.borrow_mut())?;
        Ok((out, consumed))
    })
}

/// [`decode`] into a caller-owned buffer with reusable scratch state.
/// `out` is cleared first; on success it holds the decoded symbols and the
/// return value is the number of bytes consumed from `stream`.
pub fn decode_into(
    stream: &[u8],
    out: &mut Vec<u32>,
    s: &mut DecodeScratch,
) -> Result<usize, CompressError> {
    let _span = errflow_obs::trace::span("codec.huffman.decode");
    out.clear();
    let mut pos = 0usize;
    let n_original = read_len_u64(stream, &mut pos, "n_original")?;
    let rle_used = read_u8(stream, &mut pos, "rle flag")? != 0;
    let n_runs = read_len_u32(stream, &mut pos, "n_runs")?;
    // Every run costs at least one varint byte: reject forged counts before
    // reserving anything.
    if n_runs > stream.len() - pos {
        return Err(CompressError::CorruptStream(
            "declared run count exceeds stream length".into(),
        ));
    }
    s.runs.clear();
    s.runs
        .reserve(crate::traits::safe_capacity(n_runs, stream.len()));
    for _ in 0..n_runs {
        s.runs.push(read_varint(stream, &mut pos)?);
    }
    let n_symbols = read_len_u64(stream, &mut pos, "n_symbols")?;
    let n_distinct = read_len_u32(stream, &mut pos, "n_distinct")?;
    if n_symbols == 0 {
        if n_original != 0 {
            return Err(CompressError::CorruptStream(
                "empty payload for nonempty stream".into(),
            ));
        }
        return Ok(pos);
    }
    if n_distinct == 0 {
        return Err(CompressError::CorruptStream(
            "nonempty payload with empty alphabet".into(),
        ));
    }
    // Transformed-length accounting: without RLE, the payload decodes to
    // exactly `n_original` symbols; with RLE, every transformed symbol
    // except run markers (at most one per run) emits at least one output
    // symbol.  Reject inconsistent headers before any table allocation.
    if !rle_used && n_symbols != n_original {
        return Err(CompressError::CorruptStream(
            "symbol count disagrees with declared output length".into(),
        ));
    }
    if rle_used && n_symbols > n_original.saturating_add(s.runs.len()) {
        return Err(CompressError::CorruptStream(
            "symbol count exceeds declared output length plus runs".into(),
        ));
    }
    let max_len = parse_code_table(stream, &mut pos, s, n_distinct)?;
    let with_table = n_symbols >= TABLE_MIN_SYMBOLS;
    build_canon_arrays(
        s,
        max_len,
        if with_table {
            FastTable::Pairs
        } else {
            FastTable::None
        },
    );

    let payload_len = read_len_u64(stream, &mut pos, "payload_len")?;
    // Overflow-proof bounds check: slice from `pos` first, then take
    // `payload_len` — `pos + payload_len` is never materialised.
    let payload = stream
        .get(pos..)
        .and_then(|rest| rest.get(..payload_len))
        .ok_or_else(|| CompressError::CorruptStream("truncated payload".into()))?;
    // Every decoded symbol consumes at least one payload bit.
    if n_symbols > payload_len.saturating_mul(8) {
        return Err(CompressError::CorruptStream(
            "declared symbol count exceeds payload bits".into(),
        ));
    }
    let consumed = pos + payload_len;

    let DecodeScratch {
        table,
        first_code,
        count,
        offset,
        syms,
        transformed,
        runs,
        ..
    } = s;
    let canon = CanonicalArrays {
        first_code,
        count,
        offset,
        syms,
        max_len,
    };
    if rle_used {
        transformed.clear();
        transformed.reserve(crate::traits::safe_capacity(n_symbols, payload.len()));
        decode_symbols(payload, n_symbols, with_table, table, &canon, transformed)?;
        rle_expand_into(transformed, runs, n_original, out)?;
    } else {
        out.reserve(crate::traits::safe_capacity(n_symbols, payload.len()));
        decode_symbols(payload, n_symbols, with_table, table, &canon, out)?;
        if out.len() != n_original {
            return Err(CompressError::CorruptStream(format!(
                "decoded {} symbols, expected {n_original}",
                out.len()
            )));
        }
    }
    Ok(consumed)
}

/// Parses and validates the `(symbol, length)` code-table section shared
/// by the single- and multi-stream decoders, leaving the canonical-order
/// pairs in `s.lengths`.  Returns the maximum code length.
fn parse_code_table(
    stream: &[u8],
    pos: &mut usize,
    s: &mut DecodeScratch,
    n_distinct: usize,
) -> Result<u8, CompressError> {
    // Each code-table entry is 5 bytes (u32 symbol + u8 length): a valid
    // `n_distinct` never exceeds what the remaining stream can hold.
    if n_distinct
        .checked_mul(5)
        .is_none_or(|bytes| bytes > stream.len() - *pos)
    {
        return Err(CompressError::CorruptStream(
            "declared code table exceeds stream length".into(),
        ));
    }
    s.lengths.clear();
    s.lengths
        .reserve(crate::traits::safe_capacity(n_distinct, stream.len()));
    for _ in 0..n_distinct {
        let sym = read_len_u32(stream, pos, "code table symbol")? as u32;
        let len = read_u8(stream, pos, "code table length")?;
        if len == 0 || len > 64 {
            return Err(CompressError::CorruptStream(format!(
                "invalid code length {len}"
            )));
        }
        if let Some(&(_, prev)) = s.lengths.last() {
            if len < prev {
                return Err(CompressError::CorruptStream(
                    "code table not in canonical order".into(),
                ));
            }
        }
        s.lengths.push((sym, len));
    }
    // Kraft check: Σ 2^(max−len) must not exceed 2^max, or the canonical
    // code assignment overflows (only possible with corrupt tables).
    let max_len = s.lengths.last().map(|&(_, l)| l).unwrap_or(1);
    let mut kraft: u128 = 0;
    for &(_, len) in &s.lengths {
        kraft += 1u128 << (max_len as u32 - len as u32);
    }
    if kraft > (1u128 << max_len as u32) {
        return Err(CompressError::CorruptStream(
            "code table violates the Kraft inequality".into(),
        ));
    }
    Ok(max_len)
}

/// Which fast prefix table [`build_canon_arrays`] should fill alongside
/// the canonical arrays.
enum FastTable {
    /// No fast table — every symbol takes the canonical walk (small
    /// payloads, where the `2^PEEK` fill would dominate).
    None,
    /// `(symbol, length)` pair entries — the single-stream decode layout.
    Pairs,
    /// Packed `len << 32 | sym` entries — the multi-stream layout, one
    /// `u64` load per lookup.
    Packed,
}

/// Builds the canonical decode arrays and the requested fast prefix table
/// in one pass over the canonical code assignment in `s.lengths`.
fn build_canon_arrays(s: &mut DecodeScratch, max_len: u8, fast: FastTable) {
    match fast {
        FastTable::None => {}
        FastTable::Pairs => {
            s.table.clear();
            s.table.resize(1 << PEEK, (0, 0));
        }
        FastTable::Packed => {
            s.table64.clear();
            s.table64.resize(1 << PEEK, 0);
        }
    }
    s.first_code.clear();
    s.first_code.resize(max_len as usize + 1, 0);
    s.count.clear();
    s.count.resize(max_len as usize + 1, 0);
    s.offset.clear();
    s.offset.resize(max_len as usize + 1, 0);
    s.syms.clear();
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for (i, &(sym, len)) in s.lengths.iter().enumerate() {
        // wrapping_shl: a Kraft-valid but corrupt table can open with a
        // 64-bit code; decode then yields garbage (rejected downstream)
        // instead of a shift panic.
        code = code.wrapping_shl((len - prev_len) as u32);
        if s.count[len as usize] == 0 {
            s.first_code[len as usize] = code;
            s.offset[len as usize] = i as u32;
        }
        s.count[len as usize] += 1;
        s.syms.push(sym);
        if (len as u32) <= PEEK {
            let base = bitrev(code, len) as usize;
            let step = 1usize << len;
            match fast {
                FastTable::None => {}
                FastTable::Pairs => {
                    let mut idx = base;
                    while idx < (1 << PEEK) {
                        s.table[idx] = (sym, len);
                        idx += step;
                    }
                }
                FastTable::Packed => {
                    let packed = ((len as u64) << 32) | sym as u64;
                    let mut idx = base;
                    while idx < (1 << PEEK) {
                        s.table64[idx] = packed;
                        idx += step;
                    }
                }
            }
        }
        // wrapping_add: a Kraft-*complete* table whose last code is the
        // all-ones 64-bit code makes this final increment wrap; the
        // value is never read again (the Kraft check rejects any table
        // that would assign a code past it).
        code = code.wrapping_add(1);
        prev_len = len;
    }
}

/// One parsed sub-stream of a multi-stream block.
struct SubStream {
    /// Declared post-expansion symbol count.
    n_original: usize,
    /// Declared pre-expansion (payload) symbol count.
    n_symbols: usize,
    /// This sub-stream's slice of the shared run-length buffer.
    runs: std::ops::Range<usize>,
    /// `(byte offset, byte length)` of this sub-stream's payload within
    /// the shared payload region.
    payload: (usize, usize),
}

/// Decodes a multi-stream block produced by [`encode_multi`].  Returns the
/// symbols and the number of bytes consumed.
pub fn decode_multi(stream: &[u8]) -> Result<(Vec<u32>, usize), CompressError> {
    DEC_SCRATCH.with(|s| {
        let mut out = Vec::new();
        let consumed = decode_multi_into(stream, &mut out, &mut s.borrow_mut())?;
        Ok((out, consumed))
    })
}

/// [`decode_multi`] into a caller-owned buffer with reusable scratch.
///
/// Validation mirrors [`decode_into`] per sub-stream, plus the cross-stream
/// invariants: per-stream output counts must sum to the declared total, and
/// per-stream payload lengths must all fit the remaining stream.  Decoding
/// then runs one lane per sub-stream, four-stream blocks through the
/// interleaved loop.
pub fn decode_multi_into(
    stream: &[u8],
    out: &mut Vec<u32>,
    s: &mut DecodeScratch,
) -> Result<usize, CompressError> {
    let _span = errflow_obs::trace::span("codec.huffman.decode_multi");
    out.clear();
    let mut pos = 0usize;
    let n_original = read_len_u64(stream, &mut pos, "n_original")?;
    let n_streams = read_u8(stream, &mut pos, "stream count")? as usize;
    if n_streams == 0 || n_streams > crate::format::MAX_STREAMS {
        return Err(CompressError::CorruptStream(format!(
            "sub-stream count {n_streams} outside 1..={}",
            crate::format::MAX_STREAMS
        )));
    }
    let flag = read_u8(stream, &mut pos, "payload flag")?;
    if flag > FLAG_RAW16 {
        return Err(CompressError::CorruptStream(format!(
            "unknown payload flag {flag}"
        )));
    }
    let raw16 = flag == FLAG_RAW16;
    let rle_used = flag == 1;
    s.runs.clear();
    let mut subs: Vec<SubStream> = Vec::with_capacity(n_streams);
    let mut sum_original = 0usize;
    let mut sum_symbols = 0usize;
    for _ in 0..n_streams {
        let n_orig_s = read_len_u64(stream, &mut pos, "sub-stream n_original")?;
        let n_runs = read_len_u32(stream, &mut pos, "sub-stream n_runs")?;
        // Every run costs at least one varint byte: reject forged counts
        // before reserving anything.
        if n_runs > stream.len() - pos {
            return Err(CompressError::CorruptStream(
                "declared run count exceeds stream length".into(),
            ));
        }
        let runs_start = s.runs.len();
        s.runs
            .reserve(crate::traits::safe_capacity(n_runs, stream.len()));
        for _ in 0..n_runs {
            s.runs.push(read_varint(stream, &mut pos)?);
        }
        let n_sym = read_len_u64(stream, &mut pos, "sub-stream n_symbols")?;
        if !rle_used && n_sym != n_orig_s {
            return Err(CompressError::CorruptStream(
                "symbol count disagrees with declared output length".into(),
            ));
        }
        if rle_used && n_sym > n_orig_s.saturating_add(n_runs) {
            return Err(CompressError::CorruptStream(
                "symbol count exceeds declared output length plus runs".into(),
            ));
        }
        sum_original = sum_original.checked_add(n_orig_s).ok_or_else(|| {
            CompressError::CorruptStream("sub-stream output lengths overflow".into())
        })?;
        sum_symbols = sum_symbols.checked_add(n_sym).ok_or_else(|| {
            CompressError::CorruptStream("sub-stream symbol counts overflow".into())
        })?;
        subs.push(SubStream {
            n_original: n_orig_s,
            n_symbols: n_sym,
            runs: runs_start..s.runs.len(),
            payload: (0, 0),
        });
    }
    if sum_original != n_original {
        return Err(CompressError::CorruptStream(
            "sub-stream output lengths don't sum to the declared total".into(),
        ));
    }
    if raw16 {
        // Raw fixed-width payload: no code-table section.  The shared
        // header loop already enforced `n_symbols_s == n_original_s` per
        // stream (the flag is not the RLE flag), so only the run tables
        // and payload byte lengths need checking here.
        if !s.runs.is_empty() {
            return Err(CompressError::CorruptStream(
                "raw16 payload with run tables".into(),
            ));
        }
        let mut total_payload = 0usize;
        for sub in &mut subs {
            let l = read_len_u64(stream, &mut pos, "sub-stream payload length")?;
            if l != 2 * sub.n_symbols {
                return Err(CompressError::CorruptStream(
                    "raw16 payload length disagrees with symbol count".into(),
                ));
            }
            sub.payload = (total_payload, l);
            total_payload = total_payload.checked_add(l).ok_or_else(|| {
                CompressError::CorruptStream("sub-stream payload lengths overflow".into())
            })?;
        }
        let payload = stream
            .get(pos..)
            .and_then(|rest| rest.get(..total_payload))
            .ok_or_else(|| CompressError::CorruptStream("truncated payload".into()))?;
        // total_payload == 2·n_original was just verified against the
        // stream, so this resize is bounded by the input's actual size.
        out.resize(n_original, 0);
        let mut dst = out.as_mut_slice();
        let mut rest = payload;
        for sub in &subs {
            let (bytes, tail) = rest.split_at(sub.payload.1);
            rest = tail;
            let (head, dst_tail) = dst.split_at_mut(sub.n_symbols);
            dst = dst_tail;
            for (slot, pair) in head.iter_mut().zip(bytes.chunks_exact(2)) {
                *slot = u32::from(u16::from_le_bytes([pair[0], pair[1]]));
            }
        }
        return Ok(pos + total_payload);
    }
    let n_distinct = read_len_u32(stream, &mut pos, "n_distinct")?;
    if sum_symbols == 0 {
        if n_original != 0 {
            return Err(CompressError::CorruptStream(
                "empty payload for nonempty stream".into(),
            ));
        }
        if n_distinct != 0 {
            return Err(CompressError::CorruptStream(
                "code table without symbols".into(),
            ));
        }
        for _ in 0..n_streams {
            if read_len_u64(stream, &mut pos, "sub-stream payload length")? != 0 {
                return Err(CompressError::CorruptStream(
                    "payload bytes without symbols".into(),
                ));
            }
        }
        return Ok(pos);
    }
    if n_distinct == 0 {
        return Err(CompressError::CorruptStream(
            "nonempty payload with empty alphabet".into(),
        ));
    }
    let max_len = parse_code_table(stream, &mut pos, s, n_distinct)?;
    let with_table = sum_symbols >= TABLE_MIN_SYMBOLS;
    build_canon_arrays(
        s,
        max_len,
        if with_table {
            FastTable::Packed
        } else {
            FastTable::None
        },
    );

    let mut total_payload = 0usize;
    let mut byte_cursor = 0usize;
    for sub in &mut subs {
        let l = read_len_u64(stream, &mut pos, "sub-stream payload length")?;
        sub.payload = (byte_cursor, l);
        total_payload = total_payload.checked_add(l).ok_or_else(|| {
            CompressError::CorruptStream("sub-stream payload lengths overflow".into())
        })?;
        byte_cursor = total_payload;
    }
    // Overflow-proof bounds check: slice from `pos` first, then take
    // `total_payload` — `pos + total_payload` is never materialised.
    let payload = stream
        .get(pos..)
        .and_then(|rest| rest.get(..total_payload))
        .ok_or_else(|| CompressError::CorruptStream("truncated payload".into()))?;
    // Every decoded symbol consumes at least one bit of its own payload.
    for sub in &subs {
        if sub.n_symbols > sub.payload.1.saturating_mul(8) {
            return Err(CompressError::CorruptStream(
                "declared symbol count exceeds payload bits".into(),
            ));
        }
    }
    let consumed = pos + total_payload;

    let DecodeScratch {
        table64,
        first_code,
        count,
        offset,
        syms,
        transformed,
        runs,
        ..
    } = s;
    let canon = CanonicalArrays {
        first_code,
        count,
        offset,
        syms,
        max_len,
    };
    let table64: &[u64] = if with_table { table64 } else { &[] };
    if rle_used {
        transformed.clear();
        // Bounded: each sub-stream's symbol count is capped at 8× its
        // payload bytes above, so the sum is capped by the stream length.
        transformed.resize(sum_symbols, 0);
        decode_lanes(payload, &subs, table64, &canon, transformed)?;
        out.reserve(crate::traits::safe_capacity(
            n_original,
            transformed.len() * 4,
        ));
        let mut t_off = 0usize;
        for sub in &subs {
            let seg = &transformed[t_off..t_off + sub.n_symbols];
            t_off += sub.n_symbols;
            rle_expand_segment(seg, &runs[sub.runs.clone()], sub.n_original, out)?;
        }
    } else {
        out.resize(n_original, 0);
        decode_lanes(payload, &subs, table64, &canon, out)?;
    }
    Ok(consumed)
}

/// Per-lane decode cursor shared between the interleaved loop and the
/// scalar lane decoder: an absolute bit position in the shared payload
/// region, the lane's end bit, and how many symbols it has produced.
struct LaneCursor {
    bitpos: usize,
    end_bit: usize,
    written: usize,
}

/// Decodes every sub-stream into its contiguous region of `dst` (regions
/// ordered by sub-stream, sized `n_symbols` each).  Four-stream blocks
/// with a fast table run the interleaved loop first; the resumable scalar
/// lane decoder finishes the tails (and decodes every other shape).
fn decode_lanes(
    payload: &[u8],
    subs: &[SubStream],
    table64: &[u64],
    canon: &CanonicalArrays<'_>,
    dst: &mut [u32],
) -> Result<(), CompressError> {
    debug_assert_eq!(dst.len(), subs.iter().map(|s| s.n_symbols).sum::<usize>());
    let mut regions: Vec<&mut [u32]> = Vec::with_capacity(subs.len());
    let mut rest: &mut [u32] = dst;
    for sub in subs {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(sub.n_symbols);
        regions.push(head);
        rest = tail;
    }
    let mut cursors: Vec<LaneCursor> = subs
        .iter()
        .map(|sub| LaneCursor {
            bitpos: sub.payload.0 * 8,
            end_bit: (sub.payload.0 + sub.payload.1) * 8,
            written: 0,
        })
        .collect();
    if cursors.len() == 4 && !table64.is_empty() {
        // Four dependent load→lookup→shift chains overlap in the
        // out-of-order core; this beat an AVX2 `vpgatherqq` table-lookup
        // kernel (gather latency dominated) on every x86 host measured.
        decode_lanes_ilp4(payload, table64, canon, &mut cursors, &mut regions)?;
    }
    for (cur, region) in cursors.iter_mut().zip(regions.iter_mut()) {
        decode_lane_scalar(
            payload,
            &mut cur.bitpos,
            cur.end_bit,
            table64,
            canon,
            region,
            &mut cur.written,
        )?;
        // Every decode path bounds its reads by the lane's end; this
        // re-check keeps a lane that ran past its own payload a typed
        // error rather than a silent cross-lane decode.
        if cur.bitpos > cur.end_bit {
            return Err(CompressError::CorruptStream(
                "sub-stream payload overread".into(),
            ));
        }
    }
    Ok(())
}

/// Interleaved 4-lane table decode — the multi-stream hot loop.
///
/// One lane's decode is a serial chain: window load → table lookup → shift
/// by the code length → next lookup, ~3 dependent loads per symbol.  Four
/// sub-streams give four *independent* chains, and interleaving them lets
/// the out-of-order core run all four at once, hiding most of each chain's
/// latency behind the others'.
///
/// Round structure: enter only while every lane has ≥ 57 trustworthy bits
/// (`end_bit - bitpos`) and ≥ 4 symbols of space, load one 57-bit window
/// per lane, then commit 4 symbols per lane lockstep.  4 × `PEEK` ≤ 52
/// bits, so a window of table hits never runs dry mid-round and — by the
/// prefix property — a hit never consumes another lane's bits even when
/// the window loaded past this lane's end.  A table miss (long code,
/// `len` 0) takes the canonical walk inline for just that lane and reloads
/// its window, so one skewed lane doesn't kick the other three off the
/// fast path; only a lane left with < 57 bits by a long code ends the loop
/// (it is near its tail anyway).  Exit always lands every cursor on a
/// committed-symbol boundary, and the resumable scalar decoder finishes
/// the lane tails.
fn decode_lanes_ilp4(
    payload: &[u8],
    table64: &[u64],
    canon: &CanonicalArrays<'_>,
    cursors: &mut [LaneCursor],
    regions: &mut [&mut [u32]],
) -> Result<(), CompressError> {
    debug_assert_eq!(cursors.len(), 4);
    debug_assert_eq!(regions.len(), 4);
    let mask = (1u64 << PEEK) - 1;
    let mut pos: [usize; 4] = std::array::from_fn(|i| cursors[i].bitpos);
    let mut wr: [usize; 4] = std::array::from_fn(|i| cursors[i].written);
    let end: [usize; 4] = std::array::from_fn(|i| cursors[i].end_bit);
    let cap: [usize; 4] = std::array::from_fn(|i| regions[i].len());
    loop {
        // Fast rounds: pure table hits, no calls, no per-symbol branches
        // beyond the lockstep miss test — this is the loop that has to
        // schedule well.
        let mut miss = false;
        'fast: loop {
            for i in 0..4 {
                if cap[i] - wr[i] < 4 || end[i].saturating_sub(pos[i]) < 57 {
                    break 'fast;
                }
            }
            let mut w: [u64; 4] = std::array::from_fn(|i| load_word(payload, pos[i]));
            for _step in 0..4 {
                let e: [u64; 4] = std::array::from_fn(|i| table64[(w[i] & mask) as usize]);
                // Test all four lanes *before* committing any, so a miss
                // exits with the lanes in lockstep.
                if e.iter().any(|&entry| entry >> 32 == 0) {
                    miss = true;
                    break 'fast;
                }
                for i in 0..4 {
                    let len = (e[i] >> 32) as usize;
                    w[i] >>= len;
                    pos[i] += len;
                    regions[i][wr[i]] = e[i] as u32;
                    wr[i] += 1;
                }
            }
        }
        if !miss {
            break;
        }
        // Long-code recovery, off the hot path: walk one canonical symbol
        // for each lane whose next code misses the table (≤ 3 commits since
        // the round-entry check, so every lane still has ≥ 1 slot and ≥
        // PEEK trustworthy bits), then resume fast rounds.
        for i in 0..4 {
            if end[i].saturating_sub(pos[i]) < PEEK as usize {
                continue;
            }
            let entry = table64[(load_word(payload, pos[i]) & mask) as usize];
            if entry >> 32 != 0 {
                continue;
            }
            let sym = match decode_one_slow(payload, &mut pos[i], end[i], canon) {
                Ok(sym) => sym,
                Err(err) => {
                    // Keep cursors resumable even on a corrupt stream so
                    // callers observe consistent state.
                    for l in 0..4 {
                        cursors[l].bitpos = pos[l];
                        cursors[l].written = wr[l];
                    }
                    return Err(err);
                }
            };
            regions[i][wr[i]] = sym;
            wr[i] += 1;
        }
    }
    for i in 0..4 {
        cursors[i].bitpos = pos[i];
        cursors[i].written = wr[i];
    }
    Ok(())
}

/// Resumable register-batched decode of one lane: fills `dst[*written..]`
/// reading from `payload` between `*bitpos` and `end_bit`.  Identical hot
/// loop to [`decode_symbols`], but against the packed `table64` layout, a
/// slice destination, and lane-relative bounds — bits past `end_bit`
/// belong to the *next* lane and are never consumed, though the 57-bit
/// window may harmlessly observe them (a table entry only ever commits
/// bits of the code itself).
fn decode_lane_scalar(
    payload: &[u8],
    bitpos: &mut usize,
    end_bit: usize,
    table64: &[u64],
    canon: &CanonicalArrays<'_>,
    dst: &mut [u32],
    written: &mut usize,
) -> Result<(), CompressError> {
    if table64.is_empty() {
        while *written < dst.len() {
            dst[*written] = decode_one_slow(payload, bitpos, end_bit, canon)?;
            *written += 1;
        }
        return Ok(());
    }
    let mask = (1u64 << PEEK) - 1;
    let peek = PEEK as usize;
    while *written < dst.len() {
        let rem = end_bit.saturating_sub(*bitpos);
        if rem >= peek {
            let mut word = load_word(payload, *bitpos);
            let mut left = rem.min(57);
            let mut long_code = false;
            while left >= peek && *written < dst.len() {
                let entry = table64[(word & mask) as usize];
                let len = (entry >> 32) as usize;
                if len == 0 {
                    long_code = true;
                    break;
                }
                word >>= len;
                *bitpos += len;
                left -= len;
                dst[*written] = entry as u32;
                *written += 1;
            }
            if long_code {
                dst[*written] = decode_one_slow(payload, bitpos, end_bit, canon)?;
                *written += 1;
            }
            continue;
        }
        // Lane tail: fewer than PEEK trustworthy bits remain, so only
        // accept a table hit whose code fits inside the lane.
        let entry = table64[(load_word(payload, *bitpos) & mask) as usize];
        let len = (entry >> 32) as usize;
        if len > 0 && len <= rem {
            *bitpos += len;
            dst[*written] = entry as u32;
            *written += 1;
        } else {
            dst[*written] = decode_one_slow(payload, bitpos, end_bit, canon)?;
            *written += 1;
        }
    }
    Ok(())
}

/// Borrowed canonical decode arrays for the slow (long-code) path.
struct CanonicalArrays<'a> {
    first_code: &'a [u64],
    count: &'a [u32],
    offset: &'a [u32],
    syms: &'a [u32],
    max_len: u8,
}

/// Decodes exactly `n_symbols` symbols from `payload` into `out`.
///
/// Hot loop: refill a 64-bit register with ≥ 57 payload bits, then decode
/// table hits back-to-back with one lookup + shift each until fewer than
/// `PEEK` trustworthy bits remain in the register.  Long codes (table miss)
/// and the last < `PEEK` bits of the stream take the canonical walk.
fn decode_symbols(
    payload: &[u8],
    n_symbols: usize,
    with_table: bool,
    table: &[(u32, u8)],
    canon: &CanonicalArrays<'_>,
    out: &mut Vec<u32>,
) -> Result<(), CompressError> {
    let total_bits = payload.len() * 8;
    let mut bitpos = 0usize;
    if !with_table {
        while out.len() < n_symbols {
            out.push(decode_one_slow(payload, &mut bitpos, total_bits, canon)?);
        }
        return Ok(());
    }
    let mask = (1u64 << PEEK) - 1;
    let peek = PEEK as usize;
    while out.len() < n_symbols {
        let rem = total_bits - bitpos;
        if rem >= peek {
            let mut word = load_word(payload, bitpos);
            let mut left = rem.min(57);
            let mut long_code = false;
            while left >= peek && out.len() < n_symbols {
                let (sym, len) = table[(word & mask) as usize];
                if len == 0 {
                    long_code = true;
                    break;
                }
                let l = len as usize;
                word >>= l;
                bitpos += l;
                left -= l;
                out.push(sym);
            }
            if long_code {
                out.push(decode_one_slow(payload, &mut bitpos, total_bits, canon)?);
            }
            continue;
        }
        // Tail: fewer than PEEK bits remain in the whole stream, so the
        // peek pads with zeros; only accept a table hit that fits.
        let (sym, len) = table[(load_word(payload, bitpos) & mask) as usize];
        if len > 0 && len as usize <= rem {
            bitpos += len as usize;
            out.push(sym);
        } else {
            out.push(decode_one_slow(payload, &mut bitpos, total_bits, canon)?);
        }
    }
    Ok(())
}

/// Canonical decode of one symbol, bit by bit: O(1) array arithmetic per
/// candidate length instead of a hash probe per bit.
#[cold]
fn decode_one_slow(
    payload: &[u8],
    bitpos: &mut usize,
    total_bits: usize,
    canon: &CanonicalArrays<'_>,
) -> Result<u32, CompressError> {
    let mut code = 0u64;
    let mut clen = 0usize;
    loop {
        if *bitpos >= total_bits {
            return Err(CompressError::CorruptStream("payload ended early".into()));
        }
        let bit = (payload[*bitpos >> 3] >> (*bitpos & 7)) & 1;
        *bitpos += 1;
        code = (code << 1) | bit as u64;
        clen += 1;
        if clen > canon.max_len as usize {
            return Err(CompressError::CorruptStream(
                "no symbol matches the read prefix".into(),
            ));
        }
        let c = canon.count[clen] as u64;
        if c > 0 && code >= canon.first_code[clen] && code < canon.first_code[clen] + c {
            let idx = canon.offset[clen] as u64 + (code - canon.first_code[clen]);
            return Ok(canon.syms[idx as usize]);
        }
    }
}

/// Computes Huffman code lengths from symbol frequencies, returned in
/// canonical order (ascending length, then ascending symbol).  `freq` is
/// reusable dense-counting scratch.
fn code_lengths(symbols: &[u32], freq: &mut Vec<u64>) -> Vec<(u32, u8)> {
    let sorted = frequencies(symbols, freq);
    code_lengths_from_sorted(sorted)
}

/// [`code_lengths`] continuation for callers that already hold the sorted
/// `(symbol, frequency)` histogram (the multi-stream encoder histograms
/// first to pick between Huffman and raw16 payloads).
///
/// Uses the two-queue construction: leaves sorted by frequency in one
/// queue, merged nodes (whose frequencies come out non-decreasing) in a
/// second, so each merge pops the global minimum from a queue front in
/// O(1) instead of through a binary heap.  Tie-breaking matches the
/// previous heap formulation exactly — on equal frequency a leaf wins
/// over a merged node, equal-frequency leaves keep ascending-symbol
/// order (the sort is stable), merged nodes are FIFO — so the emitted
/// code lengths (and therefore the stream bytes) are unchanged.
fn code_lengths_from_sorted(sorted: Vec<(u32, u64)>) -> Vec<(u32, u8)> {
    if sorted.is_empty() {
        return Vec::new();
    }
    if sorted.len() == 1 {
        return vec![(sorted[0].0, 1)];
    }

    let n = sorted.len();
    // Node ids: 0..n are leaves (positions in `sorted`), n.. are merged
    // nodes in production order.
    let mut leaves: Vec<(u64, u32)> = sorted
        .iter()
        .enumerate()
        .map(|(i, &(_, f))| (f, i as u32))
        .collect();
    // The index is unique, so sorting the (freq, index) pair unstably is
    // exactly the stable-by-frequency order without the temp allocation.
    leaves.sort_unstable();
    let mut merged: Vec<(u64, u32)> = Vec::with_capacity(n - 1);
    let mut children: Vec<(u32, u32)> = Vec::with_capacity(n - 1);
    let (mut i1, mut i2) = (0usize, 0usize);
    // Each of the n-1 merges pops twice; n leaves + n-2 intermediate
    // merged nodes cover all 2(n-1) pops, so the fronts below are always
    // in bounds on whichever side is picked.
    for _ in 0..n - 1 {
        let pop_min = |i1: &mut usize, i2: &mut usize, merged: &[(u64, u32)]| {
            let leaf_front = leaves.get(*i1).map_or(u64::MAX, |&(f, _)| f);
            let merged_front = merged.get(*i2).map_or(u64::MAX, |&(f, _)| f);
            if leaf_front <= merged_front {
                let v = leaves[*i1];
                *i1 += 1;
                v
            } else {
                let v = merged[*i2];
                *i2 += 1;
                v
            }
        };
        let (fa, a) = pop_min(&mut i1, &mut i2, &merged);
        let (fb, b) = pop_min(&mut i1, &mut i2, &merged);
        let id = (n + children.len()) as u32;
        children.push((a, b));
        merged.push((fa + fb, id));
    }

    // Walk depths iteratively from the last merged node (the root).
    let mut lengths: Vec<(u32, u8)> = Vec::with_capacity(n);
    let mut stack = vec![((n + children.len() - 1) as u32, 0u8)];
    while let Some((id, depth)) = stack.pop() {
        if (id as usize) < n {
            lengths.push((sorted[id as usize].0, depth.max(1)));
        } else {
            let (l, r) = children[id as usize - n];
            stack.push((l, depth + 1));
            stack.push((r, depth + 1));
        }
    }
    lengths.sort_unstable_by_key(|&(sym, len)| (len, sym));
    lengths
}

/// Symbol frequencies in ascending symbol order.  Dense counting (array
/// indexed by symbol, `RUN_MARKER` tracked separately) when every
/// non-marker symbol is below [`DENSE_SYMS`]; `HashMap` fallback otherwise.
/// Both paths produce the identical list a sort of hash entries would.
///
/// `freq` is grow-only, all-zero scratch: the function records which
/// entries it increments and zeroes exactly those before returning, so
/// repeated calls touch O(distinct) memory instead of re-clearing and
/// re-scanning the whole alphabet-sized array every time.
fn frequencies(symbols: &[u32], freq: &mut Vec<u64>) -> Vec<(u32, u64)> {
    // Optimistic single pass: count densely while recording touched
    // entries, bailing to the HashMap path on the first symbol outside the
    // dense range (after restoring the zeros).  The common quantizer
    // alphabets never bail, so the input is read once, not twice.
    if freq.len() < DENSE_SYMS {
        freq.resize(DENSE_SYMS, 0);
    }
    let mut touched: Vec<u32> = Vec::new();
    let mut marker = 0u64;
    let mut dense = true;
    for &s in symbols {
        if s == RUN_MARKER {
            marker += 1;
        } else if (s as usize) < DENSE_SYMS {
            let slot = &mut freq[s as usize];
            if *slot == 0 {
                touched.push(s);
            }
            *slot += 1;
        } else {
            dense = false;
            break;
        }
    }
    if dense {
        touched.sort_unstable();
        let mut sorted: Vec<(u32, u64)> = Vec::with_capacity(touched.len() + 1);
        for &s in &touched {
            sorted.push((s, freq[s as usize]));
            freq[s as usize] = 0;
        }
        if marker > 0 {
            // RUN_MARKER is u32::MAX: appending keeps ascending order.
            sorted.push((RUN_MARKER, marker));
        }
        sorted
    } else {
        for &s in &touched {
            freq[s as usize] = 0;
        }
        let mut map: HashMap<u32, u64> = HashMap::new();
        for &s in symbols {
            *map.entry(s).or_insert(0) += 1;
        }
        let mut sorted: Vec<(u32, u64)> = map.into_iter().collect();
        sorted.sort_unstable();
        sorted
    }
}

/// LEB128 varint encoding for run lengths.
fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 varint decoding.
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

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::rng::StdRng;

    fn roundtrip(symbols: &[u32]) {
        let enc = encode(symbols);
        let (dec, consumed) = decode(&enc).expect("decode");
        assert_eq!(dec, symbols);
        assert_eq!(consumed, enc.len());
        // Caller-owned scratch path matches the thread-local path.
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        let consumed2 = decode_into(&enc, &mut out, &mut scratch).expect("decode_into");
        assert_eq!(out, symbols);
        assert_eq!(consumed2, consumed);
    }

    #[test]
    fn empty_roundtrip() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_roundtrip() {
        roundtrip(&[7; 100]);
    }

    #[test]
    fn two_symbols_roundtrip() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros: entropy ≈ 0.29 bits/symbol; Huffman ≈ 1 bit/symbol max,
        // still far below 32.
        let mut rng = StdRng::seed_from_u64(1);
        let symbols: Vec<u32> = (0..10_000)
            .map(|_| {
                if rng.gen_bool(0.95) {
                    0
                } else {
                    rng.gen_range(1..8)
                }
            })
            .collect();
        let enc = encode(&symbols);
        assert!(
            enc.len() < symbols.len() * 4 / 8,
            "compressed {} vs raw {}",
            enc.len(),
            symbols.len() * 4
        );
        roundtrip(&symbols);
    }

    #[test]
    fn uniform_random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let symbols: Vec<u32> = (0..5_000).map(|_| rng.gen_range(0..1000)).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn long_codes_take_slow_path() {
        // A heavily skewed geometric-ish distribution over many symbols
        // produces code lengths well beyond the 12-bit fast table.
        let mut symbols = Vec::new();
        for sym in 0u32..24 {
            let count = 1usize << (24 - sym).min(16);
            symbols.extend(std::iter::repeat(sym).take(count));
        }
        roundtrip(&symbols);
    }

    #[test]
    fn large_symbol_values_roundtrip() {
        // Symbols beyond DENSE_SYMS exercise the HashMap fallback on both
        // frequency counting and code lookup.
        roundtrip(&[u32::MAX, 0, u32::MAX - 1, 12345678, u32::MAX]);
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode(&[1, 2, 3, 1, 2, 3]);
        assert!(decode(&enc[..enc.len() - 1]).is_err());
        assert!(decode(&enc[..4]).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn decode_reports_consumed_bytes_with_trailing_data() {
        let mut enc = encode(&[5, 5, 9]);
        let orig_len = enc.len();
        enc.extend_from_slice(&[0xab; 10]);
        let (dec, consumed) = decode(&enc).expect("decode");
        assert_eq!(dec, vec![5, 5, 9]);
        assert_eq!(consumed, orig_len);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 65_535, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        assert!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut 0).is_err());
    }

    #[test]
    fn rle_collapse_expand_roundtrip() {
        let mut symbols = vec![5u32; 100];
        symbols.extend([1, 2, 3]);
        symbols.extend(vec![9u32; 50]);
        symbols.extend([4, 4, 4]); // below MIN_RUN: kept verbatim
        let mut t = Vec::new();
        let mut runs = Vec::new();
        assert!(rle_collapse_checked(&symbols, &mut t, &mut runs));
        assert!(t.len() < symbols.len());
        assert_eq!(runs.len(), 2);
        let mut back = Vec::new();
        rle_expand_into(&t, &runs, symbols.len(), &mut back).unwrap();
        assert_eq!(back, symbols);
    }

    #[test]
    fn long_runs_compress_to_almost_nothing() {
        let symbols = vec![3u32; 1_000_000];
        let enc = encode(&symbols);
        assert!(enc.len() < 100, "run-length stream is {} bytes", enc.len());
        roundtrip(&symbols);
    }

    #[test]
    fn marker_collision_disables_rle() {
        let mut symbols = vec![u32::MAX; 64];
        symbols.extend([1, 2, 3]);
        roundtrip(&symbols);
    }

    /// A marker symbol in a *later* segment must roll back the runs already
    /// collapsed from earlier segments and store the whole block raw.
    #[test]
    fn multi_stream_marker_in_late_segment_disables_rle() {
        let mut symbols = vec![7u32; 3 * 256];
        symbols.extend(vec![9u32; 200]);
        symbols[3 * 256 + 100] = RUN_MARKER;
        let segs = crate::format::split_even(symbols.len(), 4);
        let seg_slices: Vec<&[u32]> = segs
            .iter()
            .map(|&(off, len)| &symbols[off..off + len])
            .collect();
        let enc = encode_multi(&seg_slices);
        assert_eq!(enc[9], 0, "rle byte must be off");
        let (back, consumed) = decode_multi(&enc).expect("decode");
        assert_eq!(back, symbols);
        assert_eq!(consumed, enc.len());
    }

    #[test]
    fn alternating_runs_roundtrip() {
        let mut symbols = Vec::new();
        for k in 0..50u32 {
            symbols.extend(vec![k % 3; 10 + k as usize]);
            symbols.push(1000 + k);
        }
        roundtrip(&symbols);
    }

    #[test]
    fn bitrev_involution() {
        for len in 1u8..=16 {
            for v in 0u64..(1 << len.min(10)) {
                assert_eq!(bitrev(bitrev(v, len), len), v);
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_streams() {
        let mut enc_scratch = EncodeScratch::default();
        let mut dec_scratch = DecodeScratch::default();
        let mut rng = StdRng::seed_from_u64(0xAB);
        for round in 0..8 {
            let n = 100 + round * 321;
            let symbols: Vec<u32> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            let mut enc = Vec::new();
            encode_with(&symbols, &mut enc, &mut enc_scratch);
            assert_eq!(enc, encode(&symbols), "scratch encode must be identical");
            let mut out = Vec::new();
            let consumed = decode_into(&enc, &mut out, &mut dec_scratch).unwrap();
            assert_eq!(out, symbols);
            assert_eq!(consumed, enc.len());
        }
    }

    #[test]
    fn table_threshold_paths_agree() {
        // Payloads just below/above TABLE_MIN_SYMBOLS take different decode
        // paths; both must roundtrip the same streams.
        let mut rng = StdRng::seed_from_u64(0xCD);
        for n in [
            TABLE_MIN_SYMBOLS - 1,
            TABLE_MIN_SYMBOLS,
            TABLE_MIN_SYMBOLS + 1,
        ] {
            let symbols: Vec<u32> = (0..n).map(|_| rng.gen_range(0..33)).collect();
            roundtrip(&symbols);
        }
    }

    #[test]
    fn prop_roundtrip_random_alphabets() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..64 {
            let alphabet = rng.gen_range(1usize..400);
            let n = rng.gen_range(0usize..2000);
            let symbols: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet as u32)).collect();
            let enc = encode(&symbols);
            let (dec, consumed) = decode(&enc).expect("decode");
            assert_eq!(dec, symbols);
            assert_eq!(consumed, enc.len());
        }
    }

    /// Four-stream blocks round-trip through the interleaved loop,
    /// including skewed alphabets whose long codes miss the fast table.
    #[test]
    fn prop_multi_stream_roundtrip_with_long_codes() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for round in 0..32 {
            let n = rng.gen_range(1usize..40_000);
            let symbols: Vec<u32> = if round % 3 == 0 {
                // Geometric-ish skew: long tail of rare symbols → codes
                // beyond PEEK → the long-code recovery path.
                (0..n)
                    .map(|_| {
                        let r: f64 = rng.gen_range(0.0..1.0);
                        (-(1.0 - r).ln() * 80.0) as u32
                    })
                    .collect()
            } else {
                (0..n).map(|_| rng.gen_range(0..500)).collect()
            };
            let segs = crate::format::split_even(n, 4);
            let seg_slices: Vec<&[u32]> = segs
                .iter()
                .map(|&(off, len)| &symbols[off..off + len])
                .collect();
            let enc = encode_multi(&seg_slices);
            let (dec, consumed) = decode_multi(&enc).expect("decode");
            assert_eq!(dec, symbols, "round {round}");
            assert_eq!(consumed, enc.len());
        }
    }
}

//! Stream-format constants and helpers for the v2 interleaved layout,
//! the one layout the SZ and ZFP backends write and read.
//!
//! The seed format (**v1**, still readable only by the frozen decoders in
//! [`crate::reference`]) encoded one serial entropy/bit stream per payload,
//! so decode throughput was capped by a single symbol-to-symbol dependency
//! chain.  **v2** streams split each payload into [`V2_STREAMS`]
//! independently-decodable sub-streams so the decoder can run several
//! dependency chains at once: interleaved scalar chains for the Huffman
//! lanes, and AVX2 block lanes for ZFP where available (see `zfp_simd`).
//!
//! A v2 stream opens with [`MAGIC_V2`]: eight bytes whose top byte is
//! `0xBF`, so reinterpreted as the little-endian `u64` element count that
//! opens every v1 header it exceeds `2^63`.  No v1 stream can collide (v1
//! counts are bounded by payload size long before that), and
//! [`read_preamble`] rejects anything that does not open with the magic —
//! a v1, truncated or foreign stream is a typed
//! [`CompressError::CorruptStream`], never misparsed.  The byte after the
//! magic tags the backend, so a ZFP stream handed to the SZ decoder fails
//! with a typed error instead of being misread.

use crate::traits::CompressError;

/// v2 stream magic: `b"EFv2"` plus three discriminator bytes and a high
/// byte ≥ `0x80` (see module docs for why the high byte matters).
pub const MAGIC_V2: [u8; 8] = *b"EFv2\x9e\xad\xf5\xbf";

/// Sub-streams per v2 payload.  Four matches both the AVX2 kernels' lane
/// width (4 × 64-bit bit-windows per ymm register) and the ILP sweet spot
/// of the interleaved scalar fallback; it is recorded per stream, so the
/// constant can change without invalidating old v2 streams.
pub const V2_STREAMS: usize = 4;

/// Upper bound on the per-stream sub-stream count a decoder will accept.
/// Caps scratch fan-out on forged headers.
pub const MAX_STREAMS: usize = 16;

/// Backend tag byte following the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendTag {
    /// SZ-class predictor/quantizer stream.
    Sz = 1,
    /// ZFP-class block stream.
    Zfp = 2,
}

/// Parses the fixed v2 preamble (magic, backend tag, sub-stream count),
/// advancing `pos` past it.  Checks the magic, validates the tag and
/// bounds the stream count.
pub fn read_preamble(
    stream: &[u8],
    pos: &mut usize,
    expect: BackendTag,
) -> Result<usize, CompressError> {
    if stream.get(*pos..).and_then(|rest| rest.get(..8)) != Some(&MAGIC_V2[..]) {
        return Err(CompressError::CorruptStream(
            "stream does not open with the v2 magic".into(),
        ));
    }
    *pos += 8;
    let tag = crate::traits::read_u8(stream, pos, "v2 backend tag")?;
    if tag != expect as u8 {
        return Err(CompressError::CorruptStream(format!(
            "v2 stream tagged for backend {tag}, expected {}",
            expect as u8
        )));
    }
    let s = crate::traits::read_u8(stream, pos, "v2 stream count")? as usize;
    if s == 0 || s > MAX_STREAMS {
        return Err(CompressError::CorruptStream(format!(
            "v2 sub-stream count {s} outside 1..={MAX_STREAMS}"
        )));
    }
    Ok(s)
}

/// Writes the fixed v2 preamble.
pub fn write_preamble(out: &mut Vec<u8>, tag: BackendTag, n_streams: usize) {
    debug_assert!(n_streams >= 1 && n_streams <= MAX_STREAMS);
    out.extend_from_slice(&MAGIC_V2);
    out.push(tag as u8);
    out.push(n_streams as u8);
}

/// Appends `vals` as little-endian `f32` bytes in bulk.  Per-value
/// `extend_from_slice(&v.to_le_bytes())` pays Vec bookkeeping on every
/// element; staging through a fixed stack buffer amortizes that to one
/// append per 64 values, which matters for the outlier-storm streams
/// tight error bounds produce (nearly every value verbatim).
pub fn write_f32_table(out: &mut Vec<u8>, vals: &[f32]) {
    out.reserve(4 * vals.len());
    let mut buf = [0u8; 4 * 64];
    for chunk in vals.chunks(64) {
        for (dst, v) in buf.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&buf[..4 * chunk.len()]);
    }
}

/// Bulk little-endian `f32` read, the inverse of [`write_f32_table`]:
/// fills `out` from exactly `4 * out.len()` bytes.  The per-element
/// `from_le_bytes` loop vectorizes to a straight copy on LE hosts.
pub fn read_f32_table(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), 4 * out.len());
    for (slot, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *slot = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Splits `n` items into `s` contiguous segments whose lengths differ by at
/// most one (the first `n % s` segments get the extra item).  Returns
/// `(offset, len)` per segment; segments may be empty when `n < s`.
///
/// Both encoder and decoder derive the segmentation from `(n, s)` alone, so
/// the split never needs to be serialized — headers still declare the
/// per-segment counts and the decoder cross-checks them against this
/// function, making a forged header a typed error rather than a skew.
pub fn split_even(n: usize, s: usize) -> Vec<(usize, usize)> {
    debug_assert!(s >= 1);
    let base = n / s;
    let extra = n % s;
    let mut out = Vec::with_capacity(s);
    let mut off = 0usize;
    for i in 0..s {
        let len = base + usize::from(i < extra);
        out.push((off, len));
        off += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_exceeds_any_plausible_v1_count() {
        let as_count = u64::from_le_bytes(MAGIC_V2);
        assert!(as_count > 1 << 63);
    }

    #[test]
    fn split_even_covers_exactly() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 100, 65_536, 1_000_003] {
            for s in [1usize, 2, 3, 4, 8] {
                let parts = split_even(n, s);
                assert_eq!(parts.len(), s);
                let mut off = 0;
                for &(o, l) in &parts {
                    assert_eq!(o, off);
                    off += l;
                }
                assert_eq!(off, n);
                let lens: Vec<usize> = parts.iter().map(|&(_, l)| l).collect();
                let max = lens.iter().max().copied().unwrap_or(0);
                let min = lens.iter().min().copied().unwrap_or(0);
                assert!(max - min <= 1, "n={n} s={s} lens={lens:?}");
            }
        }
    }

    #[test]
    fn preamble_roundtrip_and_rejections() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, BackendTag::Sz, V2_STREAMS);
        let mut pos = 0;
        assert_eq!(
            read_preamble(&buf, &mut pos, BackendTag::Sz).unwrap(),
            V2_STREAMS
        );
        assert_eq!(pos, 10);
        // Wrong backend tag.
        let mut pos = 0;
        assert!(read_preamble(&buf, &mut pos, BackendTag::Zfp).is_err());
        // Zero / oversized stream counts.
        for bad in [0usize, MAX_STREAMS + 1] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC_V2);
            buf.push(BackendTag::Sz as u8);
            buf.push(bad as u8);
            let mut pos = 0;
            assert!(read_preamble(&buf, &mut pos, BackendTag::Sz).is_err());
        }
        // A foreign magic is rejected even with a valid tag and count.
        let mut buf = b"EFv1\x9e\xad\xf5\xbf".to_vec();
        buf.extend_from_slice(&[BackendTag::Sz as u8, V2_STREAMS as u8]);
        let mut pos = 0;
        assert!(matches!(
            read_preamble(&buf, &mut pos, BackendTag::Sz),
            Err(CompressError::CorruptStream(_))
        ));
    }

    #[test]
    fn streams_shorter_than_the_magic_are_a_typed_error() {
        for len in 0..MAGIC_V2.len() {
            let mut pos = 0;
            assert!(
                matches!(
                    read_preamble(&MAGIC_V2[..len], &mut pos, BackendTag::Zfp),
                    Err(CompressError::CorruptStream(_))
                ),
                "len={len}"
            );
            assert_eq!(pos, 0, "a rejected preamble must not advance the cursor");
        }
    }
}

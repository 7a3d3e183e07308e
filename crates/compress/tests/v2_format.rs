//! Stream-format matrix for the v2 container, the one layout SZ and ZFP
//! write and read.
//!
//! * v2 decodes must match the frozen [`errflow_compress::reference`]
//!   decoders **bit for bit** on the seed (v1) layout of the same data —
//!   ZFP over the whole payload, SZ per v2 segment (its predictor restarts
//!   there).  The optimization work on the hot paths must never change a
//!   reconstructed value.
//! * v2 streams must round-trip within the requested bound under every
//!   bound mode the backend supports.
//! * A v2 header whose declared sub-stream / table lengths don't sum to
//!   the actual payload, and a seed-layout stream (plain or chunked), must
//!   be rejected with a typed [`CompressError::CorruptStream`], never
//!   silently truncated or misparsed.

use errflow_compress::chunked::ChunkedCompressor;
use errflow_compress::format::{split_even, V2_STREAMS};
use errflow_compress::{
    reference, scratch, CompressError, Compressor, ErrorBound, SzCompressor, ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// Smooth field with mild noise — representative of the HPC data the
/// paper's codecs target, with enough variation to exercise outliers.
fn field(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(0x5eed_f0e1);
    (0..n)
        .map(|i| {
            let x = i as f32;
            (x * 0.003).sin() * 3.0 + 0.2 * (x * 0.041).cos() + rng.gen_range(-0.002f32..0.002)
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: decode diverges from the oracle at index {i}"
        );
    }
}

/// An absolute bound gives each per-segment seed stream the same budget as
/// the whole v2 payload, so the comparison is exact.
#[test]
fn v2_decodes_match_the_frozen_oracle_bit_for_bit() {
    let bound = ErrorBound::abs_linf(1e-4);
    let mut sc = scratch::acquire();
    for n in [1usize, 5, 4097, 65_536, 100_003] {
        let data = field(n);
        let mut into = vec![0.0f32; n];

        let zfp = ZfpCompressor::new();
        let stream = zfp.compress(&data, &bound).unwrap();
        let oracle =
            reference::decompress("zfp", &reference::zfp_compress(&data, &bound).unwrap()).unwrap();
        assert_bits_eq(&zfp.decompress(&stream).unwrap(), &oracle, "zfp");
        zfp.decompress_into(&stream, &mut into, &mut sc).unwrap();
        assert_bits_eq(&into, &oracle, "zfp decompress_into");

        let sz = SzCompressor::new();
        let stream = sz.compress(&data, &bound).unwrap();
        let fast = sz.decompress(&stream).unwrap();
        sz.decompress_into(&stream, &mut into, &mut sc).unwrap();
        assert_bits_eq(&into, &fast, "sz decompress_into");
        for (off, len) in split_even(n, V2_STREAMS) {
            let seg = &data[off..off + len];
            let oracle =
                reference::decompress("sz", &reference::sz_compress(seg, &bound).unwrap()).unwrap();
            assert_bits_eq(
                &fast[off..off + len],
                &oracle,
                &format!("sz n={n} segment {off}"),
            );
        }
    }
}

#[test]
fn v2_round_trips_under_every_supported_bound_mode() {
    let data = field(10_000);
    let mut sc = scratch::acquire();
    let bounds = [
        ErrorBound::abs_linf(1e-3),
        ErrorBound::rel_linf(1e-4),
        ErrorBound::abs_l2(1e-3),
    ];
    let sz = SzCompressor::new();
    let zfp = ZfpCompressor::new();
    for bound in &bounds {
        for c in [&sz as &dyn Compressor, &zfp] {
            if !c.supports(bound) {
                continue;
            }
            let stream = c.compress(&data, bound).unwrap();
            let rec = c.decompress(&stream).unwrap();
            assert!(
                bound.verify(&data, &rec),
                "{} v2 violates {bound:?}",
                c.name()
            );
            let mut into = vec![0.0f32; data.len()];
            c.decompress_into(&stream, &mut into, &mut sc).unwrap();
            assert!(rec
                .iter()
                .zip(&into)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

/// Flip the first declared sub-stream length in a v2 ZFP header so the
/// lengths no longer sum to the payload size.
#[test]
fn zfp_forged_substream_lengths_are_a_typed_corrupt_stream() {
    let data = field(2048);
    let zfp = ZfpCompressor::new();
    let mut stream = zfp.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
    // Layout: preamble (10) + n (8) + per-stream u64 lengths.
    let len0 = u64::from_le_bytes(stream[18..26].try_into().unwrap());
    stream[18..26].copy_from_slice(&(len0 + 1).to_le_bytes());
    let mut out = vec![0.0f32; data.len()];
    let mut sc = scratch::acquire();
    let err = zfp.decompress_into(&stream, &mut out, &mut sc).unwrap_err();
    match err {
        CompressError::CorruptStream(msg) => {
            assert!(
                msg.contains("sub-stream lengths"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("expected CorruptStream, got {other:?}"),
    }
    assert!(zfp.decompress(&stream).is_err());
}

/// Inflate a declared per-segment outlier count in a v2 SZ header so the
/// outlier tables no longer match the trailing payload bytes.
#[test]
fn sz_forged_outlier_counts_are_a_typed_corrupt_stream() {
    let data = field(2048);
    let sz = SzCompressor::new();
    let mut stream = sz.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
    // Layout: preamble (10) + n (8) + eb (8) + per-stream u32 counts.
    let c0 = u32::from_le_bytes(stream[26..30].try_into().unwrap());
    stream[26..30].copy_from_slice(&(c0 + 1).to_le_bytes());
    let mut out = vec![0.0f32; data.len()];
    let mut sc = scratch::acquire();
    let err = sz.decompress_into(&stream, &mut out, &mut sc).unwrap_err();
    match err {
        CompressError::CorruptStream(msg) => {
            assert!(msg.contains("outlier table"), "unexpected message: {msg}")
        }
        other => panic!("expected CorruptStream, got {other:?}"),
    }
    assert!(sz.decompress(&stream).is_err());
}

/// Wraps `chunks` in a canonical chunked container (the layout
/// `ChunkedCompressor::compress` writes), so the chunked fast path hands
/// each chunk straight to the inner decoder.
fn chunked_container(n: usize, chunk_values: usize, chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(chunk_values as u64).to_le_bytes());
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for c in chunks {
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
    }
    for c in chunks {
        out.extend_from_slice(c);
    }
    out
}

/// A truncated payload (header untouched) fails the strict length-sum
/// check, and a seed-layout (v1) stream, plain or inside a chunked
/// container, lacks the v2 magic: every decode entry point of both
/// backends must reject each with a typed error.
#[test]
fn truncated_and_seed_layout_streams_are_rejected() {
    let data = field(10_000);
    let bound = ErrorBound::abs_linf(1e-3);
    let chunk = 4_096;
    let mut sc = scratch::acquire();
    let mut out = vec![0.0f32; data.len()];
    let backends: [(&str, Box<dyn Compressor>, Box<dyn Compressor>); 2] = [
        (
            "sz",
            Box::new(SzCompressor::new()),
            Box::new(ChunkedCompressor::new(SzCompressor::new()).with_chunk_values(chunk)),
        ),
        (
            "zfp",
            Box::new(ZfpCompressor::new()),
            Box::new(ChunkedCompressor::new(ZfpCompressor::new()).with_chunk_values(chunk)),
        ),
    ];
    for (name, plain, chunked) in &backends {
        let v2 = plain.compress(&data, &bound).unwrap();
        let v1_chunks: Vec<Vec<u8>> = data
            .chunks(chunk)
            .map(|c| reference::compress(name, c, &bound).unwrap())
            .collect();
        let cases = [
            (plain, v2[..v2.len() - 3].to_vec(), "truncated v2"),
            (
                plain,
                reference::compress(name, &data, &bound).unwrap(),
                "v1",
            ),
            (
                chunked,
                chunked_container(data.len(), chunk, &v1_chunks),
                "chunked v1",
            ),
        ];
        for (c, stream, what) in &cases {
            let corrupt = |r: Result<(), CompressError>, entry: &str| {
                assert!(
                    matches!(r, Err(CompressError::CorruptStream(_))),
                    "{name} {what}: {entry} must be CorruptStream, got {r:?}"
                );
            };
            corrupt(c.decompress(stream).map(drop), "decompress");
            corrupt(
                c.decompress_into(stream, &mut out, &mut sc),
                "decompress_into",
            );
            for u in &c.decode_units(stream, data.len()).unwrap() {
                let dst = &mut out[u.offset..u.offset + u.len];
                corrupt(c.decode_unit_into(u, dst, &mut sc), "decode_unit_into");
            }
        }
    }
}

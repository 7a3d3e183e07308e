//! `compress-bench` — throughput sweep for the error-bounded codecs.
//!
//! Sweeps every backend (SZ, ZFP, MGARD) over payload sizes and relative
//! tolerances, comparing the optimized hot paths against the frozen
//! seed-path decoders retained in `errflow_compress::reference` (fed the
//! seed layout of the same data by that module's writers), plus a
//! chunked-decode thread sweep, and emits `BENCH_compress.json` so the
//! codec perf trajectory is tracked in-repo (mirroring `gemm-bench`).
//!
//! ```sh
//! cargo run --release -p errflow-bench --bin compress-bench            # full sweep
//! cargo run --release -p errflow-bench --bin compress-bench -- --smoke # CI gate
//! ```
//!
//! Every measured decode is also checked **bit-identical** against the
//! reference decoder on seed-layout streams of the same data (per v2
//! segment for SZ) and verified against its error bound — the bench
//! doubles as a format-stability test.  `--smoke` runs a reduced sweep
//! and **fails** (exit 1) if any optimized decoder is slower than its
//! seed-path baseline at the default chunk size (65 536 values).

use errflow_compress::chunked::{ChunkedCompressor, DEFAULT_CHUNK};
use errflow_compress::format::{split_even, V2_STREAMS};
use errflow_compress::{
    reference, scratch, Compressor, ErrorBound, MgardCompressor, SzCompressor, ZfpCompressor,
};
use errflow_tensor::pool;
use errflow_tensor::rng::StdRng;
use std::fmt::Write as _;
use std::time::Instant;

struct CodecResult {
    backend: &'static str,
    /// Stream layout the row measured: `"v2"` (interleaved multi-stream,
    /// SZ/ZFP) or `"v1"` (MGARD's one layout, shared with the seed).
    format: &'static str,
    n: usize,
    rel_tol: f64,
    ratio: f64,
    compress_secs: f64,
    decompress_secs: f64,
    decompress_into_secs: f64,
    reference_secs: f64,
}

struct ChunkedResult {
    backend: &'static str,
    n: usize,
    /// `(threads, best_secs)` per swept thread count.
    threads: Vec<(usize, f64)>,
}

/// Conservative absolute floors for v2 single-thread decode throughput
/// (`decompress_into`, GB/s) at the default chunk size — see CI gate 2.
const SMOKE_DECODE_FLOORS_GBPS: &[(&str, f64)] = &[("sz", 0.35), ("zfp", 0.5)];

fn gbps(n_values: usize, secs: f64) -> f64 {
    (n_values * 4) as f64 / secs / 1e9
}

/// Best-of-`reps` wall time for one invocation of `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// A smooth scientific-looking field with mild noise: compressible like
/// the simulation data the paper targets, but not degenerate.
fn field(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x9e3779b97f4a7c15);
    (0..n)
        .map(|i| {
            let x = i as f32;
            (x * 0.003).sin() * 3.0 + 0.2 * (x * 0.041).cos() + rng.gen_range(-0.001f32..0.001)
        })
        .collect()
}

/// The frozen decoder's reconstruction of `data`, in the form a measured
/// decode must match bit for bit: ZFP and MGARD from one seed stream of
/// the whole payload, SZ per v2 segment (its predictor restarts there),
/// each segment under the whole payload's pointwise budget.
fn oracle(backend: &str, data: &[f32], bound: &ErrorBound) -> Vec<f32> {
    if backend != "sz" {
        let seed = reference::compress(backend, data, bound).expect("seed compress");
        return reference::decompress(backend, &seed).expect("reference decompress");
    }
    let eb = ErrorBound::abs_linf(bound.pointwise_budget(data));
    split_even(data.len(), V2_STREAMS)
        .into_iter()
        .flat_map(|(off, len)| {
            let seed = reference::sz_compress(&data[off..off + len], &eb).expect("seed compress");
            reference::decompress("sz", &seed).expect("reference decompress")
        })
        .collect()
}

/// `(backend, format, measured compressor)`.  The seed baseline for each
/// row decodes `reference::compress(backend, ..)` of the same data.
fn backends() -> Vec<(&'static str, &'static str, Box<dyn Compressor>)> {
    vec![
        (
            "sz",
            "v2",
            Box::new(SzCompressor::new()) as Box<dyn Compressor>,
        ),
        ("zfp", "v2", Box::new(ZfpCompressor::new())),
        ("mgard", "v1", Box::new(MgardCompressor::new())),
    ]
}

fn run_codec(
    backend: &'static str,
    format: &'static str,
    c: &dyn Compressor,
    data: &[f32],
    rel_tol: f64,
    reps: usize,
) -> CodecResult {
    let n = data.len();
    let bound = ErrorBound::rel_linf(rel_tol);
    let stream = c.compress(data, &bound).expect("compress");

    // Correctness first: bit parity with the frozen decoder, the
    // error-bound contract, and decompress/decompress_into agreement.
    let fast = c.decompress(&stream).expect("decompress");
    let slow = oracle(backend, data, &bound);
    assert_eq!(fast.len(), slow.len(), "{backend}: length mismatch");
    for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{backend}: optimized and reference decoders diverged at index {i}"
        );
    }
    assert!(
        bound.verify(data, &fast),
        "{backend}/{format}: bound violated"
    );

    let compress_secs = time_best(reps, || {
        std::hint::black_box(c.compress(data, &bound).expect("compress"));
    });
    let decompress_secs = time_best(reps, || {
        std::hint::black_box(c.decompress(&stream).expect("decompress"));
    });
    let mut out = vec![0.0f32; n];
    let mut sc = scratch::acquire();
    let decompress_into_secs = time_best(reps, || {
        c.decompress_into(&stream, &mut out, &mut sc)
            .expect("decompress_into");
        std::hint::black_box(&out);
    });
    assert_eq!(out, fast, "{backend}: decompress_into diverged");
    // Seed baseline: the frozen decoder on the seed-layout stream of the
    // whole payload, so every row's speedup is against the same yardstick.
    let seed_stream = reference::compress(backend, data, &bound).expect("seed compress");
    let reference_secs = time_best(reps, || {
        std::hint::black_box(reference::decompress(backend, &seed_stream).expect("reference"));
    });

    CodecResult {
        backend,
        format,
        n,
        rel_tol,
        ratio: (n * 4) as f64 / stream.len() as f64,
        compress_secs,
        decompress_secs,
        decompress_into_secs,
        reference_secs,
    }
}

fn run_chunked<C: Compressor>(
    backend: &'static str,
    make: impl Fn() -> C,
    n: usize,
    thread_counts: &[usize],
    reps: usize,
) -> ChunkedResult {
    let data = field(n);
    let bound = ErrorBound::rel_linf(1e-4);
    let stream = ChunkedCompressor::new(make())
        .compress(&data, &bound)
        .expect("chunked compress");
    let mut threads = Vec::new();
    for &t in thread_counts {
        let c = ChunkedCompressor::new(make()).with_threads(t);
        let recon = c.decompress(&stream).expect("chunked decompress");
        assert!(
            bound.verify(&data, &recon),
            "{backend} bound violated at {t}T"
        );
        let secs = time_best(reps, || {
            std::hint::black_box(c.decompress(&stream).expect("chunked decompress"));
        });
        threads.push((t, secs));
    }
    ChunkedResult {
        backend,
        n,
        threads,
    }
}

fn to_json(codec: &[CodecResult], chunked: &[ChunkedResult]) -> String {
    let (hits, misses) = scratch::pool_stats();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"compress\",");
    let _ = writeln!(
        s,
        "  \"pool_concurrency\": {},",
        pool::global().max_concurrency()
    );
    let _ = writeln!(s, "  \"hardware_threads\": {},", pool::hardware_threads());
    let _ = writeln!(
        s,
        "  \"default_chunk_threads\": {},",
        pool::global()
            .max_concurrency()
            .min(pool::hardware_threads())
            .max(1)
    );
    let _ = writeln!(s, "  \"default_chunk_values\": {DEFAULT_CHUNK},");
    let _ = writeln!(
        s,
        "  \"scratch_pool\": {{\"hits\": {hits}, \"misses\": {misses}}},"
    );
    s.push_str("  \"results\": [\n");
    for (i, r) in codec.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"backend\": \"{}\", \"format\": \"{}\", \"n\": {}, \"rel_tol\": {:.0e}, \
             \"ratio\": {:.2}, \
             \"compress_gbps\": {:.3}, \"decompress_gbps\": {:.3}, \
             \"decompress_into_gbps\": {:.3}, \"reference_gbps\": {:.3}, \
             \"speedup_vs_reference\": {:.2}, \"bit_identical\": true}}",
            r.backend,
            r.format,
            r.n,
            r.rel_tol,
            r.ratio,
            gbps(r.n, r.compress_secs),
            gbps(r.n, r.decompress_secs),
            gbps(r.n, r.decompress_into_secs),
            gbps(r.n, r.reference_secs),
            r.reference_secs / r.decompress_secs,
        );
        s.push_str(if i + 1 < codec.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"chunked\": [\n");
    let hw = pool::hardware_threads();
    for (i, r) in chunked.iter().enumerate() {
        let t1 = r.threads.first().map_or(f64::NAN, |&(_, s)| s);
        let _ = write!(
            s,
            "    {{\"backend\": \"{}\", \"n\": {}, \"threads\": [",
            r.backend, r.n
        );
        for (j, &(t, secs)) in r.threads.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"threads\": {t}, \"gbps\": {:.3}, \"speedup_vs_1t\": {:.2}, \
                 \"oversubscribed\": {}}}",
                gbps(r.n, secs),
                t1 / secs,
                t > hw,
            );
        }
        s.push_str("]}");
        s.push_str(if i + 1 < chunked.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    // The sweep intentionally measures oversubscription when it exceeds
    // `hardware_threads`; the default decode path no longer does (see the
    // chunked-scaling diagnosis in the notes).
    let _ = writeln!(
        s,
        "  \"notes\": \"Thread counts above hardware_threads measure \
         oversubscription, not scaling: the flat chunked sweep recorded on a \
         1-core host (1.09x at 4T, before) was the pool's 4-thread exercise \
         floor leaking into ChunkedCompressor::new's default fan-out. The \
         default now clamps to min(pool_concurrency, hardware_threads) = \
         default_chunk_threads (after), so single-core hosts decode serially \
         and multi-core hosts keep the full pool width. Explicit \
         with_threads(N) still honours N for sweeps like this one.\""
    );
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_compress.json".to_string());

    let sizes: Vec<usize> = if smoke {
        vec![DEFAULT_CHUNK]
    } else {
        vec![DEFAULT_CHUNK, 1 << 20]
    };
    let tolerances: Vec<f64> = if smoke {
        vec![1e-4]
    } else {
        vec![1e-2, 1e-4, 1e-6]
    };
    let max_t = pool::global().max_concurrency();
    let hw = pool::hardware_threads();
    let mut thread_counts: Vec<usize> = vec![1, 2, 4]
        .into_iter()
        .filter(|&t| t == 1 || t <= max_t)
        .collect();
    // The sweep extension is capped at the physical core count: widths
    // beyond it only measure oversubscription (and the standard 2/4-wide
    // points already carry an `"oversubscribed"` marker when they do).
    if max_t > 4 && hw > 4 {
        thread_counts.push(max_t.min(hw));
    }

    eprintln!(
        "[compress-bench] sizes={sizes:?} tolerances={tolerances:?} chunk_threads={thread_counts:?}"
    );
    let mut codec = Vec::new();
    for &n in &sizes {
        let data = field(n);
        let reps = if smoke {
            2
        } else if n <= DEFAULT_CHUNK {
            // Best-of needs headroom against scheduler noise on shared
            // hosts; the single-chunk sizes are cheap enough to repeat.
            11
        } else {
            3
        };
        for &tol in &tolerances {
            for (name, format, c) in backends() {
                let r = run_codec(name, format, c.as_ref(), &data, tol, reps);
                eprintln!(
                    "[compress-bench] {name}/{format} n={n} tol={tol:.0e}: ratio {0:.1}x; \
                     comp {1:.2} GB/s; decomp {2:.2} GB/s (into {3:.2}); \
                     reference {4:.2} GB/s ({5:.1}x speedup)",
                    r.ratio,
                    gbps(n, r.compress_secs),
                    gbps(n, r.decompress_secs),
                    gbps(n, r.decompress_into_secs),
                    gbps(n, r.reference_secs),
                    r.reference_secs / r.decompress_secs,
                );
                codec.push(r);
            }
        }
    }

    let chunked_n = if smoke { DEFAULT_CHUNK * 4 } else { 1 << 20 };
    let chunked_reps = if smoke { 2 } else { 3 };
    // Every backend the serve path can wrap gets the thread sweep (mgard
    // has one layout, so its row keeps the seed's `v1` label).
    let chunked = vec![
        run_chunked(
            "chunked-sz-v2",
            SzCompressor::default,
            chunked_n,
            &thread_counts,
            chunked_reps,
        ),
        run_chunked(
            "chunked-zfp-v2",
            ZfpCompressor::default,
            chunked_n,
            &thread_counts,
            chunked_reps,
        ),
        run_chunked(
            "chunked-mgard-v1",
            MgardCompressor::default,
            chunked_n,
            &thread_counts,
            chunked_reps,
        ),
    ];
    for r in &chunked {
        eprintln!(
            "[compress-bench] {} n={}: {}",
            r.backend,
            r.n,
            r.threads
                .iter()
                .map(|&(t, s)| format!("{t}T {:.2} GB/s", gbps(r.n, s)))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    let json = to_json(&codec, &chunked);
    if smoke {
        println!("{json}");
        // CI gate 1: at the default chunk size every optimized decoder must
        // be at least as fast as its frozen seed-path baseline (5% timing
        // slack for loaded CI machines).
        let mut failed = false;
        for r in codec.iter().filter(|r| r.n == DEFAULT_CHUNK) {
            if r.decompress_secs > r.reference_secs * 1.05 {
                eprintln!(
                    "[compress-bench] FAIL: {}/{} optimized decode {:.4}s slower than \
                     seed path {:.4}s at n={}",
                    r.backend, r.format, r.decompress_secs, r.reference_secs, r.n
                );
                failed = true;
            }
        }
        // CI gate 2: absolute decode-throughput floors for the v2 SIMD
        // kernels, set well below (≈ 40% of) the numbers recorded in
        // BENCH_compress.json so only a real regression — a kernel
        // silently falling back to scalar, a format change serializing
        // the lanes — trips them on a loaded CI box.
        for &(backend, floor) in SMOKE_DECODE_FLOORS_GBPS {
            for r in codec
                .iter()
                .filter(|r| r.backend == backend && r.format == "v2" && r.n == DEFAULT_CHUNK)
            {
                let got = gbps(r.n, r.decompress_into_secs);
                if got < floor {
                    eprintln!(
                        "[compress-bench] FAIL: {backend}/v2 decompress_into {got:.3} GB/s \
                         below the {floor:.3} GB/s smoke floor at n={}",
                        r.n
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("[compress-bench] smoke OK");
    } else {
        std::fs::write(&out_path, &json).expect("write bench json");
        eprintln!("[compress-bench] wrote {out_path}");
        println!("{json}");
    }
}

//! The traced pass: per-layer metrics from response stages, `obs` spans
//! and a replay of the workload's own inputs through each layer's public
//! functions.
//!
//! The pass alternates short untraced and traced rounds.  Between rounds
//! the load pauses, so the span rings can be read and cleared before they
//! wrap, and the two kinds of round see the same host conditions, which
//! makes their ratio of requests served per CPU-second the tracing
//! overhead.

use crate::drive::{Sample, Served};
use crate::report::{Json, Metric};
use crate::workload::Workload;
use crate::{cert, stats};
use errflow_compress::{ChunkedCompressor, Compressor, ErrorBound, SzCompressor};
use errflow_core::{quantize_model, NetworkAnalysis};
use errflow_net::proto::{encode_request, encode_response, RequestFrame, ResponseFrame};
use errflow_nn::{Mlp, Model};
use errflow_obs::trace::TraceEvent;
use errflow_pipeline::planner::flatten;
use errflow_pipeline::{PipelinePlan, Planner, PlannerConfig};
use errflow_quant::QuantFormat;
use errflow_serve::bucket_tolerance;
use errflow_tensor::norms::Norm;
use errflow_tensor::sync::lock_recover;
use errflow_tensor::Matrix;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One round of the traced pass: long enough for a few of the burst
/// workloads' bursts, short enough that the span rings do not wrap.
const ROUND: Duration = Duration::from_millis(300);

/// Requests replayed through each layer.
const REPLAY_REQUESTS: usize = 32;

/// The per-layer metrics: `(layer, name, unit, end-to-end metric it should
/// move, workload it should move it on)`.  `BENCHMARK.json` lists the same
/// names in the same order.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, &str, &str, &str)] = &[
    ("net", "net.ingress_ms_p50", "ms", "latency_p50_ms", "field-256k"),
    ("net", "net.egress_ms_p50", "ms", "latency_p50_ms", "field-256k"),
    ("net", "net.overhead_ms_p50", "ms", "latency_p50_ms", "tiny-mixed"),
    ("net", "net.bytes_per_req", "B", "cpu_ms_per_req", "field-256k"),
    ("serve", "serve.queue_wait_ms_p50", "ms", "latency_p90_ms", "burst-closed"),
    ("serve", "serve.queue_wait_ms_p99", "ms", "latency_p90_ms", "burst-closed"),
    ("serve", "serve.batch_size_mean", "count", "cpu_ms_per_req", "burst-closed"),
    ("serve", "serve.reject_ratio", "ratio", "ok_ratio", "burst-closed"),
    ("serve", "serve.plan_hit_ratio", "ratio", "latency_p90_ms", "tiny-mixed"),
    ("serve", "serve.plan_ms_mean", "ms", "latency_p90_ms", "tiny-mixed"),
    ("serve", "serve.decode_ms_p50", "ms", "throughput_rps", "field-256k"),
    ("serve", "serve.forward_ms_p50", "ms", "throughput_rps", "field-256k"),
    ("serve", "serve.unattributed_ms_mean", "ms", "latency_p50_ms", "field-256k"),
    ("pipeline", "pipeline.plan_us", "us", "latency_p90_ms", "tiny-mixed"),
    ("quant", "quant.quantize_us", "us", "latency_p90_ms", "tiny-mixed"),
    ("nn", "nn.pack_us", "us", "latency_p90_ms", "tiny-mixed"),
    ("core", "core.analysis_ms", "ms", "setup_s", "all"),
    ("core", "core.realized_over_certified_max", "ratio", "ok_ratio", "tiny-mixed"),
    ("core", "core.realized_over_certified_p50", "ratio", "ok_ratio", "tiny-mixed"),
    ("core", "core.cert_violations", "count", "ok_ratio", "tiny-mixed"),
    ("compress", "compress.compress_ms_per_req", "ms", "latency_p50_ms", "field-256k"),
    ("compress", "compress.decode_ms_per_req", "ms", "latency_p50_ms", "field-256k"),
    ("compress", "compress.ratio", "ratio", "cpu_ms_per_req", "field-256k"),
    ("compress", "compress.scratch_hit_ratio", "ratio", "cpu_ms_per_req", "field-256k"),
    ("nn", "nn.forward_ms_per_req", "ms", "throughput_rps", "field-256k"),
    ("nn", "nn.layer0.gemm_ms", "ms", "throughput_rps", "field-256k"),
    ("nn", "nn.layer0.epilogue_ms", "ms", "throughput_rps", "field-256k"),
    ("nn", "nn.layer1.gemm_ms", "ms", "throughput_rps", "field-256k"),
    ("nn", "nn.layer1.epilogue_ms", "ms", "throughput_rps", "field-256k"),
    ("tensor", "tensor.gemm_gflops", "GFLOP/s", "throughput_rps", "field-256k"),
    ("obs", "obs.trace_overhead_ratio", "ratio", "throughput_rps", "all"),
    ("obs", "obs.spans_per_req", "count", "throughput_rps", "all"),
    ("loadgen", "loadgen.late_ms_p99", "ms", "(run validity)", "burst-closed"),
    ("recon", "recon.stage_share_mean", "ratio", "(check: ≤ 1)", "all"),
    ("recon", "recon.nn_layer_residual", "ratio", "(check: ~0)", "field-256k"),
    ("recon", "recon.compress_span_coverage", "ratio", "(check: ~1)", "field-256k"),
];

/// Span totals of one name: occurrences, wall time, and self time (wall
/// time minus the part direct children on the same thread cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans recorded by `record_span` from another thread's start time: they
/// overlap unrelated work on the recording thread, so they parent nothing.
const CROSS_THREAD_SPANS: &[&str] = &["serve.batch_wait"];

/// Adds `events` into per-name totals.  Nesting is by interval
/// containment on one thread.
pub fn add_self_times(events: &[TraceEvent], into: &mut BTreeMap<&'static str, SpanTotals>) {
    let mut by_tid: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for evs in by_tid.values_mut() {
        // Parents before the children they contain.
        evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut child_ns = vec![0u64; evs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            let end = e.start_ns + e.dur_ns;
            while let Some(&top) = stack.last() {
                let t = evs[top];
                if t.start_ns + t.dur_ns >= end && !CROSS_THREAD_SPANS.contains(&t.name) {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += e.dur_ns;
            }
            stack.push(i);
        }
        for (e, c) in evs.iter().zip(child_ns) {
            let t = into.entry(e.name).or_default();
            t.count += 1;
            t.total_ns += e.dur_ns;
            t.self_ns += e.dur_ns.saturating_sub(c);
        }
    }
}

/// Mean request + response frame bytes over the first few served
/// requests, from `proto::encode_request` and `proto::encode_response`.
pub fn wire_bytes_per_req(wl: &Workload, seed: u64, samples: &[Sample]) -> f64 {
    let sizes: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some((s, s.served()?)))
        .take(16)
        .map(|(s, served)| {
            let g = wl.request(seed, s.stream, s.k);
            let req = encode_request(&RequestFrame {
                model_id: 0,
                rel_tolerance: g.tol,
                norm: g.norm,
                layout: wl.layout,
                samples: g.samples,
            });
            let resp = encode_response(&ResponseFrame {
                outputs: served.outputs.clone(),
                rel_bound: served.rel_bound,
                plan_tolerance: served.plan_tol,
                format: QuantFormat::Fp32,
                cache_hit: served.cache_hit,
                batch_size: served.batch_size as u32,
                latency_ns: served.latency_ns,
                stages: served.stages,
            });
            match (req, resp) {
                (Ok(a), Ok(b)) => (a.len() + b.len()) as f64,
                _ => f64::NAN,
            }
        })
        .collect();
    stats::mean(&sizes)
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// The server's input-budget bound for one payload (the rule
/// `Server` applies on the request path).
fn compressor_bound(plan: &PipelinePlan, c: &dyn Compressor, len: usize) -> ErrorBound {
    let l2 = ErrorBound::abs_l2(plan.input_budget_l2);
    if c.supports(&l2) {
        l2
    } else {
        ErrorBound::abs_linf(plan.input_budget_l2 / (len.max(1) as f64).sqrt())
    }
}

/// Decodes a stream the way the server's batch decode does: split into
/// units, fan the units out on the shared pool, one pooled scratch each.
fn decode_like_server(
    c: &dyn Compressor,
    stream: &[u8],
    out: &mut [f32],
    threads: usize,
) -> Result<(), String> {
    let units = c
        .decode_units(stream, out.len())
        .map_err(|e| e.to_string())?;
    let mut rest = out;
    let mut cells = Vec::with_capacity(units.len());
    for u in units {
        let all = std::mem::take(&mut rest);
        let (head, tail) = all.split_at_mut(u.len.min(all.len()));
        rest = tail;
        cells.push(Mutex::new(Some((u, head))));
    }
    let failed = Mutex::new(None);
    let one = |i: usize| {
        if let Some((unit, dst)) = lock_recover(&cells[i]).take() {
            let mut scratch = errflow_compress::scratch::acquire();
            if let Err(e) = c.decode_unit_into(&unit, dst, &mut scratch) {
                *lock_recover(&failed) = Some(e.to_string());
            }
        }
    };
    if threads <= 1 || cells.len() <= 1 {
        (0..cells.len()).for_each(one);
    } else {
        errflow_tensor::pool::global().parallel_for(cells.len(), threads, one);
    }
    match failed
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Layer timings from replaying the workload's inputs.
#[derive(Debug, Default)]
struct Replay {
    plan_us: f64,
    quantize_us: f64,
    pack_us: f64,
    analysis_ms: f64,
    compress_ms: f64,
    decode_ms: f64,
    ratio: f64,
    forward_ms: f64,
    /// Per layer: (GEMM ms, bias + activation ms), medians per request.
    layers: Vec<(f64, f64)>,
    gemm_gflops: f64,
}

/// A plan-cache entry rebuilt outside the server.
struct Planned {
    plan: PipelinePlan,
    quantized: Mlp,
    packed: Option<errflow_nn::PackedWeights>,
}

fn replay(
    model: &Mlp,
    calib: &[Vec<f32>],
    wl: &Workload,
    seed: u64,
    served: &[(&Sample, &Served)],
) -> Result<Replay, String> {
    let cfg = crate::serve_config();
    let analysis = NetworkAnalysis::of(model);
    let mut r = Replay {
        analysis_ms: stats::median(
            &(0..3)
                .map(|_| time(|| NetworkAnalysis::of(model)).1 * 1e3)
                .collect::<Vec<_>>(),
        ),
        ..Replay::default()
    };

    // Planning, quantization and packing, per plan key of the replayed
    // requests.
    let served = &served[..served.len().min(REPLAY_REQUESTS)];
    let mut keys: Vec<(i32, Norm, f64)> = Vec::new();
    for (s, sv) in served {
        let b = bucket_tolerance(sv.plan_tol).0;
        if !keys.iter().any(|&(kb, kn, _)| kb == b && kn == s.norm) {
            keys.push((b, s.norm, sv.plan_tol));
        }
    }
    let (mut plan_us, mut quant_us, mut pack_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut planned: HashMap<(i32, Norm), Planned> = HashMap::new();
    for &(b, norm, plan_tol) in &keys {
        for _ in 0..3 {
            let (plan, secs) = time(|| {
                Planner::with_analysis(model, calib, analysis.clone()).plan(&PlannerConfig {
                    rel_tolerance: plan_tol,
                    norm,
                    quant_share: cfg.quant_share,
                })
            });
            plan_us.push(secs * 1e6);
            let (quantized, secs) = time(|| quantize_model(model, plan.format));
            quant_us.push(secs * 1e6);
            let (packed, secs) = time(|| quantized.pack_weights());
            pack_us.push(secs * 1e6);
            planned.insert(
                (b, norm),
                Planned {
                    plan,
                    quantized,
                    packed,
                },
            );
        }
    }
    r.plan_us = stats::median(&plan_us);
    r.quantize_us = stats::median(&quant_us);
    r.pack_us = stats::median(&pack_us);

    // Codec and forward pass, on the requests the pass served.
    let threads = cfg
        .decode_threads
        .max(1)
        .min(errflow_tensor::pool::hardware_threads());
    let codec = ChunkedCompressor::new(SzCompressor::default()).with_threads(threads);
    let (mut comp_ms, mut dec_ms, mut fwd_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_bytes, mut stream_bytes) = (0usize, 0usize);
    let n_layers = model.layers().len();
    let mut layer_ms: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); n_layers];
    let (mut flops, mut gemm_s) = (0.0f64, 0.0f64);
    for (s, sv) in served {
        let key = (bucket_tolerance(sv.plan_tol).0, s.norm);
        let p = planned.get(&key).ok_or("replay met an unplanned key")?;
        let g = wl.request(seed, s.stream, s.k);
        let payload = flatten(&g.samples, wl.layout);
        let bound = compressor_bound(&p.plan, &codec, payload.len());
        let (stream, secs) = time(|| codec.compress(&payload, &bound));
        let stream = stream.map_err(|e| e.to_string())?;
        comp_ms.push(secs * 1e3);
        raw_bytes += payload.len() * 4;
        stream_bytes += stream.len();
        let mut out = vec![0.0f32; payload.len()];
        let (res, secs) = time(|| decode_like_server(&codec, &stream, &mut out, threads));
        res?;
        dec_ms.push(secs * 1e3);

        let x = Matrix::from_rows(&g.samples).map_err(|e| e.to_string())?;
        let (_, secs) = time(|| p.quantized.forward_batch_matrix(&x, p.packed.as_ref()));
        fwd_ms.push(secs * 1e3);
        // The same forward, one layer at a time: GEMM, then the epilogue.
        let packed = p.packed.as_ref().ok_or("model has no packed weights")?;
        let mut h = x;
        for (li, layer) in p.quantized.layers().iter().enumerate() {
            let pb = packed.layer(li).ok_or("missing packed layer")?;
            let (z, g_s) = time(|| h.matmul_transb_prepacked(pb));
            let mut z = z.map_err(|e| e.to_string())?;
            let ((), e_s) = time(|| {
                let (bias, act) = (layer.bias(), layer.activation());
                for row in 0..z.rows() {
                    let row = z.row_mut(row);
                    for (v, &b) in row.iter_mut().zip(bias) {
                        *v += b;
                    }
                    act.apply_slice(row);
                }
            });
            flops += 2.0 * (h.rows() * h.cols() * z.cols()) as f64;
            gemm_s += g_s;
            layer_ms[li].0.push(g_s * 1e3);
            layer_ms[li].1.push(e_s * 1e3);
            h = z;
        }
    }
    r.compress_ms = stats::median(&comp_ms);
    r.decode_ms = stats::median(&dec_ms);
    r.forward_ms = stats::median(&fwd_ms);
    r.ratio = raw_bytes as f64 / stream_bytes.max(1) as f64;
    r.layers = layer_ms
        .iter()
        .map(|(g, e)| (stats::median(g), stats::median(e)))
        .collect();
    r.gemm_gflops = flops / gemm_s.max(1e-12) / 1e9;
    Ok(r)
}

/// One round's outcome.
struct Round {
    traced: bool,
    /// Process CPU the round used.
    cpu_s: f64,
    samples: Vec<Sample>,
    spans: u64,
    lost: u64,
}

fn per_ms<'a>(xs: impl Iterator<Item = &'a Served>, f: impl Fn(&Served) -> f64) -> Vec<f64> {
    stats::sorted(&xs.map(|s| f(s) / 1e6).collect::<Vec<_>>())
}

/// Runs the traced pass.
pub fn run_traced(wl: &Workload, seed: u64, seconds: u64) -> Result<crate::RunResult, String> {
    use errflow_obs::trace;
    let (model, calib) = (crate::model(), crate::calibration());
    trace::set_enabled(false);
    let (mut bench, _) = crate::set_up(wl, seed, &model, &calib)?;
    bench.restart_streams(wl, seed, crate::WARM_STREAM);
    bench.warm_up(wl, crate::WARM_LOAD);
    bench.restart_streams(wl, seed, 0);

    let before = bench.server.stats();
    let mut agg: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let mut rounds = Vec::new();
    let end = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < end || rounds.len() % 2 == 1 {
        let traced = rounds.len() % 2 == 1;
        trace::clear();
        trace::set_enabled(traced);
        let cpu0 = stats::process_cpu_secs().ok_or("no /proc/self/stat")?;
        let t0 = Instant::now();
        let samples = bench.drive(wl, t0, t0 + ROUND);
        let cpu_s = stats::process_cpu_secs().ok_or("no /proc/self/stat")? - cpu0;
        trace::set_enabled(false);
        let (mut spans, mut lost) = (0, 0);
        if traced {
            let events = trace::snapshot();
            spans = trace::recorded_total();
            lost = spans.saturating_sub(events.len() as u64);
            add_self_times(&events, &mut agg);
        }
        rounds.push(Round {
            traced,
            cpu_s,
            samples,
            spans,
            lost,
        });
    }
    let after = bench.server.stats();
    drop(bench);

    let all: Vec<Sample> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().cloned())
        .collect();
    let threads = errflow_tensor::pool::hardware_threads();
    let refs = crate::qoi_refs(&model, &calib);
    let c = cert::check(&model, wl, seed, &all, |n| crate::qoi_of(refs, n), threads);
    let tally = crate::drive::Tally::of(&all, &c.violated);

    let traced: Vec<&Sample> = rounds
        .iter()
        .filter(|r| r.traced)
        .flat_map(|r| r.samples.iter())
        .collect();
    let served: Vec<(&Sample, &Served)> = traced
        .iter()
        .filter_map(|s| Some((*s, s.served()?)))
        .collect();
    if served.is_empty() {
        return Err("the traced rounds served nothing".into());
    }
    let sv = || served.iter().map(|&(_, s)| s);
    let n = served.len() as f64;
    // Capacity, as requests served per CPU-second: an open loop's
    // throughput is its schedule's, so wall-clock rate would hide the cost.
    let capacity = |tr: bool| {
        let (done, cpu) = rounds
            .iter()
            .filter(|r| r.traced == tr)
            .fold((0.0, 0.0), |(d, c), r| {
                (
                    d + r.samples.iter().filter(|s| s.served().is_some()).count() as f64,
                    c + r.cpu_s,
                )
            });
        done / cpu
    };
    let spans: u64 = rounds.iter().map(|r| r.spans).sum();
    let lost: u64 = rounds.iter().map(|r| r.lost).sum();

    let ingress = per_ms(sv(), |s| s.stages.ingress_ns as f64);
    let egress = per_ms(sv(), |s| s.stages.egress_ns as f64);
    let overhead = stats::sorted(
        &served
            .iter()
            .map(|(s, v)| (s.done_ns - s.sent_ns) as f64 / 1e6 - v.latency_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let wait = per_ms(sv(), |s| s.stages.batch_wait_ns as f64);
    let decode = per_ms(sv(), |s| s.stages.decompress_ns as f64);
    let forward = per_ms(sv(), |s| s.stages.forward_ns as f64);
    let unattributed: Vec<f64> = sv().map(|s| s.unattributed_ns() as f64 / 1e6).collect();
    let unattributed_mean = stats::mean(&unattributed);
    let excess_ns = sv()
        .map(|s| (-s.unattributed_ns()).max(0))
        .max()
        .unwrap_or(0);
    let late = stats::sorted(
        &traced
            .iter()
            .map(|s| s.late_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let ratios = stats::sorted(&c.ratios);

    let replay = replay(&model, &calib, wl, seed, &served)?;
    let layer_sum: f64 = replay.layers.iter().map(|(g, e)| g + e).sum();
    let compress_span_ms = agg
        .get("codec.chunked.compress")
        .map_or(0.0, |t| t.total_ns as f64)
        / 1e6
        / n;
    let scratch = (after.scratch_hits - before.scratch_hits) as f64;
    let scratch_all = scratch + (after.scratch_misses - before.scratch_misses) as f64;
    let layer = |i: usize| {
        replay
            .layers
            .get(i)
            .copied()
            .unwrap_or((f64::NAN, f64::NAN))
    };

    let values: BTreeMap<&str, f64> = [
        ("net.ingress_ms_p50", stats::percentile(&ingress, 0.5)),
        ("net.egress_ms_p50", stats::percentile(&egress, 0.5)),
        ("net.overhead_ms_p50", stats::percentile(&overhead, 0.5)),
        ("net.bytes_per_req", wire_bytes_per_req(wl, seed, &all)),
        ("serve.queue_wait_ms_p50", stats::percentile(&wait, 0.5)),
        ("serve.queue_wait_ms_p99", stats::percentile(&wait, 0.99)),
        (
            "serve.batch_size_mean",
            sv().map(|s| s.batch_size as f64).sum::<f64>() / n,
        ),
        (
            "serve.reject_ratio",
            traced
                .iter()
                .filter(|s| matches!(s.outcome, crate::drive::Outcome::Refused))
                .count() as f64
                / traced.len() as f64,
        ),
        (
            "serve.plan_hit_ratio",
            sv().filter(|s| s.cache_hit).count() as f64 / n,
        ),
        (
            "serve.plan_ms_mean",
            sv().map(|s| s.stages.plan_ns as f64 / 1e6).sum::<f64>() / n,
        ),
        ("serve.decode_ms_p50", stats::percentile(&decode, 0.5)),
        ("serve.forward_ms_p50", stats::percentile(&forward, 0.5)),
        ("serve.unattributed_ms_mean", unattributed_mean),
        ("pipeline.plan_us", replay.plan_us),
        ("quant.quantize_us", replay.quantize_us),
        ("nn.pack_us", replay.pack_us),
        ("core.analysis_ms", replay.analysis_ms),
        (
            "core.realized_over_certified_max",
            ratios.last().copied().unwrap_or(f64::NAN),
        ),
        (
            "core.realized_over_certified_p50",
            stats::percentile(&ratios, 0.5),
        ),
        ("core.cert_violations", c.violations() as f64),
        ("compress.compress_ms_per_req", replay.compress_ms),
        ("compress.decode_ms_per_req", replay.decode_ms),
        ("compress.ratio", replay.ratio),
        ("compress.scratch_hit_ratio", scratch / scratch_all.max(1.0)),
        ("nn.forward_ms_per_req", replay.forward_ms),
        ("nn.layer0.gemm_ms", layer(0).0),
        ("nn.layer0.epilogue_ms", layer(0).1),
        ("nn.layer1.gemm_ms", layer(1).0),
        ("nn.layer1.epilogue_ms", layer(1).1),
        ("tensor.gemm_gflops", replay.gemm_gflops),
        ("obs.trace_overhead_ratio", capacity(true) / capacity(false)),
        ("obs.spans_per_req", spans as f64 / n),
        ("loadgen.late_ms_p99", stats::percentile(&late, 0.99)),
        (
            "recon.stage_share_mean",
            sv().map(|s| s.served_stage_ns() as f64 / s.latency_ns.max(1) as f64)
                .sum::<f64>()
                / n,
        ),
        (
            "recon.nn_layer_residual",
            (replay.forward_ms - layer_sum) / replay.forward_ms,
        ),
        (
            "recon.compress_span_coverage",
            compress_span_ms / unattributed_mean,
        ),
    ]
    .into_iter()
    .collect();

    // The human-readable report: host, properties, the layer table, span
    // self times, the request-span breakdown and the reconciliations.
    println!("host {}", crate::host::record().render());
    let ratio = (after.decomp_bytes_out - before.decomp_bytes_out) as f64
        / (after.decomp_bytes_in - before.decomp_bytes_in).max(1) as f64;
    println!(
        "properties {}",
        crate::properties(wl, &all, ratio, values["net.bytes_per_req"]).render()
    );
    println!("certificate {}", crate::cert_json(&c).render());
    println!(
        "{:<9} {:<34} {:>14} {:<8} {:<16} on",
        "layer", "metric", "value", "unit", "moves"
    );
    for &(layer, name, unit, moves, on) in PER_LAYER {
        println!(
            "{layer:<9} {name:<34} {:>14.6} {unit:<8} {moves:<16} {on}",
            values[name]
        );
    }
    let mut span_json = Json::obj();
    for (name, t) in &agg {
        span_json = span_json.obj_field(
            name,
            Json::obj()
                .num("per_req", t.count as f64 / n)
                .num("total_ms_per_req", t.total_ns as f64 / 1e6 / n)
                .num("self_ms_per_req", t.self_ns as f64 / 1e6 / n),
        );
    }
    println!("spans {}", span_json.render());
    println!(
        "span_capture {}",
        Json::obj()
            .num("recorded", spans as f64)
            .num("lost_to_ring_wrap", lost as f64)
            .num("rounds", rounds.len() as f64)
            .render()
    );
    // The benchmark's own request spans: client time split into the
    // response's stages, the unattributed server time, and the rest
    // (wire, socket and client-side framing), which is the request span's
    // self time.
    let mean_ms = |f: &dyn Fn(&Sample, &Served) -> f64| {
        served.iter().map(|&(s, v)| f(s, v)).sum::<f64>() / n / 1e6
    };
    println!(
        "request_spans {}",
        Json::obj()
            .num(
                "request_ms",
                mean_ms(&|s, _| (s.done_ns - s.sent_ns) as f64)
            )
            .num(
                "net.ingress_ms",
                mean_ms(&|_, v| v.stages.ingress_ns as f64)
            )
            .num(
                "serve.batch_wait_ms",
                mean_ms(&|_, v| v.stages.batch_wait_ns as f64)
            )
            .num("serve.plan_ms", mean_ms(&|_, v| v.stages.plan_ns as f64))
            .num(
                "serve.decompress_ms",
                mean_ms(&|_, v| v.stages.decompress_ns as f64)
            )
            .num(
                "serve.unattributed_ms",
                mean_ms(&|_, v| v.unattributed_ns() as f64)
            )
            .num(
                "serve.forward_ms",
                mean_ms(&|_, v| v.stages.forward_ns as f64)
            )
            .num(
                "serve.respond_ms",
                mean_ms(&|_, v| v.stages.respond_ns as f64)
            )
            .num("net.egress_ms", mean_ms(&|_, v| v.stages.egress_ns as f64))
            .num(
                "request_self_ms",
                mean_ms(&|s, v| {
                    (s.done_ns - s.sent_ns) as f64
                        - v.latency_ns as f64
                        - (v.stages.ingress_ns + v.stages.egress_ns) as f64
                })
            )
            .render()
    );
    println!(
        "reconcile {}",
        Json::obj()
            .num("stage_sum_excess_ns_max", excess_ns as f64)
            .num("stage_share_mean", values["recon.stage_share_mean"])
            .num(
                "stages_plus_unattributed_minus_latency_ns_max",
                sv().map(|s| {
                    (s.served_stage_ns() as i64 + s.unattributed_ns() - s.latency_ns as i64).abs()
                })
                .max()
                .unwrap_or(0) as f64
            )
            .num("nn_layers_ms", layer_sum)
            .num("nn_forward_ms", replay.forward_ms)
            .num("nn_layer_residual", values["recon.nn_layer_residual"])
            .num("codec_compress_span_ms_per_req", compress_span_ms)
            .num("unattributed_ms_mean", unattributed_mean)
            .num(
                "compress_span_coverage",
                values["recon.compress_span_coverage"]
            )
            .num(
                "replay_compress_over_unattributed",
                replay.compress_ms / unattributed_mean
            )
            .render()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(_, name, unit, _, _)| Metric::new(name, unit, values[name]))
        .collect();
    Ok(crate::RunResult {
        correct: c.answers_correct(),
        attempted: tally.attempted,
        failed: tally.unanswered(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            start_ns: start,
            dur_ns: dur,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = [
            ev("a", 1, 0, 100),
            ev("b", 1, 10, 50),
            ev("c", 1, 20, 10), // child of b, grandchild of a
            ev("d", 1, 70, 20),
            ev("a", 2, 0, 30), // another thread: no nesting across threads
            ev("serve.batch_wait", 3, 0, 100),
            ev("x", 3, 10, 5), // inside a cross-thread interval: not its child
        ];
        let mut agg = BTreeMap::new();
        add_self_times(&events, &mut agg);
        assert_eq!(agg["a"].count, 2);
        assert_eq!(agg["a"].total_ns, 130);
        assert_eq!(agg["a"].self_ns, 100 - 50 - 20 + 30);
        assert_eq!(agg["b"].self_ns, 40);
        assert_eq!(agg["c"].self_ns, 10);
        assert_eq!(agg["serve.batch_wait"].self_ns, 100);
        assert_eq!(agg["x"].self_ns, 5);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|r| r.1).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}

//! The certificate check, run after timing ends.
//!
//! For every served request it regenerates the inputs from the seed, runs
//! the unquantized FP32 model, and compares the realized error of the
//! served outputs, relative to `Planner::qoi_reference(norm)`, with the
//! `rel_bound` the response certified.  The load loops cycle through a
//! ring of requests, so each distinct request's reference is computed
//! once and shared by every response to it.

use crate::drive::Sample;
use crate::workload::Workload;
use errflow_nn::{Mlp, Model};
use errflow_tensor::norms::{diff_norm, Norm};
use std::collections::HashMap;

/// Relative error above which an answer is wrong, not just
/// under-certified: 20× the FP32 arithmetic noise the model's outputs
/// carry, and far below any error a wrong computation makes.
pub const WRONG_ANSWER_FLOOR: f64 = 1e-5;

/// Tolerances below this are where the seed's certificate is known to be
/// unsound (it does not account for FP32 rounding).
pub const TIGHT_TOLERANCE: f64 = 1e-6;

/// The outcome of checking one set of samples.
#[derive(Debug, Clone, Default)]
pub struct CertReport {
    /// Served responses checked.
    pub checked: usize,
    /// `violated[i]`: sample `i` was served and its realized error
    /// exceeded its certificate.
    pub violated: Vec<bool>,
    /// Realized ÷ certified, one per served response.
    pub ratios: Vec<f64>,
    /// Violations at tolerances ≥ [`TIGHT_TOLERANCE`].
    pub violations_at_loose_tol: usize,
    /// Responses with the wrong shape or non-finite outputs.
    pub malformed: usize,
    /// Responses whose realized error exceeds both the certificate and
    /// [`WRONG_ANSWER_FLOOR`].
    pub wrong: usize,
}

impl CertReport {
    pub fn violations(&self) -> usize {
        self.violated.iter().filter(|&&v| v).count()
    }

    /// Every answer has the right shape, finite values, and an error no
    /// FP32 rounding explains away.
    pub fn answers_correct(&self) -> bool {
        self.malformed == 0 && self.wrong == 0
    }
}

/// Realized relative error of `outputs` against `reference` (one row per
/// sample): the worst sample's error norm over the reference QoI
/// magnitude.  `None` when the outputs have the wrong shape or are not
/// finite.
pub fn realized_rel_error(
    reference: &[Vec<f32>],
    outputs: &[Vec<f32>],
    norm: Norm,
    qoi_ref: f64,
) -> Option<f64> {
    if outputs.len() != reference.len() {
        return None;
    }
    let mut worst = 0.0f64;
    for (want, got) in reference.iter().zip(outputs) {
        if got.len() != want.len() || !got.iter().all(|v| v.is_finite()) {
            return None;
        }
        worst = worst.max(diff_norm(want, got, norm) / qoi_ref);
    }
    Some(worst)
}

/// Checks every served sample.  `qoi_ref(norm)` is the planner's
/// reference magnitude.  Runs on up to `threads` threads.
pub fn check(
    model: &Mlp,
    wl: &Workload,
    seed: u64,
    samples: &[Sample],
    qoi_ref: impl Fn(Norm) -> f64 + Sync,
    threads: usize,
) -> CertReport {
    let mut keys: Vec<(u64, u64)> = samples
        .iter()
        .filter(|s| s.served().is_some())
        .map(|s| (s.stream, s.k))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    // The model's own per-sample FP32 forward, not the server's batched
    // GEMM path, so the check sees the server's arithmetic error as well
    // as its compression and quantization error.
    let reference_of = |&(stream, k): &(u64, u64)| -> Vec<Vec<f32>> {
        let g = wl.request(seed, stream, k);
        g.samples.iter().map(|x| model.forward(x)).collect()
    };
    let references: HashMap<(u64, u64), Vec<Vec<f32>>> = keys
        .iter()
        .copied()
        .zip(in_parallel(&keys, threads, reference_of))
        .collect();

    // (violated, realized ÷ certified, malformed, wrong)
    type Verdict = Option<(bool, f64, bool, bool)>;
    let verdict = |s: &Sample| -> Verdict {
        let served = s.served()?;
        let reference = &references[&(s.stream, s.k)];
        Some(
            match realized_rel_error(reference, &served.outputs, s.norm, qoi_ref(s.norm)) {
                None => (false, f64::NAN, true, false),
                Some(err) => {
                    let violated = err > served.rel_bound;
                    let wrong = err > served.rel_bound.max(WRONG_ANSWER_FLOOR);
                    (violated, err / served.rel_bound, false, wrong)
                }
            },
        )
    };
    let verdicts = in_parallel(samples, threads, verdict);
    let mut report = CertReport {
        violated: vec![false; samples.len()],
        ..CertReport::default()
    };
    for (i, v) in verdicts.into_iter().enumerate() {
        let Some((violated, ratio, malformed, wrong)) = v else {
            continue;
        };
        report.checked += 1;
        report.violated[i] = violated;
        if violated && samples[i].tol >= TIGHT_TOLERANCE {
            report.violations_at_loose_tol += 1;
        }
        if malformed {
            report.malformed += 1;
        } else {
            report.ratios.push(ratio);
        }
        report.wrong += usize::from(wrong);
    }
    report
}

/// `f` over `items` on up to `threads` threads, results in order.
fn in_parallel<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("certificate check panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realized_error_is_the_worst_sample_over_the_reference() {
        let reference = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let outputs = vec![vec![1.0, 0.0], vec![0.0, 1.5]];
        let err = realized_rel_error(&reference, &outputs, Norm::L2, 2.0).unwrap();
        assert!((err - 0.25).abs() < 1e-12);
        // Wrong row count, wrong width, non-finite values.
        assert_eq!(
            realized_rel_error(&reference, &outputs[..1], Norm::L2, 1.0),
            None
        );
        let narrow = vec![vec![1.0], vec![0.0]];
        assert_eq!(realized_rel_error(&reference, &narrow, Norm::L2, 1.0), None);
        let nan = vec![vec![1.0, 0.0], vec![f32::NAN, 1.0]];
        assert_eq!(realized_rel_error(&reference, &nan, Norm::LInf, 1.0), None);
    }
}

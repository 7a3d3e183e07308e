//! The benchmark's workloads and their seeded inputs.
//!
//! Every request is a pure function of `(seed, stream, k)`: the `k`-th
//! request of generator stream `stream`.  The load loops cycle through a
//! small ring of each stream's first requests, generated before the clock
//! starts, and the certificate check regenerates any request it needs
//! after timing ends.

use errflow_pipeline::planner::PayloadLayout;
use errflow_serve::bucket_tolerance;
use errflow_tensor::norms::Norm;
use errflow_tensor::rng::StdRng;

/// Model input dimension (the `Mlp` 256→128→16).
pub const INPUT_DIM: usize = 256;

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// `clients` EFNP connections, each sending its next request only
    /// after the previous reply.
    Closed { clients: usize },
    /// One in-process generator calling `Server::try_submit_with` in
    /// bursts of `burst` requests: `rate` bursts per second on a fixed
    /// schedule (an open loop), or with no rate each burst once the last
    /// has completed (a closed loop).  A burst's leader goes first; its
    /// followers are submitted together once the server has dequeued the
    /// leader (see [`crate::drive::burst_loop`]).
    Bursts { rate: Option<f64>, burst: usize },
}

/// How request tolerances are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Tolerances {
    /// One tolerance and norm: a single plan key.
    Fixed { tol: f64, norm: Norm },
    /// Log-uniform over `[lo, hi)`, norm L2 or L∞ with equal odds.
    LogUniform { lo: f64, hi: f64 },
}

/// The shape of each request's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// One smooth random walk along the flattened (feature-major) order.
    FlatWalk,
    /// Each sample its own smooth walk across the features.
    SampleWalks,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub drive: Drive,
    pub samples: usize,
    pub layout: PayloadLayout,
    pub tolerances: Tolerances,
    pub profile: Profile,
}

/// The workloads.  `BENCHMARK.json` lists `field-256k` and
/// `burst-closed`; `tiny-mixed` and `burst-open` run by name only (see the
/// README).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "field-256k",
        drive: Drive::Closed { clients: 2 },
        samples: 1024,
        layout: PayloadLayout::FeatureMajor,
        tolerances: Tolerances::Fixed {
            tol: 1e-3,
            norm: Norm::L2,
        },
        profile: Profile::FlatWalk,
    },
    Workload {
        name: "tiny-mixed",
        drive: Drive::Closed { clients: 2 },
        samples: 16,
        layout: PayloadLayout::FeatureMajor,
        tolerances: Tolerances::LogUniform { lo: 1e-8, hi: 1e-1 },
        profile: Profile::FlatWalk,
    },
    Workload {
        name: "burst-closed",
        drive: Drive::Bursts {
            rate: None,
            burst: BURST,
        },
        samples: 64,
        layout: PayloadLayout::SampleMajor,
        tolerances: Tolerances::Fixed {
            tol: 1e-3,
            norm: Norm::L2,
        },
        profile: Profile::SampleWalks,
    },
    Workload {
        name: "burst-open",
        drive: Drive::Bursts {
            rate: Some(BURST_RATE),
            burst: BURST,
        },
        samples: 64,
        layout: PayloadLayout::SampleMajor,
        tolerances: Tolerances::Fixed {
            tol: 1e-3,
            norm: Norm::L2,
        },
        profile: Profile::SampleWalks,
    },
];

/// Requests per burst of `burst-closed` and `burst-open`: a leader and 16
/// followers, which queue behind it and fill one batch of the default
/// `max_batch`.
pub const BURST: usize = 17;

/// Bursts per second of `burst-open` (offered load `BURST` × this).
/// Fixed, so a slower program shows a growing backlog instead of a
/// lighter load.
pub const BURST_RATE: f64 = 20.0;

/// Request payload each generator stream holds ready.  The load loops
/// cycle through this ring of pre-generated requests, so making inputs
/// takes no CPU from the server while the clock runs.
const RING_BYTES: usize = 4 << 20;

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    pub samples: Vec<Vec<f32>>,
    pub tol: f64,
    pub norm: Norm,
}

/// SplitMix64 finaliser over `(seed, stream, k)`.
pub fn mix(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bounded random walk of `len` steps starting at `start`.
fn walk(rng: &mut StdRng, start: f32, len: usize) -> Vec<f32> {
    let mut v = start;
    (0..len)
        .map(|_| {
            v = (v + rng.gen_range(-0.02f32..0.02)).clamp(-1.0, 1.0);
            v
        })
        .collect()
}

impl Workload {
    /// The `k`-th request of generator `stream` under `seed`.
    pub fn request(&self, seed: u64, stream: u64, k: u64) -> GenRequest {
        let mut rng = StdRng::seed_from_u64(mix(seed, stream, k));
        let (tol, norm) = match self.tolerances {
            Tolerances::Fixed { tol, norm } => (tol, norm),
            Tolerances::LogUniform { lo, hi } => {
                let e = rng.gen_range(lo.log10()..hi.log10());
                let norm = if rng.gen_range(0.0f64..1.0) < 0.5 {
                    Norm::L2
                } else {
                    Norm::LInf
                };
                (10f64.powf(e), norm)
            }
        };
        let (n, d) = (self.samples, INPUT_DIM);
        let start = rng.gen_range(-0.5f32..0.5);
        let samples = match self.profile {
            Profile::FlatWalk => {
                // Feature-major flattening reads feature j of every sample
                // before feature j+1, so sample i, feature j sits at flat
                // index j·n + i of the walk.
                let flat = walk(&mut rng, start, n * d);
                (0..n)
                    .map(|i| (0..d).map(|j| flat[j * n + i]).collect())
                    .collect()
            }
            Profile::SampleWalks => (0..n)
                .map(|_| {
                    let s = rng.gen_range(-0.5f32..0.5);
                    walk(&mut rng, s, d)
                })
                .collect(),
        };
        GenRequest { samples, tol, norm }
    }

    /// Requests `0..n` of `stream`: the ring the load loops cycle
    /// through, so the `k`-th request sent is ring slot `k mod n`.
    pub fn ring(&self, seed: u64, stream: u64) -> Vec<GenRequest> {
        let n = (RING_BYTES / (self.samples * INPUT_DIM * 4)).max(1);
        (0..n as u64)
            .map(|k| self.request(seed, stream, k))
            .collect()
    }

    /// One tolerance per plan key the workload can hit, so set-up can plan
    /// every key before timing starts.
    pub fn key_tolerances(&self) -> Vec<(f64, Norm)> {
        match self.tolerances {
            Tolerances::Fixed { tol, norm } => vec![(tol, norm)],
            Tolerances::LogUniform { lo, hi } => {
                let (first, _) = bucket_tolerance(lo);
                let (last, _) = bucket_tolerance(hi * (1.0 - 1e-12));
                let mut out = Vec::new();
                for norm in [Norm::L2, Norm::LInf] {
                    for idx in first..=last {
                        out.push((10f64.powf((idx as f64 + 0.5) / 4.0), norm));
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_net::proto::{encode_request, RequestFrame};

    fn frame_bytes(w: &Workload, seed: u64, stream: u64, k: u64) -> Vec<u8> {
        let g = w.request(seed, stream, k);
        encode_request(&RequestFrame {
            model_id: 0,
            rel_tolerance: g.tol,
            norm: g.norm,
            layout: w.layout,
            samples: g.samples,
        })
        .expect("rectangular payload")
    }

    #[test]
    fn same_seed_gives_byte_identical_sequences() {
        for w in &WORKLOADS {
            for k in 0..3 {
                assert_eq!(
                    frame_bytes(w, 7, 1, k),
                    frame_bytes(w, 7, 1, k),
                    "{}",
                    w.name
                );
            }
            assert_ne!(
                frame_bytes(w, 7, 1, 0),
                frame_bytes(w, 8, 1, 0),
                "{}",
                w.name
            );
            assert_ne!(
                frame_bytes(w, 7, 1, 0),
                frame_bytes(w, 7, 2, 0),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn requests_have_the_workload_shape() {
        for w in &WORKLOADS {
            let g = w.request(1, 0, 0);
            assert_eq!(g.samples.len(), w.samples);
            assert!(g.samples.iter().all(|s| s.len() == INPUT_DIM));
            assert!(g.samples.iter().flatten().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn tiny_mixed_spans_56_plan_keys() {
        let w = find("tiny-mixed").expect("workload exists");
        let keys = w.key_tolerances();
        assert_eq!(keys.len(), 56);
        let buckets: std::collections::BTreeSet<(i32, bool)> = keys
            .iter()
            .map(|&(t, n)| (bucket_tolerance(t).0, n == Norm::L2))
            .collect();
        assert_eq!(buckets.len(), 56);
        // Every drawn tolerance lands on one of the warmed keys.
        for k in 0..2000 {
            let g = w.request(5, 0, k);
            let key = (bucket_tolerance(g.tol).0, g.norm == Norm::L2);
            assert!(buckets.contains(&key), "tol {} outside the key set", g.tol);
        }
    }
}

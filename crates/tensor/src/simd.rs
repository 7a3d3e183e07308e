//! Runtime CPU-feature dispatch shared by every SIMD kernel in the
//! workspace.
//!
//! The GEMM microkernel ([`crate::gemm`]) and the ZFP block-decode kernel
//! (`errflow_compress::zfp_simd`) follow the same pattern: a portable
//! scalar body that autovectorizes, plus an AVX2-instantiated body
//! selected at runtime.  This module centralises the detection so every
//! kernel asks one cached question instead of repeating
//! `is_x86_feature_detected!` probes, and so tests can reason about which
//! arm a host will take.

/// Instruction-set tier a kernel body can target, from weakest to
/// strongest.  Detection is monotone: a host reporting [`Level::Avx2`]
/// supports everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable scalar / autovectorized code only.
    Scalar,
    /// 256-bit integer + FP SIMD with gathers (x86-64 `avx2`).
    Avx2,
    /// AVX2 plus fused multiply-add (x86-64 `avx2,fma`) — the GEMM tier.
    Avx2Fma,
}

/// The strongest [`Level`] this host supports, detected once per process.
pub fn level() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static LEVEL: OnceLock<Level> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                if std::arch::is_x86_feature_detected!("fma") {
                    Level::Avx2Fma
                } else {
                    Level::Avx2
                }
            } else {
                Level::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Scalar
    }
}

/// `true` when 256-bit AVX2 integer/FP kernels (gathers, variable shifts)
/// may be selected.  Used by the codec decode kernels, which carry no FMA.
pub fn has_avx2() -> bool {
    level() >= Level::Avx2
}

/// `true` when the AVX2+FMA GEMM microkernel may be selected.
pub fn has_avx2_fma() -> bool {
    level() >= Level::Avx2Fma
}

/// Environment override for kernel-parity testing: setting
/// `ERRFLOW_NO_SIMD=1` forces every dispatcher that consults
/// [`force_scalar`] onto its portable arm, so portable-vs-SIMD parity can
/// be exercised from the test harness on any host.  Read once per process.
pub fn force_scalar() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("ERRFLOW_NO_SIMD")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_monotone() {
        let l = level();
        assert_eq!(l, level(), "detection must be cached");
        if has_avx2_fma() {
            assert!(has_avx2());
        }
        if !has_avx2() {
            assert_eq!(l, Level::Scalar);
        }
    }

    #[test]
    fn ordering_matches_capability() {
        assert!(Level::Scalar < Level::Avx2);
        assert!(Level::Avx2 < Level::Avx2Fma);
    }
}

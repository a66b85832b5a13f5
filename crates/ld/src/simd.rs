//! Process-wide SIMD dispatch shared by the LD and ω kernels.
//!
//! Both hot loops of the scan have an x86-64 fast path: the r² row
//! kernel compiles its word loop for AVX2 and hardware `POPCNT`
//! ([`crate::gemm::r2_row`]), and the ω argmax runs an explicit AVX2 lane
//! sweep (`omega_core::simd`, which re-exports this module's items).
//! One decision governs both, so a single override pins the whole scan
//! to its portable fallback.
//!
//! [`active_level`] resolves once (cached in an atomic) from, in
//! priority order: a test override ([`force_level`]), the
//! `OMEGA_FORCE_SCALAR` environment variable (any value other than
//! empty or `0` forces the scalar path), and runtime detection of both
//! `avx2` and `popcnt` ([`avx2_supported`]). The scalar code is the
//! mandatory fallback and stays the reference the fast paths are
//! proptest-pinned against.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which implementation of the hot loops is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable scalar code (autovectorizable, software popcount).
    Scalar,
    /// Explicit AVX2 intrinsics and hardware `POPCNT` (x86-64 with both
    /// runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Lowercase label for reports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

const LEVEL_UNKNOWN: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_AVX2: u8 = 2;

/// Cached dispatch decision; `LEVEL_UNKNOWN` until first use.
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNKNOWN);

fn detect() -> u8 {
    if std::env::var_os("OMEGA_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return LEVEL_SCALAR;
    }
    if avx2_supported() {
        return LEVEL_AVX2;
    }
    LEVEL_SCALAR
}

/// Whether the host CPU supports the [`SimdLevel::Avx2`] level: both
/// `avx2` and `popcnt` detected (raw detection, ignoring overrides).
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The level the kernels will dispatch to. Resolved once and cached; see
/// the module docs for the resolution order.
///
/// `#[inline]` because the ω sweep in `omega_core` checks it once per row.
/// Without it, each check is a call across crates.
#[inline]
pub fn active_level() -> SimdLevel {
    // Acquire/Release so a thread that reads a resolved level also sees
    // everything the resolving thread did before publishing it.
    match LEVEL.load(Ordering::Acquire) {
        LEVEL_SCALAR => SimdLevel::Scalar,
        LEVEL_AVX2 => SimdLevel::Avx2,
        _ => {
            let resolved = detect();
            LEVEL.store(resolved, Ordering::Release);
            if resolved == LEVEL_AVX2 {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
    }
}

/// Overrides the cached dispatch decision (tests and benches). `None`
/// re-runs detection on next use. Forcing [`SimdLevel::Avx2`] on a host
/// without AVX2 and POPCNT is downgraded to scalar — the override can
/// never make a kernel execute unsupported instructions.
pub fn force_level(level: Option<SimdLevel>) {
    let raw = match level {
        None => LEVEL_UNKNOWN,
        Some(SimdLevel::Scalar) => LEVEL_SCALAR,
        Some(SimdLevel::Avx2) if avx2_supported() => LEVEL_AVX2,
        Some(SimdLevel::Avx2) => LEVEL_SCALAR,
    };
    LEVEL.store(raw, Ordering::Release);
}

//! Explicit-SIMD ω argmax: the AVX2 port of the kernel's blocked lane
//! sweep, behind runtime feature detection.
//!
//! The scalar block loop in [`crate::kernel`] is written so the
//! autovectorizer *can* turn it into packed compares — but nothing pins
//! that, and a different compiler revision or an unlucky inlining
//! decision silently degrades the CPU baseline every speedup figure is
//! measured against. This module makes the vector shape explicit with
//! `core::arch` intrinsics:
//!
//! * the datapath evaluates the exact operation sequence of
//!   `lane_score` — packed subtract/add/multiply/divide are
//!   bit-identical to their scalar counterparts under IEEE-754, and the
//!   one max (`cross.max(0.0)`) maps to `_mm256_max_ps(x, 0)`, which
//!   agrees with `f32::max(x, 0.0)` for every input including NaN
//!   (returns `0.0`) and `-0.0` (returns `+0.0`);
//! * the reduction tracks per-lane `(total-order key, first index)`
//!   exactly like the scalar code, using a sign-flipped
//!   `_mm256_cmpgt_epi32` for the unsigned key compare; two independent
//!   8-lane streams cover the divide latency the autovectorizer leaves
//!   exposed;
//! * the winner is resolved after the sweep by the same
//!   max-key/min-index rule. Any partition of a row into streams that
//!   each report the first index of their own maximum resolves to the
//!   global `(max key, first occurrence)`, so the stream count is a pure
//!   throughput knob with no effect on results.
//!
//! Bit identity is over the datapath's input domain, which is NaN-free
//! (r² sums are finite by construction). NaN *inputs* with distinct
//! payloads are out of contract: LLVM does not pin NaN payload
//! propagation, so the scalar reference itself can return different
//! NaN bits at different optimization levels. NaNs *generated inside*
//! the datapath (0/0) are the hardware default quiet NaN on both paths
//! and stay bit-exact — `tests/simd_equivalence.rs` pins that case
//! explicitly.
//!
//! # Dispatch
//!
//! The level is resolved by `omega_ld::simd` and re-exported here, so
//! one decision (and one `OMEGA_FORCE_SCALAR` / [`force_level`]
//! override) governs both this sweep and the r² popcount kernel. The
//! scalar code in [`crate::kernel`] is the mandatory fallback and stays
//! the reference the SIMD path is proptest-pinned against.

pub use omega_ld::simd::{active_level, avx2_supported, force_level, SimdLevel};

/// `true` when the dispatcher will take the AVX2 path. Implies
/// [`avx2_supported`], so callers may invoke the unchecked sweep.
#[inline]
pub(crate) fn avx2_active() -> bool {
    active_level() == SimdLevel::Avx2
}

/// AVX2 lane sweep over one row: total-order key of the row maximum and
/// the offset of its first occurrence, bit-identical to
/// [`crate::kernel::lane_sweep_scalar`]. Returns `None` when the host
/// lacks AVX2 (or off x86-64), so portable callers need no `cfg`.
#[allow(unused_variables)]
pub fn sweep_avx2(
    ls: f32,
    lf: f32,
    comb_l: f32,
    ts: &[f32],
    rs: &[f32],
    rf: &[f32],
    comb_r: &[f32],
) -> Option<(u32, usize)> {
    #[cfg(target_arch = "x86_64")]
    if avx2_supported() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return Some(unsafe { sweep_avx2_impl(ls, lf, comb_l, ts, rs, rf, comb_r) });
    }
    None
}

/// The dispatcher's fast path: skips the redundant feature re-check.
///
/// # Safety
///
/// The caller must have verified AVX2 support ([`avx2_supported`] or an
/// [`avx2_active`] dispatch decision).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) unsafe fn sweep_avx2_unchecked(
    ls: f32,
    lf: f32,
    comb_l: f32,
    ts: &[f32],
    rs: &[f32],
    rf: &[f32],
    comb_r: &[f32],
) -> (u32, usize) {
    sweep_avx2_impl(ls, lf, comb_l, ts, rs, rf, comb_r)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2_impl(
    ls: f32,
    lf: f32,
    comb_l: f32,
    ts: &[f32],
    rs: &[f32],
    rf: &[f32],
    comb_r: &[f32],
) -> (u32, usize) {
    use std::arch::x86_64::*;

    use crate::kernel::{lane_score, total_order_key, LANES};
    use crate::params::DENOMINATOR_OFFSET;

    let n = ts.len();
    debug_assert!(n > 0 && rs.len() == n && rf.len() == n && comb_r.len() == n);
    let body = (n / LANES) * LANES;

    let ls_v = _mm256_set1_ps(ls);
    let lf_v = _mm256_set1_ps(lf);
    let comb_l_v = _mm256_set1_ps(comb_l);
    let offset_v = _mm256_set1_ps(DENOMINATOR_OFFSET);
    let zero = _mm256_setzero_ps();
    let sign = _mm256_set1_epi32(i32::MIN);

    // Two independent 8-lane streams (even/odd blocks): the three packed
    // divides dominate the block latency, and interleaving two
    // dependency chains keeps the divider busy. Keys start at the
    // total-order minimum and each lane's index at its own first
    // element, exactly like the scalar code.
    let mut best_key0 = _mm256_setzero_si256();
    let mut best_idx0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut best_key1 = _mm256_setzero_si256();
    let mut best_idx1 = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
    let mut idx0 = best_idx0;
    let mut idx1 = best_idx1;
    let step = _mm256_set1_epi32(2 * LANES as i32);

    // One ω block: the exact `lane_score` operation sequence, then the
    // total-order key fold and the strictly-greater unsigned
    // compare-and-select on (key, first index).
    macro_rules! step_block {
        ($off:expr, $best_key:ident, $best_idx:ident, $idx:ident) => {{
            let t = _mm256_loadu_ps(ts.as_ptr().add($off));
            let r = _mm256_loadu_ps(rs.as_ptr().add($off));
            let f = _mm256_loadu_ps(rf.as_ptr().add($off));
            let c = _mm256_loadu_ps(comb_r.as_ptr().add($off));
            // cross = (ts - ls - rs).max(0.0)
            let cross = _mm256_max_ps(_mm256_sub_ps(_mm256_sub_ps(t, ls_v), r), zero);
            // num = (ls + rs) / (comb_l + comb_r)
            let num = _mm256_div_ps(_mm256_add_ps(ls_v, r), _mm256_add_ps(comb_l_v, c));
            // den = cross / (lf * rf) + DENOMINATOR_OFFSET
            let den = _mm256_add_ps(_mm256_div_ps(cross, _mm256_mul_ps(lf_v, f)), offset_v);
            let w = _mm256_div_ps(num, den);
            // key = bits ^ ((bits >>a 31) | 0x8000_0000)
            let bits = _mm256_castps_si256(w);
            let key = _mm256_xor_si256(bits, _mm256_or_si256(_mm256_srai_epi32(bits, 31), sign));
            // Unsigned key > best_key via sign-bit flip + signed compare.
            let gt =
                _mm256_cmpgt_epi32(_mm256_xor_si256(key, sign), _mm256_xor_si256($best_key, sign));
            $best_key = _mm256_blendv_epi8($best_key, key, gt);
            $best_idx = _mm256_blendv_epi8($best_idx, $idx, gt);
            $idx = _mm256_add_epi32($idx, step);
        }};
    }

    let paired = (body / (2 * LANES)) * (2 * LANES);
    let mut i = 0usize;
    while i < paired {
        step_block!(i, best_key0, best_idx0, idx0);
        step_block!(i + LANES, best_key1, best_idx1, idx1);
        i += 2 * LANES;
    }
    // A single leftover block continues stream 0 (its index vector is
    // already positioned at `paired`).
    if i < body {
        step_block!(i, best_key0, best_idx0, idx0);
        i += LANES;
    }
    let _ = (i, idx0, idx1);

    let mut keys = [0u32; 2 * LANES];
    let mut idxs = [0u32; 2 * LANES];
    _mm256_storeu_si256(keys.as_mut_ptr().cast(), best_key0);
    _mm256_storeu_si256(keys.as_mut_ptr().add(LANES).cast(), best_key1);
    _mm256_storeu_si256(idxs.as_mut_ptr().cast(), best_idx0);
    _mm256_storeu_si256(idxs.as_mut_ptr().add(LANES).cast(), best_idx1);
    // Streams that processed no block contribute no candidates.
    let lanes_active = if paired > 0 {
        2 * LANES
    } else if body > 0 {
        LANES
    } else {
        0
    };

    // Scalar tail, seeded with its own first element the same way.
    let mut tail_key = 0u32;
    let mut tail_idx = body as u32;
    for j in body..n {
        let w = lane_score(ls, lf, comb_l, ts[j], rs[j], rf[j], comb_r[j]);
        let key = total_order_key(w);
        if key > tail_key {
            tail_key = key;
            tail_idx = j as u32;
        }
    }

    // Resolve: max key, ties to the smallest index — identical to the
    // scalar resolution, just over up to 16 lane candidates.
    let mut win_key = tail_key;
    let mut win_idx = if body < n { tail_idx } else { u32::MAX };
    for lane in 0..lanes_active {
        let (key, idx) = (keys[lane], idxs[lane]);
        if win_idx == u32::MAX || key > win_key || (key == win_key && idx < win_idx) {
            win_key = key;
            win_idx = idx;
        }
    }
    (win_key, win_idx as usize)
}

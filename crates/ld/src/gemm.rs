//! Batch LD as dense linear algebra: the popcount GEMM.
//!
//! The joint count `n11` of every (row, col) pair is one element of the
//! binary matrix product X·Xᵀ, which is how the BLIS mapping of Binder et
//! al. computes LD on the GPU. We implement the same formulation on the
//! CPU: a popcount GEMM blocked over column tiles for cache locality.
//!
//! Missing data costs no extra pass. Because a missing call never carries
//! a derived bit (`bits ⊆ valid`), `popcount(a.bits & b.bits)` already
//! counts only jointly valid samples, and the three marginals start from
//! each site's cached counts and are corrected over the few words that
//! actually hold a missing call ([`SnpVec::missing_words`]):
//!
//! ```text
//! ni = a.derived − Σ_{k∈Mb} popcount(a.bits[k] & !b.valid[k])
//! nj = b.derived − Σ_{k∈Ma} popcount(b.bits[k] & !a.valid[k])
//! nv = b.n_valid − Σ_{k∈Ma} popcount(b.valid[k] & !a.valid[k])
//! ```
//!
//! A pair therefore costs one popcount per word plus O(missing words),
//! and the counts equal [`SnpVec::joint_counts`] exactly, so every r² is
//! bit-identical to [`crate::r2_sites`].

use omega_genome::SnpVec;

use crate::r2::{r2_from_counts, PairCounts};

/// Number of column sites per cache tile in the blocked kernel. Sized so a
/// tile of packed words plus the output slab stays L1-resident for typical
/// sample counts.
const COL_TILE: usize = 64;

/// Computes `out[j] = r²(row, cols[j])` for one row site against a slice
/// of column sites. `out.len()` must equal `cols.len()`, and every site
/// must have the row's sample count.
pub fn r2_row(row: &SnpVec, cols: &[SnpVec], out: &mut [f32]) {
    assert_eq!(cols.len(), out.len(), "output length must match column count");
    let n = row.n_samples();
    assert!(cols.iter().all(|c| c.n_samples() == n), "r2_row requires equal sample counts");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_level() == crate::simd::SimdLevel::Avx2 {
        // SAFETY: the Avx2 level is only ever resolved (or forced) when
        // both `avx2` and `popcnt` were detected at runtime
        // (`simd::avx2_supported`).
        unsafe { r2_row_avx2(row, cols, out) };
        return;
    }
    r2_row_words(row, cols, out);
}

/// [`r2_row_words`] compiled for AVX2 and hardware `POPCNT`. LLVM turns
/// the `n11` word loop into a nibble-LUT vector popcount (`vpshufb` +
/// `vpsadbw`), which `benches/ld.rs` measured faster than scalar
/// `POPCNT` alone at 2000 haplotypes; the corrections and tails use
/// `POPCNT`.
///
/// # Safety
///
/// The host must support `avx2` and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn r2_row_avx2(row: &SnpVec, cols: &[SnpVec], out: &mut [f32]) {
    r2_row_words(row, cols, out);
}

#[inline(always)]
fn r2_row_words(row: &SnpVec, cols: &[SnpVec], out: &mut [f32]) {
    for (c, o) in cols.iter().zip(out.iter_mut()) {
        *o = r2_from_counts(pair_counts(row, c));
    }
}

/// Joint counts of one pair of equal-width sites via the missing-word
/// correction (see the module docs).
#[inline(always)]
fn pair_counts(a: &SnpVec, b: &SnpVec) -> PairCounts {
    let (ab, bb) = (a.words(), b.words());
    let (av, bv) = (a.valid_words(), b.valid_words());
    let mut n11 = 0u32;
    for (x, y) in ab.iter().zip(bb) {
        n11 += (x & y).count_ones();
    }
    let mut ni = a.derived_count();
    for &k in b.missing_words() {
        let k = k as usize;
        ni -= (ab[k] & !bv[k]).count_ones();
    }
    let (mut nj, mut n_valid) = (b.derived_count(), b.valid_count());
    for &k in a.missing_words() {
        let k = k as usize;
        nj -= (bb[k] & !av[k]).count_ones();
        n_valid -= (bv[k] & !av[k]).count_ones();
    }
    PairCounts { n11, ni, nj, n_valid }
}

/// Computes the full r² block `rows × cols` (row-major output), tiling the
/// column dimension for cache locality.
///
/// This is the CPU realisation of the GEMM-based LD computation the paper's
/// GPU path performs (§IV: "computes LD based on a general matrix
/// multiplication operation").
pub fn r2_block(rows: &[SnpVec], cols: &[SnpVec]) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * cols.len()];
    r2_block_into(rows, cols, &mut out);
    out
}

/// Like [`r2_block`], writing into a caller-provided row-major buffer of
/// length `rows.len() * cols.len()`.
pub fn r2_block_into(rows: &[SnpVec], cols: &[SnpVec], out: &mut [f32]) {
    let nc = cols.len();
    assert_eq!(out.len(), rows.len() * nc, "output buffer has wrong size");
    if rows.is_empty() || cols.is_empty() {
        return;
    }
    for (out_row, row) in out.chunks_mut(nc).zip(rows) {
        let mut j = 0;
        while j < nc {
            let hi = (j + COL_TILE).min(nc);
            r2_row(row, &cols[j..hi], &mut out_row[j..hi]);
            j = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r2::r2_sites;
    use omega_genome::Allele;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_sites(n_sites: usize, n_samples: usize, missing: bool, seed: u64) -> Vec<SnpVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_sites)
            .map(|_| {
                let calls: Vec<Allele> = (0..n_samples)
                    .map(|_| {
                        if missing && rng.gen_bool(0.05) {
                            Allele::Missing
                        } else if rng.gen_bool(0.3) {
                            Allele::One
                        } else {
                            Allele::Zero
                        }
                    })
                    .collect();
                SnpVec::from_calls(&calls)
            })
            .collect()
    }

    #[test]
    fn row_matches_scalar_reference() {
        let sites = random_sites(20, 130, false, 1);
        let mut out = vec![0.0; 19];
        r2_row(&sites[0], &sites[1..], &mut out);
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, r2_sites(&sites[0], &sites[j + 1]));
        }
    }

    #[test]
    fn row_with_missing_matches_scalar_reference() {
        let sites = random_sites(20, 70, true, 2);
        let mut out = vec![0.0; 19];
        r2_row(&sites[0], &sites[1..], &mut out);
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, r2_sites(&sites[0], &sites[j + 1]));
        }
    }

    #[test]
    fn block_matches_scalar_reference() {
        let rows = random_sites(13, 50, false, 3);
        let cols = random_sites(130, 50, false, 4); // spans multiple col tiles
        let out = r2_block(&rows, &cols);
        for i in 0..rows.len() {
            for j in 0..cols.len() {
                assert_eq!(
                    out[i * cols.len() + j],
                    r2_sites(&rows[i], &cols[j]),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn block_with_missing_matches_scalar_reference() {
        let rows = random_sites(9, 40, true, 5);
        let cols = random_sites(17, 40, true, 6);
        let out = r2_block(&rows, &cols);
        for i in 0..rows.len() {
            for j in 0..cols.len() {
                assert_eq!(out[i * cols.len() + j], r2_sites(&rows[i], &cols[j]));
            }
        }
    }

    #[test]
    fn block_with_many_rows_matches_scalar_reference() {
        let rows = random_sites(35, 64, false, 7);
        let cols = random_sites(10, 64, false, 8);
        let out = r2_block(&rows, &cols);
        for i in [0, 7, 8, 16, 34] {
            for j in 0..cols.len() {
                assert_eq!(out[i * cols.len() + j], r2_sites(&rows[i], &cols[j]));
            }
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(r2_block(&[], &random_sites(3, 10, false, 9)).is_empty());
        assert!(r2_block(&random_sites(3, 10, false, 10), &[]).is_empty());
        let mut out: Vec<f32> = vec![];
        r2_row(&random_sites(1, 10, false, 11)[0], &[], &mut out);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn block_into_validates_buffer() {
        let rows = random_sites(2, 10, false, 14);
        let cols = random_sites(2, 10, false, 15);
        let mut out = vec![0.0; 3];
        r2_block_into(&rows, &cols, &mut out);
    }

    #[test]
    #[should_panic(expected = "equal sample counts")]
    fn row_rejects_mismatched_sample_counts() {
        // 130 vs 64 samples: a zip over the words would silently truncate.
        let row = random_sites(1, 130, false, 16);
        let cols = random_sites(2, 64, false, 17);
        let mut out = vec![0.0; 2];
        r2_row(&row[0], &cols, &mut out);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::r2::r2_sites;
    use crate::simd::{force_level, SimdLevel};
    use omega_genome::Allele;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Sample counts around the word boundaries, plus the cohort width.
    const WIDTHS: [usize; 6] = [1, 63, 64, 65, 130, 2000];
    /// Missing-call rates: none, cohort-like sparse, dense, half.
    const MISSING: [f64; 4] = [0.0, 0.001, 0.05, 0.5];

    fn site_strategy(n_samples: usize, missing: f64) -> impl Strategy<Value = SnpVec> {
        (0u64..u64::MAX, 0.0f64..1.0).prop_map(move |(seed, p)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let calls: Vec<Allele> = (0..n_samples)
                .map(|_| {
                    if rng.gen_bool(missing) {
                        Allele::Missing
                    } else if rng.gen_bool(p) {
                        Allele::One
                    } else {
                        Allele::Zero
                    }
                })
                .collect();
            SnpVec::from_calls(&calls)
        })
    }

    /// Two site blocks of one width, each with its own missing rate.
    fn blocks() -> impl Strategy<Value = (Vec<SnpVec>, Vec<SnpVec>)> {
        (0..WIDTHS.len(), 0..MISSING.len(), 0..MISSING.len()).prop_flat_map(|(w, mr, mc)| {
            (
                proptest::collection::vec(site_strategy(WIDTHS[w], MISSING[mr]), 1..6),
                proptest::collection::vec(site_strategy(WIDTHS[w], MISSING[mc]), 1..6),
            )
        })
    }

    proptest! {
        #[test]
        fn corrected_counts_equal_dense_joint_counts(
            pair in (0..WIDTHS.len(), 0..MISSING.len(), 0..MISSING.len())
                .prop_flat_map(|(w, ma, mb)| {
                    (site_strategy(WIDTHS[w], MISSING[ma]), site_strategy(WIDTHS[w], MISSING[mb]))
                }),
        ) {
            let (a, b) = pair;
            let (fa, fb) = (a.flipped(), b.flipped());
            for (x, y) in [(&a, &b), (&fa, &b), (&a, &fb), (&fa, &fb), (&b, &a)] {
                prop_assert_eq!(pair_counts(x, y), PairCounts::from_sites(x, y));
            }
        }

        #[test]
        fn batch_always_matches_scalar(case in blocks()) {
            let (rows, cols) = case;
            // The override is process-wide; a concurrent test flipping it
            // only changes which (equal) path it measures.
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                force_level(Some(level));
                let out = r2_block(&rows, &cols);
                let mut row_out = vec![0.0f32; cols.len()];
                r2_row(&rows[0], &cols, &mut row_out);
                for j in 0..cols.len() {
                    prop_assert_eq!(row_out[j].to_bits(), r2_sites(&rows[0], &cols[j]).to_bits());
                }
                for i in 0..rows.len() {
                    for j in 0..cols.len() {
                        prop_assert_eq!(
                            out[i * cols.len() + j].to_bits(),
                            r2_sites(&rows[i], &cols[j]).to_bits()
                        );
                    }
                }
            }
            force_level(None);
        }

        #[test]
        fn r2_bounded_and_symmetric(a in site_strategy(48, 0.3), b in site_strategy(48, 0.3)) {
            let r = r2_sites(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-6).contains(&r));
            prop_assert_eq!(r, r2_sites(&b, &a));
        }

        #[test]
        fn self_ld_is_one_for_polymorphic(bits in proptest::collection::vec(0u8..2, 48)) {
            let a = SnpVec::from_bits(&bits);
            prop_assume!(!a.is_monomorphic());
            prop_assert!((r2_sites(&a, &a) - 1.0).abs() < 1e-6);
        }
    }
}

//! Bit-packed representation of one polymorphic site across all samples.
//!
//! Each site stores two parallel bit planes: `bits` (1 = derived allele) and
//! `valid` (1 = the call is present, 0 = missing data). All pairwise LD
//! quantities reduce to popcounts over these planes, which is what both the
//! CPU engine and the simulated accelerators operate on.

/// Number of sample lanes packed per machine word.
pub const WORD_BITS: usize = 64;

/// A single haplotype call at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allele {
    /// Ancestral (or major) allele.
    Zero,
    /// Derived (or minor) allele.
    One,
    /// Missing / ambiguous call.
    Missing,
}

/// One polymorphic site packed across samples: 64 samples per word.
///
/// Invariants maintained by every constructor and mutator:
/// * `bits & !valid == 0` — a missing sample never carries a derived bit;
/// * bits above `n_samples` are zero in both planes;
/// * cached counts and the missing-word index match the planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnpVec {
    bits: Vec<u64>,
    valid: Vec<u64>,
    n_samples: usize,
    derived: u32,
    n_valid: u32,
    /// Ascending indices of the words holding at least one missing call.
    missing_words: Box<[u32]>,
}

impl SnpVec {
    /// Builds a site from per-sample calls.
    pub fn from_calls(calls: &[Allele]) -> Self {
        let n_samples = calls.len();
        let n_words = n_samples.div_ceil(WORD_BITS);
        let mut bits = vec![0u64; n_words];
        let mut valid = vec![0u64; n_words];
        for (i, &c) in calls.iter().enumerate() {
            let (w, b) = (i / WORD_BITS, i % WORD_BITS);
            match c {
                Allele::Zero => valid[w] |= 1 << b,
                Allele::One => {
                    valid[w] |= 1 << b;
                    bits[w] |= 1 << b;
                }
                Allele::Missing => {}
            }
        }
        Self::from_planes(bits, valid, n_samples)
    }

    /// Builds a site from already-packed planes, deriving the cached
    /// counts and the missing-word index. Callers guarantee the planes
    /// hold `n_samples.div_ceil(WORD_BITS)` words, `bits ⊆ valid`, and no
    /// bit at or above `n_samples`.
    pub(crate) fn from_planes(bits: Vec<u64>, valid: Vec<u64>, n_samples: usize) -> Self {
        debug_assert_eq!(bits.len(), n_samples.div_ceil(WORD_BITS));
        debug_assert_eq!(valid.len(), bits.len());
        debug_assert!(bits.iter().zip(&valid).all(|(b, v)| b & !v == 0));
        let derived = bits.iter().map(|w| w.count_ones()).sum();
        let n_valid = valid.iter().map(|w| w.count_ones()).sum();
        let missing_words = (0..valid.len())
            .filter(|&k| valid[k] != word_mask(n_samples, k))
            .map(|k| k as u32)
            .collect();
        SnpVec { bits, valid, n_samples, derived, n_valid, missing_words }
    }

    /// Builds a site from 0/1 byte values with no missing data.
    pub fn from_bits(calls: &[u8]) -> Self {
        let alleles: Vec<Allele> =
            calls.iter().map(|&b| if b == 0 { Allele::Zero } else { Allele::One }).collect();
        Self::from_calls(&alleles)
    }

    /// Builds a site where the samples with indices in `ones` carry the
    /// derived allele and everything else is ancestral.
    pub fn from_one_indices(n_samples: usize, ones: &[usize]) -> Self {
        let mut calls = vec![Allele::Zero; n_samples];
        for &i in ones {
            calls[i] = Allele::One;
        }
        Self::from_calls(&calls)
    }

    /// Number of samples (haplotypes) at this site.
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of packed words per bit plane.
    #[inline]
    pub fn n_words(&self) -> usize {
        self.bits.len()
    }

    /// Packed derived-allele plane.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Packed validity plane (1 = call present).
    #[inline]
    pub fn valid_words(&self) -> &[u64] {
        &self.valid
    }

    /// Ascending indices of the words that hold at least one missing
    /// call; empty when every call is present. The r² kernel corrects its
    /// marginal counts over these words only.
    #[inline]
    pub fn missing_words(&self) -> &[u32] {
        &self.missing_words
    }

    /// Count of samples carrying the derived allele.
    #[inline]
    pub fn derived_count(&self) -> u32 {
        self.derived
    }

    /// Count of samples with a present (non-missing) call.
    #[inline]
    pub fn valid_count(&self) -> u32 {
        self.n_valid
    }

    /// `true` if any sample call is missing.
    #[inline]
    pub fn has_missing(&self) -> bool {
        (self.n_valid as usize) != self.n_samples
    }

    /// Derived allele frequency among valid calls; `None` if no valid calls.
    pub fn derived_freq(&self) -> Option<f64> {
        if self.n_valid == 0 {
            None
        } else {
            Some(f64::from(self.derived) / f64::from(self.n_valid))
        }
    }

    /// `true` if the site is monomorphic among valid calls (all 0 or all 1).
    pub fn is_monomorphic(&self) -> bool {
        self.derived == 0 || self.derived == self.n_valid
    }

    /// Returns the call for sample `i`.
    pub fn get(&self, i: usize) -> Allele {
        assert!(i < self.n_samples, "sample index {i} out of range");
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if self.valid[w] >> b & 1 == 0 {
            Allele::Missing
        } else if self.bits[w] >> b & 1 == 1 {
            Allele::One
        } else {
            Allele::Zero
        }
    }

    /// Joint counts against another site, restricted to samples valid at
    /// *both* sites: `(n11, ni, nj, n_valid_pair)` where `n11` counts samples
    /// derived at both sites and `ni`/`nj` count samples derived at
    /// `self`/`other` respectively.
    ///
    /// This is the dense reference: it masks every word with both validity
    /// planes. The engine's row kernel (`omega_ld::r2_row`) reaches the same
    /// counts with one popcount per word plus a correction over
    /// [`missing_words`](Self::missing_words).
    pub fn joint_counts(&self, other: &SnpVec) -> (u32, u32, u32, u32) {
        assert_eq!(self.n_samples, other.n_samples, "joint_counts requires equal sample counts");
        let mut n11 = 0u32;
        let mut ni = 0u32;
        let mut nj = 0u32;
        let mut nv = 0u32;
        for k in 0..self.bits.len() {
            let pair_valid = self.valid[k] & other.valid[k];
            n11 += (self.bits[k] & other.bits[k] & pair_valid).count_ones();
            ni += (self.bits[k] & pair_valid).count_ones();
            nj += (other.bits[k] & pair_valid).count_ones();
            nv += pair_valid.count_ones();
        }
        (n11, ni, nj, nv)
    }

    /// Flips derived/ancestral polarity (missing calls stay missing).
    /// Used when folding to minor-allele encoding.
    pub fn flipped(&self) -> SnpVec {
        let bits: Vec<u64> = self.bits.iter().zip(&self.valid).map(|(b, v)| !b & v).collect();
        let derived = self.n_valid - self.derived;
        SnpVec {
            bits,
            valid: self.valid.clone(),
            n_samples: self.n_samples,
            derived,
            n_valid: self.n_valid,
            missing_words: self.missing_words.clone(),
        }
    }

    /// Minor-allele frequency among valid calls; `None` if no valid calls.
    pub fn minor_allele_freq(&self) -> Option<f64> {
        self.derived_freq().map(|p| p.min(1.0 - p))
    }

    /// Iterates over the calls of every sample in order.
    pub fn iter(&self) -> impl Iterator<Item = Allele> + '_ {
        (0..self.n_samples).map(move |i| self.get(i))
    }
}

/// Lanes of word `k` that fall below `n_samples`.
#[inline]
fn word_mask(n_samples: usize, k: usize) -> u64 {
    let rem = n_samples - k * WORD_BITS;
    if rem >= WORD_BITS {
        !0
    } else {
        (1u64 << rem) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bits_roundtrip() {
        let v = SnpVec::from_bits(&[0, 1, 1, 0, 1]);
        assert_eq!(v.n_samples(), 5);
        assert_eq!(v.derived_count(), 3);
        assert_eq!(v.valid_count(), 5);
        assert_eq!(v.get(0), Allele::Zero);
        assert_eq!(v.get(1), Allele::One);
        assert_eq!(v.get(4), Allele::One);
    }

    #[test]
    fn missing_calls_tracked() {
        let v = SnpVec::from_calls(&[Allele::One, Allele::Missing, Allele::Zero]);
        assert!(v.has_missing());
        assert_eq!(v.valid_count(), 2);
        assert_eq!(v.derived_count(), 1);
        assert_eq!(v.get(1), Allele::Missing);
        assert_eq!(v.derived_freq(), Some(0.5));
    }

    #[test]
    fn crosses_word_boundary() {
        let mut calls = vec![Allele::Zero; 130];
        calls[0] = Allele::One;
        calls[64] = Allele::One;
        calls[129] = Allele::One;
        let v = SnpVec::from_calls(&calls);
        assert_eq!(v.n_words(), 3);
        assert_eq!(v.derived_count(), 3);
        assert_eq!(v.get(64), Allele::One);
        assert_eq!(v.get(129), Allele::One);
        assert_eq!(v.get(128), Allele::Zero);
    }

    #[test]
    fn joint_counts_simple() {
        let a = SnpVec::from_bits(&[1, 1, 0, 0]);
        let b = SnpVec::from_bits(&[1, 0, 1, 0]);
        let (n11, ni, nj, nv) = a.joint_counts(&b);
        assert_eq!((n11, ni, nj, nv), (1, 2, 2, 4));
    }

    #[test]
    fn joint_counts_respects_missing() {
        let a = SnpVec::from_calls(&[Allele::One, Allele::One, Allele::Missing, Allele::Zero]);
        let b = SnpVec::from_calls(&[Allele::One, Allele::Missing, Allele::One, Allele::Zero]);
        // Only samples 0 and 3 are valid at both sites.
        let (n11, ni, nj, nv) = a.joint_counts(&b);
        assert_eq!((n11, ni, nj, nv), (1, 1, 1, 2));
    }

    #[test]
    fn monomorphic_detection() {
        assert!(SnpVec::from_bits(&[0, 0, 0]).is_monomorphic());
        assert!(SnpVec::from_bits(&[1, 1, 1]).is_monomorphic());
        assert!(!SnpVec::from_bits(&[1, 0, 1]).is_monomorphic());
        // All-derived among valid counts as monomorphic even with missing.
        let v = SnpVec::from_calls(&[Allele::One, Allele::Missing, Allele::One]);
        assert!(v.is_monomorphic());
    }

    #[test]
    fn flipped_inverts_polarity_only_on_valid() {
        let v = SnpVec::from_calls(&[Allele::One, Allele::Missing, Allele::Zero]);
        let f = v.flipped();
        assert_eq!(f.get(0), Allele::Zero);
        assert_eq!(f.get(1), Allele::Missing);
        assert_eq!(f.get(2), Allele::One);
        assert_eq!(f.derived_count(), 1);
        assert_eq!(f.valid_count(), 2);
    }

    #[test]
    fn minor_allele_freq_folds() {
        let v = SnpVec::from_bits(&[1, 1, 1, 0]);
        assert!((v.minor_allele_freq().unwrap() - 0.25).abs() < 1e-12);
        let w = SnpVec::from_bits(&[1, 0, 0, 0]);
        assert!((w.minor_allele_freq().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_one_indices_matches_from_bits() {
        let a = SnpVec::from_one_indices(6, &[1, 4]);
        let b = SnpVec::from_bits(&[0, 1, 0, 0, 1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn iter_yields_all_samples() {
        let v = SnpVec::from_calls(&[Allele::One, Allele::Missing, Allele::Zero]);
        let collected: Vec<Allele> = v.iter().collect();
        assert_eq!(collected, vec![Allele::One, Allele::Missing, Allele::Zero]);
    }

    #[test]
    fn missing_words_index_partial_last_word() {
        let mut calls = vec![Allele::Zero; 130];
        calls[70] = Allele::Missing;
        calls[129] = Allele::Missing;
        let v = SnpVec::from_calls(&calls);
        assert_eq!(v.missing_words(), &[1, 2]);
        assert_eq!(v.flipped().missing_words(), &[1, 2]);
        // Unused lanes of a partial last word are not missing calls.
        assert!(SnpVec::from_bits(&[1; 130]).missing_words().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        SnpVec::from_bits(&[0, 1]).get(2);
    }
}

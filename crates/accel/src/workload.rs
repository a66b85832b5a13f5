//! Workload classification and the paper's three evaluation dataset
//! shapes (§VI-D).
//!
//! OmegaPlus runtime splits between LD (grows with sample count) and ω
//! (grows with SNP density); the paper evaluates a balanced split
//! (≈50/50), a high-ω split (≈90 % ω) and a high-LD split (≈90 % LD),
//! using datasets of 13k SNPs × 7k sequences, 15k SNPs × 500 sequences
//! and 5k SNPs × 60k sequences respectively.

/// The three §VI-D workload distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// ≈50 % LD / 50 % ω.
    Balanced,
    /// ≈90 % of kernel time in ω computation.
    HighOmega,
    /// ≈90 % of kernel time in LD computation.
    HighLd,
}

impl WorkloadClass {
    /// Classifies a run from the fraction of LD+ω time spent on LD.
    pub fn from_ld_share(ld_share: f64) -> WorkloadClass {
        if ld_share >= 0.7 {
            WorkloadClass::HighLd
        } else if ld_share <= 0.3 {
            WorkloadClass::HighOmega
        } else {
            WorkloadClass::Balanced
        }
    }

    /// Paper's dataset shape for this class: `(n_snps, n_samples)`.
    pub fn paper_dataset(&self) -> (usize, usize) {
        match self {
            WorkloadClass::Balanced => (13_000, 7_000),
            WorkloadClass::HighOmega => (15_000, 500),
            WorkloadClass::HighLd => (5_000, 60_000),
        }
    }

    /// A dataset shape scaled by `1/scale` in both dimensions (the
    /// benchmark harness runs scaled-down replicas on the 2-vCPU
    /// host; the LD/ω split that defines the class is shape-preserved
    /// because both workloads shrink together).
    pub fn scaled_dataset(&self, scale: usize) -> (usize, usize) {
        let (snps, samples) = self.paper_dataset();
        ((snps / scale).max(64), (samples / scale).max(16))
    }

    /// Display label matching the paper's "50/50", "90/10", "10/90" rows
    /// (ω share first, as in Table III).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadClass::Balanced => "50/50",
            WorkloadClass::HighOmega => "90/10",
            WorkloadClass::HighLd => "10/90",
        }
    }

    /// All three classes in Table III row order.
    pub fn all() -> [WorkloadClass; 3] {
        [WorkloadClass::Balanced, WorkloadClass::HighOmega, WorkloadClass::HighLd]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_thresholds() {
        assert_eq!(WorkloadClass::from_ld_share(0.9), WorkloadClass::HighLd);
        assert_eq!(WorkloadClass::from_ld_share(0.7), WorkloadClass::HighLd);
        assert_eq!(WorkloadClass::from_ld_share(0.5), WorkloadClass::Balanced);
        assert_eq!(WorkloadClass::from_ld_share(0.3), WorkloadClass::HighOmega);
        assert_eq!(WorkloadClass::from_ld_share(0.05), WorkloadClass::HighOmega);
    }

    #[test]
    fn paper_dataset_shapes() {
        assert_eq!(WorkloadClass::Balanced.paper_dataset(), (13_000, 7_000));
        assert_eq!(WorkloadClass::HighOmega.paper_dataset(), (15_000, 500));
        assert_eq!(WorkloadClass::HighLd.paper_dataset(), (5_000, 60_000));
    }

    #[test]
    fn scaling_preserves_shape_and_floors() {
        let (snps, samples) = WorkloadClass::Balanced.scaled_dataset(10);
        assert_eq!((snps, samples), (1_300, 700));
        let (snps, samples) = WorkloadClass::HighOmega.scaled_dataset(1000);
        assert_eq!((snps, samples), (64, 16));
    }

    #[test]
    fn labels_match_table3_rows() {
        let labels: Vec<&str> = WorkloadClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["50/50", "90/10", "10/90"]);
    }
}

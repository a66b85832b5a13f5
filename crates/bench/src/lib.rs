//! Shared utilities for the benchmark harness: dataset construction with
//! fixed seeds, workload-geometry extraction at paper scale, and table
//! formatting.
//!
//! The harness separates *functional* execution (scaled-down datasets the
//! 2-vCPU benchmark host can compute) from *workload-model*
//! evaluation (per-position combination counts fed to the accelerator
//! cost models), which is how the figures that sweep to 20,000 SNPs are
//! regenerated without executing 10¹¹ ω computations functionally — the
//! same separation the paper itself uses for its FPGA system numbers.

pub mod ablation;
pub mod experiments;

use omega_core::{BorderSet, GridPlan, ScanParams};
use omega_genome::{Alignment, Allele, SnpVec};
use omega_mssim::{simulate_fixed_sites, NeutralParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Region length used by harness datasets.
pub const REGION_BP: u64 = 1_000_000;

/// Shared benchmark configuration. Both benchmark entry points — the
/// criterion benches in `benches/omega.rs` and the `bench_omega` gate
/// that writes `BENCH_omega.json` — draw their dataset shape,
/// repetition counts, and acceptance floor from this one record, so the
/// committed baseline and the interactive benches always measure the
/// same workloads.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Sequences per dataset.
    pub n_samples: usize,
    /// Dataset RNG seed.
    pub seed: u64,
    /// Best-of repetitions for wall-clock measurements.
    pub reps: usize,
    /// Replicates in the batched-throughput figure.
    pub batch_replicates: usize,
    /// Single-position workload sizes, in SNPs.
    pub workloads: [usize; 2],
    /// Acceptance floor for the kernel-vs-scalar speedup gate.
    pub min_speedup: f64,
    /// Haplotypes per site in the LD-kernel figure.
    pub ld_haplotypes: usize,
    /// Fraction of calls missing in the LD-kernel figure.
    pub ld_missing_rate: f64,
    /// Acceptance floor for the `r2_row`-vs-dense-reference speedup gate.
    pub min_ld_speedup: f64,
}

/// The committed baseline configuration. `min_speedup` assumes the
/// explicit-SIMD sweep is active; hosts without AVX2 (or runs forced
/// scalar via `OMEGA_FORCE_SCALAR`) will fail the gate by design.
pub const BENCH_CONFIG: BenchConfig = BenchConfig {
    n_samples: 50,
    seed: 44,
    reps: 7,
    batch_replicates: 4,
    workloads: [256, 1_024],
    // Above the 4.2× the autovectorized scalar loop reached before the
    // explicit-AVX2 sweep; the small (256-SNP) workload bounds the min.
    min_speedup: 4.3,
    // The `vcf-cohort` shape: 1000 diploid samples, 0.1% of calls missing,
    // so nearly every site holds a missing call somewhere.
    ld_haplotypes: 2_000,
    ld_missing_rate: 0.001,
    min_ld_speedup: 3.0,
};

impl BenchConfig {
    /// Single-position workload dataset at `n_snps` sites.
    pub fn workload_dataset(&self, n_snps: usize) -> Alignment {
        dataset(n_snps, self.n_samples, self.seed)
    }

    /// `n_sites` random sites of the LD-kernel figure's shape
    /// (`ld_haplotypes` wide, `ld_missing_rate` of calls missing, derived
    /// frequency drawn per site), deterministic in `seed`.
    pub fn ld_sites(&self, n_sites: usize) -> Vec<SnpVec> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..n_sites)
            .map(|_| {
                let p = rng.gen_range(0.05..0.95);
                let calls: Vec<Allele> = (0..self.ld_haplotypes)
                    .map(|_| {
                        if rng.gen_bool(self.ld_missing_rate) {
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
            .collect()
    }

    /// Exhaustive single-position scan parameters (windows wide enough
    /// to cover the whole region, as in the paper's evaluation).
    pub fn position_params(&self) -> ScanParams {
        ScanParams { grid: 1, min_win: 0, max_win: REGION_BP, min_snps_per_side: 2, threads: 1 }
    }
}

/// Generates the paper's GPU-evaluation dataset shape: `n_snps` sites
/// over a fixed number of sequences, deterministic in `seed`.
pub fn dataset(n_snps: usize, n_samples: usize, seed: u64) -> Alignment {
    let params = NeutralParams { n_samples, theta: 1.0, rho: 0.0, region_len_bp: REGION_BP };
    let mut rng = StdRng::seed_from_u64(seed);
    // lint:allow(no-panic-lib): harness-only path with fixed valid parameters; abort on bugs
    simulate_fixed_sites(&params, n_snps, &mut rng).expect("valid simulation parameters")
}

/// The paper's GPU scan geometry: 1000 equidistant positions with
/// windows wide enough to cover the whole dataset ("the minimum and
/// maximum window sizes allow to exhaustively analyze every grid
/// position").
pub fn gpu_scan_params(grid: usize) -> ScanParams {
    ScanParams { grid, min_win: 0, max_win: REGION_BP, min_snps_per_side: 2, threads: 1 }
}

/// Per-position workload geometry: the inputs the accelerator cost
/// models need, extractable at paper scale without building matrix M.
#[derive(Debug, Clone)]
pub struct PositionGeometry {
    /// Left-border count.
    pub n_lb: u64,
    /// Right-border count.
    pub n_rb: u64,
    /// Valid combinations.
    pub n_valid: u64,
    /// Valid right-side trip count per left border (for the FPGA model).
    pub rb_counts: Vec<u64>,
}

/// Extracts the workload geometry of every scorable grid position.
pub fn scan_geometry(alignment: &Alignment, params: &ScanParams) -> Vec<PositionGeometry> {
    let plan = GridPlan::build(alignment, params);
    plan.positions()
        .iter()
        .filter_map(|pp| {
            let b = BorderSet::build(alignment, pp, params)?;
            if b.n_combinations() == 0 {
                return None;
            }
            let n_rb = b.right_borders.len() as u64;
            Some(PositionGeometry {
                n_lb: b.left_borders.len() as u64,
                n_rb,
                n_valid: b.n_combinations(),
                rb_counts: b.first_valid_rb.iter().map(|&f| n_rb - u64::from(f)).collect(),
            })
        })
        .collect()
}

/// Total valid ω scores across a geometry set.
pub fn total_scores(geometry: &[PositionGeometry]) -> u64 {
    geometry.iter().map(|g| g.n_valid).sum()
}

/// Right-aligned fixed-width table printer.
pub struct TableWriter {
    widths: Vec<usize>,
}

impl TableWriter {
    /// Creates a printer with one width per column.
    pub fn new(widths: &[usize]) -> Self {
        TableWriter { widths: widths.to_vec() }
    }

    /// Renders one row.
    pub fn row(&self, cells: &[String]) -> String {
        cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}", w = *w))
            .collect::<Vec<_>>()
            .join("  ")
    }

    /// Renders a separator sized to the full row width.
    pub fn rule(&self) -> String {
        let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        "-".repeat(total)
    }
}

/// Formats scores/second in the paper's units.
pub fn fmt_rate(scores_per_sec: f64) -> String {
    if scores_per_sec >= 1e9 {
        format!("{:.2} G/s", scores_per_sec / 1e9)
    } else if scores_per_sec >= 1e6 {
        format!("{:.2} M/s", scores_per_sec / 1e6)
    } else {
        format!("{:.2} k/s", scores_per_sec / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_matches_helpers() {
        let c = BENCH_CONFIG;
        let a = c.workload_dataset(64);
        assert_eq!(a.n_sites(), 64);
        assert_eq!(a.n_samples(), c.n_samples);
        assert_eq!(a.positions(), dataset(64, c.n_samples, c.seed).positions());
        let p = c.position_params();
        assert_eq!(p.grid, 1);
        assert_eq!(p.max_win, REGION_BP);
        assert!(c.min_speedup > 1.0);
        assert!(c.workloads[0] < c.workloads[1]);
        let ld = c.ld_sites(3);
        assert_eq!(ld.len(), 3);
        assert!(ld.iter().all(|s| s.n_samples() == c.ld_haplotypes));
        assert!(c.min_ld_speedup > 1.0);
    }

    #[test]
    fn dataset_is_deterministic_and_sized() {
        let a = dataset(200, 50, 7);
        let b = dataset(200, 50, 7);
        assert_eq!(a.n_sites(), 200);
        assert_eq!(a.n_samples(), 50);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn geometry_counts_match_engine() {
        let a = dataset(150, 30, 8);
        let p = gpu_scan_params(20);
        let geo = scan_geometry(&a, &p);
        assert!(!geo.is_empty());
        for g in &geo {
            assert_eq!(g.rb_counts.len() as u64, g.n_lb);
            assert_eq!(g.rb_counts.iter().sum::<u64>(), g.n_valid);
            assert!(g.n_valid <= g.n_lb * g.n_rb);
        }
    }

    #[test]
    fn total_scores_sums() {
        let a = dataset(100, 20, 9);
        let p = gpu_scan_params(10);
        let geo = scan_geometry(&a, &p);
        assert_eq!(total_scores(&geo), geo.iter().map(|g| g.n_valid).sum::<u64>());
        assert!(total_scores(&geo) > 0);
    }

    #[test]
    fn table_writer_alignment() {
        let t = TableWriter::new(&[5, 8]);
        assert_eq!(t.row(&["ab".into(), "cd".into()]), "   ab        cd");
        assert_eq!(t.rule().len(), 15);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(17.3e9), "17.30 G/s");
        assert_eq!(fmt_rate(38.2e6), "38.20 M/s");
        assert_eq!(fmt_rate(410.0), "0.41 k/s");
    }
}

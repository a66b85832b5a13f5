//! Profile-guided backend prediction: the cost model behind
//! `backend=auto`.
//!
//! [`CostPredictor::predict`] reconstructs a job's workload *shape* —
//! per-position border counts, valid-combination counts, and the exact
//! fresh-r²-pair totals the matrix relocation would leave behind —
//! without touching sample data, then prices that shape on every
//! backend:
//!
//! * **CPU** — the measured [`Calibration`] record (ns/ω-score and
//!   ns/r²-pair from `bench_omega`, shipped in `BENCH_omega.json`);
//! * **GPU** — the gpu-sim cost model (GEMM LD update plus the dynamic
//!   two-kernel ω dispatch), via its metric-free estimators;
//! * **FPGA** — the fpga-sim pipeline cycle model plus the Bozikas
//!   et al. LD throughput constant.
//!
//! The replayed accounting is the same sequence of model calls
//! `SweepDetector::detect` makes for the accelerator backends
//! (serialized schedule), so the prediction for a lane equals the
//! modelled `ld_seconds + omega_seconds` that lane would report — the
//! quantity that actually differs between backends. Host-side work
//! (matrix DP, planning, packing) is backend-independent and cancels
//! out of the comparison, so it is deliberately left out.
//!
//! The shape pass walks the grid positions once, and the model
//! evaluations are memoized on their integer inputs, because
//! neighbouring grid positions usually share a workload shape. A
//! prediction consult records nothing in the observability registry —
//! counters describe executed work, and the consult executes none.

use std::collections::HashMap;
use std::sync::OnceLock;

use omega_core::{total_order_key_f64, BorderSet, Calibration, GridPlan, ScanParams};
use omega_fpga_sim::{FpgaDevice, FpgaOmegaEngine};
use omega_genome::Alignment;
use omega_gpu_sim::{GpuDevice, GpuLd, GpuOmegaEngine, TaskDims};

use crate::backend::{Backend, FPGA_LD_SAMPLE_SCORES_PER_SEC};

/// One of the three execution lanes `backend=auto` chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoLane {
    /// Host CPU.
    Cpu,
    /// Simulated GPU (default device).
    Gpu,
    /// Simulated FPGA (default device).
    Fpga,
}

impl AutoLane {
    /// Lowercase label, used for counter suffixes and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            AutoLane::Cpu => "cpu",
            AutoLane::Gpu => "gpu",
            AutoLane::Fpga => "fpga",
        }
    }

    /// The default-device backend this lane executes on — the same
    /// devices [`CostPredictor::new`] prices, so routing is consistent
    /// with prediction.
    pub fn backend(self) -> Backend {
        match self {
            AutoLane::Cpu => Backend::Cpu,
            AutoLane::Gpu => Backend::Gpu(GpuDevice::tesla_k80()),
            AutoLane::Fpga => Backend::Fpga(FpgaDevice::alveo_u200()),
        }
    }
}

/// Predicted per-backend runtime of one job (or an accumulated batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prediction {
    /// Predicted CPU LD+ω seconds (calibration record × workload).
    pub cpu_seconds: f64,
    /// Modelled GPU LD+ω seconds (serialized schedule).
    pub gpu_seconds: f64,
    /// Modelled FPGA LD+ω seconds (serialized schedule).
    pub fpga_seconds: f64,
    /// ω scores the job will evaluate.
    pub omega_scores: u64,
    /// Fresh r² pairs the job will compute (after matrix relocation).
    pub r2_pairs: u64,
}

impl Prediction {
    /// The predicted-fastest lane. Ties resolve CPU over GPU over FPGA
    /// (prefer not to occupy an accelerator when it buys nothing); the
    /// comparison is total-order, so a NaN prediction ranks slowest
    /// rather than poisoning the choice.
    pub fn fastest(&self) -> AutoLane {
        let mut best = AutoLane::Cpu;
        let mut best_key = total_order_key_f64(self.cpu_seconds);
        for (lane, seconds) in
            [(AutoLane::Gpu, self.gpu_seconds), (AutoLane::Fpga, self.fpga_seconds)]
        {
            let key = total_order_key_f64(seconds);
            if key < best_key {
                best = lane;
                best_key = key;
            }
        }
        best
    }

    /// Predicted seconds for a given lane.
    pub fn seconds_for(&self, lane: AutoLane) -> f64 {
        match lane {
            AutoLane::Cpu => self.cpu_seconds,
            AutoLane::Gpu => self.gpu_seconds,
            AutoLane::Fpga => self.fpga_seconds,
        }
    }

    /// Element-wise accumulation (for batching multiple alignments).
    pub fn accumulate(&mut self, other: &Prediction) {
        self.cpu_seconds += other.cpu_seconds;
        self.gpu_seconds += other.gpu_seconds;
        self.fpga_seconds += other.fpga_seconds;
        self.omega_scores += other.omega_scores;
        self.r2_pairs += other.r2_pairs;
    }
}

/// Workload shape of one scorable grid position, extracted by the
/// parallel shape pass.
struct PosShape {
    lo: usize,
    hi: usize,
    width: u64,
    n_lb: u64,
    n_rb: u64,
    n_valid: u64,
    /// Valid right-border trip count per left border (the fpga-sim
    /// estimator's input).
    rb_counts: Vec<u64>,
}

/// Prices a job's workload shape on every backend.
#[derive(Debug, Clone)]
pub struct CostPredictor {
    calibration: Calibration,
    gpu_omega: GpuOmegaEngine,
    gpu_ld: GpuLd,
    fpga: FpgaOmegaEngine,
}

/// `k(k+1)/2` — pairs contributed by matrix rows up to `k`.
fn tri(k: u64) -> u64 {
    k * (k + 1) / 2
}

impl CostPredictor {
    /// Predictor over the default devices (Tesla K80, Alveo U200) — the
    /// same devices the CLI and server construct for explicit backend
    /// selection.
    pub fn new(calibration: Calibration) -> Self {
        Self::with_devices(calibration, GpuDevice::tesla_k80(), FpgaDevice::alveo_u200())
    }

    /// Predictor over specific simulated devices.
    pub fn with_devices(calibration: Calibration, gpu: GpuDevice, fpga: FpgaDevice) -> Self {
        CostPredictor {
            calibration,
            gpu_omega: GpuOmegaEngine::new(gpu.clone()),
            gpu_ld: GpuLd::new(gpu),
            fpga: FpgaOmegaEngine::new(fpga),
        }
    }

    /// The process-wide predictor, calibrated from
    /// [`Calibration::load_default`] on first use.
    pub fn global() -> &'static CostPredictor {
        static GLOBAL: OnceLock<CostPredictor> = OnceLock::new();
        GLOBAL.get_or_init(|| CostPredictor::new(Calibration::load_default()))
    }

    /// The calibration record in use.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// Predicts per-backend runtime of scanning `alignment` with
    /// `params`.
    pub fn predict(&self, alignment: &Alignment, params: &ScanParams) -> Prediction {
        let plan = GridPlan::build(alignment, params);
        let n_samples = alignment.n_samples() as u64;

        // Shape pass: border sets are independent per position.
        let shapes: Vec<Option<PosShape>> = plan
            .positions()
            .iter()
            .map(|pp| {
                let b = BorderSet::build(alignment, pp, params)?;
                let n_valid = b.n_combinations();
                if n_valid == 0 {
                    return None;
                }
                let n_rb = b.right_borders.len() as u64;
                Some(PosShape {
                    lo: pp.lo,
                    hi: pp.hi,
                    width: pp.width() as u64,
                    n_lb: b.left_borders.len() as u64,
                    n_rb,
                    n_valid,
                    rb_counts: b.first_valid_rb.iter().map(|&f| n_rb - u64::from(f)).collect(),
                })
            })
            .collect();

        // Sequential replay of the matrix window walk: `advance` computes
        // row `i` fresh for every window row at or past the overlap with
        // the previous *scorable* window, contributing `i` pairs — i.e.
        // tri(n-1) - tri(start_row-1).
        let mut prev_lo = 0usize;
        let mut prev_n = 0usize;
        let mut omega_scores = 0u64;
        let mut r2_pairs = 0u64;
        let mut gpu_seconds = 0.0f64;
        let mut fpga_seconds = 0.0f64;
        let mut gpu_omega_memo: HashMap<(u64, u64, u64), f64> = HashMap::new();
        let mut gpu_ld_memo: HashMap<(u64, u64), f64> = HashMap::new();
        for s in shapes.iter().flatten() {
            let n = s.hi - s.lo;
            let overlap = if prev_n > 0 && s.lo >= prev_lo && s.lo < prev_lo + prev_n {
                (prev_lo + prev_n).min(s.hi) - s.lo
            } else {
                0
            };
            let start_row = overlap.max(1);
            let new_pairs =
                if n > start_row { tri(n as u64 - 1) - tri(start_row as u64 - 1) } else { 0 };
            prev_lo = s.lo;
            prev_n = n;
            r2_pairs += new_pairs;
            omega_scores += s.n_valid;

            // GPU: LD update then dynamic two-kernel ω, mirroring the
            // detector's per-position accounting.
            let pairs = new_pairs.max(1);
            let transferred = s.width.min(pairs);
            gpu_seconds += *gpu_ld_memo.entry((pairs, transferred)).or_insert_with(|| {
                self.gpu_ld.estimate_update_quiet(pairs, transferred, n_samples).total().get()
            });
            gpu_seconds +=
                *gpu_omega_memo.entry((s.n_lb, s.n_rb, s.n_valid)).or_insert_with(|| {
                    let dims = TaskDims { n_lb: s.n_lb, n_rb: s.n_rb, n_valid: s.n_valid };
                    self.gpu_omega.estimate_quiet(&dims).cost.total().get()
                });

            // FPGA: streamed LD throughput model plus the ω pipeline.
            fpga_seconds += new_pairs as f64 * n_samples as f64 / FPGA_LD_SAMPLE_SCORES_PER_SEC;
            fpga_seconds += self.fpga.estimate_seconds(s.rb_counts.iter().copied()).get();
        }

        Prediction {
            cpu_seconds: self.calibration.cpu_seconds(omega_scores, r2_pairs),
            gpu_seconds,
            fpga_seconds,
            omega_scores,
            r2_pairs,
        }
    }

    /// Predicts the accumulated runtime of a batch of alignments sharing
    /// one parameter set (a serve job's replicates).
    pub fn predict_batch(&self, alignments: &[Alignment], params: &ScanParams) -> Prediction {
        let mut total = Prediction::default();
        for a in alignments {
            total.accumulate(&self.predict(a, params));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SweepDetector;
    use omega_genome::SnpVec;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_alignment(n_sites: usize, n_samples: usize, seed: u64) -> Alignment {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| loop {
                let calls: Vec<u8> = (0..n_samples).map(|_| rng.gen_range(0..2)).collect();
                let s = SnpVec::from_bits(&calls);
                if !s.is_monomorphic() {
                    break s;
                }
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 50 * (i + 1)).collect();
        Alignment::new(positions, sites, 50 * n_sites as u64 + 50).unwrap()
    }

    fn params() -> ScanParams {
        ScanParams { grid: 12, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads: 1 }
    }

    fn relative_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
    }

    #[test]
    fn workload_counts_match_detector_exactly() {
        for seed in 0..4u64 {
            let a = random_alignment(60, 24, seed);
            let p = CostPredictor::new(Calibration::default()).predict(&a, &params());
            let o = SweepDetector::new(params(), Backend::Cpu).unwrap().detect(&a);
            assert_eq!(p.omega_scores, o.stats.omega_evaluations, "seed {seed}");
            assert_eq!(p.r2_pairs, o.stats.r2_pairs, "seed {seed}");
        }
    }

    #[test]
    fn gpu_prediction_matches_detector_model() {
        let a = random_alignment(60, 24, 7);
        let p = CostPredictor::new(Calibration::default()).predict(&a, &params());
        let o =
            SweepDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80())).unwrap().detect(&a);
        assert!(
            relative_close(p.gpu_seconds, o.ld_seconds + o.omega_seconds),
            "predicted {} vs modelled {}",
            p.gpu_seconds,
            o.ld_seconds + o.omega_seconds
        );
    }

    #[test]
    fn fpga_prediction_matches_detector_model() {
        let a = random_alignment(60, 24, 8);
        let p = CostPredictor::new(Calibration::default()).predict(&a, &params());
        let o = SweepDetector::new(params(), Backend::Fpga(FpgaDevice::alveo_u200()))
            .unwrap()
            .detect(&a);
        assert!(
            relative_close(p.fpga_seconds, o.ld_seconds + o.omega_seconds),
            "predicted {} vs modelled {}",
            p.fpga_seconds,
            o.ld_seconds + o.omega_seconds
        );
    }

    #[test]
    fn cpu_prediction_scales_with_calibration() {
        let a = random_alignment(50, 16, 9);
        let slow = Calibration { cpu_omega_ns_per_score: 100.0, cpu_ld_ns_per_pair: 100.0 };
        let fast = Calibration { cpu_omega_ns_per_score: 1.0, cpu_ld_ns_per_pair: 1.0 };
        let ps = CostPredictor::new(slow).predict(&a, &params());
        let pf = CostPredictor::new(fast).predict(&a, &params());
        assert!(ps.cpu_seconds > 0.0);
        assert!(relative_close(ps.cpu_seconds, 100.0 * pf.cpu_seconds));
        // Modelled lanes are calibration-independent.
        assert_eq!(ps.gpu_seconds.to_bits(), pf.gpu_seconds.to_bits());
        assert_eq!(ps.fpga_seconds.to_bits(), pf.fpga_seconds.to_bits());
    }

    #[test]
    fn fastest_resolves_ties_toward_cpu() {
        let even = Prediction {
            cpu_seconds: 1.0,
            gpu_seconds: 1.0,
            fpga_seconds: 1.0,
            ..Prediction::default()
        };
        assert_eq!(even.fastest(), AutoLane::Cpu);
        let gpu = Prediction { gpu_seconds: 0.5, ..even };
        assert_eq!(gpu.fastest(), AutoLane::Gpu);
        let fpga = Prediction { fpga_seconds: 0.25, ..gpu };
        assert_eq!(fpga.fastest(), AutoLane::Fpga);
        // NaN ranks slowest under the total order, never fastest.
        let poisoned = Prediction { cpu_seconds: f64::NAN, ..even };
        assert_eq!(poisoned.fastest(), AutoLane::Gpu);
    }

    #[test]
    fn batch_accumulates() {
        let a = random_alignment(40, 16, 10);
        let b = random_alignment(48, 16, 11);
        let pr = CostPredictor::new(Calibration::default());
        let one = pr.predict(&a, &params());
        let two = pr.predict(&b, &params());
        let batch = pr.predict_batch(&[a, b], &params());
        assert_eq!(batch.omega_scores, one.omega_scores + two.omega_scores);
        assert_eq!(batch.r2_pairs, one.r2_pairs + two.r2_pairs);
        assert!(relative_close(batch.gpu_seconds, one.gpu_seconds + two.gpu_seconds));
    }

    #[test]
    fn lane_labels_and_backends() {
        assert_eq!(AutoLane::Cpu.as_str(), "cpu");
        assert_eq!(AutoLane::Gpu.as_str(), "gpu");
        assert_eq!(AutoLane::Fpga.as_str(), "fpga");
        assert!(matches!(AutoLane::Cpu.backend(), Backend::Cpu));
        assert!(matches!(AutoLane::Gpu.backend(), Backend::Gpu(_)));
        assert!(matches!(AutoLane::Fpga.backend(), Backend::Fpga(_)));
    }
}

//! Complete accelerated sweep detection: the Fig. 3 workflow on a choice
//! of backend.
//!
//! Functional results are always produced by the verified core engine
//! (every accelerator's functional equivalence to it is established by
//! the simulator crates' own test suites); what differs per backend is
//! the *time* attributed to the LD and ω stages:
//!
//! * **CPU** — measured wall-clock of the real Rust kernels;
//! * **GPU** — the device model: GEMM LD (prep + PCIe + kernel) and the
//!   dynamic two-kernel ω path, exactly the costs the paper includes in
//!   its GPU numbers ("include data preprocessing, packing, and data
//!   transfer through PCIe communication");
//! * **FPGA** — the ω pipeline cycle model, plus the Bozikas et al.-style
//!   LD throughput model, mirroring the paper's own estimation
//!   methodology for the FPGA system (§VI-D).

use std::time::Instant;

use omega_core::{
    BorderSet, GridPlan, MatrixBuildTiming, OmegaKernel, ParamError, PositionResult, RegionMatrix,
    ScanParams, ScanStats, TaskView,
};
use omega_fpga_sim::{FpgaDevice, FpgaOmegaEngine, StreamOverlap};
use omega_genome::Alignment;
use omega_gpu_sim::{GpuDevice, GpuLd, GpuOmegaEngine, OverlapMode, TaskDims, TransferPipeline};

/// Bozikas et al. (FPL 2017) FPGA LD throughput model: the multi-FPGA LD
/// accelerator streams sample data, so its score rate is inversely
/// proportional to the sample count. The constant reproduces the paper's
/// Table III FPGA LD column (e.g. 535 M scores/s at 500 samples,
/// 38.2 M scores/s at 7000 samples, 4.5 M scores/s at 60,000 samples).
pub const FPGA_LD_SAMPLE_SCORES_PER_SEC: f64 = 2.675e11;

/// Which platform executes the two hot stages.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Host CPU: the scan runs on the calling thread.
    Cpu,
    /// Simulated GPU (both LD and ω on the device).
    Gpu(GpuDevice),
    /// Simulated FPGA for ω plus the Bozikas-style LD accelerator model.
    Fpga(FpgaDevice),
}

impl Backend {
    /// Human-readable backend label.
    pub fn label(&self) -> String {
        match self {
            Backend::Cpu => "CPU".to_string(),
            Backend::Gpu(d) => format!("GPU ({})", d.name),
            Backend::Fpga(d) => format!("FPGA ({})", d.name),
        }
    }
}

/// Outcome of a complete sweep-detection run.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Backend label.
    pub backend: String,
    /// Per-position scan results (identical across backends).
    pub results: Vec<PositionResult>,
    /// Seconds attributed to LD computation (incl. accelerator data
    /// movement where applicable).
    pub ld_seconds: f64,
    /// Seconds attributed to ω computation (incl. accelerator data
    /// movement where applicable).
    pub omega_seconds: f64,
    /// Seconds attributed to everything else (matrix DP/relocation on the
    /// host, planning, packing bookkeeping).
    pub other_seconds: f64,
    /// Seconds the transfer/compute overlap schedule saved relative to a
    /// fully serialized pipeline (0 for the CPU backend or when overlap
    /// is off). The saving is already reflected in `ld_seconds` /
    /// `omega_seconds`; this records how much was hidden.
    pub overlap_hidden_seconds: f64,
    /// Modelled seconds of host↔device data movement (GPU H2D + D2H across
    /// both stages, before any overlap discount). Already included in
    /// `ld_seconds`/`omega_seconds`; exposed separately so the serving
    /// layer can attribute a transfer stage per request. 0 for the CPU
    /// backend and for the FPGA model, whose streaming transfers are
    /// inseparable from its pipeline fill.
    pub transfer_seconds: f64,
    /// Workload counters.
    pub stats: ScanStats,
}

impl DetectionOutcome {
    /// Total modelled/measured runtime.
    pub fn total_seconds(&self) -> f64 {
        self.ld_seconds + self.omega_seconds + self.other_seconds
    }

    /// Total runtime had every accelerator stage been serialized.
    pub fn serialized_seconds(&self) -> f64 {
        self.total_seconds() + self.overlap_hidden_seconds
    }

    /// Fraction of LD+ω time spent on LD.
    pub fn ld_share(&self) -> f64 {
        // Stage seconds are non-negative, so strict sign tests are
        // total-order-safe zero checks throughout these ratios.
        let k = self.ld_seconds + self.omega_seconds;
        if k > 0.0 {
            self.ld_seconds / k
        } else {
            0.0
        }
    }

    /// ω throughput in scores/second.
    pub fn omega_throughput(&self) -> f64 {
        if self.omega_seconds > 0.0 {
            self.stats.omega_evaluations as f64 / self.omega_seconds
        } else {
            0.0
        }
    }

    /// LD throughput in r² scores/second.
    pub fn ld_throughput(&self) -> f64 {
        if self.ld_seconds > 0.0 {
            self.stats.r2_pairs as f64 / self.ld_seconds
        } else {
            0.0
        }
    }
}

/// The complete detector.
#[derive(Debug, Clone)]
pub struct SweepDetector {
    params: ScanParams,
    backend: Backend,
    overlap: OverlapMode,
}

impl SweepDetector {
    /// Creates a detector after validating parameters. Transfers are
    /// charged fully serialized (the paper's measurement setup); see
    /// [`SweepDetector::with_overlap`].
    pub fn new(params: ScanParams, backend: Backend) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(SweepDetector { params, backend, overlap: OverlapMode::Serialized })
    }

    /// Sets the transfer/compute overlap schedule for the accelerator
    /// backends (ignored by the CPU backend). Functional results are
    /// unaffected; only the modelled time changes.
    pub fn with_overlap(mut self, overlap: OverlapMode) -> Self {
        self.overlap = overlap;
        self
    }

    /// Scan parameters.
    pub fn params(&self) -> &ScanParams {
        &self.params
    }

    /// The configured backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The configured overlap schedule.
    pub fn overlap(&self) -> OverlapMode {
        self.overlap
    }

    /// Replaces the scan parameters in place, keeping the
    /// already-validated backend and overlap schedule. Only the new
    /// parameters are validated; the backend is not reconstructed, so a
    /// long-lived detector (e.g. a serving lane) can be retargeted
    /// between batches without paying construction cost. On error the
    /// detector is left unchanged.
    pub fn reconfigure(&mut self, params: ScanParams) -> Result<(), ParamError> {
        params.validate()?;
        self.params = params;
        Ok(())
    }

    /// Decomposes the detector into its configuration, for callers that
    /// want to rebuild it wholesale (the inverse of
    /// [`SweepDetector::new`] + [`SweepDetector::with_overlap`]).
    pub fn into_parts(self) -> (ScanParams, Backend, OverlapMode) {
        (self.params, self.backend, self.overlap)
    }

    /// Runs the complete Fig. 3 flow on the configured backend.
    pub fn detect(&self, alignment: &Alignment) -> DetectionOutcome {
        let plan = GridPlan::build(alignment, &self.params);
        self.detect_with_plan(alignment, &plan)
    }

    /// Runs the Fig. 3 flow over a caller-supplied grid plan. The cluster
    /// shard path uses this to evaluate only the subset of the global
    /// grid assigned to one worker, with positions recomputed from the
    /// global geometry so results stay bit-identical to a single-node
    /// scan.
    pub fn detect_with_plan(&self, alignment: &Alignment, plan: &GridPlan) -> DetectionOutcome {
        let _span = omega_obs::span!("accel.detect");
        omega_obs::counter!("accel.detect.runs").inc();
        omega_obs::counter!("accel.detect.positions").add(plan.len() as u64);
        omega_obs::gauge!("accel.grid_positions").set(plan.len() as i64);
        let n_samples = alignment.n_samples() as u64;

        let gpu_omega = match &self.backend {
            Backend::Gpu(d) => Some(GpuOmegaEngine::new(d.clone())),
            _ => None,
        };
        let gpu_ld = match &self.backend {
            Backend::Gpu(d) => Some(GpuLd::new(d.clone())),
            _ => None,
        };
        let fpga = match &self.backend {
            Backend::Fpga(d) => Some(FpgaOmegaEngine::new(d.clone())),
            _ => None,
        };

        let mut matrix = RegionMatrix::new();
        let mut kernel = OmegaKernel::new();
        let mut build_timing = MatrixBuildTiming::default();
        let mut stats = ScanStats { positions: plan.len(), ..ScanStats::default() };
        let mut results = Vec::with_capacity(plan.len());
        let mut cpu_omega_seconds = 0.0f64;
        let mut accel_ld_seconds = 0.0f64;
        let mut accel_omega_seconds = 0.0f64;
        let mut transfer_seconds = 0.0f64;
        let mut host_other = 0.0f64;
        // Per-position accelerator costs fold into the overlap schedule;
        // in Serialized mode these resolve to exactly the summed totals.
        let mut gpu_pipeline = TransferPipeline::new(self.overlap);
        let mut fpga_stream = StreamOverlap::new(self.overlap == OverlapMode::DoubleBuffered);

        for pp in plan.positions() {
            let _span = omega_obs::span!("accel.position");
            let borders = BorderSet::build(alignment, pp, &self.params);
            let result = match borders {
                Some(b) if b.n_combinations() > 0 => {
                    let mstats = matrix.advance(alignment, pp.lo, pp.hi, &mut build_timing);
                    stats.r2_pairs += mstats.new_pairs;
                    stats.cells_reused += mstats.reused_cells;

                    // Accelerator LD cost for this position's update.
                    let mut fpga_ld_seconds = 0.0f64;
                    if let Some(ld) = &gpu_ld {
                        let new_rows = pp.width() as u64;
                        let transferred = new_rows.min(mstats.new_pairs.max(1));
                        let cost =
                            ld.estimate_update(mstats.new_pairs.max(1), transferred, n_samples);
                        accel_ld_seconds += cost.total().get();
                        transfer_seconds += cost.transfer_total().get();
                        gpu_pipeline.push(&cost);
                    }
                    if fpga.is_some() {
                        fpga_ld_seconds = mstats.new_pairs as f64 * n_samples as f64
                            / FPGA_LD_SAMPLE_SCORES_PER_SEC;
                        accel_ld_seconds += fpga_ld_seconds;
                    }

                    // ω stage: functional result measured on the CPU;
                    // accelerator time modelled from the workload shape.
                    let t0 = Instant::now();
                    let best =
                        // lint:allow(no-panic-lib): `b` passed the n_combinations() > 0 guard above, so the task is non-empty
                        kernel.run(&TaskView::new(&matrix, &b, pp)).expect("non-empty border set");
                    cpu_omega_seconds += t0.elapsed().as_secs_f64();

                    if let Some(engine) = &gpu_omega {
                        let dims = TaskDims {
                            n_lb: b.left_borders.len() as u64,
                            n_rb: b.right_borders.len() as u64,
                            n_valid: b.n_combinations(),
                        };
                        let cost = engine.estimate_dynamic(&dims).cost;
                        accel_omega_seconds += cost.total().get();
                        transfer_seconds += cost.transfer_total().get();
                        gpu_pipeline.push(&cost);
                    }
                    if let Some(engine) = &fpga {
                        let n_rb = b.right_borders.len() as u64;
                        let est =
                            engine.estimate(b.first_valid_rb.iter().map(|&f| n_rb - u64::from(f)));
                        accel_omega_seconds += est.seconds.get();
                        fpga_stream.push(omega_core::Seconds(fpga_ld_seconds), est.seconds);
                        // Host-side task packing overhead stays on the CPU.
                        host_other += 2e-6;
                    }

                    stats.scorable_positions += 1;
                    stats.omega_evaluations += best.evaluated;
                    PositionResult {
                        pos_bp: pp.pos_bp,
                        omega: best.omega,
                        left_bp: alignment.position(pp.lo + best.left_border),
                        right_bp: alignment.position(pp.lo + best.right_border),
                        n_combinations: best.evaluated,
                    }
                }
                _ => PositionResult {
                    pos_bp: pp.pos_bp,
                    omega: 0.0,
                    left_bp: 0,
                    right_bp: 0,
                    n_combinations: 0,
                },
            };
            results.push(result);
        }

        let mut overlap_hidden_seconds = 0.0f64;
        let (ld_seconds, omega_seconds, other_seconds) = match &self.backend {
            Backend::Cpu => (
                build_timing.r2.as_secs_f64() + build_timing.dp.as_secs_f64(),
                cpu_omega_seconds,
                0.0,
            ),
            // Accelerated systems: the DP update/relocation remains a host
            // task (Fig. 3: the matrix lives host-side), charged as
            // "other". The overlap schedule's saving is applied to the
            // two accelerator stages proportionally, so their sum equals
            // the scheduled wall-clock; in Serialized mode the scale is
            // exactly 1 and the historical figures are untouched.
            Backend::Gpu(_) => {
                let summary = gpu_pipeline.finish();
                overlap_hidden_seconds = summary.hidden_seconds().get();
                let scale = if summary.serialized_seconds.get() > 0.0 {
                    summary.total_seconds / summary.serialized_seconds
                } else {
                    1.0
                };
                (
                    accel_ld_seconds * scale,
                    accel_omega_seconds * scale,
                    build_timing.dp.as_secs_f64() + host_other,
                )
            }
            Backend::Fpga(_) => {
                overlap_hidden_seconds = fpga_stream.hidden_seconds().get();
                let scale = if fpga_stream.serialized_seconds().get() > 0.0 {
                    fpga_stream.total_seconds() / fpga_stream.serialized_seconds()
                } else {
                    1.0
                };
                (
                    accel_ld_seconds * scale,
                    accel_omega_seconds * scale,
                    build_timing.dp.as_secs_f64() + host_other,
                )
            }
        };

        DetectionOutcome {
            backend: self.backend.label(),
            results,
            ld_seconds,
            omega_seconds,
            other_seconds,
            overlap_hidden_seconds,
            transfer_seconds,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn all_backends_agree_on_results() {
        let a = random_alignment(60, 24, 1);
        let backends = [
            Backend::Cpu,
            Backend::Gpu(GpuDevice::tesla_k80()),
            Backend::Fpga(FpgaDevice::alveo_u200()),
        ];
        let outcomes: Vec<DetectionOutcome> = backends
            .iter()
            .map(|b| SweepDetector::new(params(), b.clone()).unwrap().detect(&a))
            .collect();
        for o in &outcomes[1..] {
            assert_eq!(o.results.len(), outcomes[0].results.len());
            for (x, y) in o.results.iter().zip(&outcomes[0].results) {
                assert_eq!(x.pos_bp, y.pos_bp);
                assert_eq!(x.omega, y.omega);
                assert_eq!(x.n_combinations, y.n_combinations);
            }
            assert_eq!(o.stats.omega_evaluations, outcomes[0].stats.omega_evaluations);
        }
    }

    #[test]
    fn cpu_backend_measures_nonzero_time() {
        let a = random_alignment(80, 24, 2);
        let o = SweepDetector::new(params(), Backend::Cpu).unwrap().detect(&a);
        assert!(o.ld_seconds > 0.0);
        assert!(o.omega_seconds > 0.0);
        assert!(o.total_seconds() > 0.0);
        assert!(o.backend.contains("CPU"));
    }

    #[test]
    fn accelerators_report_modelled_time() {
        let a = random_alignment(60, 24, 3);
        let g =
            SweepDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80())).unwrap().detect(&a);
        assert!(g.ld_seconds > 0.0);
        assert!(g.omega_seconds > 0.0);
        let f =
            SweepDetector::new(params(), Backend::Fpga(FpgaDevice::zcu102())).unwrap().detect(&a);
        assert!(f.ld_seconds > 0.0);
        assert!(f.omega_seconds > 0.0);
    }

    #[test]
    fn transfer_seconds_attributed_only_on_gpu() {
        let a = random_alignment(60, 24, 6);
        let g =
            SweepDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80())).unwrap().detect(&a);
        assert!(g.transfer_seconds > 0.0, "GPU path models PCIe movement");
        // Transfer is a component of the stage times, never larger.
        assert!(g.transfer_seconds <= g.ld_seconds + g.omega_seconds + 1e-12);
        let c = SweepDetector::new(params(), Backend::Cpu).unwrap().detect(&a);
        assert_eq!(c.transfer_seconds, 0.0);
        let f =
            SweepDetector::new(params(), Backend::Fpga(FpgaDevice::zcu102())).unwrap().detect(&a);
        assert_eq!(f.transfer_seconds, 0.0);
    }

    #[test]
    fn fpga_ld_model_scales_inverse_with_samples() {
        // Table III column sanity: score rate * samples ≈ constant.
        let rate_500 = FPGA_LD_SAMPLE_SCORES_PER_SEC / 500.0;
        let rate_7000 = FPGA_LD_SAMPLE_SCORES_PER_SEC / 7000.0;
        let rate_60000 = FPGA_LD_SAMPLE_SCORES_PER_SEC / 60000.0;
        assert!((rate_500 / 1e6 - 535.0).abs() < 5.0);
        assert!((rate_7000 / 1e6 - 38.2).abs() < 0.5);
        assert!((rate_60000 / 1e6 - 4.46).abs() < 0.1);
    }

    #[test]
    fn ld_share_is_a_fraction() {
        let a = random_alignment(50, 16, 4);
        let o = SweepDetector::new(params(), Backend::Cpu).unwrap().detect(&a);
        assert!((0.0..=1.0).contains(&o.ld_share()));
    }

    #[test]
    fn overlap_toggle_keeps_serialized_numbers_and_never_costs_more() {
        let a = random_alignment(60, 24, 5);
        for backend in
            [Backend::Gpu(GpuDevice::tesla_k80()), Backend::Fpga(FpgaDevice::alveo_u200())]
        {
            let base = SweepDetector::new(params(), backend.clone()).unwrap().detect(&a);
            let ser = SweepDetector::new(params(), backend.clone())
                .unwrap()
                .with_overlap(OverlapMode::Serialized)
                .detect(&a);
            // Serialized mode is the default; the modelled figures are
            // deterministic and must match exactly.
            assert_eq!(base.ld_seconds, ser.ld_seconds);
            assert_eq!(base.omega_seconds, ser.omega_seconds);
            assert_eq!(base.overlap_hidden_seconds, 0.0);

            let db = SweepDetector::new(params(), backend)
                .unwrap()
                .with_overlap(OverlapMode::DoubleBuffered)
                .detect(&a);
            let ld_omega = db.ld_seconds + db.omega_seconds;
            let base_ld_omega = base.ld_seconds + base.omega_seconds;
            assert!(ld_omega <= base_ld_omega + 1e-12);
            assert!(db.overlap_hidden_seconds >= 0.0);
            assert!(
                (ld_omega + db.overlap_hidden_seconds - base_ld_omega).abs()
                    < 1e-9 * base_ld_omega.max(1.0)
            );
            // Functional results are schedule-independent.
            for (x, y) in db.results.iter().zip(&base.results) {
                assert_eq!(x.omega.to_bits(), y.omega.to_bits());
            }
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = ScanParams { grid: 0, ..params() };
        assert!(SweepDetector::new(bad, Backend::Cpu).is_err());
    }
}

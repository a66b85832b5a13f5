//! Functional execution of the two ω kernels plus the dynamic dispatcher.
//!
//! The kernels execute *functionally* on the host — every ω score is
//! really computed, via the same `omega_score` datapath as the CPU
//! engine, so results are bit-identical and testable — while the time
//! charged for the execution comes from the analytic model in
//! [`crate::cost`]. Work-items are evaluated in left-border-major order
//! regardless of the order-switch optimization (which only affects the
//! *memory* behaviour the cost model charges, not values), so
//! tie-breaking matches the CPU reference exactly.

use omega_core::{OmegaMax, OmegaTask, OmegaWorkload, TaskView};

use crate::buffers::{BufferPlan, KernelKind, TaskDims};
use crate::cost::{CostModel, GpuCost};
use crate::device::GpuDevice;

/// Outcome of running (or estimating) one grid position on the GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Which kernel was used.
    pub kind: KernelKind,
    /// Best combination (None for estimate-only runs or empty tasks).
    pub best: Option<OmegaMax>,
    /// Valid ω scores evaluated.
    pub scores: u64,
    /// Work-items scheduled (incl. padding).
    pub items: u64,
    /// Full pipeline cost (prep + transfers + kernel + reduce).
    pub cost: GpuCost,
}

/// The GPU-accelerated ω engine: dynamic two-kernel deployment per grid
/// position (§IV-A).
#[derive(Debug, Clone)]
pub struct GpuOmegaEngine {
    model: CostModel,
}

impl GpuOmegaEngine {
    /// Creates an engine for a device.
    pub fn new(device: GpuDevice) -> Self {
        GpuOmegaEngine { model: CostModel::new(device) }
    }

    /// The underlying device.
    pub fn device(&self) -> &GpuDevice {
        self.model.device()
    }

    /// The cost model (exposed for the benchmark harness).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Eq. 4 dispatch: Kernel I below `Nthr` ω computations, Kernel II at
    /// or above it.
    pub fn dispatch_kind(&self, n_scores: u64) -> KernelKind {
        if n_scores < self.device().n_thr() {
            KernelKind::One
        } else {
            KernelKind::Two
        }
    }

    /// Runs one position with dynamic kernel selection.
    pub fn run_task(&self, task: &OmegaTask) -> KernelRun {
        self.run_workload(task)
    }

    /// Runs one position straight from the zero-copy host view — no
    /// flattened buffers are materialised; only the simulated transfer
    /// cost still reflects the PCIe crossing.
    pub fn run_view(&self, view: &TaskView<'_>) -> KernelRun {
        self.run_workload(view)
    }

    /// Runs any workload form with dynamic kernel selection.
    pub fn run_workload<W: OmegaWorkload>(&self, workload: &W) -> KernelRun {
        self.run_workload_with(workload, self.dispatch_kind(workload.n_combinations()))
    }

    /// Runs one position on a forced kernel (used by the Fig. 12 sweeps
    /// that evaluate each kernel in isolation).
    pub fn run_task_with(&self, task: &OmegaTask, kind: KernelKind) -> KernelRun {
        self.run_workload_with(task, kind)
    }

    /// Runs any workload form on a forced kernel.
    pub fn run_workload_with<W: OmegaWorkload>(&self, workload: &W, kind: KernelKind) -> KernelRun {
        let _span = omega_obs::span!("gpu.task");
        let dims = workload_dims(workload);
        let best = execute_functional(workload);
        let mut run = self.estimate(&dims, kind);
        run.best = best;
        run
    }

    /// The shared cost arithmetic of [`GpuOmegaEngine::estimate`] and
    /// [`GpuOmegaEngine::estimate_quiet`].
    fn estimate_cost(&self, dims: &TaskDims, kind: KernelKind) -> KernelRun {
        let plan = match kind {
            KernelKind::One => BufferPlan::kernel1(dims),
            KernelKind::Two => BufferPlan::kernel2(dims, self.device()),
        };
        let kernel = match kind {
            KernelKind::One => self.model.kernel1_time(plan.items),
            KernelKind::Two => self.model.kernel2_time(plan.scheduled_scores(), plan.items),
        };
        let cost = GpuCost {
            host_prep: self.model.host_prep_time(plan.input_bytes),
            h2d: self.model.transfer_time(plan.input_bytes),
            kernel,
            d2h: self.model.transfer_time(plan.output_bytes),
            host_reduce: self.model.host_reduce_time(plan.items),
            transfer_bytes: plan.input_bytes + plan.output_bytes,
        };
        KernelRun { kind, best: None, scores: dims.n_valid, items: plan.items, cost }
    }

    /// Analytic cost of a position with the given dimensions — no
    /// functional execution, usable at paper-scale workloads.
    pub fn estimate(&self, dims: &TaskDims, kind: KernelKind) -> KernelRun {
        let _span = omega_obs::span!("gpu.estimate");
        match kind {
            KernelKind::One => omega_obs::counter!("gpu.kernel1.launches").inc(),
            KernelKind::Two => omega_obs::counter!("gpu.kernel2.launches").inc(),
        }
        let run = self.estimate_cost(dims, kind);
        omega_obs::counter!("gpu.transfer.bytes").add(run.cost.transfer_bytes.get());
        omega_obs::histogram!("gpu.task.scores").record(dims.n_valid);
        run
    }

    /// Analytic cost with dynamic dispatch.
    pub fn estimate_dynamic(&self, dims: &TaskDims) -> KernelRun {
        self.estimate(dims, self.dispatch_kind(dims.n_valid))
    }

    /// Metric-free dynamic-dispatch estimate — the `backend=auto`
    /// predictor's fast path. Identical arithmetic to
    /// [`GpuOmegaEngine::estimate_dynamic`], but a prediction consult
    /// must not inflate the `gpu.*` launch counters, transfer bytes, or
    /// task-size histogram that describe *executed* work.
    pub fn estimate_quiet(&self, dims: &TaskDims) -> KernelRun {
        self.estimate_cost(dims, self.dispatch_kind(dims.n_valid))
    }

    /// Runs a whole scan's worth of tasks with dynamic dispatch,
    /// accumulating the pipeline cost.
    pub fn run_scan(&self, tasks: &[OmegaTask]) -> (Vec<KernelRun>, GpuCost) {
        let runs: Vec<KernelRun> = tasks.iter().map(|t| self.run_task(t)).collect();
        let mut total = GpuCost::default();
        for r in &runs {
            total.accumulate(&r.cost);
        }
        (runs, total)
    }
}

/// Dimensions of a task's workload.
pub fn task_dims(task: &OmegaTask) -> TaskDims {
    workload_dims(task)
}

/// Dimensions of any workload form.
pub fn workload_dims<W: OmegaWorkload>(workload: &W) -> TaskDims {
    TaskDims {
        n_lb: workload.n_lb() as u64,
        n_rb: workload.n_rb() as u64,
        n_valid: workload.n_combinations(),
    }
}

/// Evaluates every valid combination, one left border at a time, with
/// the shared `total_cmp` reduction contract (first combination in
/// (a, b) ascending order that is strictly greater under the IEEE total
/// order wins; NaN ranks above every finite score).
fn execute_functional<W: OmegaWorkload>(workload: &W) -> Option<OmegaMax> {
    let n_rb = workload.n_rb();
    if workload.n_lb() == 0 || n_rb == 0 {
        return None;
    }
    let per_row: Vec<Option<(f32, usize, u64)>> = (0..workload.n_lb())
        .map(|a| {
            let mut best: Option<(f32, usize)> = None;
            let mut evaluated = 0u64;
            for b in workload.first_valid_rb(a)..n_rb {
                let w = workload.score(a, b);
                evaluated += 1;
                if best.is_none_or(|(cur, _)| w.total_cmp(&cur).is_gt()) {
                    best = Some((w, b));
                }
            }
            best.map(|(w, b)| (w, b, evaluated))
        })
        .collect();

    let mut best: Option<OmegaMax> = None;
    let mut total = 0u64;
    for (a, row) in per_row.into_iter().enumerate() {
        let Some((w, b, evaluated)) = row else { continue };
        total += evaluated;
        if best.is_none_or(|cur| w.total_cmp(&cur.omega).is_gt()) {
            best = Some(OmegaMax {
                omega: w,
                left_border: workload.left_border(a) as usize,
                right_border: workload.right_border(b) as usize,
                evaluated: 0,
            });
        }
    }
    best.map(|mut b| {
        b.evaluated = total;
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::{BorderSet, GridPlan, MatrixBuildTiming, RegionMatrix, ScanParams};
    use omega_genome::{Alignment, SnpVec};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_task(seed: u64, n_sites: usize, min_win: u64) -> OmegaTask {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| loop {
                let calls: Vec<u8> = (0..20).map(|_| rng.gen_range(0..2)).collect();
                let s = SnpVec::from_bits(&calls);
                if !s.is_monomorphic() {
                    break s;
                }
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 100 * (i + 1)).collect();
        let a = Alignment::new(positions, sites, 100 * n_sites as u64 + 100).unwrap();
        let params =
            ScanParams { grid: 1, min_win, max_win: 1_000_000, min_snps_per_side: 2, threads: 1 };
        let plan = GridPlan::plan_at(&a, 100 * (n_sites as u64 / 2) + 50, &params);
        let b = BorderSet::build(&a, &plan, &params).unwrap();
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        m.rebuild(&a, plan.lo, plan.hi, &mut t);
        OmegaTask::extract(&m, &b, &plan)
    }

    #[test]
    fn run_view_matches_run_task() {
        let mut rng = StdRng::seed_from_u64(23);
        let n_sites = 18;
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| loop {
                let calls: Vec<u8> = (0..20).map(|_| rng.gen_range(0..2)).collect();
                let s = SnpVec::from_bits(&calls);
                if !s.is_monomorphic() {
                    break s;
                }
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 100 * (i + 1)).collect();
        let a = Alignment::new(positions, sites, 100 * n_sites as u64 + 100).unwrap();
        let params = ScanParams {
            grid: 1,
            min_win: 300,
            max_win: 1_000_000,
            min_snps_per_side: 2,
            threads: 1,
        };
        let plan = GridPlan::plan_at(&a, 900, &params);
        let b = BorderSet::build(&a, &plan, &params).unwrap();
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        m.rebuild(&a, plan.lo, plan.hi, &mut t);

        let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
        let task = OmegaTask::extract(&m, &b, &plan);
        let via_task = engine.run_task(&task);
        let via_view = engine.run_view(&omega_core::TaskView::new(&m, &b, &plan));
        assert_eq!(via_task.kind, via_view.kind);
        assert_eq!(via_task.cost, via_view.cost);
        let (t_best, v_best) = (via_task.best.unwrap(), via_view.best.unwrap());
        assert_eq!(t_best.omega.to_bits(), v_best.omega.to_bits());
        assert_eq!(t_best.left_border, v_best.left_border);
        assert_eq!(t_best.right_border, v_best.right_border);
        assert_eq!(t_best.evaluated, v_best.evaluated);
    }

    #[test]
    fn functional_matches_cpu_reference() {
        for seed in 0..6 {
            let task = random_task(seed, 16, 0);
            let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
            let run = engine.run_task(&task);
            let reference = task.max_reference();
            let got = run.best;
            match (got, reference) {
                (Some(g), Some(r)) => {
                    assert_eq!(g.omega, r.omega, "seed {seed}");
                    assert_eq!(g.left_border, r.left_border, "seed {seed}");
                    assert_eq!(g.right_border, r.right_border, "seed {seed}");
                    assert_eq!(g.evaluated, r.evaluated, "seed {seed}");
                }
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn functional_respects_min_win_holes() {
        let task = random_task(42, 16, 700);
        assert!(task.first_valid_rb.iter().any(|&f| f > 0), "need real holes");
        let engine = GpuOmegaEngine::new(GpuDevice::radeon_hd8750m());
        let run = engine.run_task(&task);
        let r = task.max_reference().unwrap();
        assert_eq!(run.best.unwrap().omega, r.omega);
        assert_eq!(run.best.unwrap().evaluated, r.evaluated);
    }

    #[test]
    fn both_kernels_same_values_different_cost() {
        let task = random_task(7, 20, 0);
        let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
        let one = engine.run_task_with(&task, KernelKind::One);
        let two = engine.run_task_with(&task, KernelKind::Two);
        assert_eq!(one.best.unwrap().omega, two.best.unwrap().omega);
        assert_ne!(one.cost, two.cost);
    }

    #[test]
    fn dispatch_threshold_is_nthr() {
        let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
        let thr = engine.device().n_thr();
        assert_eq!(engine.dispatch_kind(thr - 1), KernelKind::One);
        assert_eq!(engine.dispatch_kind(thr), KernelKind::Two);
    }

    #[test]
    fn estimate_matches_run_cost() {
        let task = random_task(9, 14, 0);
        let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
        let run = engine.run_task(&task);
        let est = engine.estimate_dynamic(&task_dims(&task));
        assert_eq!(run.cost, est.cost);
        assert_eq!(run.items, est.items);
        assert!(est.best.is_none());
    }

    #[test]
    fn kernel2_wins_at_scale_in_estimates() {
        let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
        let big = TaskDims { n_lb: 20_000, n_rb: 20_000, n_valid: 400_000_000 };
        let one = engine.estimate(&big, KernelKind::One);
        let two = engine.estimate(&big, KernelKind::Two);
        assert!(two.cost.kernel < one.cost.kernel);
        let small = TaskDims { n_lb: 30, n_rb: 30, n_valid: 900 };
        let one_s = engine.estimate(&small, KernelKind::One);
        let two_s = engine.estimate(&small, KernelKind::Two);
        assert!(one_s.cost.kernel < two_s.cost.kernel);
    }

    #[test]
    fn run_scan_accumulates_cost() {
        let tasks: Vec<OmegaTask> = (0..3).map(|s| random_task(s, 12, 0)).collect();
        let engine = GpuOmegaEngine::new(GpuDevice::radeon_hd8750m());
        let (runs, total) = engine.run_scan(&tasks);
        assert_eq!(runs.len(), 3);
        let sum: omega_core::Seconds = runs.iter().map(|r| r.cost.total()).sum();
        assert!((total.total().get() - sum.get()).abs() < 1e-12);
    }

    #[test]
    fn empty_task_yields_no_best() {
        let task = OmegaTask {
            pos_bp: 0,
            window_lo: 0,
            k_rel: 0,
            ls: vec![],
            l_snps: vec![],
            rs: vec![],
            r_snps: vec![],
            ts: vec![],
            first_valid_rb: vec![],
            left_borders: vec![],
            right_borders: vec![],
        };
        let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
        let run = engine.run_task(&task);
        assert!(run.best.is_none());
        assert_eq!(run.scores, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_task() -> impl Strategy<Value = OmegaTask> {
        (2usize..8, 2usize..8).prop_flat_map(|(n_lb, n_rb)| {
            let ls = proptest::collection::vec(0.0f32..10.0, n_lb);
            let rs = proptest::collection::vec(0.0f32..10.0, n_rb);
            let ts_extra = proptest::collection::vec(0.0f32..5.0, n_lb * n_rb);
            let fvr = proptest::collection::vec(0u32..n_rb as u32, n_lb);
            (ls, rs, ts_extra, fvr).prop_map(move |(ls, rs, ts_extra, fvr)| {
                // TS must be at least LS+RS for physical consistency.
                let mut ts = vec![0.0f32; n_lb * n_rb];
                for a in 0..n_lb {
                    for b in 0..n_rb {
                        ts[a * n_rb + b] = ls[a] + rs[b] + ts_extra[a * n_rb + b];
                    }
                }
                OmegaTask {
                    pos_bp: 500,
                    window_lo: 0,
                    k_rel: n_lb,
                    l_snps: (0..n_lb).map(|i| 2 + i as u32).rev().collect(),
                    r_snps: (0..n_rb).map(|i| 2 + i as u32).collect(),
                    left_borders: (0..n_lb as u32).collect(),
                    right_borders: (n_lb as u32 + 1..(n_lb + 1 + n_rb) as u32).collect(),
                    ls,
                    rs,
                    ts,
                    first_valid_rb: fvr,
                }
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn gpu_always_agrees_with_reference(task in arb_task()) {
            let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
            let run = engine.run_task(&task);
            let reference = task.max_reference();
            match (run.best, reference) {
                (Some(g), Some(r)) => {
                    prop_assert_eq!(g.omega, r.omega);
                    prop_assert_eq!(g.left_border, r.left_border);
                    prop_assert_eq!(g.right_border, r.right_border);
                    prop_assert_eq!(g.evaluated, r.evaluated);
                }
                (None, None) => {}
                other => prop_assert!(false, "mismatch {:?}", other),
            }
        }
    }
}

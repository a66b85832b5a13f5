//! `bench_omega` — criterion-free ω-stage throughput measurement that
//! records the vectorized-kernel speedup over the scalar reference loop
//! in `BENCH_omega.json` (schema documented in DESIGN.md).
//!
//! Runs the same single-position workloads as `benches/omega.rs` (both
//! draw their dataset shape from `omega_bench::BENCH_CONFIG`), times the
//! scalar `omega_max` loop and the `OmegaKernel` lane sweep over
//! identical matrix/border inputs, and writes per-workload ns/score plus
//! the speedup. It also measures the LD stage (matrix rebuild: r²
//! popcounts plus the Eq. 3 DP) and emits both measured CPU rates as the
//! `"calibration"` object that `backend=auto` cost prediction reads.
//! The `"ld"` object times the `r2_row` kernel against the dense
//! `joint_counts` + `r2_from_counts` reference on cohort-shaped sites
//! (2000 haplotypes, 0.1% of calls missing).
//! Exits non-zero when the minimum ω speedup across workloads or the LD
//! speedup falls below its configured acceptance bar, so the numbers in
//! the committed baseline are enforced, not aspirational.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use omega_accel::{Backend, BatchDetector, BatchOutcome, OverlapMode};
use omega_bench::BENCH_CONFIG;
use omega_core::{
    omega_max, BorderSet, GridPlan, MatrixBuildTiming, OmegaKernel, RegionMatrix, TaskView,
};
use omega_gpu_sim::GpuDevice;
use omega_ld::{r2_from_counts, r2_row, PairCounts};

struct WorkloadResult {
    n_snps: usize,
    combinations: u64,
    scalar_ns_per_score: f64,
    kernel_ns_per_score: f64,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_score / self.kernel_ns_per_score
    }
}

/// Best-of-`BENCH_CONFIG.reps` wall time of `f`, in seconds.
fn time_best<T, F: FnMut() -> T>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BENCH_CONFIG.reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn measure(n_snps: usize) -> WorkloadResult {
    let a = BENCH_CONFIG.workload_dataset(n_snps);
    let params = BENCH_CONFIG.position_params();
    let first = GridPlan::build(&a, &params).positions()[0];
    let mid = GridPlan::plan_at(&a, (a.position(0) + a.position(n_snps - 1)) / 2, &params);
    let plan = if mid.is_scorable(2) { mid } else { first };
    let b = BorderSet::build(&a, &plan, &params).unwrap();
    let mut m = RegionMatrix::new();
    let mut t = MatrixBuildTiming::default();
    m.rebuild(&a, plan.lo, plan.hi, &mut t);
    let combinations = b.n_combinations();

    let mut kernel = OmegaKernel::new();
    // Warm-up (also verifies agreement before trusting the timings).
    let scalar = omega_max(&m, &b).unwrap();
    let vector = kernel.run(&TaskView::new(&m, &b, &plan)).unwrap();
    assert_eq!(scalar.omega.to_bits(), vector.omega.to_bits(), "kernel must be bitwise exact");
    assert_eq!(scalar.evaluated, vector.evaluated);

    let scalar_s = time_best(|| omega_max(&m, &b).unwrap().omega);
    let kernel_s = time_best(|| kernel.run(&TaskView::new(&m, &b, &plan)).unwrap().omega);

    WorkloadResult {
        n_snps,
        combinations,
        scalar_ns_per_score: scalar_s * 1e9 / combinations as f64,
        kernel_ns_per_score: kernel_s * 1e9 / combinations as f64,
    }
}

/// Measured CPU LD rate: best-of-reps wall time of a from-scratch matrix
/// rebuild over the largest workload, divided by the fresh r² pairs it
/// computes. This is the `cpu_ld_ns_per_pair` half of the calibration
/// record.
fn measure_ld_ns_per_pair() -> f64 {
    let n_snps = BENCH_CONFIG.workloads[BENCH_CONFIG.workloads.len() - 1];
    let a = BENCH_CONFIG.workload_dataset(n_snps);
    let mut m = RegionMatrix::new();
    let mut t = MatrixBuildTiming::default();
    let pairs = m.rebuild(&a, 0, n_snps, &mut t).new_pairs;
    assert!(pairs > 0, "calibration workload computes fresh pairs");
    let best_s = time_best(|| m.rebuild(&a, 0, n_snps, &mut t).new_pairs);
    best_s * 1e9 / pairs as f64
}

/// Sites in the LD-kernel figure; every row is timed against all earlier
/// sites, as `RegionMatrix` fills its triangle.
const LD_SITES: usize = 384;

struct LdFigures {
    pairs: u64,
    dense_ns_per_pair: f64,
    kernel_ns_per_pair: f64,
}

impl LdFigures {
    fn speedup(&self) -> f64 {
        self.dense_ns_per_pair / self.kernel_ns_per_pair
    }
}

/// The r² kernel against the dense masked-count reference over the same
/// lower triangle of cohort-shaped sites, best-of-reps each.
fn measure_ld_kernel() -> LdFigures {
    let sites = BENCH_CONFIG.ld_sites(LD_SITES);
    let kernel_row = |i: usize, out: &mut [f32]| r2_row(&sites[i], &sites[..i], &mut out[..i]);
    let dense_row = |i: usize, out: &mut [f32]| {
        for (c, o) in sites[..i].iter().zip(out.iter_mut()) {
            *o = r2_from_counts(PairCounts::from_sites(&sites[i], c));
        }
    };
    // Warm-up doubles as the bit-identity check before trusting timings.
    let (mut out, mut reference) = (vec![0.0f32; LD_SITES], vec![0.0f32; LD_SITES]);
    for i in 1..LD_SITES {
        kernel_row(i, &mut out);
        dense_row(i, &mut reference);
        assert!(
            out[..i].iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
            "r2_row must be bitwise exact"
        );
    }
    let mut triangle = |row: &dyn Fn(usize, &mut [f32])| {
        time_best(|| {
            for i in 1..LD_SITES {
                row(i, &mut out);
            }
            out[0]
        })
    };
    let dense_s = triangle(&dense_row);
    let kernel_s = triangle(&kernel_row);
    let pairs = (LD_SITES * (LD_SITES - 1) / 2) as u64;
    LdFigures {
        pairs,
        dense_ns_per_pair: dense_s * 1e9 / pairs as f64,
        kernel_ns_per_pair: kernel_s * 1e9 / pairs as f64,
    }
}

/// Modelled GPU seconds of the accelerator stages (LD + ω), which are
/// deterministic; `other_seconds` contains measured host time and is
/// excluded so the committed baseline is stable.
fn model_seconds(out: &BatchOutcome) -> f64 {
    out.ld_seconds + out.omega_seconds
}

struct BatchFigures {
    serialized_seconds: f64,
    overlapped_seconds: f64,
    hidden_seconds: f64,
}

/// Batched multi-replicate throughput on the modelled Tesla K80, with
/// transfers serialized vs. double-buffered behind compute.
fn measure_batch() -> BatchFigures {
    let reps: Vec<_> = (0..BENCH_CONFIG.batch_replicates)
        .map(|i| {
            omega_bench::dataset(256, BENCH_CONFIG.n_samples, BENCH_CONFIG.seed + 1 + i as u64)
        })
        .collect();
    let params = omega_core::ScanParams { grid: 8, ..BENCH_CONFIG.position_params() };
    let run = |mode: OverlapMode| {
        BatchDetector::new(params, Backend::Gpu(GpuDevice::tesla_k80()))
            .unwrap()
            .with_overlap(mode)
            .run(reps.iter().cloned().map(Ok::<_, std::convert::Infallible>))
            .unwrap()
    };
    let serialized = run(OverlapMode::Serialized);
    let overlapped = run(OverlapMode::DoubleBuffered);
    BatchFigures {
        serialized_seconds: model_seconds(&serialized),
        overlapped_seconds: model_seconds(&overlapped),
        hidden_seconds: overlapped.overlap_hidden_seconds,
    }
}

fn main() -> ExitCode {
    let cfg = BENCH_CONFIG;
    let results: Vec<WorkloadResult> = cfg.workloads.iter().map(|&n| measure(n)).collect();
    let batch = measure_batch();
    let ld_ns_per_pair = measure_ld_ns_per_pair();
    let ld = measure_ld_kernel();
    // The calibration ω rate comes from the largest workload: per-score
    // overhead amortizes with size, matching the jobs `auto` prices.
    let omega_ns_per_score = results.last().map(|r| r.kernel_ns_per_score).unwrap_or(f64::NAN);
    let simd_level = omega_core::simd::active_level().as_str();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"omega_kernel_vs_scalar\",");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"n_samples\": {}, \"seed\": {}, \"reps\": {}}},",
        cfg.n_samples, cfg.seed, cfg.reps
    );
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n_snps\": {}, \"combinations\": {}, \"scalar_ns_per_score\": {:.3}, \
             \"kernel_ns_per_score\": {:.3}, \"speedup\": {:.3}}}{}",
            r.n_snps,
            r.combinations,
            r.scalar_ns_per_score,
            r.kernel_ns_per_score,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"calibration\": {{\"cpu_omega_ns_per_score\": {omega_ns_per_score:.3}, \
         \"cpu_ld_ns_per_pair\": {ld_ns_per_pair:.3}, \"simd_level\": {simd_level:?}}},"
    );
    let _ = writeln!(
        json,
        "  \"batch\": {{\"replicates\": {}, \"backend\": \"gpu_k80\", \
         \"serialized_model_seconds\": {:.6}, \"overlapped_model_seconds\": {:.6}, \
         \"hidden_seconds\": {:.6}, \"replicates_per_model_second\": {:.3}}},",
        cfg.batch_replicates,
        batch.serialized_seconds,
        batch.overlapped_seconds,
        batch.hidden_seconds,
        cfg.batch_replicates as f64 / batch.overlapped_seconds
    );
    let _ = writeln!(
        json,
        "  \"ld\": {{\"n_haplotypes\": {}, \"missing_rate\": {}, \"pairs\": {}, \
         \"dense_ns_per_pair\": {:.3}, \"kernel_ns_per_pair\": {:.3}, \
         \"ld_speedup\": {:.3}, \"required_ld_speedup\": {:.1}}},",
        cfg.ld_haplotypes,
        cfg.ld_missing_rate,
        ld.pairs,
        ld.dense_ns_per_pair,
        ld.kernel_ns_per_pair,
        ld.speedup(),
        cfg.min_ld_speedup
    );
    let min = results.iter().map(WorkloadResult::speedup).fold(f64::INFINITY, f64::min);
    let _ = writeln!(json, "  \"min_speedup\": {min:.3},");
    let _ = writeln!(json, "  \"required_speedup\": {:.1}", cfg.min_speedup);
    json.push_str("}\n");

    for r in &results {
        println!(
            "{:>6} snps  {:>12} scores  scalar {:>8.3} ns/score  kernel {:>8.3} ns/score  {:.2}x",
            r.n_snps,
            r.combinations,
            r.scalar_ns_per_score,
            r.kernel_ns_per_score,
            r.speedup()
        );
    }

    println!(
        "calibration ({simd_level})  omega {omega_ns_per_score:.3} ns/score  \
         ld {ld_ns_per_pair:.3} ns/pair"
    );
    println!(
        "ld ({} haplotypes, {} missing)  dense {:.3} ns/pair  r2_row {:.3} ns/pair  {:.2}x",
        cfg.ld_haplotypes,
        cfg.ld_missing_rate,
        ld.dense_ns_per_pair,
        ld.kernel_ns_per_pair,
        ld.speedup()
    );
    println!(
        "batch ({} reps, gpu_k80)  serialized {:.6}s  overlapped {:.6}s  hidden {:.6}s",
        cfg.batch_replicates,
        batch.serialized_seconds,
        batch.overlapped_seconds,
        batch.hidden_seconds
    );

    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_omega.json".to_string());
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_omega: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    if min < cfg.min_speedup {
        eprintln!("bench_omega: min speedup {min:.2}x below the {:.1}x bar", cfg.min_speedup);
        return ExitCode::FAILURE;
    }
    if ld.speedup() < cfg.min_ld_speedup {
        eprintln!(
            "bench_omega: LD speedup {:.2}x below the {:.1}x bar",
            ld.speedup(),
            cfg.min_ld_speedup
        );
        return ExitCode::FAILURE;
    }
    if batch.overlapped_seconds > batch.serialized_seconds + 1e-12 {
        eprintln!(
            "bench_omega: overlapped batch time {:.6}s exceeds serialized {:.6}s",
            batch.overlapped_seconds, batch.serialized_seconds
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

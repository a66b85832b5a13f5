//! Batched multi-replicate sweep detection.
//!
//! The paper's experiments run hundreds of `ms` replicates per
//! configuration. [`BatchDetector`] drives a stream of alignments —
//! typically `omega_genome::MsReplicates`, which parses lazily so only
//! one replicate is resident at a time — through one configured
//! [`SweepDetector`], collecting a per-replicate [`DetectionOutcome`]
//! and aggregating times and workload counters across the batch. Each
//! replicate is scanned exactly as a standalone run would scan it, so
//! per-replicate results are bit-identical to independent invocations.

use std::fmt;

use omega_core::{ParamError, ScanParams, ScanStats};
use omega_genome::Alignment;
use omega_gpu_sim::OverlapMode;

use crate::backend::{Backend, DetectionOutcome, SweepDetector};

/// Failure to retarget an existing detector mid-batch.
///
/// Distinct from the [`ParamError`] a fresh construction returns: the
/// backend here is already validated and alive (a serving lane, say),
/// and only the *new* parameters were rejected, so the caller can keep
/// the detector and fail just the offending request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigureError {
    /// The replacement parameters failed validation; the detector keeps
    /// its previous configuration.
    IncompatibleParams {
        /// Label of the (still valid) backend the reset targeted.
        backend: String,
        /// The underlying parameter rejection.
        source: ParamError,
    },
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::IncompatibleParams { backend, source } => {
                write!(f, "cannot retarget live {backend} detector: {source}")
            }
        }
    }
}

impl std::error::Error for ReconfigureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReconfigureError::IncompatibleParams { source, .. } => Some(source),
        }
    }
}

/// Aggregated outcome of scanning a replicate batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Backend label (shared by every replicate).
    pub backend: String,
    /// Per-replicate outcomes, in input order.
    pub replicates: Vec<DetectionOutcome>,
    /// Summed seconds attributed to LD across replicates.
    pub ld_seconds: f64,
    /// Summed seconds attributed to ω across replicates.
    pub omega_seconds: f64,
    /// Summed seconds attributed to everything else.
    pub other_seconds: f64,
    /// Summed seconds the overlap schedule hid across replicates.
    pub overlap_hidden_seconds: f64,
    /// Summed modelled host↔device transfer seconds across replicates
    /// (see [`DetectionOutcome::transfer_seconds`]).
    pub transfer_seconds: f64,
    /// Workload counters accumulated across replicates.
    pub stats: ScanStats,
}

impl BatchOutcome {
    fn new(backend: String) -> Self {
        BatchOutcome {
            backend,
            replicates: Vec::new(),
            ld_seconds: 0.0,
            omega_seconds: 0.0,
            other_seconds: 0.0,
            overlap_hidden_seconds: 0.0,
            transfer_seconds: 0.0,
            stats: ScanStats::default(),
        }
    }

    fn push(&mut self, outcome: DetectionOutcome) {
        self.ld_seconds += outcome.ld_seconds;
        self.omega_seconds += outcome.omega_seconds;
        self.other_seconds += outcome.other_seconds;
        self.overlap_hidden_seconds += outcome.overlap_hidden_seconds;
        self.transfer_seconds += outcome.transfer_seconds;
        self.stats.accumulate(&outcome.stats);
        self.replicates.push(outcome);
    }

    /// Assembles a batch outcome from already-computed per-replicate
    /// outcomes (in input order), aggregating exactly as [`BatchDetector`]
    /// would. The cluster coordinator uses this to rebuild a merged
    /// outcome from shard responses.
    pub fn from_replicates(backend: String, replicates: Vec<DetectionOutcome>) -> Self {
        let mut out = BatchOutcome::new(backend);
        for r in replicates {
            out.push(r);
        }
        out
    }

    /// Number of replicates scanned.
    pub fn n_replicates(&self) -> usize {
        self.replicates.len()
    }

    /// Total modelled/measured runtime across the batch.
    pub fn total_seconds(&self) -> f64 {
        self.ld_seconds + self.omega_seconds + self.other_seconds
    }

    /// Total runtime had every accelerator stage been serialized.
    pub fn serialized_seconds(&self) -> f64 {
        self.total_seconds() + self.overlap_hidden_seconds
    }

    /// Replicates scanned per modelled second (the batched-throughput
    /// figure of merit).
    pub fn replicates_per_second(&self) -> f64 {
        let t = self.total_seconds();
        if t > 0.0 {
            self.replicates.len() as f64 / t
        } else {
            0.0
        }
    }
}

/// Drives every replicate of a dataset through one detector.
#[derive(Debug, Clone)]
pub struct BatchDetector {
    detector: SweepDetector,
}

impl BatchDetector {
    /// Creates a batch driver after validating parameters.
    pub fn new(params: ScanParams, backend: Backend) -> Result<Self, ParamError> {
        Ok(BatchDetector { detector: SweepDetector::new(params, backend)? })
    }

    /// Wraps an already-configured detector.
    pub fn from_detector(detector: SweepDetector) -> Self {
        BatchDetector { detector }
    }

    /// Sets the transfer/compute overlap schedule (see
    /// [`SweepDetector::with_overlap`]).
    pub fn with_overlap(mut self, overlap: OverlapMode) -> Self {
        self.detector = self.detector.with_overlap(overlap);
        self
    }

    /// The underlying per-replicate detector.
    pub fn detector(&self) -> &SweepDetector {
        &self.detector
    }

    /// Retargets the driver to new scan parameters, keeping the
    /// already-validated backend and overlap schedule (no detector
    /// reconstruction). Incompatible parameters yield a typed
    /// [`ReconfigureError`] and leave the driver unchanged, so a
    /// long-lived lane can reject one bad request and keep serving.
    pub fn reset(&mut self, params: ScanParams) -> Result<(), ReconfigureError> {
        let backend = self.detector.backend().label();
        self.detector
            .reconfigure(params)
            .map_err(|source| ReconfigureError::IncompatibleParams { backend, source })
    }

    /// Decomposes the driver into its configuration.
    pub fn into_parts(self) -> (ScanParams, Backend, OverlapMode) {
        self.detector.into_parts()
    }

    /// Scans every replicate the iterator yields, stopping at the first
    /// source error. Alignments are consumed one at a time, so a lazy
    /// source (e.g. `MsReplicates`) keeps peak memory independent of the
    /// replicate count.
    pub fn run<E>(
        &self,
        replicates: impl IntoIterator<Item = Result<Alignment, E>>,
    ) -> Result<BatchOutcome, E> {
        let _span = omega_obs::span!("accel.batch");
        let mut out = BatchOutcome::new(self.detector.backend().label());
        for replicate in replicates {
            let alignment = replicate?;
            out.push(self.detector.detect(&alignment));
            omega_obs::counter!("scan.replicates").inc();
        }
        omega_obs::gauge!("scan.batch_replicates").set(out.n_replicates() as i64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_genome::SnpVec;
    use omega_gpu_sim::GpuDevice;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::convert::Infallible;

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
        ScanParams { grid: 8, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads: 1 }
    }

    fn ok(a: Alignment) -> Result<Alignment, Infallible> {
        Ok(a)
    }

    #[test]
    fn batch_matches_independent_runs() {
        let reps: Vec<Alignment> = (0..3).map(|s| random_alignment(40, 16, s)).collect();
        let single = SweepDetector::new(params(), Backend::Cpu).unwrap();
        let batch = BatchDetector::new(params(), Backend::Cpu).unwrap();
        let out = batch.run(reps.iter().cloned().map(ok)).unwrap();
        assert_eq!(out.n_replicates(), 3);
        for (rep, a) in out.replicates.iter().zip(&reps) {
            let solo = single.detect(a);
            assert_eq!(rep.results.len(), solo.results.len());
            for (x, y) in rep.results.iter().zip(&solo.results) {
                assert_eq!(x.pos_bp, y.pos_bp);
                assert_eq!(x.omega.to_bits(), y.omega.to_bits());
                assert_eq!(x.left_bp, y.left_bp);
                assert_eq!(x.right_bp, y.right_bp);
            }
        }
    }

    #[test]
    fn stats_and_times_aggregate() {
        let reps: Vec<Alignment> = (0..3).map(|s| random_alignment(40, 16, 10 + s)).collect();
        let batch = BatchDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80())).unwrap();
        let out = batch.run(reps.iter().cloned().map(ok)).unwrap();
        let sum_evals: u64 = out.replicates.iter().map(|r| r.stats.omega_evaluations).sum();
        assert_eq!(out.stats.omega_evaluations, sum_evals);
        let sum_ld: f64 = out.replicates.iter().map(|r| r.ld_seconds).sum();
        assert!((out.ld_seconds - sum_ld).abs() < 1e-12);
        assert!(out.total_seconds() > 0.0);
        assert!(out.replicates_per_second() > 0.0);
    }

    #[test]
    fn source_error_stops_batch() {
        let a = random_alignment(30, 12, 7);
        let items: Vec<Result<Alignment, String>> =
            vec![Ok(a.clone()), Err("bad replicate".to_string()), Ok(a)];
        let batch = BatchDetector::new(params(), Backend::Cpu).unwrap();
        let err = batch.run(items).unwrap_err();
        assert_eq!(err, "bad replicate");
    }

    #[test]
    fn reset_retargets_without_rebuilding() {
        let a = random_alignment(40, 16, 3);
        let mut batch = BatchDetector::new(params(), Backend::Cpu).unwrap();
        let wide = batch.run([ok(a.clone())]).unwrap();

        let narrow_params = ScanParams { grid: 4, ..params() };
        batch.reset(narrow_params).unwrap();
        assert_eq!(*batch.detector().params(), narrow_params);
        let narrow = batch.run([ok(a.clone())]).unwrap();

        // The reset batch is bit-identical to a freshly built one.
        let fresh = BatchDetector::new(narrow_params, Backend::Cpu).unwrap();
        let expected = fresh.run([ok(a)]).unwrap();
        assert_eq!(narrow.replicates[0].results.len(), expected.replicates[0].results.len());
        for (x, y) in narrow.replicates[0].results.iter().zip(&expected.replicates[0].results) {
            assert_eq!(x.omega.to_bits(), y.omega.to_bits());
            assert_eq!(x.pos_bp, y.pos_bp);
        }
        assert_ne!(wide.replicates[0].results.len(), narrow.replicates[0].results.len());
    }

    #[test]
    fn reset_rejects_incompatible_params_with_typed_error() {
        let mut batch = BatchDetector::new(params(), Backend::Cpu).unwrap();
        let err = batch.reset(ScanParams { grid: 0, ..params() }).unwrap_err();
        let ReconfigureError::IncompatibleParams { backend, source } = &err;
        assert!(backend.contains("CPU"));
        assert!(source.to_string().contains("grid"));
        assert!(err.to_string().contains("retarget"));
        // The driver keeps its previous (valid) configuration.
        assert_eq!(*batch.detector().params(), params());
        let a = random_alignment(30, 12, 9);
        assert!(batch.run([ok(a)]).is_ok());
    }

    #[test]
    fn into_parts_round_trips_configuration() {
        let batch = BatchDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80()))
            .unwrap()
            .with_overlap(OverlapMode::DoubleBuffered);
        let (p, backend, overlap) = batch.into_parts();
        assert_eq!(p, params());
        assert!(matches!(backend, Backend::Gpu(_)));
        assert_eq!(overlap, OverlapMode::DoubleBuffered);
    }

    #[test]
    fn overlap_reduces_modelled_time_only() {
        let reps: Vec<Alignment> = (0..2).map(|s| random_alignment(50, 20, 20 + s)).collect();
        let serialized = BatchDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80()))
            .unwrap()
            .run(reps.iter().cloned().map(ok))
            .unwrap();
        let overlapped = BatchDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80()))
            .unwrap()
            .with_overlap(OverlapMode::DoubleBuffered)
            .run(reps.iter().cloned().map(ok))
            .unwrap();
        assert_eq!(serialized.overlap_hidden_seconds, 0.0);
        // Compare only the modelled (deterministic) accelerator stages —
        // `other_seconds` contains measured host wall-clock.
        let db_model = overlapped.ld_seconds + overlapped.omega_seconds;
        let ser_model = serialized.ld_seconds + serialized.omega_seconds;
        assert!(db_model <= ser_model + 1e-12);
        assert!(
            (db_model + overlapped.overlap_hidden_seconds - ser_model).abs()
                < 1e-9 * ser_model.max(1.0)
        );
        // Functional results are untouched by the schedule.
        for (x, y) in overlapped.replicates.iter().zip(&serialized.replicates) {
            for (a, b) in x.results.iter().zip(&y.results) {
                assert_eq!(a.omega.to_bits(), b.omega.to_bits());
            }
        }
    }
}

//! Multithreaded scan: the "generic multithreaded OmegaPlus" the paper
//! benchmarks in Table IV, with an overlap-aware work-stealing scheduler.
//!
//! Grid positions are cut into *runs* of consecutive positions that
//! workers pull from a shared queue. Each run keeps the matrix
//! data-reuse optimization ([`crate::matrix::RegionMatrix::advance`])
//! inside itself; relocation is only forfeited at run seams, because each
//! run starts with a fresh matrix. Where to cut is decided by the one
//! grid cutter, [`crate::grid::GridChain::runs`] (free cuts first, then
//! paid cuts under a seam-loss budget), and the relocation given up is
//! priced by its ledger, [`crate::grid::GridChain::broken_reuse`].
//!
//! Workers pull run indices from an atomic queue instead of owning a
//! fixed contiguous chunk: a worker that finishes early steals the next
//! pending run, so skew from uneven SNP density self-balances. The pull
//! count beyond each worker's first run is surfaced as `scan.steals`, and
//! the relocation given up at seams as `scan.reuse_lost_at_seams`
//! (`cells_reused + reuse_lost_at_seams` equals the sequential scan's
//! `cells_reused` when every position is scorable).
//!
//! The workers run one after another on the calling thread, so the first
//! one pulls every run. The worker loop in [`OmegaScanner::scan_parallel`]
//! is the one place that would spawn them. `threads == 0` means one
//! worker per available core, and no more workers run than there are
//! runs to pull.

#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use omega_genome::Alignment;

use crate::grid::{GridChain, GridPlan};
use crate::profile::{ScanStats, Timings};
use crate::scan::{scan_positions, OmegaScanner, ScanOutcome};

/// The shared work-stealing pull queue: `len` planned runs, claimed one
/// at a time by racing workers. A single `fetch_add` hands out each
/// index at most once, so every run is scanned by exactly one worker —
/// the invariant the `--cfg loom` model test (`tests/loom_queue.rs`)
/// checks under schedule exploration, which is why the atomic type
/// swaps to `loom::sync::atomic` under that cfg.
///
/// `Relaxed` suffices: the counter is the only shared state — run
/// payloads are read-only (`runs` slice captured by the workers) and
/// results flow back through the fork-join edge, which synchronizes.
#[derive(Debug)]
pub struct RunQueue {
    next: AtomicUsize,
    len: usize,
}

impl RunQueue {
    /// A queue over `len` planned runs.
    pub fn new(len: usize) -> Self {
        RunQueue { next: AtomicUsize::new(0), len }
    }

    /// Claims the next unclaimed run index, or `None` when drained.
    /// Each index in `0..len` is returned exactly once across all
    /// racing callers.
    pub fn pull(&self) -> Option<usize> {
        let r = self.next.fetch_add(1, Ordering::Relaxed);
        (r < self.len).then_some(r)
    }

    /// Number of runs the queue was created with.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue was created empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl OmegaScanner {
    /// Parallel scan using `params.threads` workers (0 = one per core).
    ///
    /// `timings.total` is wall time; the per-bucket timings (`r2`, `dp`,
    /// `omega`) are summed across workers, i.e. CPU time, so
    /// `kernel_fraction` can exceed 1 on a multicore run.
    pub fn scan_parallel(&self, alignment: &Alignment) -> ScanOutcome {
        let _span = omega_obs::span!("scan.parallel");
        let start = Instant::now();
        let workers = match self.params().threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        let plan = GridPlan::build(alignment, self.params());
        let chain = GridChain::build(alignment, &plan, self.params());
        let runs = chain.runs(workers);
        let predicted_lost = chain.broken_reuse(&runs);
        if runs.is_empty() {
            return ScanOutcome {
                results: Vec::new(),
                timings: Timings { total: start.elapsed(), ..Timings::default() },
                stats: ScanStats::default(),
            };
        }

        // Shared pull queue of run indices. A worker's first pull is its
        // own assignment; every further pull is a steal from the tail
        // other workers would otherwise reach.
        let queue = RunQueue::new(runs.len());
        let worker_loop = |_w: usize| {
            let mut out = Vec::new();
            let mut timings = Timings::default();
            let mut stats = ScanStats::default();
            let mut pulls = 0u64;
            while let Some(r) = queue.pull() {
                pulls += 1;
                let (res, t, s) =
                    scan_positions(alignment, self.params(), &plan.positions()[runs[r].clone()]);
                out.push((r, res));
                timings.accumulate(&t); // sequential within one worker
                stats.accumulate(&s);
            }
            (out, timings, stats, pulls.saturating_sub(1))
        };
        // A worker past the last run would never pull one.
        let per_worker: Vec<_> = (0..workers.min(runs.len())).map(worker_loop).collect();

        let mut tagged: Vec<(usize, Vec<_>)> = Vec::with_capacity(runs.len());
        let mut timings = Timings::default();
        let mut stats = ScanStats::default();
        let mut steals = 0u64;
        for (out, worker_timings, worker_stats, worker_steals) in per_worker {
            tagged.extend(out);
            timings.merge_concurrent(&worker_timings);
            stats.accumulate(&worker_stats);
            steals += worker_steals;
        }
        // Runs complete out of order under stealing; reassemble the grid.
        tagged.sort_unstable_by_key(|&(r, _)| r);
        let mut results = Vec::with_capacity(plan.len());
        for (_, res) in tagged {
            results.extend(res);
        }

        stats.steals = steals;
        stats.reuse_lost_at_seams = predicted_lost;
        omega_obs::counter!("scan.steals").add(steals);
        omega_obs::counter!("scan.reuse_lost_at_seams").add(predicted_lost);

        // The per-run maximum only covers worker time; the true wall time
        // also includes planning and queue setup, measured here.
        timings.total = start.elapsed();
        omega_obs::histogram!("scan.parallel_ns").record(timings.total.as_nanos() as u64);
        ScanOutcome { results, timings, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScanParams;
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

    fn params(grid: usize, threads: usize) -> ScanParams {
        ScanParams { grid, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = random_alignment(80, 16, 1);
        let seq = OmegaScanner::new(params(20, 1)).unwrap().scan(&a);
        let par = OmegaScanner::new(params(20, 4)).unwrap().scan_parallel(&a);
        assert_eq!(seq.results.len(), par.results.len());
        for (s, p) in seq.results.iter().zip(&par.results) {
            assert_eq!(s.pos_bp, p.pos_bp);
            assert_eq!(s.n_combinations, p.n_combinations);
            let tol = 1e-3 * s.omega.abs().max(1.0);
            assert!((s.omega - p.omega).abs() <= tol);
        }
        assert_eq!(seq.stats.omega_evaluations, par.stats.omega_evaluations);
        assert_eq!(seq.stats.positions, par.stats.positions);
    }

    #[test]
    fn more_threads_than_positions() {
        let a = random_alignment(30, 12, 2);
        for threads in [16, usize::MAX] {
            let par = OmegaScanner::new(params(3, threads)).unwrap().scan_parallel(&a);
            assert_eq!(par.results.len(), 3);
        }
    }

    #[test]
    fn single_thread_parallel_equals_sequential_exactly() {
        let a = random_alignment(50, 12, 3);
        let seq = OmegaScanner::new(params(10, 1)).unwrap().scan(&a);
        let par = OmegaScanner::new(params(10, 1)).unwrap().scan_parallel(&a);
        for (s, p) in seq.results.iter().zip(&par.results) {
            assert_eq!(s.omega, p.omega, "identical chunking must be bitwise equal");
        }
        // One worker never pays for cuts: every seam the planner took was
        // free, so no relocation was forfeited.
        assert_eq!(par.stats.reuse_lost_at_seams, 0);
        assert_eq!(par.stats.cells_reused, seq.stats.cells_reused);
    }

    #[test]
    fn zero_threads_uses_default_pool() {
        let a = random_alignment(30, 12, 4);
        let par = OmegaScanner::new(params(5, 0)).unwrap().scan_parallel(&a);
        assert_eq!(par.results.len(), 5);
    }

    #[test]
    fn empty_alignment() {
        let a = Alignment::new(vec![], vec![], 10).unwrap();
        let par = OmegaScanner::new(params(5, 2)).unwrap().scan_parallel(&a);
        assert!(par.results.is_empty());
    }

    /// Acceptance: at 8 threads on a dense overlapping grid, the planner
    /// preserves at least 90 % of the sequential scan's relocated cells,
    /// and its seam accounting is exact — every cell is either relocated
    /// or attributed to a seam.
    #[test]
    fn eight_thread_scan_preserves_reuse() {
        let a = random_alignment(160, 16, 7);
        // Wide windows -> every adjacent pair overlaps, every interior
        // position scorable: predicted seam loss is exact.
        let p =
            ScanParams { grid: 48, min_win: 0, max_win: 4_000, min_snps_per_side: 2, threads: 1 };
        let seq = OmegaScanner::new(p).unwrap().scan(&a);
        assert!(seq.stats.cells_reused > 0);

        let par = OmegaScanner::new(ScanParams { threads: 8, ..p }).unwrap().scan_parallel(&a);
        assert_eq!(
            par.stats.cells_reused + par.stats.reuse_lost_at_seams,
            seq.stats.cells_reused,
            "seam accounting must be exact on an all-scorable grid"
        );
        assert!(
            par.stats.cells_reused * 10 >= seq.stats.cells_reused * 9,
            "work-stealing must preserve >=90% of reuse: kept {} of {}",
            par.stats.cells_reused,
            seq.stats.cells_reused
        );
        // And the results still match the sequential scan.
        for (s, r) in seq.results.iter().zip(&par.results) {
            assert_eq!(s.pos_bp, r.pos_bp);
            assert_eq!(s.omega.to_bits(), r.omega.to_bits());
        }
    }
}

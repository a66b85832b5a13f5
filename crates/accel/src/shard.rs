//! Region sharding for cluster scatter-gather: split one scan's grid
//! into contiguous shards, slice the alignment so each shard carries
//! every site its windows can touch, and merge per-shard outcomes back
//! into the exact single-node result.
//!
//! # Why the merge is bit-identical
//!
//! Each grid position's ω value depends only on the sites inside
//! `[pos_bp - max_win, pos_bp + max_win]` — the matrix data-reuse across
//! positions is a *caching* optimization, never a semantic one. A shard
//! therefore ships the union of its positions' windows (the seam
//! overlap), recomputes the same global positions from the
//! [`ShardSpec`] geometry with [`omega_core::grid_position_bp`], and
//! produces per-position results whose bits match the single-node scan.
//!
//! The only quantities that move are the matrix-reuse counters: the
//! first position of a shard rebuilds its matrix from scratch, so pairs
//! the single-node scan *relocated* are *recomputed* by the shard. Thread
//! runs and shards are the same cut at two granularities: [`partition`]
//! takes its shards from the one grid cutter
//! ([`omega_core::GridChain::balanced`]) and prices them with its one
//! seam-loss ledger ([`omega_core::GridChain::broken_reuse`]), and
//! [`merge_outcomes`] adds the loss back, so the merged `r2_pairs` /
//! `cells_reused` equal the single-node scan's.

use omega_core::{GridChain, GridPlan, PositionResult, ScanParams, ScanStats};
use omega_genome::Alignment;

use crate::backend::DetectionOutcome;

/// Global grid geometry plus the half-open slice of grid indices one
/// shard evaluates. `first_bp`/`last_bp` are the first and last SNP of
/// the *full* alignment — the worker re-derives the exact global
/// position placement from them, never from its sliced alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// bp of the full alignment's first SNP.
    pub first_bp: u64,
    /// bp of the full alignment's last SNP.
    pub last_bp: u64,
    /// Global grid size (`params.grid` of the original request).
    pub grid: usize,
    /// First global grid index of this shard.
    pub lo: usize,
    /// One past the last global grid index of this shard.
    pub hi: usize,
}

impl ShardSpec {
    /// `true` when the slice is well-formed and inside the grid.
    pub fn is_valid(&self) -> bool {
        self.lo < self.hi && self.hi <= self.grid && self.first_bp <= self.last_bp
    }
}

/// One planned shard: its grid slice and the site range its windows
/// cover in the full alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPart {
    /// First global grid index.
    pub grid_lo: usize,
    /// One past the last global grid index.
    pub grid_hi: usize,
    /// First full-alignment site index the shard needs.
    pub site_lo: usize,
    /// One past the last full-alignment site index the shard needs.
    pub site_hi: usize,
}

/// Output of [`partition`]: the shard layout plus the matrix reuse the
/// cuts forfeit (what the merge must add back).
#[derive(Debug, Clone)]
pub struct Partition {
    /// bp of the full alignment's first SNP.
    pub first_bp: u64,
    /// bp of the full alignment's last SNP.
    pub last_bp: u64,
    /// Global grid size.
    pub grid: usize,
    /// Contiguous shards, ascending, covering every grid index once.
    pub shards: Vec<ShardPart>,
    /// Matrix cells whose relocation the shard cuts forfeit — the exact
    /// correction [`merge_outcomes`] applies to the reuse counters.
    pub broken_reuse: u64,
}

impl Partition {
    /// The [`ShardSpec`] for shard `i`.
    pub fn spec(&self, i: usize) -> ShardSpec {
        let s = &self.shards[i];
        ShardSpec {
            first_bp: self.first_bp,
            last_bp: self.last_bp,
            grid: self.grid,
            lo: s.grid_lo,
            hi: s.grid_hi,
        }
    }
}

/// Splits a scan into at most `n_shards` contiguous grid slices,
/// balanced by per-position ω workload (`n_combinations`), and accounts
/// the matrix reuse broken at the cuts.
///
/// Returns `None` for an empty grid or alignment (nothing to shard).
pub fn partition(alignment: &Alignment, params: &ScanParams, n_shards: usize) -> Option<Partition> {
    let plan = GridPlan::build(alignment, params);
    if plan.is_empty() {
        return None;
    }
    let chain = GridChain::build(alignment, &plan, params);
    let parts = chain.balanced(n_shards);
    let broken_reuse = chain.broken_reuse(&parts);
    let shards = parts
        .into_iter()
        .map(|r| {
            let plans = &plan.positions()[r.clone()];
            let site_lo = plans.iter().map(|p| p.lo).min().unwrap_or(0);
            let site_hi = plans.iter().map(|p| p.hi).max().unwrap_or(0);
            ShardPart { grid_lo: r.start, grid_hi: r.end, site_lo, site_hi: site_hi.max(site_lo) }
        })
        .collect();
    Some(Partition {
        first_bp: alignment.position(0),
        last_bp: alignment.position(alignment.n_sites() - 1),
        grid: params.grid,
        shards,
        broken_reuse,
    })
}

/// Slices the sites a shard needs out of the full alignment, keeping
/// exact positions and the full region length.
pub fn slice_alignment(alignment: &Alignment, site_lo: usize, site_hi: usize) -> Alignment {
    let hi = site_hi.min(alignment.n_sites());
    let lo = site_lo.min(hi);
    alignment.retain_sites(|i, _| lo <= i && i < hi)
}

/// Rebuilds the shard's slice of the *global* grid against a (sliced or
/// full) alignment. Positions come from the global geometry in `spec`,
/// so they are bit-identical to the single-node plan; windows resolve
/// against whatever sites the alignment holds.
///
/// Returns `None` when the spec is malformed.
pub fn shard_grid_plan(
    alignment: &Alignment,
    spec: &ShardSpec,
    params: &ScanParams,
) -> Option<GridPlan> {
    spec.is_valid().then(|| {
        GridPlan::place(alignment, params, spec.first_bp, spec.last_bp, spec.grid, spec.lo..spec.hi)
    })
}

/// Merges per-shard outcomes (in shard order) into the single-node
/// outcome. Results concatenate; stage seconds sum (the coordinator
/// reports cluster makespan separately); the reuse counters get the
/// partition's `broken_reuse` correction so they match a single-node
/// scan exactly.
///
/// Returns `None` when `shards` is empty.
pub fn merge_outcomes(
    shards: Vec<DetectionOutcome>,
    broken_reuse: u64,
) -> Option<DetectionOutcome> {
    let mut it = shards.into_iter();
    let mut merged = it.next()?;
    for o in it {
        merged.results.extend(o.results);
        merged.ld_seconds += o.ld_seconds;
        merged.omega_seconds += o.omega_seconds;
        merged.other_seconds += o.other_seconds;
        merged.overlap_hidden_seconds += o.overlap_hidden_seconds;
        merged.transfer_seconds += o.transfer_seconds;
        merged.stats.accumulate(&o.stats);
    }
    // Pairs the shards recomputed at broken seams were relocations in
    // the single-node scan.
    merged.stats.r2_pairs = merged.stats.r2_pairs.saturating_sub(broken_reuse);
    merged.stats.cells_reused += broken_reuse;
    Some(merged)
}

/// Per-position results equal bit-for-bit (the shard tests' identity
/// check).
pub fn results_identical(a: &[PositionResult], b: &[PositionResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.pos_bp == y.pos_bp
                && x.omega.to_bits() == y.omega.to_bits()
                && x.left_bp == y.left_bp
                && x.right_bp == y.right_bp
                && x.n_combinations == y.n_combinations
        })
}

/// Stats equality after merge correction (everything the result report
/// serializes, plus the reuse ledger).
pub fn stats_identical(a: &ScanStats, b: &ScanStats) -> bool {
    a.positions == b.positions
        && a.scorable_positions == b.scorable_positions
        // lint:allow(float-total-order): omega_evaluations is a u64 evaluation counter, not a score
        && a.omega_evaluations == b.omega_evaluations
        && a.r2_pairs == b.r2_pairs
        && a.cells_reused == b.cells_reused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, SweepDetector};
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
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 40 * (i + 1) + (i % 7)).collect();
        Alignment::new(positions, sites, 40 * n_sites as u64 + 100).unwrap()
    }

    fn params() -> ScanParams {
        ScanParams { grid: 16, min_win: 0, max_win: 1_500, min_snps_per_side: 2, threads: 1 }
    }

    fn sharded_scan(a: &Alignment, p: &ScanParams, n_shards: usize) -> DetectionOutcome {
        let part = partition(a, p, n_shards).unwrap();
        let detector = SweepDetector::new(*p, Backend::Cpu).unwrap();
        let outcomes: Vec<DetectionOutcome> = (0..part.shards.len())
            .map(|i| {
                let s = &part.shards[i];
                let sub = slice_alignment(a, s.site_lo, s.site_hi);
                let plan = shard_grid_plan(&sub, &part.spec(i), p).unwrap();
                detector.detect_with_plan(&sub, &plan)
            })
            .collect();
        merge_outcomes(outcomes, part.broken_reuse).unwrap()
    }

    #[test]
    fn partition_covers_grid_exactly_once() {
        let a = random_alignment(80, 16, 1);
        for n_shards in [1, 2, 3, 5, 16, 100] {
            let part = partition(&a, &params(), n_shards).unwrap();
            assert!(part.shards.len() <= n_shards.max(1));
            assert_eq!(part.shards[0].grid_lo, 0);
            assert_eq!(part.shards.last().unwrap().grid_hi, params().grid);
            for w in part.shards.windows(2) {
                assert_eq!(w[0].grid_hi, w[1].grid_lo);
                assert!(w[0].grid_lo < w[0].grid_hi);
            }
        }
    }

    #[test]
    fn sharded_scan_bit_identical_to_single_node() {
        let p = params();
        for seed in 0..3u64 {
            let a = random_alignment(70, 20, seed);
            let whole = SweepDetector::new(p, Backend::Cpu).unwrap().detect(&a);
            for n_shards in [1, 2, 3, 4, 7] {
                let merged = sharded_scan(&a, &p, n_shards);
                assert!(
                    results_identical(&merged.results, &whole.results),
                    "results diverged: seed {seed}, {n_shards} shards"
                );
                assert!(
                    stats_identical(&merged.stats, &whole.stats),
                    "stats diverged: seed {seed}, {n_shards} shards: {:?} vs {:?}",
                    merged.stats,
                    whole.stats
                );
            }
        }
    }

    #[test]
    fn sharding_with_unscorable_positions_stays_identical() {
        // A sparse alignment with a huge grid produces unscorable
        // positions (empty windows) between SNP clusters; the chain-edge
        // dedup must still account seams exactly.
        let mut rng = StdRng::seed_from_u64(9);
        let sites: Vec<SnpVec> = (0..24)
            .map(|_| {
                let calls: Vec<u8> = (0..12).map(|_| rng.gen_range(0..2)).collect();
                SnpVec::from_bits(&calls)
            })
            .collect();
        // Two distant clusters.
        let positions: Vec<u64> =
            (0..12u64).map(|i| 100 + i * 30).chain((0..12u64).map(|i| 90_000 + i * 30)).collect();
        let a = Alignment::new(positions, sites, 100_000).unwrap();
        let p = ScanParams { grid: 24, min_win: 0, max_win: 600, min_snps_per_side: 2, threads: 1 };
        let whole = SweepDetector::new(p, Backend::Cpu).unwrap().detect(&a);
        for n_shards in [2, 3, 5, 9] {
            let merged = sharded_scan(&a, &p, n_shards);
            assert!(results_identical(&merged.results, &whole.results));
            assert!(stats_identical(&merged.stats, &whole.stats), "{n_shards} shards");
        }
    }

    #[test]
    fn gpu_backend_shards_identically() {
        let a = random_alignment(60, 16, 4);
        let p = params();
        let backend = Backend::Gpu(omega_gpu_sim::GpuDevice::tesla_k80());
        let whole = SweepDetector::new(p, backend.clone()).unwrap().detect(&a);
        let part = partition(&a, &p, 3).unwrap();
        let det = SweepDetector::new(p, backend).unwrap();
        let outcomes: Vec<DetectionOutcome> = (0..part.shards.len())
            .map(|i| {
                let s = &part.shards[i];
                let sub = slice_alignment(&a, s.site_lo, s.site_hi);
                let plan = shard_grid_plan(&sub, &part.spec(i), &p).unwrap();
                det.detect_with_plan(&sub, &plan)
            })
            .collect();
        let merged = merge_outcomes(outcomes, part.broken_reuse).unwrap();
        assert!(results_identical(&merged.results, &whole.results));
        assert!(stats_identical(&merged.stats, &whole.stats));
    }

    #[test]
    fn invalid_spec_rejected() {
        let a = random_alignment(10, 8, 2);
        let p = params();
        for spec in [
            ShardSpec { first_bp: 40, last_bp: 400, grid: 16, lo: 4, hi: 4 },
            ShardSpec { first_bp: 40, last_bp: 400, grid: 16, lo: 4, hi: 17 },
            ShardSpec { first_bp: 400, last_bp: 40, grid: 16, lo: 0, hi: 4 },
        ] {
            assert!(shard_grid_plan(&a, &spec, &p).is_none(), "{spec:?}");
        }
    }

    #[test]
    fn empty_alignment_yields_no_partition() {
        let a = Alignment::new(vec![], vec![], 100).unwrap();
        assert!(partition(&a, &params(), 3).is_none());
    }

    #[test]
    fn merge_of_empty_is_none() {
        assert!(merge_outcomes(Vec::new(), 0).is_none());
    }
}

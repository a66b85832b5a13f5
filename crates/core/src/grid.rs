//! Placement of ω positions along the region, the per-position window
//! geometry (Fig. 2 of the paper), and the one grid cutter.
//!
//! [`GridChain`] is the only place the grid is cut into runs of
//! consecutive positions: thread runs for the multithreaded scan
//! ([`GridChain::runs`]) and cluster shards ([`GridChain::balanced`]).
//! A run keeps the matrix data reuse (Fig. 3) inside itself and
//! forfeits it only at its seams, so both policies share one seam-loss
//! ledger, [`GridChain::broken_reuse`].

use std::ops::Range;

use omega_genome::Alignment;

use crate::params::ScanParams;

/// One ω evaluation position and the site window around it.
///
/// All indices are *absolute* site indices into the alignment. The window
/// covers sites `lo..hi` (half-open); `split` is the index of the first
/// site strictly right of the ω position, so the left subregion is
/// `lo..split` and the right subregion is `split..hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositionPlan {
    /// Physical ω position in bp.
    pub pos_bp: u64,
    /// First site index of the window.
    pub lo: usize,
    /// One past the last site index of the window.
    pub hi: usize,
    /// First site index strictly right of the ω position, clamped to
    /// `lo..=hi`.
    pub split: usize,
}

impl PositionPlan {
    /// Number of sites in the window.
    #[inline]
    pub fn width(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of sites in the left subregion.
    #[inline]
    pub fn left_len(&self) -> usize {
        self.split - self.lo
    }

    /// Number of sites in the right subregion.
    #[inline]
    pub fn right_len(&self) -> usize {
        self.hi - self.split
    }

    /// `true` if both subregions have at least `min_snps` sites.
    #[inline]
    pub fn is_scorable(&self, min_snps: usize) -> bool {
        self.left_len() >= min_snps && self.right_len() >= min_snps
    }
}

/// The full scan plan: ω positions in ascending bp order.
#[derive(Debug, Clone)]
pub struct GridPlan {
    positions: Vec<PositionPlan>,
}

/// Physical bp of grid position `i` out of `grid` equidistant positions
/// between `first` and `last` (inclusive). This integer formula is the
/// *only* definition of grid placement — the sharded coordinator recomputes
/// positions on remote workers with the same call, so the sharded scan
/// lands on bit-identical positions.
pub fn grid_position_bp(first: u64, last: u64, grid: usize, i: usize) -> u64 {
    if grid <= 1 {
        (first + last) / 2
    } else {
        first + ((last - first) as u128 * i as u128 / (grid - 1) as u128) as u64
    }
}

impl GridPlan {
    /// Places `params.grid` equidistant ω positions between the first and
    /// last SNP (inclusive), as OmegaPlus does, and resolves each window.
    pub fn build(alignment: &Alignment, params: &ScanParams) -> GridPlan {
        let n = alignment.n_sites();
        if n == 0 {
            return GridPlan { positions: Vec::new() };
        }
        let (first, last) = (alignment.position(0), alignment.position(n - 1));
        Self::place(alignment, params, first, last, params.grid, 0..params.grid)
    }

    /// Places grid indices `indices` of a `grid`-position grid spanning
    /// `first_bp..=last_bp` and resolves each window against `alignment`.
    /// The cluster shard path passes the *full* alignment's span with a
    /// sliced alignment, so a shard lands on the global positions.
    pub fn place(
        alignment: &Alignment,
        params: &ScanParams,
        first_bp: u64,
        last_bp: u64,
        grid: usize,
        indices: Range<usize>,
    ) -> GridPlan {
        let positions = indices
            .map(|i| Self::plan_at(alignment, grid_position_bp(first_bp, last_bp, grid, i), params))
            .collect();
        GridPlan { positions }
    }

    /// Resolves the window around one ω position.
    pub fn plan_at(alignment: &Alignment, pos_bp: u64, params: &ScanParams) -> PositionPlan {
        let win_lo = pos_bp.saturating_sub(params.max_win);
        let win_hi = pos_bp.saturating_add(params.max_win);
        let range = alignment.sites_in_range(win_lo, win_hi);
        let split = alignment.first_site_after(pos_bp).clamp(range.start, range.end);
        PositionPlan { pos_bp, lo: range.start, hi: range.end, split }
    }

    /// The planned positions, ascending by bp.
    pub fn positions(&self) -> &[PositionPlan] {
        &self.positions
    }

    /// Number of grid positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Enumerates the valid subwindow borders at one position.
///
/// Borders are *window-relative* indices (relative to `plan.lo`). Left
/// borders are ascending site indices `0 ..= split_rel-min_snps`; right
/// borders are `split_rel+min_snps-1 ..= width-1`. The pair `(lb, rb)` is
/// valid when the spanned distance `pos[rb] - pos[lb] >= min_win`; since
/// positions are sorted, for each `lb` the valid right borders form a
/// suffix `first_valid_rb[lb]..` of the right-border list.
///
/// # Contiguity invariant
///
/// Both border lists are runs of *consecutive* window-relative site
/// indices: `left_borders[a] == a` and `right_borders[b] == rb0() + b`.
/// The vectorized ω kernel ([`crate::kernel::TaskView`]) relies on this to
/// map border-list indices straight onto contiguous column slices of
/// matrix M; [`BorderSet::build`] is the only constructor and always
/// produces such runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BorderSet {
    /// Window-relative index of the last left-side site (the paper's `k`):
    /// the left subregion of a combination `(lb, rb)` is `lb..=k_rel` and
    /// the right subregion is `k_rel+1..=rb`.
    pub k_rel: usize,
    /// Window-relative left borders, ascending.
    pub left_borders: Vec<u32>,
    /// Window-relative right borders, ascending.
    pub right_borders: Vec<u32>,
    /// For each left border (by list index), the first index into
    /// `right_borders` whose pairing satisfies the `min_win` constraint.
    pub first_valid_rb: Vec<u32>,
}

impl BorderSet {
    /// Builds the border set for a planned position; returns `None` when
    /// the position cannot be scored (too few SNPs on either side).
    pub fn build(
        alignment: &Alignment,
        plan: &PositionPlan,
        params: &ScanParams,
    ) -> Option<BorderSet> {
        // A border needs at least one site on each side even when the
        // caller skipped `ScanParams::validate` and passed `min_snps = 0`;
        // clamping keeps the subtractions below well-defined.
        let min_snps = params.min_snps_per_side.max(1);
        if !plan.is_scorable(min_snps) {
            return None;
        }
        let k_rel = plan.split.checked_sub(plan.lo + 1)?;
        let width = plan.width();
        let last_lb = (k_rel + 1).checked_sub(min_snps)?;
        let left_borders: Vec<u32> = (0..=last_lb as u32).collect();
        let right_borders: Vec<u32> = ((k_rel + min_snps) as u32..width as u32).collect();

        // Two-pointer over the min_win constraint: as lb moves right its
        // position grows, the spanned distance shrinks, and the first valid
        // rb can only move right as well.
        let mut first_valid_rb = Vec::with_capacity(left_borders.len());
        let mut p = 0usize;
        for &lb in &left_borders {
            let lb_pos = alignment.position(plan.lo + lb as usize);
            while p < right_borders.len() {
                let rb_pos = alignment.position(plan.lo + right_borders[p] as usize);
                if rb_pos - lb_pos >= params.min_win {
                    break;
                }
                p += 1;
            }
            first_valid_rb.push(p as u32);
        }
        Some(BorderSet { k_rel, left_borders, right_borders, first_valid_rb })
    }

    /// Total number of (lb, rb) combinations that will be scored — the
    /// per-position workload that drives the GPU two-kernel dispatch.
    pub fn n_combinations(&self) -> u64 {
        let n_rb = self.right_borders.len() as u64;
        self.first_valid_rb.iter().map(|&f| n_rb - u64::from(f)).sum()
    }

    /// Window-relative site index of the first right border (`rb0` of the
    /// contiguity invariant). Panics when the right-border list is empty.
    #[inline]
    pub fn rb0(&self) -> usize {
        self.right_borders[0] as usize
    }

    /// Asserts the contiguity invariant in debug builds (see the type-level
    /// docs); the vectorized kernel calls this before taking column slices.
    pub fn debug_assert_contiguous(&self) {
        debug_assert!(self.left_borders.iter().enumerate().all(|(a, &lb)| lb as usize == a));
        debug_assert!(self.right_borders.windows(2).all(|w| w[1] == w[0] + 1));
    }
}

/// Grid runs per worker the [`GridChain::runs`] policy aims for, so
/// work stealing has slack to balance uneven positions.
const RUNS_PER_WORKER: usize = 4;

/// Ceiling on the relocated cells [`GridChain::runs`] may sacrifice at
/// paid seams, as a percentage of the grid's total predicted reuse.
const SEAM_LOSS_BUDGET_PCT: u64 = 8;

/// A matrix-reuse chain edge: advancing positions `p < q` with no
/// advancing position between them, and the cells `q` relocates from
/// `p`'s window. A part starting at grid index `c` with `p < c <= q`
/// rebuilds `q`'s matrix from scratch and forfeits `loss`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    p: usize,
    q: usize,
    loss: u64,
}

/// The grid cutter, built once per scan: each position's ω workload
/// (`n_combinations`, 0 when unscorable) and the chain of matrix-reuse
/// edges between consecutive *advancing* positions (those with at least
/// one combination — only they move the matrix).
///
/// Both cut policies return contiguous, non-empty, ascending index
/// ranges that cover the grid once; [`GridChain::broken_reuse`] prices
/// any such cut.
#[derive(Debug, Clone)]
pub struct GridChain {
    combinations: Vec<u64>,
    edges: Vec<Edge>,
}

impl GridChain {
    /// Builds each position's [`BorderSet`] once and derives the chain.
    pub fn build(alignment: &Alignment, plan: &GridPlan, params: &ScanParams) -> GridChain {
        let combinations = plan
            .positions()
            .iter()
            .map(|p| BorderSet::build(alignment, p, params).map_or(0, |b| b.n_combinations()))
            .collect();
        Self::from_combinations(plan.positions(), combinations)
    }

    /// The chain over `plans` given each position's combination count.
    /// The loss of an edge is what [`crate::matrix::RegionMatrix::advance`]
    /// relocates moving from `p`'s window to `q`'s: `tri(overlap)`, zero
    /// when the windows do not overlap.
    fn from_combinations(plans: &[PositionPlan], combinations: Vec<u64>) -> GridChain {
        debug_assert_eq!(plans.len(), combinations.len());
        let advancing: Vec<usize> = (0..plans.len()).filter(|&i| combinations[i] > 0).collect();
        let edges = advancing
            .windows(2)
            .map(|w| {
                let (prev, cur) = (&plans[w[0]], &plans[w[1]]);
                let overlap = if cur.lo >= prev.lo && cur.lo < prev.hi {
                    prev.hi.min(cur.hi) - cur.lo
                } else {
                    0
                } as u64;
                let loss = if overlap < 2 { 0 } else { overlap * (overlap - 1) / 2 };
                Edge { p: w[0], q: w[1], loss }
            })
            .collect();
        GridChain { combinations, edges }
    }

    /// Thread runs for the work-stealing scan. Boundaries that break no
    /// reuse — spanned by no edge, or by an edge with nothing to
    /// relocate — are always cut: the matrix restarts there anyway. If
    /// that leaves fewer than `workers ×` [`RUNS_PER_WORKER`] runs and
    /// there is more than one worker, paid cuts are added cheapest edge
    /// first, at the edge's `q`, until the queue is deep enough or the
    /// next cut would exceed [`SEAM_LOSS_BUDGET_PCT`] of the total reuse.
    pub fn runs(&self, workers: usize) -> Vec<Range<usize>> {
        let n = self.combinations.len();
        let mut starts = vec![true; n]; // starts[i]: a run starts at position i
        for e in self.edges.iter().filter(|e| e.loss > 0) {
            starts[e.p + 1..=e.q].fill(false);
        }
        if workers > 1 {
            let free = starts.iter().filter(|&&s| s).count();
            let missing = n.min(workers.saturating_mul(RUNS_PER_WORKER)).saturating_sub(free);
            let budget =
                self.edges.iter().map(|e| e.loss).sum::<u64>() * SEAM_LOSS_BUDGET_PCT / 100;
            let mut paid: Vec<(u64, usize)> =
                self.edges.iter().filter(|e| e.loss > 0).map(|e| (e.loss, e.q)).collect();
            paid.sort_unstable();
            let mut spent = 0u64;
            for (loss, q) in paid.into_iter().take(missing) {
                if spent + loss > budget {
                    break;
                }
                starts[q] = true;
                spent += loss;
            }
        }
        parts(&(0..n).filter(|&i| starts[i]).collect::<Vec<_>>(), n)
    }

    /// At most `k` shards balanced by ω workload: cuts at the prefix
    /// quantiles of the per-position weight `max(n_combinations, 1)` (the
    /// floor spreads unscorable positions across shards instead of
    /// collapsing boundaries), forced to strict progress so every shard
    /// holds at least one position.
    pub fn balanced(&self, k: usize) -> Vec<Range<usize>> {
        let n = self.combinations.len();
        if n == 0 {
            return Vec::new();
        }
        let k = k.clamp(1, n);
        // prefix[i]: weight of positions 0..i.
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0u128);
        for &c in &self.combinations {
            prefix.push(prefix[prefix.len() - 1] + u128::from(c.max(1)));
        }
        let total = prefix[n];
        let mut starts = Vec::with_capacity(k);
        starts.push(0usize);
        for s in 1..k {
            let target = total * s as u128 / k as u128;
            let at = prefix.partition_point(|&w| w < target);
            starts.push(at.clamp(starts[s - 1] + 1, n - (k - s)));
        }
        parts(&starts, n)
    }

    /// The seam-loss ledger: the relocated cells a cut of the grid into
    /// `parts` forfeits. Each part's start breaks the edge it falls
    /// inside; an edge broken by several starts is counted once.
    pub fn broken_reuse(&self, parts: &[Range<usize>]) -> u64 {
        let mut broken: Vec<usize> = parts
            .iter()
            .filter_map(|r| {
                let e = self.edges.partition_point(|e| e.q < r.start);
                self.edges.get(e).is_some_and(|e| e.p < r.start).then_some(e)
            })
            .collect();
        broken.sort_unstable();
        broken.dedup();
        broken.iter().map(|&e| self.edges[e].loss).sum()
    }
}

/// Contiguous ranges starting at each of the ascending `starts` (the
/// first is 0) and ending at the next start, the last one at `n`.
fn parts(starts: &[usize], n: usize) -> Vec<Range<usize>> {
    let ends = starts.iter().skip(1).copied().chain([n]);
    starts.iter().copied().zip(ends).map(|(lo, hi)| lo..hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_genome::{Alignment, SnpVec};

    fn toy_alignment(positions: &[u64]) -> Alignment {
        let sites: Vec<SnpVec> = (0..positions.len())
            .map(|i| SnpVec::from_bits(&[(i % 2) as u8, ((i + 1) % 2) as u8, 1, 0]))
            .collect();
        Alignment::new(positions.to_vec(), sites, *positions.last().unwrap() + 100).unwrap()
    }

    fn params(min_win: u64, max_win: u64) -> ScanParams {
        ScanParams { grid: 3, min_win, max_win, min_snps_per_side: 2, threads: 1 }
    }

    #[test]
    fn grid_spans_first_to_last_snp() {
        let a = toy_alignment(&[100, 200, 300, 400, 500]);
        let g = GridPlan::build(&a, &params(0, 1000));
        let pos: Vec<u64> = g.positions().iter().map(|p| p.pos_bp).collect();
        assert_eq!(pos, vec![100, 300, 500]);
    }

    #[test]
    fn single_grid_position_centers() {
        let a = toy_alignment(&[100, 500]);
        let p = ScanParams { grid: 1, ..params(0, 1000) };
        let g = GridPlan::build(&a, &p);
        assert_eq!(g.positions()[0].pos_bp, 300);
    }

    #[test]
    fn window_clipped_by_max_win() {
        let a = toy_alignment(&[100, 200, 300, 400, 500]);
        let plan = GridPlan::plan_at(&a, 300, &params(0, 150));
        // Window [150, 450] -> sites 200,300,400 (indices 1..4).
        assert_eq!((plan.lo, plan.hi), (1, 4));
        assert_eq!(plan.split, 3); // site at 300 is the last left site
        assert_eq!(plan.left_len(), 2);
        assert_eq!(plan.right_len(), 1);
    }

    #[test]
    fn center_site_belongs_to_left() {
        let a = toy_alignment(&[100, 200, 300]);
        let plan = GridPlan::plan_at(&a, 200, &params(0, 1000));
        assert_eq!(plan.split, 2);
        assert_eq!(plan.left_len(), 2);
        assert_eq!(plan.right_len(), 1);
    }

    #[test]
    fn position_before_all_sites_has_empty_left() {
        let a = toy_alignment(&[100, 200, 300]);
        let plan = GridPlan::plan_at(&a, 50, &params(0, 1000));
        assert_eq!(plan.left_len(), 0);
        assert_eq!(plan.right_len(), 3);
        assert!(!plan.is_scorable(2));
    }

    #[test]
    fn position_after_all_sites_has_empty_right() {
        let a = toy_alignment(&[100, 200, 300]);
        let plan = GridPlan::plan_at(&a, 400, &params(0, 1000));
        assert_eq!(plan.left_len(), 3);
        assert_eq!(plan.right_len(), 0);
        assert!(!plan.is_scorable(2));
    }

    #[test]
    fn borders_for_symmetric_window() {
        let a = toy_alignment(&[100, 200, 300, 400, 500, 600]);
        let plan = GridPlan::plan_at(&a, 350, &params(0, 1000));
        let b = BorderSet::build(&a, &plan, &params(0, 1000)).unwrap();
        assert_eq!(b.k_rel, 2);
        assert_eq!(b.left_borders, vec![0, 1]);
        assert_eq!(b.right_borders, vec![4, 5]);
        assert_eq!(b.first_valid_rb, vec![0, 0]);
        assert_eq!(b.n_combinations(), 4);
    }

    #[test]
    fn min_win_excludes_narrow_combinations() {
        let a = toy_alignment(&[100, 200, 300, 400, 500, 600]);
        let plan = GridPlan::plan_at(&a, 350, &params(350, 1000));
        let b = BorderSet::build(&a, &plan, &params(350, 1000)).unwrap();
        // lb=0 (100): rb=4 (500) spans 400 >= 350 ok -> first valid 0.
        // lb=1 (200): rb=4 spans 300 < 350; rb=5 (600) spans 400 -> first 1.
        assert_eq!(b.first_valid_rb, vec![0, 1]);
        assert_eq!(b.n_combinations(), 3);
    }

    #[test]
    fn unscorable_position_returns_none() {
        let a = toy_alignment(&[100, 200, 300]);
        let plan = GridPlan::plan_at(&a, 150, &params(0, 1000));
        assert!(BorderSet::build(&a, &plan, &params(0, 1000)).is_none());
    }

    #[test]
    fn min_snps_shrinks_border_lists() {
        let a = toy_alignment(&[100, 200, 300, 400, 500, 600]);
        let p = ScanParams { min_snps_per_side: 3, ..params(0, 1000) };
        let plan = GridPlan::plan_at(&a, 350, &p);
        let b = BorderSet::build(&a, &plan, &p).unwrap();
        assert_eq!(b.left_borders, vec![0]);
        assert_eq!(b.right_borders, vec![5]);
        assert_eq!(b.n_combinations(), 1);
    }

    #[test]
    fn empty_alignment_gives_empty_plan() {
        let sites: Vec<SnpVec> = vec![];
        let a = Alignment::new(vec![], sites, 100).unwrap();
        let g = GridPlan::build(&a, &ScanParams::default());
        assert!(g.is_empty());
    }

    #[test]
    fn zero_min_snps_does_not_underflow() {
        // `BorderSet::build` is public and may be called with params that
        // never went through `ScanParams::validate`; with min_snps = 0 a
        // window whose left side is empty used to underflow
        // `plan.split - 1 - plan.lo`. It must report unscorable instead.
        let a = toy_alignment(&[100, 200, 300]);
        let p = ScanParams { min_snps_per_side: 0, ..params(0, 1000) };
        let plan = GridPlan::plan_at(&a, 50, &p); // all sites right of pos
        assert_eq!(plan.left_len(), 0);
        assert!(BorderSet::build(&a, &plan, &p).is_none());
    }

    #[test]
    fn min_snps_larger_than_site_count_unscorable() {
        let a = toy_alignment(&[100, 200, 300, 400]);
        let p = ScanParams { min_snps_per_side: 1_000, ..params(0, 1000) };
        let plan = GridPlan::plan_at(&a, 250, &p);
        assert!(BorderSet::build(&a, &plan, &p).is_none());
    }

    #[test]
    fn min_win_can_eliminate_all_combinations() {
        let a = toy_alignment(&[100, 200, 300, 400]);
        let p = params(10_000, 20_000);
        let plan = GridPlan::plan_at(&a, 250, &p);
        let b = BorderSet::build(&a, &plan, &p).unwrap();
        assert_eq!(b.n_combinations(), 0);
    }

    /// A chain over `plans` where the positions flagged in `advances`
    /// carry one combination each.
    fn chain(plans: &[PositionPlan], advances: &[bool]) -> GridChain {
        GridChain::from_combinations(plans, advances.iter().map(|&a| u64::from(a)).collect())
    }

    #[test]
    fn run_planner_cuts_free_boundaries() {
        // Three islands of overlapping windows separated by gaps: the two
        // gap boundaries are free cuts, nothing is paid even at 1 worker.
        let mk = |lo: usize, hi: usize| PositionPlan { pos_bp: lo as u64, lo, hi, split: lo + 1 };
        let plans = vec![mk(0, 10), mk(4, 14), mk(20, 30), mk(24, 34), mk(40, 50)];
        let c = chain(&plans, &[true; 5]);
        let runs = c.runs(1);
        assert_eq!(c.broken_reuse(&runs), 0);
        assert_eq!(runs, vec![0..2, 2..4, 4..5]);
    }

    #[test]
    fn run_planner_pays_within_budget() {
        // One long chain of heavily-overlapping windows: free cuts don't
        // exist, so multi-worker planning must buy cuts — and the total
        // paid loss stays within the budget.
        let mk = |i: usize| PositionPlan { pos_bp: i as u64, lo: i, hi: i + 40, split: i + 20 };
        let plans: Vec<_> = (0..64).map(mk).collect();
        let c = chain(&plans, &[true; 64]);
        let per_seam = c.broken_reuse(&[0..1, 1..64]);
        assert_eq!(per_seam, 39 * 38 / 2);
        let total: u64 = per_seam * 63;
        let runs = c.runs(8);
        let lost = c.broken_reuse(&runs);
        assert!(runs.len() > 1, "must create stealable runs");
        assert!(lost <= total * SEAM_LOSS_BUDGET_PCT / 100);
        assert_eq!(lost, per_seam * (runs.len() as u64 - 1));
        // Runs cover the grid exactly once, in order.
        assert_eq!(runs[0].start, 0);
        assert_eq!(runs.last().unwrap().end, 64);
        assert!(runs.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn run_planner_respects_non_advancing_positions() {
        // Positions 0 and 3 never advance the matrix (unscorable): the
        // only chain edge is 1→2, boundaries outside it are free, and one
        // worker keeps the edge intact.
        let mk = |i: usize| PositionPlan { pos_bp: i as u64, lo: i, hi: i + 40, split: i + 20 };
        let plans: Vec<_> = (0..4).map(mk).collect();
        let c = chain(&plans, &[false, true, true, false]);
        let runs = c.runs(1);
        assert_eq!(c.broken_reuse(&runs), 0);
        assert_eq!(runs, vec![0..1, 1..3, 3..4]);
    }

    #[test]
    fn run_planner_single_worker_never_pays() {
        let mk = |i: usize| PositionPlan { pos_bp: i as u64, lo: i, hi: i + 40, split: i + 20 };
        let plans: Vec<_> = (0..32).map(mk).collect();
        let c = chain(&plans, &[true; 32]);
        let runs = c.runs(1);
        assert_eq!(runs, vec![Range { start: 0, end: 32 }]);
        assert_eq!(c.broken_reuse(&runs), 0);
    }
}

#[cfg(test)]
mod cutter_props {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random grid: windows with non-decreasing `lo` and `hi`, as grid
    /// windows are, and about a quarter of the positions non-advancing.
    fn random_grid(n: usize, seed: u64) -> (Vec<PositionPlan>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut lo, mut hi) = (0usize, 0usize);
        let plans = (0..n)
            .map(|i| {
                lo += rng.gen_range(0..6);
                hi = (hi + rng.gen_range(0..6)).max(lo + rng.gen_range(0..12));
                PositionPlan { pos_bp: i as u64, lo, hi, split: lo }
            })
            .collect();
        let combinations = (0..n)
            .map(|_| if rng.gen_range(0..4) == 0 { 0 } else { rng.gen_range(1..1_000) })
            .collect();
        (plans, combinations)
    }

    /// Brute-force ledger: every pair of consecutive advancing positions
    /// whose span holds a part start forfeits the site pairs both windows
    /// share.
    fn brute_force_broken(
        plans: &[PositionPlan],
        combinations: &[u64],
        parts: &[Range<usize>],
    ) -> u64 {
        let advancing: Vec<usize> = (0..plans.len()).filter(|&i| combinations[i] > 0).collect();
        let mut lost = 0u64;
        for w in advancing.windows(2) {
            let (p, q) = (w[0], w[1]);
            if !parts.iter().any(|r| p < r.start && r.start <= q) {
                continue;
            }
            let (prev, cur) = (&plans[p], &plans[q]);
            let shared: Vec<usize> =
                (cur.lo..cur.hi).filter(|s| (prev.lo..prev.hi).contains(s)).collect();
            for (a, _) in shared.iter().enumerate() {
                lost += (shared.len() - a - 1) as u64;
            }
        }
        lost
    }

    fn assert_cover(parts: &[Range<usize>], n: usize) {
        let mut next = 0;
        for r in parts {
            assert_eq!(r.start, next, "parts must be contiguous and ascending: {parts:?}");
            assert!(r.start < r.end, "empty part in {parts:?}");
            next = r.end;
        }
        assert_eq!(next, n, "parts must cover 0..{n}: {parts:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn cut_policies_cover_the_grid_and_price_exactly(
            seed in 0u64..1_000_000,
            n in 0usize..80,
            workers in 1usize..12,
            k in 0usize..24,
        ) {
            let (plans, combinations) = random_grid(n, seed);
            let chain = GridChain::from_combinations(&plans, combinations.clone());
            let singletons = parts(&(0..n).collect::<Vec<_>>(), n);
            let every_edge = brute_force_broken(&plans, &combinations, &singletons);

            let runs = chain.runs(workers);
            assert_cover(&runs, n);
            let paid = chain.broken_reuse(&runs);
            prop_assert_eq!(paid, brute_force_broken(&plans, &combinations, &runs));
            prop_assert!(paid <= every_edge * SEAM_LOSS_BUDGET_PCT / 100);
            if workers == 1 {
                prop_assert_eq!(paid, 0);
            }

            let shards = chain.balanced(k);
            assert_cover(&shards, n);
            prop_assert!(shards.len() <= k.max(1));
            prop_assert_eq!(
                chain.broken_reuse(&shards),
                brute_force_broken(&plans, &combinations, &shards)
            );

            // Any cut set, not only the policies' own.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let starts: Vec<usize> =
                (0..n).filter(|&i| i == 0 || rng.gen_range(0..3) == 0).collect();
            let cut = parts(&starts, n);
            let expected = brute_force_broken(&plans, &combinations, &cut);
            prop_assert_eq!(chain.broken_reuse(&cut), expected);
        }
    }
}

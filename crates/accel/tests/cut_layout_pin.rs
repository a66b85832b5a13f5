//! Pins the two grid-cut layouts on one fixed input: the cluster
//! partition (shard slices, the site ranges they ship, and the matrix
//! reuse the cuts forfeit) and the multithreaded scan's seam loss.
//! Both come from the `core::grid` cutter; a refactor of the cutter
//! must not move a single cut.

use omega_accel::partition;
use omega_core::{OmegaScanner, ScanParams};
use omega_genome::{Alignment, SnpVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two dense SNP clusters with irregular gaps and an empty stretch
/// between them, so the grid has overlapping runs, free gaps and
/// unscorable positions.
fn fixed_alignment() -> Alignment {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut positions = Vec::new();
    let mut bp = 0u64;
    for i in 0..220 {
        bp += if i == 110 { 3_500 } else { rng.gen_range(10..120) };
        positions.push(bp);
    }
    let sites: Vec<SnpVec> = positions
        .iter()
        .map(|_| loop {
            let calls: Vec<u8> = (0..24).map(|_| rng.gen_range(0..2)).collect();
            let s = SnpVec::from_bits(&calls);
            if !s.is_monomorphic() {
                break s;
            }
        })
        .collect();
    Alignment::new(positions, sites, bp + 100).unwrap()
}

fn params() -> ScanParams {
    ScanParams { grid: 60, min_win: 200, max_win: 2_500, min_snps_per_side: 3, threads: 1 }
}

type Layout = &'static [(usize, usize, usize, usize)];

/// `(k, shard layout as (grid_lo, grid_hi, site_lo, site_hi), broken_reuse)`.
const PARTITIONS: &[(usize, Layout, u64)] = &[
    (1, &[(0, 60, 0, 220)], 0),
    (2, &[(0, 40, 0, 169), (40, 60, 110, 220)], 1711),
    (3, &[(0, 17, 0, 110), (17, 45, 39, 193), (45, 60, 115, 220)], 5488),
    (
        5,
        &[
            (0, 13, 0, 89),
            (13, 20, 22, 110),
            (20, 44, 50, 189),
            (44, 49, 110, 211),
            (49, 60, 136, 220),
        ],
        9837,
    ),
    (
        16,
        &[
            (0, 7, 0, 60),
            (7, 10, 0, 75),
            (10, 12, 9, 83),
            (12, 14, 18, 93),
            (14, 16, 25, 105),
            (16, 18, 36, 110),
            (18, 21, 43, 110),
            (21, 40, 53, 169),
            (40, 43, 110, 185),
            (43, 44, 110, 189),
            (44, 46, 110, 196),
            (46, 48, 121, 207),
            (48, 49, 131, 211),
            (49, 51, 136, 217),
            (51, 54, 147, 220),
            (54, 60, 161, 220),
        ],
        34519,
    ),
];

#[test]
fn partition_layouts_are_pinned() {
    let a = fixed_alignment();
    for &(k, layout, broken_reuse) in PARTITIONS {
        let part = partition(&a, &params(), k).unwrap();
        let got: Vec<(usize, usize, usize, usize)> =
            part.shards.iter().map(|s| (s.grid_lo, s.grid_hi, s.site_lo, s.site_hi)).collect();
        assert_eq!(got, layout, "shard layout moved at k = {k}");
        assert_eq!(part.broken_reuse, broken_reuse, "broken_reuse moved at k = {k}");
    }
}

#[test]
fn parallel_seam_loss_is_pinned() {
    let a = fixed_alignment();
    for (threads, lost) in [(2usize, 1336u64), (8, 6031)] {
        let out = OmegaScanner::new(ScanParams { threads, ..params() }).unwrap().scan_parallel(&a);
        assert_eq!(out.stats.reuse_lost_at_seams, lost, "seam loss moved at {threads} threads");
    }
}

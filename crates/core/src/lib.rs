//! `omega-core` — the OmegaPlus selective-sweep detection engine.
//!
//! This crate re-implements the LD-based sweep detection method of
//! OmegaPlus (Alachiotis, Stamatakis & Pavlidis 2012), the reference tool
//! accelerated by the reproduced paper:
//!
//! 1. ω positions are placed equidistantly along the region ([`GridPlan`]);
//! 2. for each position, the dynamic-programming matrix M of all r²
//!    range sums is built — or *relocated* from the previous overlapping
//!    window, OmegaPlus' data-reuse optimization ([`RegionMatrix`]);
//! 3. the ω statistic (Kim & Nielsen 2004) is maximised over every valid
//!    left/right subwindow combination ([`omega::omega_max`]);
//! 4. results are aggregated into a report with sweep calling
//!    ([`report::Report`]).
//!
//! The flat accelerator workload form ([`omega::OmegaTask`]) mirrors the
//! `LR`/`km`/`TS` buffers the paper ships to its GPU kernels and FPGA
//! pipeline; the simulator crates consume it and are validated against
//! [`omega::OmegaTask::max_reference`].
//!
//! # Example
//!
//! ```
//! use omega_core::{OmegaScanner, ScanParams};
//! use omega_genome::{Alignment, SnpVec};
//!
//! let sites: Vec<SnpVec> = (0..8)
//!     .map(|i| SnpVec::from_bits(&[i as u8 & 1, 1 - (i as u8 & 1), 1, 0, 1, 0]))
//!     .collect();
//! let positions = (1..=8u64).map(|p| p * 100).collect();
//! let alignment = Alignment::new(positions, sites, 1000).unwrap();
//!
//! let scanner = OmegaScanner::new(ScanParams {
//!     grid: 5,
//!     min_win: 0,
//!     max_win: 500,
//!     ..ScanParams::default()
//! }).unwrap();
//! let outcome = scanner.scan(&alignment);
//! assert_eq!(outcome.results.len(), 5);
//! ```

pub mod grid;
pub mod kernel;
pub mod matrix;
pub mod omega;
pub mod parallel;
pub mod params;
pub mod profile;
pub mod report;
pub mod scan;
pub mod simd;
pub mod units;

pub use grid::{grid_position_bp, BorderSet, GridChain, GridPlan, PositionPlan};
pub use kernel::{total_order_key, total_order_key_f64, OmegaKernel, TaskView};
pub use matrix::{MatrixBuildStats, MatrixBuildTiming, RegionMatrix};
pub use omega::{omega_max, omega_score, OmegaMax, OmegaTask, OmegaWorkload};
pub use parallel::RunQueue;
pub use params::{ParamError, ScanParams, DENOMINATOR_OFFSET};
pub use profile::{throughput, Calibration, ScanStats, Timings};
pub use report::{Report, SweepCall};
pub use scan::{OmegaScanner, PositionResult, ScanOutcome};
pub use simd::SimdLevel;
pub use units::{Bytes, Cycles, Nanos, Seconds};

//! Linkage disequilibrium kernels.
//!
//! LD between two SNPs is measured by Pearson's squared correlation
//! coefficient r² (Eq. 1 of the paper):
//!
//! ```text
//! r²ij = (p_ij − p_i·p_j)² / (p_i(1−p_i) · p_j(1−p_j))
//! ```
//!
//! where `p_i`, `p_j` are derived-allele frequencies and `p_ij` the joint
//! derived frequency. Over bit-packed sites every term is a popcount, and a
//! *batch* of r² values against a block of sites is exactly a dense
//! matrix-multiply over binary words — the Dense Linear Algebra (DLA)
//! formulation of Alachiotis/Popovici/Low that Binder et al. mapped onto
//! GPUs via BLIS, and which this crate implements as a cache-tiled popcount
//! GEMM ([`gemm`]).
//!
//! Three entry points are provided, all agreeing bit-for-bit:
//! * [`r2::r2_sites`] — one pair at a time over the dense masked counts
//!   (the reference the batch kernels are pinned against);
//! * [`gemm::r2_row`] — one site against a run of sites, one popcount per
//!   word plus a missing-word correction (the engine's hot path, behind
//!   the [`simd`] dispatch);
//! * [`gemm::r2_block`] — tiled site-block × site-block batch of rows.

pub mod gemm;
pub mod r2;
pub mod simd;

pub use gemm::{r2_block, r2_row};
pub use r2::{r2_from_counts, r2_sites, PairCounts};

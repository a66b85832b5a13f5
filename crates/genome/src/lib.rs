//! SNP data substrate for LD-based selective sweep detection.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace: a bit-packed haplotype matrix ([`Alignment`]) in which each
//! polymorphic site ([`SnpVec`]) stores one bit per sample plus a
//! missing-data mask, along with parsers for the input formats handled by
//! OmegaPlus (Hudson's `ms`, FASTA, and a pragmatic subset of VCF) and the
//! site filters the tool applies before scanning (monomorphic removal,
//! minor-allele-frequency thresholds).
//!
//! The packed representation is the foundation of the performance of the
//! whole system: the Pearson r² LD measure used by the ω statistic reduces
//! to popcounts over these words (see the `omega-ld` crate).

pub mod alignment;
pub mod bitvec;
pub mod error;
pub mod fasta;
pub mod filter;
pub mod freq;
pub mod ms;
pub mod sites;
pub mod vcf;

pub use alignment::{Alignment, AlignmentBuilder};
pub use bitvec::{Allele, SnpVec, WORD_BITS};
pub use error::GenomeError;
pub use freq::SiteFrequencySpectrum;

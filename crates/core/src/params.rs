//! Scan parameters, mirroring the OmegaPlus command line.

use std::fmt;

/// OmegaPlus adds this offset to the ω denominator to avoid division by
/// zero when the cross-region LD sum vanishes (the same constant as the
/// `DENOMINATOR_OFFSET` in the reference C implementation).
pub const DENOMINATOR_OFFSET: f32 = 0.00001;

/// Largest accepted `grid`. A grid plan holds one window per position,
/// allocated up front, so an unbounded grid lets one request exhaust
/// memory; 2^20 positions is over 100× any grid this workspace uses.
pub const MAX_GRID: usize = 1 << 20;

/// Parameters of an ω scan.
///
/// * `grid` — number of equidistant ω positions evaluated along the region
///   (OmegaPlus `-grid`).
/// * `min_win` / `max_win` — minimum/maximum window extent in bp
///   (OmegaPlus `-minwin` / `-maxwin`): a subwindow combination `(lb, rb)`
///   is evaluated only if the borders lie within `max_win` of the ω
///   position and span at least `min_win` in total.
/// * `min_snps_per_side` — minimum SNPs required in each of the L and R
///   subregions for a combination to be scored (≥ 2, since a region needs
///   at least one SNP pair to have any intra-region LD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScanParams {
    /// Number of ω positions along the region.
    pub grid: usize,
    /// Minimum total window span in bp.
    pub min_win: u64,
    /// Maximum distance in bp from the ω position to either border.
    pub max_win: u64,
    /// Minimum number of SNPs in each subregion (≥ 2).
    pub min_snps_per_side: usize,
    /// Worker threads for the parallel scan (0 = use all available).
    pub threads: usize,
}

impl Default for ScanParams {
    fn default() -> Self {
        ScanParams { grid: 100, min_win: 100, max_win: 10_000, min_snps_per_side: 2, threads: 0 }
    }
}

/// Parameter validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub String);

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scan parameters: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

impl ScanParams {
    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.grid == 0 {
            return Err(ParamError("grid must be at least 1".into()));
        }
        if self.grid > MAX_GRID {
            return Err(ParamError(format!("grid ({}) exceeds {MAX_GRID}", self.grid)));
        }
        if self.max_win == 0 {
            return Err(ParamError("max_win must be positive".into()));
        }
        if self.min_win > self.max_win {
            return Err(ParamError(format!(
                "min_win ({}) exceeds max_win ({})",
                self.min_win, self.max_win
            )));
        }
        if self.min_snps_per_side < 2 {
            return Err(ParamError("min_snps_per_side must be at least 2".into()));
        }
        Ok(())
    }

    /// Builder-style setter for `grid`.
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        self
    }

    /// Builder-style setter for the window bounds.
    pub fn with_windows(mut self, min_win: u64, max_win: u64) -> Self {
        self.min_win = min_win;
        self.max_win = max_win;
        self
    }

    /// Builder-style setter for `threads`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ScanParams::default().validate().is_ok());
    }

    #[test]
    fn zero_grid_rejected() {
        let p = ScanParams::default().with_grid(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn grid_beyond_max_rejected() {
        assert!(ScanParams::default().with_grid(MAX_GRID).validate().is_ok());
        let err = ScanParams::default().with_grid(MAX_GRID + 1).validate().unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(ScanParams::default().with_grid(1_000_000_000_000_000).validate().is_err());
    }

    #[test]
    fn inverted_windows_rejected() {
        let p = ScanParams::default().with_windows(200, 100);
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn tiny_min_snps_rejected() {
        let p = ScanParams { min_snps_per_side: 1, ..ScanParams::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let p = ScanParams::default().with_grid(5).with_windows(10, 50).with_threads(3);
        assert_eq!((p.grid, p.min_win, p.max_win, p.threads), (5, 10, 50, 3));
    }
}

//! Tetris Write configuration.

use pcm_schemes::SchemeConfig;
use pcm_types::{Cycles, PcmError, Ps};

/// Configuration of the Tetris Write scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TetrisConfig {
    /// Shared device/organization configuration.
    pub scheme: SchemeConfig,
    /// Latency of the analysis stage added to every write's service time.
    ///
    /// The paper measured 41 cycles at the 400 MHz memory-bus clock on a
    /// Virtex-7 via Vivado HLS (worst case) = 102.5 ns, and calls that
    /// estimate "primitive and pessimistic".
    pub analysis_overhead: Ps,
    /// Sort write-1/write-0 demands in decreasing order before packing
    /// (first-fit-*decreasing*). Disable for the ablation study.
    pub sort_decreasing: bool,
    /// Allow write-0s to steal headroom inside write-1 units' sub-slots.
    /// Disabled, every write-0 needs its own overflow sub-unit (ablation).
    pub steal_write0_slack: bool,
    /// Follow the paper's Algorithm 2 initialization `result ← 1`: even a
    /// write with no changed bits occupies one write unit.
    pub min_one_write_unit: bool,
}

impl Default for TetrisConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl TetrisConfig {
    /// Paper-faithful defaults (Table II geometry, 41-cycle analysis).
    pub fn paper_baseline() -> Self {
        TetrisConfig {
            scheme: SchemeConfig::paper_baseline(),
            analysis_overhead: Ps::from_cycles(Cycles(41), 400),
            sort_decreasing: true,
            steal_write0_slack: true,
            min_one_write_unit: true,
        }
    }

    /// Validate the embedded configuration.
    pub fn validate(&self) -> Result<(), PcmError> {
        self.scheme.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_overhead_matches_paper_measurement() {
        let c = TetrisConfig::paper_baseline();
        assert_eq!(c.analysis_overhead, Ps(102_500), "41 cycles @ 400 MHz");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn defaults_enable_all_mechanisms() {
        let c = TetrisConfig::default();
        assert!(c.sort_decreasing);
        assert!(c.steal_write0_slack);
        assert!(c.min_one_write_unit);
    }
}

//! A cycle model of the analysis-stage hardware (§IV-D).
//!
//! The paper measures the Tetris Write logic at **41 cycles worst case** on
//! a Virtex-7 via Vivado HLS, clocked at the 400 MHz memory-bus clock
//! (= 102.5 ns), and calls the estimate "primitive and pessimistic". This
//! module models where those cycles go for an `n`-data-unit line:
//!
//! * **sorting** — an odd-even transposition network over `n` elements
//!   (the HLS-friendly structure): `n` compare-exchange stages, one cycle
//!   per stage, run twice (write-1 and write-0 orders);
//! * **placement** — one cycle per data unit per packing pass (the
//!   first-fit scan is pipelined against the running `WUp` accumulators),
//!   again twice;
//! * **fixed pipeline overhead** — register the Reg0/Reg1 inputs, compute
//!   the `IN0 = NUM0·L` scaling, and hand the queues to the FSMs.
//!
//! For the paper's `n = 8` this lands exactly on 41 cycles, and the model
//! extrapolates to the wider lines of the sweeps (128/256 B) and to
//! batched analysis.

use pcm_types::{Cycles, Ps};

/// Fixed pipeline cycles (input registration, `IN0` scaling, queue
/// hand-off). Chosen so the n = 8 total matches the paper's measurement.
pub const FIXED_CYCLES: Cycles = Cycles(9);

/// Cycles for one odd-even transposition sort of `n` elements.
pub const fn sort_cycles(n: u64) -> Cycles {
    Cycles(n)
}

/// Cycles for one first-fit placement pass over `n` elements.
pub const fn placement_cycles(n: u64) -> Cycles {
    Cycles(n)
}

/// Total analysis cycles for an `n`-data-unit line: two sorts + two
/// placement passes + the fixed pipeline.
pub const fn analysis_cycles(n: u64) -> Cycles {
    Cycles(FIXED_CYCLES.0 + 2 * sort_cycles(n).0 + 2 * placement_cycles(n).0)
}

/// Analysis latency at a given logic clock.
pub const fn analysis_latency(n: u64, clock_mhz: u64) -> Ps {
    Ps::from_cycles(analysis_cycles(n), clock_mhz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TetrisConfig;

    #[test]
    fn matches_the_papers_41_cycles_at_n8() {
        assert_eq!(analysis_cycles(8), Cycles(41));
        assert_eq!(analysis_latency(8, 400), Ps(102_500), "102.5 ns at 400 MHz");
        // …which is exactly the default TetrisConfig overhead.
        assert_eq!(
            analysis_latency(8, 400),
            TetrisConfig::paper_baseline().analysis_overhead
        );
    }

    #[test]
    fn scales_linearly_with_line_width() {
        // 128 B line = 16 units; 256 B = 32 units.
        assert_eq!(analysis_cycles(16), Cycles(9 + 64));
        assert_eq!(analysis_cycles(32), Cycles(9 + 128));
        // Still well under one Treset at 400 MHz even for 256 B lines:
        // the analysis hides inside the read stage's shadow.
        assert!(analysis_latency(32, 400) < Ps::from_ns(430));
    }

    #[test]
    fn faster_asic_clock_shrinks_overhead() {
        // §IV-D: "we can shorten the analysis time by migrating the work to
        // an ASIC with individual clocks with higher frequency."
        let fpga = analysis_latency(8, 400);
        let asic = analysis_latency(8, 2_000);
        assert_eq!(asic, Ps(20_500));
        assert!(asic.as_ps() * 5 == fpga.as_ps());
    }
}

//! # tetris-write
//!
//! The paper's contribution: **Tetris Write**, a PCM write scheme that
//! monitors the *actual* number of '1' and '0' bit-writes per data unit
//! and schedules them like Tetris pieces — the long, low-current write-1
//! (SET) pulses are bin-packed into write units first, then the short,
//! high-current write-0 (RESET) pulses are dropped into the current
//! headroom left inside those units' sub-write-unit slots.
//!
//! The write proceeds in the paper's three stages:
//!
//! 1. **Read** ([`mod@read_stage`], Algorithm 1) — read the old data + flip
//!    tags, invert units whose Hamming distance exceeds half, and count the
//!    per-unit SET/RESET demand (`NUM1[i]`, `NUM0[i]`).
//! 2. **Analysis** ([`analysis`], Algorithm 2) — convert counts to currents
//!    (`IN1 = NUM1`, `IN0 = NUM0·L`), first-fit-decreasing pack write-1s
//!    into write units and write-0s into sub-write-unit slots, producing
//!    `result` write units and `subresult` overflow sub-units
//!    (Eq. 5: `T = (result + subresult/K) · Tset`).
//! 3. **Individually write** ([`schedule`]) — emit the FSM0/FSM1 job
//!    queues; `pcm-device`'s executor replays them against a bank, checking
//!    the instantaneous budget every tick.
//!
//! [`TetrisWrite`] packages the three stages behind the common
//! [`pcm_schemes::WriteScheme`] trait; [`gantt`] renders chip-level timing
//! diagrams like the paper's Fig. 4; [`paper_literal`] preserves a
//! transcription of the paper's (buggy) pseudocode for ablation studies;
//! [`batch`] extends the packer across several queued lines (the authors'
//! DATE'16 follow-up direction); [`overhead`] models where the analysis
//! stage's 41 cycles (§IV-D) go, in [`pcm_types::Cycles`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod config;
pub mod gantt;
pub mod overhead;
pub mod paper_literal;
pub mod read_stage;
pub mod schedule;
pub mod scheme_impl;

pub use analysis::{analyze, AnalysisResult, Placement, PulsePhase};
pub use batch::{analyze_batch, BatchAnalysis};
pub use config::TetrisConfig;
pub use gantt::render_gantt;
pub use pcm_schemes::{SchemeConfig, WriteCtx, WriteScheme};
pub use read_stage::{read_stage, ReadStageOutput};
pub use schedule::{build_jobs, validate_on_bank, ValidationReport};
pub use scheme_impl::TetrisWrite;

/// Register [`TetrisWrite`] as the constructor behind
/// [`pcm_schemes::SchemeSelect::Tetris`], so
/// `SchemeConfig::instantiate()` can build it despite the crate
/// dependency pointing the other way. Idempotent — callers may invoke it
/// freely before instantiating schemes.
///
/// The registered factory uses [`TetrisConfig::paper_baseline`] packing
/// knobs with the caller's `SchemeConfig` substituted; code that needs
/// non-default packing knobs constructs [`TetrisWrite`] directly.
pub fn register_scheme_factory() {
    pcm_schemes::register_tetris_factory(|cfg| {
        let mut t = TetrisConfig::paper_baseline();
        t.scheme = *cfg;
        Box::new(TetrisWrite::new(t))
    });
}

#[cfg(test)]
mod tests {
    use pcm_schemes::SchemeSelect;

    #[test]
    fn instantiated_names_match() {
        super::register_scheme_factory();
        for k in SchemeSelect::ALL {
            let mut cfg = pcm_schemes::SchemeConfig::paper_baseline();
            cfg.select = k;
            let s = cfg.instantiate();
            match k {
                SchemeSelect::Dcw => assert_eq!(s.name(), "DCW (baseline)"),
                SchemeSelect::Tetris => assert_eq!(s.name(), "Tetris Write"),
                _ => assert!(!s.name().is_empty()),
            }
        }
    }
}

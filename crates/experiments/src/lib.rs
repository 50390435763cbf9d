//! # tetris-experiments
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§V) on the `pcm-memsim` substrate:
//!
//! * [`runner`] — full-system runs (workload × scheme), parallelized with
//!   [`pcm_types::pool`] across the experiment matrix.
//! * [`report`] — plain-text table rendering and normalization helpers.
//! * [`figures`] — one generator per paper artifact: Fig. 1, Fig. 3,
//!   Table I–III, Fig. 10–14, each annotated with the paper's reported
//!   numbers for shape comparison.
//! * [`ablation`] — beyond-paper studies: packing policy ablations
//!   (sorting, slack stealing, paper-literal Algorithm 2), power-budget
//!   sweeps (mobile X8/X4/X2), cache-line scaling (64/128/256 B), and
//!   wear/endurance comparisons.
//! * [`sched_ablation`] — controller scheduling-policy ablation: fixed
//!   drain watermarks vs the adaptive policy layer (watermarks + bank
//!   steering + read windows), diffed from telemetry traces and gated
//!   in CI.
//! * [`cache_sweep`] — the DRAM write-cache tier study: (frame budget ×
//!   replacement policy × workload) cells tabulating read-hit rate,
//!   coalesce ratio, drain bursts and service times.
//!
//! The `tetris-experiments` binary exposes all of it on the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cache_sweep;
pub mod figures;
pub mod paper;
pub mod report;
pub mod runner;
pub mod sched_ablation;

pub use cache_sweep::{cache_sweep_table, run_cache_sweep, CacheCell};
pub use pcm_memsim::{SimResult, SystemConfig};
pub use pcm_schemes::SchemeSelect;
pub use pcm_workloads::{WorkloadProfile, ALL_PROFILES};
pub use report::Table;
pub use runner::{
    run_matrix, run_matrix_threads, run_one, run_one_to_file, run_one_traced, run_sharded,
    RunConfig, QUICK_INSTRUCTIONS,
};
pub use sched_ablation::{
    delta_table, regression_check, run_sched_ablation, AblationOutcome, PolicySummary,
};

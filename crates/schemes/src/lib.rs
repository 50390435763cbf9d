//! # pcm-schemes
//!
//! The PCM cache-line write schemes the paper compares against, behind one
//! [`WriteScheme`] trait:
//!
//! * [`ConventionalWrite`] — every bit programmed, write units strictly
//!   serial at `Tset` each (Eq. 1).
//! * [`DcwWrite`] — data-comparison write (the paper's **baseline**): only
//!   changed bits draw current (energy win) but write-unit slots remain
//!   worst-case timed, `N/M` serial units.
//! * [`FlipNWrite`] — read-before-write + data inversion bounds changed
//!   bits to half a unit, letting two data units share one write unit
//!   (Eq. 2).
//! * [`TwoStageWrite`] — splits the write into a fast RESET stage and a SET
//!   stage sized by the power asymmetry (Eq. 3); writes the full data, so
//!   no energy reduction.
//! * [`ThreeStageWrite`] — 2-Stage-Write plus Flip-N-Write's read/flip,
//!   which halves both stages' data (Eq. 4).
//!
//! Beyond the paper's comparison set, [`PreSetWrite`] implements the cited
//! PreSET scheme (ref. \[23\]) — background full-SET sweeps that leave only
//! fast RESETs on the critical path, trading energy and endurance for
//! latency — and two families from the follow-on literature:
//! [`PalpWrite`] (partition-level parallelism inside one bank, DCW energy
//! with near-parallel slot timing) and [`WireWrite`] (restricted coset
//! coding, a Flip-N-Write sibling with a 4-row XOR codebook).
//!
//! The paper's contribution, Tetris Write, implements the same trait in the
//! `tetris-write` crate.
//!
//! [`analytic`] holds the closed-form service times (Eqs. 1–4) used for
//! cross-checking and for Fig. 10's theoretical rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod conventional;
pub mod dcw;
pub mod fnw;
pub mod palp;
pub mod preset;
pub mod three_stage;
pub mod traits;
pub mod two_stage;
pub mod wire;

pub use conventional::ConventionalWrite;
pub use dcw::DcwWrite;
pub use fnw::FlipNWrite;
pub use palp::PalpWrite;
pub use preset::{register_tetris_factory, PreSetWrite, SchemeSelect};
pub use three_stage::ThreeStageWrite;
pub use traits::{BatchPlan, PackStats, SchemeConfig, WriteCtx, WritePlan, WriteScheme};
pub use two_stage::TwoStageWrite;
pub use wire::WireWrite;

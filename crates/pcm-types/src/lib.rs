//! # pcm-types
//!
//! Fundamental, dependency-light types shared by every crate in the
//! Tetris Write stack:
//!
//! * [`time`] — picosecond-resolution simulation time ([`Ps`]) so that event
//!   ordering is exact (no floating-point timestamps in the simulator), and
//!   clock-cycle counts ([`Cycles`]) that only become time through a named
//!   clock.
//! * [`timing`] — PCM pulse timings ([`PcmTimings`], Table II of the paper:
//!   READ 50 ns, RESET 53 ns, SET 430 ns) and the derived time-asymmetry
//!   ratio `K`.
//! * [`power`] — instantaneous-current budgeting ([`PowerParams`]): a SET
//!   costs one budget unit, a RESET costs `L` (= 2) units, and a bank may
//!   spend at most `PBmax` (= 128) units at any instant.
//! * [`energy`] — per-bit programming energy ([`EnergyParams`]).
//! * [`org`] — memory organization ([`MemOrg`]): chips per bank, write-unit
//!   size, cache-line size, bank/rank counts.
//! * [`addr`] — physical-address decomposition ([`AddrMap`]).
//! * [`data`] — cache-line payloads ([`LineData`]) and 64-bit data units.
//! * [`bits`] — SET/RESET transition counting and Hamming distances.
//! * [`flip`] — Flip-N-Write data-inversion coding (Algorithm 1's
//!   read-before-write comparison).
//! * [`coset`] — WIRE-style restricted coset coding: a small XOR-mask
//!   codebook generalizing the flip bit, with the row index packed into
//!   the tag word's top bits.
//! * [`demand`] — the per-data-unit write demand ([`UnitDemand`],
//!   [`LineDemand`]) that every write scheme consumes.
//!
//! Plus the stdlib-only infrastructure that keeps the workspace free of
//! external crates (the whole tree builds with `cargo build --offline`):
//!
//! * [`rng`] — deterministic pseudo-random generation (splitmix64 and
//!   xoshiro256**) behind a `rand`-compatible [`rng::Rng`] trait.
//! * [`json`] — a minimal JSON value model, writer, and parser for
//!   experiment results and trace files.
//! * [`mod@propcheck`] — a seeded property-testing harness with shrinking
//!   (the [`propcheck!`] macro replaces `proptest!` blocks).
//! * [`stats`] — nearest-rank percentile machinery ([`Percentiles`])
//!   shared by telemetry summaries, the adaptive scheduler, and the
//!   `pcm-serve` SLO report.
//! * [`mod@registry`] — the [`registry!`] macro that declares a
//!   string-tagged enum (`ALL`, `tag()`, `Display`, `FromStr`) from one
//!   table, so its surfaces cannot drift apart.
//! * [`pool`] — a scoped work-stealing thread pool (the `rayon`
//!   replacement) with deterministic, input-ordered results, used by the
//!   experiment matrix, the rank shards and the lint scanner.
//!
//! Everything here is `#![forbid(unsafe_code)]`, allocation-free on the hot
//! paths (fixed-capacity line buffers), and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bits;
pub mod collections;
pub mod coset;
pub mod data;
pub mod demand;
pub mod energy;
pub mod error;
pub mod flip;
pub mod json;
pub mod org;
pub mod pool;
pub mod power;
pub mod propcheck;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timing;

pub use addr::{AddrMap, DecodedAddr, PhysAddr};
pub use bits::{hamming, hamming_unit, transitions, Transitions};
pub use collections::{sorted_entries, sorted_keys, sorted_values};
pub use coset::{
    coset_decode, coset_decode_unit, coset_row, coset_rows_available, coset_unit_flips,
    with_coset_row, COSET_PATTERNS, COSET_ROWS, COSET_ROW_SHIFT,
};
pub use data::{DataUnit, LineData, MAX_LINE_BYTES, MAX_UNITS_PER_LINE};
pub use demand::{LineDemand, UnitDemand};
pub use energy::{EnergyParams, PicoJoules};
pub use error::PcmError;
pub use flip::{flip_decode, flip_encode, flip_units, FlipBitWrite, FlipDecision, FlippedLine};
pub use json::{Json, JsonCodec, JsonError};
pub use org::MemOrg;
pub use power::PowerParams;
pub use registry::ParseTagError;
pub use stats::Percentiles;
pub use time::{Cycles, Ps};
pub use timing::PcmTimings;

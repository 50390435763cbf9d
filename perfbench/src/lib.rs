//! Host-time benchmark of the simulator's two user paths — batch
//! `System` runs and the `pcm-serve` wire path — with outside-in
//! attribution of host time to the repository's modules.
//!
//! Every timer lives in this crate: the [`layers`] adapters wrap the
//! `Box<dyn …>` seams the simulator already exposes, so the simulator
//! crates stay free of wall-clock reads. See `README.md` for the
//! workloads, the metrics and how to run them.

pub mod batch;
pub mod layers;
pub mod measure;
pub mod reference;
pub mod report;
pub mod serve;

//! The `cache-sweep` experiment: the DRAM write-cache tier measured per
//! (frame budget × replacement policy × workload) cell.
//!
//! Every cell runs the same workload under the Tetris scheme with the
//! write cache sized and steered per cell, records a telemetry trace
//! (the `WriteCacheHit` / `WriteCacheDrain` stream is the evidence), and
//! tables read-hit rate, coalesce ratio, drain bursts and end-to-end
//! service times. A `frames = 0` baseline row per workload pins the
//! disabled tier against the paper's pipeline.

use crate::report::{f2, Table};
use crate::runner::{run_one_to_file, RunConfig};
use pcm_memsim::{PolicySelect, SimResult, WriteCacheConfig};
use pcm_schemes::SchemeSelect;
use pcm_telemetry::{read_tagged_events, TraceDetail, TraceSummary};
use pcm_types::PcmError;
use pcm_workloads::WorkloadProfile;
use std::path::{Path, PathBuf};

/// One measured (workload × frames × policy) cell.
#[derive(Clone, Debug)]
pub struct CacheCell {
    /// Workload name.
    pub workload: String,
    /// Frame budget (0 = tier disabled, the baseline row).
    pub frames: usize,
    /// Replacement policy steering the tier (meaningless when disabled).
    pub policy: PolicySelect,
    /// The run's end-to-end statistics.
    pub result: SimResult,
    /// Trace rollup: write-cache hit/coalesce/drain counters.
    pub summary: TraceSummary,
    /// Recorded telemetry trace (render with `tetris-experiments report`).
    pub trace: PathBuf,
}

impl CacheCell {
    /// Fraction of loads served out of the DRAM tier, in `[0, 1]`.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.summary.write_cache_hits + self.result.mem_reads;
        if total == 0 {
            0.0
        } else {
            self.summary.write_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of stores absorbed by coalescing, in `[0, 1]`.
    pub fn coalesce_ratio(&self) -> f64 {
        let total = self.summary.write_cache_coalesces + self.summary.write_cache_drained_lines;
        if total == 0 {
            0.0
        } else {
            self.summary.write_cache_coalesces as f64 / total as f64
        }
    }
}

/// Run the full sweep: for every workload, one disabled baseline plus one
/// cell per (frame budget × policy), each recording its trace under
/// `trace_dir`.
pub fn run_cache_sweep(
    profiles: &[WorkloadProfile],
    frames: &[usize],
    policies: &[PolicySelect],
    cfg: &RunConfig,
    trace_dir: &Path,
) -> Result<Vec<CacheCell>, PcmError> {
    std::fs::create_dir_all(trace_dir)
        .map_err(|e| PcmError::config(format!("cannot create {}: {e}", trace_dir.display())))?;
    let mut cells = Vec::new();
    for profile in profiles {
        cells.push(run_cell(profile, 0, PolicySelect::Lru, cfg, trace_dir)?);
        for &f in frames {
            for &p in policies {
                cells.push(run_cell(profile, f, p, cfg, trace_dir)?);
            }
        }
    }
    Ok(cells)
}

fn run_cell(
    profile: &WorkloadProfile,
    frames: usize,
    policy: PolicySelect,
    cfg: &RunConfig,
    trace_dir: &Path,
) -> Result<CacheCell, PcmError> {
    let mut cell_cfg = *cfg;
    cell_cfg.system.write_cache = if frames == 0 {
        WriteCacheConfig::disabled()
    } else {
        WriteCacheConfig::with_frames(frames, policy)
    };
    cell_cfg.system.validate()?;
    let tag = if frames == 0 {
        "off".to_string()
    } else {
        format!("{frames}-{policy}")
    };
    let trace = trace_dir.join(format!("cache-{}-{tag}.jsonl", profile.name));
    let (result, _written) = run_one_to_file(
        profile,
        SchemeSelect::Tetris,
        &cell_cfg,
        &trace,
        TraceDetail::Fine,
    )
    .map_err(|e| PcmError::config(format!("cannot trace to {}: {e}", trace.display())))?;
    let file = std::fs::File::open(&trace)
        .map_err(|e| PcmError::config(format!("cannot reopen {}: {e}", trace.display())))?;
    let tagged = read_tagged_events(std::io::BufReader::new(file))
        .map_err(|e| PcmError::config(format!("cannot parse {}: {e}", trace.display())))?;
    let summary = TraceSummary::merged(&TraceSummary::by_rank(&tagged));
    Ok(CacheCell {
        workload: profile.name.to_string(),
        frames,
        policy,
        result,
        summary,
        trace,
    })
}

/// Render the sweep as one table, baseline rows first per workload.
pub fn cache_sweep_table(cells: &[CacheCell]) -> Table {
    let mut t = Table::new(
        "Write-cache sweep — DRAM tier vs frame budget and policy",
        &[
            "workload",
            "frames",
            "policy",
            "read hit %",
            "coalesce %",
            "drain bursts",
            "drained lines",
            "write ns",
            "read ns",
            "runtime µs",
        ],
    );
    for c in cells {
        t.row(vec![
            c.workload.clone(),
            if c.frames == 0 {
                "off".to_string()
            } else {
                c.frames.to_string()
            },
            if c.frames == 0 {
                "—".to_string()
            } else {
                c.policy.to_string()
            },
            f2(c.read_hit_rate() * 100.0),
            f2(c.coalesce_ratio() * 100.0),
            c.summary.write_cache_drains.to_string(),
            c.summary.write_cache_drained_lines.to_string(),
            f2(c.result.write_latency.mean_ns()),
            f2(c.result.read_latency.mean_ns()),
            f2(c.result.runtime.as_ns_f64() / 1000.0),
        ]);
    }
    t.note(
        "frames = off pins the disabled tier (bit-for-bit the paper's pipeline); \
         coalesce % = stores absorbed in DRAM / stores admitted",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_workloads::ALL_PROFILES;

    #[test]
    fn sweep_produces_distinct_policy_profiles() {
        let dir = std::env::temp_dir().join(format!("cache-sweep-test-{}", std::process::id()));
        let cfg = RunConfig {
            instructions_per_core: 120_000,
            ..RunConfig::default()
        };
        let vips = ALL_PROFILES[7];
        let cells = run_cache_sweep(
            std::slice::from_ref(&vips),
            &[16],
            &PolicySelect::ALL,
            &cfg,
            &dir,
        )
        .unwrap();
        assert_eq!(cells.len(), 1 + PolicySelect::ALL.len());
        let base = &cells[0];
        assert_eq!(base.frames, 0);
        assert_eq!(base.summary.write_cache_drains, 0, "baseline has no tier");
        for c in &cells[1..] {
            assert!(c.coalesce_ratio() > 0.0, "{}: no coalescing", c.policy);
            assert!(c.summary.write_cache_drains > 0, "{}: no drains", c.policy);
            assert_eq!(
                c.summary.write_cache_drained_lines, c.result.mem_writes,
                "every drained line lands in PCM exactly once"
            );
            assert!(c.trace.exists(), "trace artifact recorded");
        }
        // The policies must not all collapse onto one profile: a tiny
        // frame budget makes the eviction order observable.
        let profiles: std::collections::BTreeSet<(u64, u64)> = cells[1..]
            .iter()
            .map(|c| {
                (
                    c.summary.write_cache_coalesces,
                    c.summary.write_cache_drains,
                )
            })
            .collect();
        assert!(
            profiles.len() > 1,
            "lru/clock/2q produced identical hit/drain profiles: {profiles:?}"
        );
        let table = cache_sweep_table(&cells);
        assert_eq!(table.num_rows(), cells.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

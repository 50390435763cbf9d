//! System configuration (Table II of the paper).

use crate::replacement::PolicySelect;
use crate::sched::SchedConfig;
use crate::system::TraceLevel;
use pcm_schemes::SchemeConfig;
use pcm_types::{Cycles, PcmError, Ps};
use tetris_write::TetrisConfig;

/// The error [`crate::System::build`] and [`SystemConfig::validate`] return
/// on an invalid configuration (an alias of [`PcmError`], whose `Config` variant
/// carries the explanation).
pub type ConfigError = PcmError;

/// One cache level's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Access latency in CPU cycles.
    pub latency_cycles: Cycles,
    /// Replacement policy ([`PolicySelect::Lru`] reproduces the
    /// historical hard-coded LRU bit for bit).
    pub policy: PolicySelect,
}

impl CacheConfig {
    /// Check this level's geometry against the system's cache-line size:
    /// non-zero ways and capacity, a power-of-two line, a capacity that
    /// divides into whole sets, and a power-of-two set count (the index
    /// function masks the line address).
    pub fn validate(&self, line_bytes: u32) -> Result<(), PcmError> {
        if self.assoc == 0 {
            return Err(PcmError::config("cache associativity must be ≥ 1"));
        }
        if !line_bytes.is_power_of_two() {
            return Err(PcmError::config(
                "cache line size must be a non-zero power of two",
            ));
        }
        if self.size_bytes == 0 {
            return Err(PcmError::config("cache capacity must be non-zero"));
        }
        let set_bytes = line_bytes as u64 * self.assoc as u64;
        if self.size_bytes % set_bytes != 0 {
            return Err(PcmError::config("cache size must divide into sets"));
        }
        if !(self.size_bytes / set_bytes).is_power_of_two() {
            return Err(PcmError::config("set count must be a power of two"));
        }
        Ok(())
    }
}

/// The DRAM write-cache tier in front of the PCM banks
/// ([`crate::writecache::WriteCache`]): a fixed budget of line-sized
/// frames that coalesce repeated writes before they reach the controller
/// write queues. `frames = 0` (the default) disables the tier entirely —
/// the pipeline is bit-for-bit the paper's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteCacheConfig {
    /// Frame budget (cache lines held in DRAM); 0 disables the tier.
    pub frames: usize,
    /// Background drain starts once this many frames are dirty.
    pub drain_watermark: usize,
    /// Which frame to sacrifice when the budget is exhausted.
    pub policy: PolicySelect,
}

impl WriteCacheConfig {
    /// The disabled tier (`frames = 0`).
    pub fn disabled() -> Self {
        WriteCacheConfig {
            frames: 0,
            drain_watermark: 0,
            policy: PolicySelect::Lru,
        }
    }

    /// An enabled tier with `frames` frames, the drain watermark at 3/4
    /// of the budget, and the given policy.
    pub fn with_frames(frames: usize, policy: PolicySelect) -> Self {
        WriteCacheConfig {
            frames,
            drain_watermark: (frames * 3 / 4).max(1),
            policy,
        }
    }

    /// Is the tier enabled?
    pub fn enabled(&self) -> bool {
        self.frames > 0
    }

    /// Validate the knobs: an enabled tier needs a watermark within
    /// `1..=frames` so the background drain can both start and finish.
    pub fn validate(&self) -> Result<(), PcmError> {
        if self.frames == 0 {
            return Ok(());
        }
        if self.drain_watermark == 0 {
            return Err(PcmError::config(
                "write-cache drain watermark must be ≥ 1 when frames > 0",
            ));
        }
        if self.drain_watermark > self.frames {
            return Err(PcmError::config(
                "write-cache drain watermark cannot exceed the frame budget",
            ));
        }
        Ok(())
    }
}

impl Default for WriteCacheConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Memory-controller parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Read-queue capacity (Table II: 32 entries).
    pub read_queue_cap: usize,
    /// Write-queue capacity (Table II: 32 entries).
    pub write_queue_cap: usize,
    /// Drain stops once the write queue falls to this level.
    pub write_low_watermark: usize,
    /// Extra bus/transfer time added to each read's service.
    pub t_bus: Ps,
    /// Row-buffer-hit read service (bus + sense from the open row).
    pub t_row_hit: Ps,
    /// Write pausing (Qureshi et al., HPCA'10 — the paper's ref. \[24\]):
    /// a queued read may preempt an in-flight write at iteration
    /// boundaries; the write resumes afterwards with a re-ramp penalty.
    /// Off by default (the paper's controller does not pause).
    pub write_pausing: bool,
    /// Re-ramp penalty added each time a paused write resumes.
    pub pause_overhead: Ps,
    /// Maximum times one write may be paused (bounds read-storm livelock).
    pub max_pauses_per_write: u32,
    /// Writes drained together per bank as one batched operation (Tetris
    /// inter-line packing; 1 = the paper's per-line behaviour).
    pub batch_writes: usize,
    /// Subarrays per bank (Yue & Zhu, DATE'13 — the paper's ref. \[15\]).
    /// Rows stripe across subarrays; a read may proceed in one subarray
    /// while another subarray of the same bank writes (reads draw
    /// negligible current, §II), but the shared charge pump still allows
    /// only one write per bank at a time. 1 = the paper's organization.
    pub subarrays_per_bank: usize,
    /// Write-scheduling policy selection (adaptive watermarks, bank
    /// steering, read-priority windows). The default
    /// [`SchedConfig::fixed`] reproduces the paper's controller exactly.
    pub sched: SchedConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            read_queue_cap: 32,
            write_queue_cap: 32,
            write_low_watermark: 16,
            t_bus: Ps::from_ns(10),
            t_row_hit: Ps::from_ns(15),
            write_pausing: false,
            pause_overhead: Ps::from_ns(4),
            max_pauses_per_write: 4,
            batch_writes: 1,
            subarrays_per_bank: 1,
            sched: SchedConfig::fixed(),
        }
    }
}

/// Full system configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (Table II: 4).
    pub cores: usize,
    /// CPU clock in MHz (Table II: 2 GHz).
    pub cpu_freq_mhz: u64,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3 (the paper's 32 MB DRAM cache).
    pub l3: CacheConfig,
    /// DRAM write-cache tier in front of the controller write queues
    /// (disabled by default — the paper has no such tier).
    pub write_cache: WriteCacheConfig,
    /// Memory controller.
    pub controller: ControllerConfig,
    /// PCM device + write-scheme geometry (including which scheme
    /// [`crate::System::build`] instantiates, via `mem.select`).
    pub mem: SchemeConfig,
    /// Which abstraction level the trace describes.
    pub level: TraceLevel,
    /// Packing knobs used when `mem.select` is [`pcm_schemes::SchemeSelect::Tetris`]
    /// (its embedded `scheme` field is overridden with `mem` at build
    /// time, so `mem` stays the single source of device geometry).
    pub tetris: TetrisConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl SystemConfig {
    /// Table II values.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            cores: 4,
            cpu_freq_mhz: 2_000,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 4,
                latency_cycles: Cycles(2),
                policy: PolicySelect::Lru,
            },
            l2: CacheConfig {
                size_bytes: 2 << 20,
                assoc: 8,
                latency_cycles: Cycles(20),
                policy: PolicySelect::Lru,
            },
            l3: CacheConfig {
                size_bytes: 32 << 20,
                assoc: 16,
                latency_cycles: Cycles(50),
                policy: PolicySelect::Lru,
            },
            write_cache: WriteCacheConfig::disabled(),
            controller: ControllerConfig::default(),
            mem: SchemeConfig::paper_baseline(),
            level: TraceLevel::MemoryLevel,
            tetris: TetrisConfig::paper_baseline(),
        }
    }

    /// One CPU cycle.
    pub fn cycle(&self) -> Ps {
        Ps::from_cycles(Cycles(1), self.cpu_freq_mhz)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), PcmError> {
        if self.cores == 0 {
            return Err(PcmError::config("need at least one core"));
        }
        // `cycle()` divides by the clock, and above 1 THz a cycle rounds
        // to 0 ps.
        if !(1..=1_000_000).contains(&self.cpu_freq_mhz) {
            return Err(PcmError::config("CPU clock must be 1..=1_000_000 MHz"));
        }
        if self.controller.write_low_watermark >= self.controller.write_queue_cap {
            return Err(PcmError::config(
                "low watermark must be below queue capacity",
            ));
        }
        if self.controller.read_queue_cap == 0 || self.controller.write_queue_cap == 0 {
            return Err(PcmError::config("queues must be non-empty"));
        }
        if self.controller.batch_writes == 0 || self.controller.subarrays_per_bank == 0 {
            return Err(PcmError::config("batch_writes and subarrays must be ≥ 1"));
        }
        if self.controller.sched.watermark_interval == 0 {
            return Err(PcmError::config("watermark_interval must be ≥ 1"));
        }
        if self.controller.sched.min_watermark_gap >= self.controller.write_queue_cap {
            return Err(PcmError::config(
                "min_watermark_gap must be below queue capacity",
            ));
        }
        self.write_cache.validate()?;
        for c in [&self.l1, &self.l2, &self.l3] {
            c.validate(self.mem.org.cache_line_bytes)?;
        }
        // Rank × bank × power-budget consistency: sharding splits the
        // address space and the per-bank current budget must make sense in
        // every shard.
        let org = &self.mem.org;
        if org.ranks == 0 || org.banks_per_rank == 0 {
            return Err(PcmError::config(
                "ranks and banks_per_rank must be at least 1",
            ));
        }
        if org.ranks as u64 * org.banks_per_rank as u64 > 1024 {
            return Err(PcmError::config(
                "ranks × banks_per_rank exceeds 1024 banks",
            ));
        }
        if org.capacity_bytes % (org.ranks as u64 * org.cache_line_bytes as u64) != 0 {
            return Err(PcmError::config(
                "capacity must split into a whole number of lines per rank",
            ));
        }
        if self.mem.power.chips_per_bank != org.chips_per_bank {
            return Err(PcmError::config(
                "power budget and organization disagree on chips per bank",
            ));
        }
        if self.mem.power.budget_per_bank < self.mem.power.set_cost(1) {
            return Err(PcmError::config(
                "per-bank power budget cannot program even one bit",
            ));
        }
        // `tetris.scheme` is rebound to `mem` at build time, so this also
        // covers everything `TetrisConfig::validate` checks.
        self.mem.validate()
    }
}

/// Scaled-down caches for fast CPU-level tests: 2 cores, 4 KB L1 /
/// 32 KB L2 / 256 KB L3, otherwise the Table II baseline.
#[cfg(test)]
pub(crate) fn small_caches() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = 2;
    cfg.l1.size_bytes = 4 << 10;
    cfg.l1.assoc = 2;
    cfg.l2.size_bytes = 32 << 10;
    cfg.l2.assoc = 4;
    cfg.l3.size_bytes = 256 << 10;
    cfg.l3.assoc = 8;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::propcheck::{any_u64, one_of, union, vec_of};

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cores, 4);
        assert_eq!(c.cycle(), Ps(500), "2 GHz → 500 ps");
        assert_eq!(c.l1.latency_cycles, Cycles(2));
        assert_eq!(c.l2.latency_cycles, Cycles(20));
        assert_eq!(c.l3.latency_cycles, Cycles(50));
        assert_eq!(c.controller.read_queue_cap, 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_watermark() {
        let mut c = SystemConfig::paper_baseline();
        c.controller.write_low_watermark = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_divisors() {
        let zero_ways: [fn(&mut SystemConfig); 3] =
            [|c| c.l1.assoc = 0, |c| c.l2.assoc = 0, |c| c.l3.assoc = 0];
        for edit in zero_ways {
            let mut c = SystemConfig::paper_baseline();
            edit(&mut c);
            assert!(c.validate().is_err());
        }
        let mut c = SystemConfig::paper_baseline();
        c.mem.org.cache_line_bytes = 0;
        assert!(c.validate().is_err());
        // A 0 MHz clock would divide by zero in `cycle()`.
        let mut c = SystemConfig::paper_baseline();
        c.cpu_freq_mhz = 0;
        assert!(c.validate().is_err());
    }

    /// Setters for every integer field of a `SystemConfig`, nested ones
    /// included (`as` truncates the raw draw to the field's width).
    const INT_FIELDS: &[fn(&mut SystemConfig, u64)] = &[
        |c, v| c.cores = v as usize,
        |c, v| c.cpu_freq_mhz = v,
        |c, v| c.l1.size_bytes = v,
        |c, v| c.l1.assoc = v as u32,
        |c, v| c.l1.latency_cycles = Cycles(v),
        |c, v| c.l2.size_bytes = v,
        |c, v| c.l2.assoc = v as u32,
        |c, v| c.l2.latency_cycles = Cycles(v),
        |c, v| c.l3.size_bytes = v,
        |c, v| c.l3.assoc = v as u32,
        |c, v| c.l3.latency_cycles = Cycles(v),
        |c, v| c.write_cache.frames = v as usize,
        |c, v| c.write_cache.drain_watermark = v as usize,
        |c, v| c.controller.read_queue_cap = v as usize,
        |c, v| c.controller.write_queue_cap = v as usize,
        |c, v| c.controller.write_low_watermark = v as usize,
        |c, v| c.controller.t_bus = Ps(v),
        |c, v| c.controller.t_row_hit = Ps(v),
        |c, v| c.controller.pause_overhead = Ps(v),
        |c, v| c.controller.max_pauses_per_write = v as u32,
        |c, v| c.controller.batch_writes = v as usize,
        |c, v| c.controller.subarrays_per_bank = v as usize,
        |c, v| c.controller.sched.watermark_interval = v as u32,
        |c, v| c.controller.sched.min_watermark_gap = v as usize,
        |c, v| c.controller.sched.max_drain_starvation = Ps(v),
        |c, v| c.controller.sched.read_window = Ps(v),
        |c, v| c.mem.timings.t_read = Ps(v),
        |c, v| c.mem.timings.t_reset = Ps(v),
        |c, v| c.mem.timings.t_set = Ps(v),
        |c, v| c.mem.power.l_ratio = v as u32,
        |c, v| c.mem.power.budget_per_bank = v as u32,
        |c, v| c.mem.power.chips_per_bank = v as u32,
        |c, v| c.mem.org.capacity_bytes = v,
        |c, v| c.mem.org.ranks = v as u32,
        |c, v| c.mem.org.banks_per_rank = v as u32,
        |c, v| c.mem.org.chips_per_bank = v as u32,
        |c, v| c.mem.org.write_unit_bits_per_chip = v as u32,
        |c, v| c.mem.org.cache_line_bytes = v as u32,
        |c, v| c.mem.org.data_unit_bits = v as u32,
        |c, v| c.mem.org.partitions_per_bank = v as u32,
        |c, v| c.mem.energy.e_set = pcm_types::PicoJoules(v),
        |c, v| c.mem.energy.e_reset = pcm_types::PicoJoules(v),
        |c, v| c.mem.energy.e_read_unit = pcm_types::PicoJoules(v),
        |c, v| c.tetris.analysis_overhead = Ps(v),
    ];

    pcm_types::propcheck! {
        cases = 1024;

        /// `validate()` is total: whatever the integer fields hold, it
        /// returns `Ok` or `Err` and never panics (the harness turns a
        /// panic, overflow included, into a failure).
        fn validate_never_panics(
            edits in vec_of(
                (
                    0..INT_FIELDS.len(),
                    union(vec![
                        Box::new(0u64..=8),
                        Box::new(one_of(&[16u64, 32, 64, 128, 256, 1 << 20, 1 << 31, u32::MAX as u64])),
                        Box::new(any_u64()),
                    ]),
                ),
                1..=6,
            )
        ) {
            let mut c = SystemConfig::paper_baseline();
            for &(field, v) in &edits {
                INT_FIELDS[field](&mut c, v);
            }
            let _ = c.validate();
        }
    }

    #[test]
    fn small_test_config_valid() {
        assert!(small_caches().validate().is_ok());
    }

    #[test]
    fn builder_overrides_and_validates() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = 8;
        cfg.cpu_freq_mhz = 1_000;
        cfg.controller.write_queue_cap = 64;
        cfg.controller.write_low_watermark = 8;
        cfg.controller.batch_writes = 4;
        cfg.controller.subarrays_per_bank = 2;
        cfg.controller.write_pausing = true;
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.cycle(), Ps(1_000));

        let mut bad = SystemConfig::paper_baseline();
        bad.controller.write_queue_cap = 16;
        bad.controller.write_low_watermark = 16;
        assert!(bad.validate().is_err());
        let mut bad = SystemConfig::paper_baseline();
        bad.cores = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn write_cache_knobs_validate() {
        // Default: disabled, LRU, bit-for-bit the paper's pipeline.
        let base = SystemConfig::paper_baseline();
        assert_eq!(base.write_cache, WriteCacheConfig::disabled());
        assert!(!base.write_cache.enabled());

        let wc = WriteCacheConfig::with_frames(64, PolicySelect::Clock);
        assert_eq!(wc.frames, 64);
        assert_eq!(wc.drain_watermark, 48, "3/4 of the budget");
        assert_eq!(wc.policy, PolicySelect::Clock);

        // Explicit watermark override, still validated.
        let mut cfg = SystemConfig::paper_baseline();
        cfg.write_cache = WriteCacheConfig::with_frames(16, PolicySelect::Lru);
        cfg.write_cache.drain_watermark = 4;
        assert!(cfg.validate().is_ok());
        cfg.write_cache.drain_watermark = 17;
        assert!(cfg.validate().is_err());
        cfg.write_cache.drain_watermark = 0;
        assert!(cfg.validate().is_err());
        // frames = 0 ignores the other knobs entirely.
        cfg.write_cache.frames = 0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn cache_config_builder_takes_a_policy() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.l2.policy = PolicySelect::TwoQ;
        assert!(cfg.validate().is_ok());
        // The default stays LRU so existing configs are unchanged.
        assert_eq!(SystemConfig::paper_baseline().l2.policy, PolicySelect::Lru);
    }

    #[test]
    fn sched_builder_knobs_and_validation() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.controller.sched = SchedConfig::adaptive();
        assert!(cfg.validate().is_ok());

        // Defaults stay paper-faithful: everything off.
        assert_eq!(
            SystemConfig::paper_baseline().controller.sched,
            SchedConfig::fixed()
        );

        // A gap as wide as the queue can never hold low + gap <= high.
        cfg.controller.sched.min_watermark_gap = 32;
        assert!(cfg.validate().is_err());
        cfg.controller.sched.min_watermark_gap = 4;
        cfg.controller.sched.watermark_interval = 0;
        assert!(cfg.validate().is_err());
    }
}

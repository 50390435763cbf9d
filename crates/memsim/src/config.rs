//! System configuration (Table II of the paper).

use crate::replacement::PolicySelect;
use crate::sched::SchedConfig;
use crate::system::TraceLevel;
use pcm_schemes::{SchemeConfig, SchemeSelect};
use pcm_types::{PcmError, Ps};
use tetris_write::TetrisConfig;

/// The error [`crate::System::build`] and the config builders return on an
/// invalid configuration (an alias of [`PcmError`], whose `Config` variant
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
    pub latency_cycles: u32,
    /// Replacement policy ([`PolicySelect::Lru`] reproduces the
    /// historical hard-coded LRU bit for bit).
    pub policy: PolicySelect,
}

impl CacheConfig {
    /// Start a fluent builder from the Table II L1 geometry
    /// (32 KB, 4-way, 2-cycle, LRU).
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder {
            cfg: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 4,
                latency_cycles: 2,
                policy: PolicySelect::Lru,
            },
        }
    }
}

/// Fluent construction of a [`CacheConfig`];
/// [`CacheConfigBuilder::build`] validates the line-independent geometry
/// (non-zero capacity and ways, capacity divisible into ways), so an
/// invalid level never reaches [`crate::cache::Cache::new`] — which re-checks
/// against the concrete cache-line size.
///
/// ```
/// use pcm_memsim::CacheConfig;
/// let l2 = CacheConfig::builder()
///     .size_bytes(2 << 20)
///     .assoc(8)
///     .latency_cycles(20)
///     .build()
///     .unwrap();
/// assert_eq!(l2.size_bytes, 2 << 20);
/// assert!(CacheConfig::builder().assoc(0).build().is_err());
/// ```
#[derive(Clone, Copy, Debug)]
#[must_use = "call .build() to obtain the validated CacheConfig"]
pub struct CacheConfigBuilder {
    cfg: CacheConfig,
}

impl CacheConfigBuilder {
    /// Capacity in bytes.
    pub fn size_bytes(mut self, n: u64) -> Self {
        self.cfg.size_bytes = n;
        self
    }

    /// Associativity (ways).
    pub fn assoc(mut self, n: u32) -> Self {
        self.cfg.assoc = n;
        self
    }

    /// Access latency in CPU cycles.
    pub fn latency_cycles(mut self, n: u32) -> Self {
        self.cfg.latency_cycles = n;
        self
    }

    /// Replacement policy.
    pub fn policy(mut self, p: PolicySelect) -> Self {
        self.cfg.policy = p;
        self
    }

    /// Validate and return the finished level geometry.
    pub fn build(self) -> Result<CacheConfig, PcmError> {
        if self.cfg.assoc == 0 {
            return Err(PcmError::config("cache associativity must be ≥ 1"));
        }
        if self.cfg.size_bytes == 0 {
            return Err(PcmError::config("cache capacity must be non-zero"));
        }
        if self.cfg.size_bytes % self.cfg.assoc as u64 != 0 {
            return Err(PcmError::config("cache capacity must divide into ways"));
        }
        Ok(self.cfg)
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
    /// Packing knobs used when `mem.select` is [`SchemeSelect::Tetris`]
    /// (its embedded `scheme` field is overridden with `mem` at build
    /// time, so `mem` stays the single source of device geometry).
    pub tetris: TetrisConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Fluent construction of a [`SystemConfig`], starting from the Table II
/// baseline; [`SystemConfigBuilder::build`] folds in
/// [`SystemConfig::validate`], so an invalid combination never escapes.
///
/// ```
/// use pcm_memsim::SystemConfig;
/// let cfg = SystemConfig::builder()
///     .cores(2)
///     .write_queue(64)
///     .batch_writes(4)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.cores, 2);
/// assert_eq!(cfg.controller.write_queue_cap, 64);
/// ```
#[derive(Clone, Copy, Debug)]
#[must_use = "call .build() to obtain the validated SystemConfig"]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Number of cores.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.cores = n;
        self
    }

    /// CPU clock in MHz.
    pub fn cpu_freq_mhz(mut self, mhz: u64) -> Self {
        self.cfg.cpu_freq_mhz = mhz;
        self
    }

    /// L1 data-cache geometry.
    pub fn l1(mut self, c: CacheConfig) -> Self {
        self.cfg.l1 = c;
        self
    }

    /// Private L2 geometry.
    pub fn l2(mut self, c: CacheConfig) -> Self {
        self.cfg.l2 = c;
        self
    }

    /// Shared L3 geometry.
    pub fn l3(mut self, c: CacheConfig) -> Self {
        self.cfg.l3 = c;
        self
    }

    /// Replace the whole write-cache configuration.
    pub fn write_cache_config(mut self, c: WriteCacheConfig) -> Self {
        self.cfg.write_cache = c;
        self
    }

    /// Enable the DRAM write-cache tier with `frames` frames (0 keeps it
    /// disabled); the drain watermark defaults to 3/4 of the budget.
    pub fn write_cache(mut self, frames: usize) -> Self {
        self.cfg.write_cache = if frames == 0 {
            WriteCacheConfig::disabled()
        } else {
            WriteCacheConfig::with_frames(frames, self.cfg.write_cache.policy)
        };
        self
    }

    /// Write-cache replacement policy.
    pub fn write_cache_policy(mut self, p: PolicySelect) -> Self {
        self.cfg.write_cache.policy = p;
        self
    }

    /// Write-cache drain watermark (frames dirty before background drain
    /// starts).
    pub fn drain_watermark(mut self, n: usize) -> Self {
        self.cfg.write_cache.drain_watermark = n;
        self
    }

    /// Replace the whole controller configuration.
    pub fn controller(mut self, c: ControllerConfig) -> Self {
        self.cfg.controller = c;
        self
    }

    /// PCM device + write-scheme geometry.
    pub fn mem(mut self, m: SchemeConfig) -> Self {
        self.cfg.mem = m;
        self
    }

    /// Number of PCM ranks; [`crate::ShardedSystem`] runs one controller
    /// shard per rank.
    pub fn ranks(mut self, n: u32) -> Self {
        self.cfg.mem.org.ranks = n;
        self
    }

    /// Which write scheme [`crate::System::build`] instantiates.
    pub fn scheme(mut self, s: SchemeSelect) -> Self {
        self.cfg.mem.select = s;
        self
    }

    /// Tetris packing knobs (only used with [`SchemeSelect::Tetris`]).
    pub fn tetris(mut self, t: TetrisConfig) -> Self {
        self.cfg.tetris = t;
        self
    }

    /// Which abstraction level the trace describes.
    pub fn level(mut self, l: TraceLevel) -> Self {
        self.cfg.level = l;
        self
    }

    /// Shorthand: CPU-level trace filtered through the cache hierarchy.
    pub fn cpu_level(mut self) -> Self {
        self.cfg.level = TraceLevel::CpuLevel;
        self
    }

    /// Read-queue capacity.
    pub fn read_queue(mut self, cap: usize) -> Self {
        self.cfg.controller.read_queue_cap = cap;
        self
    }

    /// Write-queue capacity.
    pub fn write_queue(mut self, cap: usize) -> Self {
        self.cfg.controller.write_queue_cap = cap;
        self
    }

    /// Drain-exit watermark.
    pub fn write_low_watermark(mut self, n: usize) -> Self {
        self.cfg.controller.write_low_watermark = n;
        self
    }

    /// Writes drained together per bank as one batched operation.
    pub fn batch_writes(mut self, n: usize) -> Self {
        self.cfg.controller.batch_writes = n;
        self
    }

    /// Subarrays per bank.
    pub fn subarrays_per_bank(mut self, n: usize) -> Self {
        self.cfg.controller.subarrays_per_bank = n;
        self
    }

    /// Enable or disable write pausing.
    pub fn write_pausing(mut self, on: bool) -> Self {
        self.cfg.controller.write_pausing = on;
        self
    }

    /// Replace the whole write-scheduling policy configuration.
    pub fn sched(mut self, s: SchedConfig) -> Self {
        self.cfg.controller.sched = s;
        self
    }

    /// Turn on all three adaptive scheduling policies
    /// ([`SchedConfig::adaptive`]): percentile-driven drain watermarks,
    /// least-utilized-first bank steering and read-priority windows.
    pub fn adaptive_scheduling(mut self) -> Self {
        self.cfg.controller.sched = SchedConfig::adaptive();
        self
    }

    /// Enable or disable percentile-driven drain watermarks.
    pub fn adaptive_watermarks(mut self, on: bool) -> Self {
        self.cfg.controller.sched.adaptive_watermarks = on;
        self
    }

    /// Enable or disable least-utilized-first bank steering.
    pub fn bank_steering(mut self, on: bool) -> Self {
        self.cfg.controller.sched.bank_steering = on;
        self
    }

    /// Enable or disable read-priority windows during drains.
    pub fn read_windows(mut self, on: bool) -> Self {
        self.cfg.controller.sched.read_windows = on;
        self
    }

    /// Scaled-down preset for fast tests: 2 cores, 4 KB L1 / 32 KB L2 /
    /// 256 KB L3 (the old `small_test()` shape).
    pub fn small_caches(mut self) -> Self {
        self.cfg.cores = 2;
        self.cfg.l1 = CacheConfig {
            size_bytes: 4 << 10,
            assoc: 2,
            latency_cycles: 2,
            policy: PolicySelect::Lru,
        };
        self.cfg.l2 = CacheConfig {
            size_bytes: 32 << 10,
            assoc: 4,
            latency_cycles: 20,
            policy: PolicySelect::Lru,
        };
        self.cfg.l3 = CacheConfig {
            size_bytes: 256 << 10,
            assoc: 8,
            latency_cycles: 50,
            policy: PolicySelect::Lru,
        };
        self
    }

    /// Validate and return the finished configuration.
    pub fn build(self) -> Result<SystemConfig, PcmError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl SystemConfig {
    /// Start a fluent builder from the Table II baseline.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: Self::paper_baseline(),
        }
    }

    /// Table II values.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            cores: 4,
            cpu_freq_mhz: 2_000,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 4,
                latency_cycles: 2,
                policy: PolicySelect::Lru,
            },
            l2: CacheConfig {
                size_bytes: 2 << 20,
                assoc: 8,
                latency_cycles: 20,
                policy: PolicySelect::Lru,
            },
            l3: CacheConfig {
                size_bytes: 32 << 20,
                assoc: 16,
                latency_cycles: 50,
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
        Ps::from_cycles(1, self.cpu_freq_mhz)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), PcmError> {
        if self.cores == 0 {
            return Err(PcmError::config("need at least one core"));
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
            let line = self.mem.org.cache_line_bytes as u64;
            if c.size_bytes % (line * c.assoc as u64) != 0 {
                return Err(PcmError::config("cache size must divide into sets"));
            }
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
        if org.total_banks() > 1024 {
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
        self.mem.validate()?;
        // The packing knobs must be coherent with the device geometry they
        // will be rebound to at build time.
        let mut t = self.tetris;
        t.scheme = self.mem;
        t.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cores, 4);
        assert_eq!(c.cycle(), Ps(500), "2 GHz → 500 ps");
        assert_eq!(c.l1.latency_cycles, 2);
        assert_eq!(c.l2.latency_cycles, 20);
        assert_eq!(c.l3.latency_cycles, 50);
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
    fn small_test_config_valid() {
        assert!(SystemConfig::builder()
            .small_caches()
            .build()
            .unwrap()
            .validate()
            .is_ok());
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = SystemConfig::builder()
            .cores(8)
            .cpu_freq_mhz(1_000)
            .write_queue(64)
            .write_low_watermark(8)
            .batch_writes(4)
            .subarrays_per_bank(2)
            .write_pausing(true)
            .build()
            .unwrap();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.cycle(), Ps(1_000));
        assert_eq!(cfg.controller.write_queue_cap, 64);
        assert_eq!(cfg.controller.batch_writes, 4);
        assert!(cfg.controller.write_pausing);

        // validate() is folded into build(): a bad watermark never escapes.
        assert!(SystemConfig::builder()
            .write_queue(16)
            .write_low_watermark(16)
            .build()
            .is_err());
        assert!(SystemConfig::builder().cores(0).build().is_err());
    }

    #[test]
    fn write_cache_knobs_validate() {
        // Default: disabled, LRU, bit-for-bit the paper's pipeline.
        let base = SystemConfig::paper_baseline();
        assert_eq!(base.write_cache, WriteCacheConfig::disabled());
        assert!(!base.write_cache.enabled());

        let cfg = SystemConfig::builder()
            .write_cache(64)
            .write_cache_policy(PolicySelect::Clock)
            .build()
            .unwrap();
        assert_eq!(cfg.write_cache.frames, 64);
        assert_eq!(cfg.write_cache.drain_watermark, 48, "3/4 of the budget");
        assert_eq!(cfg.write_cache.policy, PolicySelect::Clock);

        // Explicit watermark override, still validated.
        let cfg = SystemConfig::builder()
            .write_cache(16)
            .drain_watermark(4)
            .build()
            .unwrap();
        assert_eq!(cfg.write_cache.drain_watermark, 4);
        assert!(SystemConfig::builder()
            .write_cache(16)
            .drain_watermark(17)
            .build()
            .is_err());
        assert!(SystemConfig::builder()
            .write_cache(16)
            .drain_watermark(0)
            .build()
            .is_err());
        // frames = 0 ignores the other knobs entirely.
        assert!(SystemConfig::builder().write_cache(0).build().is_ok());
    }

    #[test]
    fn cache_config_builder_takes_a_policy() {
        let c = CacheConfig::builder()
            .size_bytes(512)
            .assoc(2)
            .policy(PolicySelect::TwoQ)
            .build()
            .unwrap();
        assert_eq!(c.policy, PolicySelect::TwoQ);
        // The default stays LRU so existing configs are unchanged.
        assert_eq!(
            CacheConfig::builder().build().unwrap().policy,
            PolicySelect::Lru
        );
    }

    #[test]
    fn sched_builder_knobs_and_validation() {
        let cfg = SystemConfig::builder()
            .adaptive_scheduling()
            .build()
            .unwrap();
        assert_eq!(cfg.controller.sched, SchedConfig::adaptive());

        let cfg = SystemConfig::builder()
            .adaptive_watermarks(true)
            .read_windows(true)
            .build()
            .unwrap();
        assert!(cfg.controller.sched.adaptive_watermarks);
        assert!(!cfg.controller.sched.bank_steering);
        assert!(cfg.controller.sched.read_windows);

        // Defaults stay paper-faithful: everything off.
        assert_eq!(
            SystemConfig::paper_baseline().controller.sched,
            SchedConfig::fixed()
        );

        // A gap as wide as the queue can never hold low + gap <= high.
        let mut bad = SchedConfig::adaptive();
        bad.min_watermark_gap = 32;
        assert!(SystemConfig::builder().sched(bad).build().is_err());
        bad.min_watermark_gap = 4;
        bad.watermark_interval = 0;
        assert!(SystemConfig::builder().sched(bad).build().is_err());
    }
}

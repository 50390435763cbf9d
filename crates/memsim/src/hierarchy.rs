//! The 3-level cache hierarchy of Table II: private L1/L2 per core, one
//! shared L3 (the 32 MB DRAM cache in front of PCM).
//!
//! Inclusive-enough approximation without a coherence protocol: each
//! level is looked up in turn; misses allocate on the way back. Write-backs
//! cascade downward and anything leaving the L3 heads to the PCM write
//! queue. Sharing effects between cores appear through L3 contention.

use crate::cache::{Cache, CacheStats};
use crate::config::SystemConfig;
use pcm_types::{Cycles, PcmError, PhysAddr};

/// Where an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared L3.
    L3,
    /// Missed everywhere — a PCM read is required.
    Memory,
}

/// Outcome of pushing one CPU access through the hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyOutcome {
    /// Deepest level consulted.
    pub level: HitLevel,
    /// Total lookup latency in CPU cycles (sum of levels consulted).
    pub latency_cycles: Cycles,
    /// Dirty lines pushed out of the L3 toward memory.
    pub memory_writebacks: Vec<PhysAddr>,
}

/// The hierarchy.
pub struct CacheHierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    l1_lat: Cycles,
    l2_lat: Cycles,
    l3_lat: Cycles,
    line_bytes: u32,
}

impl CacheHierarchy {
    /// Build per the system configuration.
    pub fn new(cfg: &SystemConfig) -> Result<Self, PcmError> {
        let line = cfg.mem.org.cache_line_bytes;
        let mut l1 = Vec::with_capacity(cfg.cores);
        let mut l2 = Vec::with_capacity(cfg.cores);
        for _ in 0..cfg.cores {
            l1.push(Cache::new(cfg.l1, line)?);
            l2.push(Cache::new(cfg.l2, line)?);
        }
        Ok(CacheHierarchy {
            l1,
            l2,
            l3: Cache::new(cfg.l3, line)?,
            l1_lat: cfg.l1.latency_cycles,
            l2_lat: cfg.l2.latency_cycles,
            l3_lat: cfg.l3.latency_cycles,
            line_bytes: line,
        })
    }

    /// Line-align an address.
    fn align(&self, addr: PhysAddr) -> PhysAddr {
        addr - addr % self.line_bytes as u64
    }

    /// Run one access through the hierarchy for `core`.
    pub fn access(&mut self, core: usize, addr: PhysAddr, is_write: bool) -> HierarchyOutcome {
        let addr = self.align(addr);
        let mut wbs = Vec::new();
        let mut latency = self.l1_lat;

        let a1 = self.l1[core].access(addr, is_write);
        if a1.hit {
            return HierarchyOutcome {
                level: HitLevel::L1,
                latency_cycles: latency,
                memory_writebacks: wbs,
            };
        }
        // L1 victim write-back lands in L2.
        if let Some(v) = a1.writeback {
            let a2 = self.l2[core].access(v, true);
            if let Some(v2) = a2.writeback {
                let a3 = self.l3.access(v2, true);
                if let Some(v3) = a3.writeback {
                    wbs.push(v3);
                }
            }
        }

        latency += self.l2_lat;
        let a2 = self.l2[core].access(addr, false);
        if a2.hit {
            return HierarchyOutcome {
                level: HitLevel::L2,
                latency_cycles: latency,
                memory_writebacks: wbs,
            };
        }
        if let Some(v2) = a2.writeback {
            let a3 = self.l3.access(v2, true);
            if let Some(v3) = a3.writeback {
                wbs.push(v3);
            }
        }

        latency += self.l3_lat;
        let a3 = self.l3.access(addr, false);
        if let Some(v3) = a3.writeback {
            wbs.push(v3);
        }
        let level = if a3.hit {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        HierarchyOutcome {
            level,
            latency_cycles: latency,
            memory_writebacks: wbs,
        }
    }

    /// Flush every dirty line in all levels down to memory (end of run).
    pub fn flush_all(&mut self) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            for addr in c.flush_dirty() {
                let a3 = self.l3.access(addr, true);
                if let Some(v) = a3.writeback {
                    out.push(v);
                }
            }
        }
        out.extend(self.l3.flush_dirty());
        out
    }

    /// Statistics of (L1[core], L2[core]).
    pub fn core_stats(&self, core: usize) -> (CacheStats, CacheStats) {
        (*self.l1[core].stats(), *self.l2[core].stats())
    }

    /// Shared L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        *self.l3.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_caches;

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(&small_caches()).unwrap()
    }

    #[test]
    fn first_touch_misses_to_memory() {
        let mut h = hier();
        let o = h.access(0, 0x10000, false);
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.latency_cycles, Cycles(2 + 20 + 50));
        assert!(o.memory_writebacks.is_empty());
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut h = hier();
        h.access(0, 0x10000, false);
        let o = h.access(0, 0x10000, false);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(o.latency_cycles, Cycles(2));
    }

    #[test]
    fn cross_core_sharing_through_l3() {
        let mut h = hier();
        h.access(0, 0x20000, false); // core 0 brings the line in everywhere
        let o = h.access(1, 0x20000, false); // core 1 misses L1/L2, hits L3
        assert_eq!(o.level, HitLevel::L3);
    }

    #[test]
    fn dirty_data_eventually_writes_back_to_memory() {
        let cfg = small_caches();
        let mut h = CacheHierarchy::new(&cfg).unwrap();
        // Write a large streaming footprint (≥ 2× L3) through core 0.
        let span = cfg.l3.size_bytes * 2;
        let mut wbs = 0usize;
        let mut addr = 0u64;
        while addr < span {
            wbs += h.access(0, addr, true).memory_writebacks.len();
            addr += 64;
        }
        assert!(wbs > 0, "L3 must shed dirty lines under streaming writes");
    }

    #[test]
    fn flush_returns_all_dirty_lines() {
        let mut h = hier();
        h.access(0, 0, true);
        h.access(0, 64, true);
        h.access(1, 4096, true);
        let flushed = h.flush_all();
        assert_eq!(flushed.len(), 3);
    }

    #[test]
    fn read_only_traffic_never_writes_back() {
        let cfg = small_caches();
        let mut h = CacheHierarchy::new(&cfg).unwrap();
        let mut addr = 0u64;
        while addr < cfg.l3.size_bytes * 2 {
            assert!(h.access(0, addr, false).memory_writebacks.is_empty());
            addr += 64;
        }
        assert!(h.flush_all().is_empty());
    }
}

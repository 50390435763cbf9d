//! A set-associative, write-back, write-allocate cache. Tag-only
//! (contents are synthesized at the memory, see [`crate::content`]),
//! tracking dirty bits so evictions produce write-backs. The eviction
//! decision is delegated to a pluggable
//! [`ReplacementPolicy`] selected
//! by [`CacheConfig::policy`]; the default LRU reproduces the historical
//! hard-coded behaviour bit for bit.

use crate::config::CacheConfig;
use crate::replacement::ReplacementPolicy;
use pcm_types::{PcmError, PhysAddr};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// Hit in this cache?
    pub hit: bool,
    /// Dirty victim evicted by the fill (line-aligned address).
    pub writeback: Option<PhysAddr>,
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    lines: Vec<Line>,
    sets: usize,
    assoc: usize,
    line_bytes: usize,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache level from its geometry and the system's cache-line
    /// size ([`CacheConfig::validate`] checks the pair first).
    pub fn new(cfg: CacheConfig, line_bytes: u32) -> Result<Self, PcmError> {
        cfg.validate(line_bytes)?;
        let assoc = cfg.assoc as usize;
        let line_bytes = line_bytes as usize;
        let total_lines = cfg.size_bytes as usize / line_bytes;
        let sets = total_lines / assoc;
        Ok(Cache {
            lines: vec![Line::default(); total_lines],
            sets,
            assoc,
            line_bytes,
            policy: cfg.policy.instantiate(sets, assoc),
            stats: CacheStats::default(),
        })
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let line_addr = addr / self.line_bytes as u64;
        (
            (line_addr as usize) % self.sets,
            line_addr / self.sets as u64,
        )
    }

    /// Access the cache; on a miss the line is allocated (the caller is
    /// responsible for fetching from the next level) and a dirty victim, if
    /// any, is returned for write-back.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> CacheAccess {
        let (set, tag) = self.index(addr);
        let (sets, line_bytes) = (self.sets as u64, self.line_bytes as u64);
        let ways = &mut self.lines[set * self.assoc..(set + 1) * self.assoc];

        if let Some((w, way)) = ways
            .iter_mut()
            .enumerate()
            .find(|(_, l)| l.valid && l.tag == tag)
        {
            way.dirty |= is_write;
            self.policy.touch(set, w);
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses += 1;
        // Victim: invalid way first, else ask the replacement policy.
        let victim = match ways.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => self.policy.victim(set),
        };
        let evicted = ways[victim];
        let writeback = (evicted.valid && evicted.dirty)
            .then(|| (evicted.tag * sets + set as u64) * line_bytes);
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        ways[victim] = Line {
            valid: true,
            dirty: is_write,
            tag,
        };
        self.policy.insert(set, victim);
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Probe without disturbing LRU/dirty state.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        self.lines[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Flush every dirty line, returning their addresses.
    pub fn flush_dirty(&mut self) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.assoc {
                let l = &mut self.lines[set * self.assoc + way];
                if l.valid && l.dirty {
                    l.dirty = false;
                    out.push((l.tag * self.sets as u64 + set as u64) * self.line_bytes as u64);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::replacement::PolicySelect;
    use pcm_types::Cycles;

    fn geom(size_bytes: u64, assoc: u32) -> CacheConfig {
        CacheConfig {
            size_bytes,
            assoc,
            latency_cycles: Cycles(1),
            policy: PolicySelect::Lru,
        }
    }

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(geom(512, 2), 64).unwrap()
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.num_sets(), 4);
        assert!(Cache::new(geom(500, 2), 64).is_err());
        assert!(Cache::new(geom(512, 0), 64).is_err());
        assert!(Cache::new(geom(512, 2), 48).is_err());
    }

    #[test]
    fn builder_validates_before_the_cache_does() {
        assert!(geom(512, 2).validate(64).is_ok());
        assert_eq!(Cache::new(geom(512, 2), 64).unwrap().num_sets(), 4);
        assert!(geom(512, 0).validate(64).is_err());
        assert!(geom(0, 2).validate(64).is_err());
        assert!(geom(511, 2).validate(64).is_err());
        // 3 sets: the index function needs a power-of-two set count.
        assert!(geom(3 * 2 * 64, 2).validate(64).is_err());
        for line in [0, 48] {
            assert!(geom(512, 2).validate(line).is_err(), "line {line}");
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different offset");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets × line = 256 B).
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // touch line 0 again
        let res = c.access(2 * 256, false); // evicts line 1 (LRU)
        assert!(!res.hit);
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        c.access(0, true); // dirty
        c.access(256, false);
        let res = c.access(512, false); // evicts addr 0 (dirty)
        assert_eq!(res.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction produces none.
        let res = c.access(768, false); // evicts addr 256 (clean)
        assert_eq!(res.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(256, false);
        let res = c.access(512, false);
        assert_eq!(res.writeback, Some(0));
    }

    #[test]
    fn flush_dirty_returns_and_cleans() {
        let mut c = small();
        c.access(0, true);
        c.access(64, true);
        c.access(128, false);
        let mut dirty = c.flush_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 64]);
        assert!(c.flush_dirty().is_empty(), "second flush finds nothing");
    }

    #[test]
    fn writeback_address_roundtrip() {
        let mut c = small();
        let addr = 0xABCD40 & !63u64;
        c.access(addr, true);
        // Force eviction by filling the set.
        let (set, _) = (addr / 64 % 4, ());
        let stride = 4 * 64;
        let mut wb = None;
        for i in 1..=2 {
            let a = addr + i * stride;
            if let Some(w) = c.access(a, false).writeback {
                wb = Some(w);
            }
        }
        assert_eq!(
            wb,
            Some(addr),
            "victim address reconstructed exactly (set {set})"
        );
    }
}

//! The memory-side lane: one FR-FCFS controller, its PCM banks, the
//! write-content model and (optionally) the DRAM write-cache tier in
//! front of them.
//!
//! Everything behind the controller queues lives here, once: decoding an
//! address and enqueueing it, the write cache's read hits, coalescing,
//! admission with eviction and background drains, issuing to free banks
//! and completing them. Both drivers are built on it — [`crate::System`]
//! drives one lane from trace-stepped cores, and the `pcm-serve` engine
//! drives one lane per rank from submitted requests — so every scheme
//! behaves the same under both by construction.
//!
//! What differs between the drivers is policy and stays in the driver:
//! whether a full queue stalls a core or sheds a request, when to call
//! [`Lane::try_issue`], where to sample queue depths, and how the run
//! ends (`System` flushes the tier in frame order, the serving engine
//! drains it burst by burst). The lane never owns a clock or an id
//! counter: callers pass the time and build each request.

use crate::config::{ConfigError, SystemConfig};
use crate::content::WriteContent;
use crate::controller::{Issued, MemoryController, ReadEnqueue};
use crate::memory::PcmMainMemory;
use crate::request::MemRequest;
use crate::writecache::{WriteAdmit, WriteCache, WriteCacheStats};
use pcm_schemes::{SchemeSelect, WriteScheme};
use pcm_telemetry::{OpKind, Telemetry, TelemetryEvent, TraceDetail};
use pcm_types::{PcmError, PhysAddr, Ps};

/// One controller + banks + content model + optional write cache.
pub struct Lane {
    ctrl: MemoryController,
    memory: PcmMainMemory,
    content: Box<dyn WriteContent>,
    /// `None` reproduces the paper's pipeline bit for bit
    /// (`cfg.write_cache.frames == 0`).
    cache: Option<WriteCache>,
    /// DRAM-tier service time of a read hit.
    t_bus: Ps,
}

impl Lane {
    /// Build the lane `cfg` describes (the caller validates `cfg`). The
    /// write scheme comes from `cfg.mem.select`; Tetris is built from
    /// `cfg.tetris` so custom packing knobs apply (the registered
    /// factory would use paper-baseline knobs).
    pub fn new(cfg: &SystemConfig, content: Box<dyn WriteContent>) -> Result<Lane, ConfigError> {
        tetris_write::register_scheme_factory();
        let scheme: Box<dyn WriteScheme> = if cfg.mem.select == SchemeSelect::Tetris {
            let mut t = cfg.tetris;
            t.scheme = cfg.mem;
            Box::new(tetris_write::TetrisWrite::new(t))
        } else {
            cfg.mem.instantiate()
        };
        let cache = if cfg.write_cache.enabled() {
            Some(WriteCache::new(
                cfg.write_cache,
                cfg.mem.org.cache_line_bytes,
            )?)
        } else {
            None
        };
        Ok(Lane {
            ctrl: MemoryController::new(
                cfg.controller,
                cfg.mem.timings,
                cfg.mem.org.total_banks() as usize,
            ),
            memory: PcmMainMemory::new(cfg.mem, scheme)?,
            content,
            cache,
            t_bus: cfg.controller.t_bus,
        })
    }

    /// Replace the write-content model.
    pub fn set_content(&mut self, content: Box<dyn WriteContent>) {
        self.content = content;
    }

    /// The controller (queue depths, drain state, counters).
    pub fn ctrl(&self) -> &MemoryController {
        &self.ctrl
    }

    /// The backing store (stats, contents).
    pub fn memory(&self) -> &PcmMainMemory {
        &self.memory
    }

    /// Is the DRAM write-cache tier in front of the controller?
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Is every write-cache frame occupied (the next admission evicts)?
    pub fn cache_full(&self) -> bool {
        self.cache.as_ref().is_some_and(WriteCache::full)
    }

    /// The tier's counters (`None` when it is disabled).
    pub fn write_cache_stats(&self) -> Option<WriteCacheStats> {
        self.cache.as_ref().map(|wc| *wc.stats())
    }

    /// Enter drain mode if any write is queued (end of run, idle memory).
    pub fn force_drain(&mut self) {
        self.ctrl.force_drain();
    }

    /// Decode `req.addr` and queue the read. The caller checks
    /// [`MemoryController::read_queue_full`] first.
    pub fn enqueue_read(&mut self, req: MemRequest) -> Result<ReadEnqueue, PcmError> {
        let d = self.memory.addr_map().decode(req.addr)?;
        let fb = self.memory.addr_map().flat_bank(&d);
        Ok(self.ctrl.enqueue_read(req, &d, fb))
    }

    /// Decode `req.addr` and queue the write. The caller checks
    /// [`MemoryController::write_queue_full`] first.
    pub fn enqueue_write(
        &mut self,
        req: MemRequest,
        tel: &mut dyn Telemetry,
    ) -> Result<(), PcmError> {
        let d = self.memory.addr_map().decode(req.addr)?;
        let fb = self.memory.addr_map().flat_bank(&d);
        self.ctrl.enqueue_write(req, &d, fb, tel);
        Ok(())
    }

    /// Serve a read arriving at `at` from a dirty line in the DRAM tier:
    /// the completion time on a hit, `None` on a miss (or with no tier).
    pub fn read_hit(&mut self, addr: PhysAddr, at: Ps, tel: &mut dyn Telemetry) -> Option<Ps> {
        if !self.cache.as_mut().is_some_and(|wc| wc.read_hit(addr)) {
            return None;
        }
        if tel.wants(TraceDetail::Fine) {
            tel.record(&TelemetryEvent::WriteCacheHit {
                at,
                kind: OpKind::Read,
            });
        }
        Some(at + self.t_bus)
    }

    /// Absorb a write arriving at `at` in the DRAM tier: coalesce into a
    /// cached frame, else claim one, enqueueing the displaced victim as
    /// `req(victim)`. The caller has checked there is room for that
    /// victim (not [`Self::cache_full`], or the write queue not full).
    /// Returns `None` when the tier is disabled.
    pub fn cache_write(
        &mut self,
        addr: PhysAddr,
        at: Ps,
        tel: &mut dyn Telemetry,
        req: impl FnOnce(PhysAddr) -> MemRequest,
    ) -> Result<Option<WriteAdmit>, PcmError> {
        let Some(wc) = self.cache.as_mut() else {
            return Ok(None);
        };
        let admit = wc.write(addr);
        match admit {
            WriteAdmit::Coalesced => {
                if tel.wants(TraceDetail::Fine) {
                    tel.record(&TelemetryEvent::WriteCacheHit {
                        at,
                        kind: OpKind::Write,
                    });
                }
            }
            WriteAdmit::Admitted {
                evicted: Some(victim),
            } => self.enqueue_write(req(victim), tel)?,
            WriteAdmit::Admitted { evicted: None } => {}
        }
        Ok(Some(admit))
    }

    /// One background drain burst at `at`: while the tier holds lines —
    /// past its watermark, or any at all when `to_empty` — and the write
    /// queue has room, move the policy's victims into the queue as
    /// `req(line)`. A non-empty burst records one `WriteCacheDrain`
    /// event. Returns the number of lines moved.
    pub fn drain_cache(
        &mut self,
        to_empty: bool,
        at: Ps,
        tel: &mut dyn Telemetry,
        mut req: impl FnMut(PhysAddr) -> MemRequest,
    ) -> Result<u32, PcmError> {
        let mut lines = 0u32;
        loop {
            let due = self.cache.as_ref().is_some_and(|wc| {
                if to_empty {
                    wc.occupancy() > 0
                } else {
                    wc.over_watermark()
                }
            });
            if !due || self.ctrl.write_queue_full() {
                break;
            }
            let Some(addr) = self.cache.as_mut().and_then(WriteCache::drain_one) else {
                break;
            };
            self.enqueue_write(req(addr), tel)?;
            lines += 1;
        }
        if lines > 0 && tel.wants(TraceDetail::Coarse) {
            let depth = self.cache.as_ref().map_or(0, |wc| wc.occupancy() as u32);
            tel.record(&TelemetryEvent::WriteCacheDrain { at, lines, depth });
        }
        Ok(lines)
    }

    /// Empty the tier at once, in frame order, recording the burst as one
    /// `WriteCacheDrain` event; the caller enqueues the returned lines.
    pub fn flush_cache(&mut self, at: Ps, tel: &mut dyn Telemetry) -> Vec<PhysAddr> {
        let lines = self.cache.as_mut().map_or_else(Vec::new, WriteCache::flush);
        if !lines.is_empty() && tel.wants(TraceDetail::Coarse) {
            tel.record(&TelemetryEvent::WriteCacheDrain {
                at,
                lines: lines.len() as u32,
                depth: 0,
            });
        }
        lines
    }

    /// Fill every free bank at `now`; the caller schedules each
    /// [`Issued::completion`] and hands it back to [`Self::complete`].
    pub fn try_issue(&mut self, now: Ps, tel: &mut dyn Telemetry) -> Vec<Issued> {
        self.ctrl
            .try_issue(now, &mut self.memory, self.content.as_mut(), tel)
    }

    /// A bank completion fired at `at`: the serviced requests, recording
    /// the bank going idle. Empty for the stale completion of a paused
    /// write (its resumed instance delivers its own).
    pub fn complete(
        &mut self,
        bank: usize,
        epoch: u64,
        at: Ps,
        tel: &mut dyn Telemetry,
    ) -> Vec<MemRequest> {
        let reqs = self.ctrl.complete(bank, epoch);
        if !reqs.is_empty() && tel.wants(TraceDetail::Fine) {
            tel.record(&TelemetryEvent::BankIdle {
                at,
                bank: bank as u32,
            });
        }
        reqs
    }

    /// Record the instantaneous queue depths (Fine detail only).
    pub fn sample_depths(&self, at: Ps, tel: &mut dyn Telemetry) {
        if tel.wants(TraceDetail::Fine) {
            let (reads, writes) = self.ctrl.queue_depths();
            tel.record(&TelemetryEvent::QueueDepth {
                at,
                reads: reads as u32,
                writes: writes as u32,
            });
        }
    }
}

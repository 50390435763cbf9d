//! The PCM main memory: a sparse 4 GB backing store whose every line write
//! is planned by a pluggable [`WriteScheme`].
//!
//! Each touched line stores its array bits and flip-tag mask.
//! Untouched lines read as zero (freshly manufactured cells are amorphous).

use pcm_schemes::{PackStats, SchemeConfig, WriteCtx, WritePlan, WriteScheme};
use pcm_types::{
    coset_decode_unit, coset_row, coset_rows_available, AddrMap, LineData, PcmError, PhysAddr,
    PicoJoules, Ps,
};
use std::collections::HashMap;

/// One resident line.
#[derive(Clone, Debug)]
struct StoredLine {
    data: LineData,
    flips: u32,
}

/// Outcome of one serviced line write.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// Bank service time for this write.
    pub service_time: Ps,
    /// Energy consumed.
    pub energy: PicoJoules,
    /// Write units consumed (Fig. 10 metric).
    pub write_units_equiv: f64,
    /// SET pulses delivered to cells.
    pub cell_sets: u32,
    /// RESET pulses delivered to cells.
    pub cell_resets: u32,
    /// Intra-bank partitions the write drove concurrently (0 for schemes
    /// without a partition model).
    pub partitions_used: u32,
    /// Coset row the stored encoding landed on, for flip-bit schemes on
    /// lines with spare tag bits (`None` otherwise). Row 0 is plain
    /// Flip-N-Write inversion; WIRE spreads across rows 0–3.
    pub coset_row: Option<u32>,
}

/// Outcome of one batched write service.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutcome {
    /// Total bank-busy time for the whole batch.
    pub service_time: Ps,
    /// Packing quality, when the scheme reports it (batched Tetris plans).
    pub pack: Option<PackStats>,
    /// Most intra-bank partitions any write in the batch drove (0 for
    /// schemes without a partition model).
    pub partitions_used: u32,
    /// How many lines of the batch landed on each coset row (all zero for
    /// schemes without flip bits or lines without spare tag bits).
    pub coset_rows: [u32; 4],
}

/// Aggregate memory statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryStats {
    /// Serviced line writes.
    pub writes: u64,
    /// Serviced line reads.
    pub reads: u64,
    /// Sum of write-unit counts (for the Fig. 10 average).
    pub write_units_sum: f64,
    /// Total energy.
    pub energy: PicoJoules,
    /// Total SET pulses.
    pub cell_sets: u64,
    /// Total RESET pulses.
    pub cell_resets: u64,
}

/// The PCM main memory.
///
/// ```
/// use pcm_memsim::PcmMainMemory;
/// use pcm_schemes::{DcwWrite, SchemeConfig};
/// use pcm_types::LineData;
///
/// let mut mem = PcmMainMemory::new(
///     SchemeConfig::paper_baseline(), Box::new(DcwWrite)).unwrap();
/// let line = LineData::from_units(&[42; 8]);
/// let outcome = mem.write_line(0x40, &line).unwrap();
/// assert!(outcome.service_time > pcm_types::Ps::ZERO);
/// assert_eq!(mem.read_line(0x40).unwrap(), line);
/// ```
pub struct PcmMainMemory {
    map: AddrMap,
    cfg: SchemeConfig,
    scheme: Box<dyn WriteScheme>,
    lines: HashMap<u64, StoredLine>,
    stats: MemoryStats,
}

impl PcmMainMemory {
    /// A memory of `cfg.org` geometry written through `scheme`.
    pub fn new(cfg: SchemeConfig, scheme: Box<dyn WriteScheme>) -> Result<Self, PcmError> {
        cfg.validate()?;
        Ok(PcmMainMemory {
            map: AddrMap::with_default_rows(cfg.org)?,
            cfg,
            scheme,
            lines: HashMap::new(),
            stats: MemoryStats::default(),
        })
    }

    /// The address map in use.
    pub fn addr_map(&self) -> &AddrMap {
        &self.map
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Line size in bytes.
    fn line_len(&self) -> usize {
        self.cfg.org.cache_line_bytes as usize
    }

    /// Logical contents of the line containing `addr` (without counting a
    /// device read — used by content synthesis and tests).
    pub fn peek_line(&self, addr: PhysAddr) -> Result<LineData, PcmError> {
        let d = self.map.decode(addr)?;
        Ok(match self.lines.get(&d.line) {
            None => LineData::zeroed(self.line_len()),
            Some(s) => {
                let mut out = s.data;
                let n = out.num_units();
                for i in 0..n {
                    out.set_unit(i, coset_decode_unit(s.data.unit(i), s.flips, i, n));
                }
                out
            }
        })
    }

    /// Service a line read.
    pub fn read_line(&mut self, addr: PhysAddr) -> Result<LineData, PcmError> {
        let line = self.peek_line(addr)?;
        self.stats.reads += 1;
        Ok(line)
    }

    /// Service a line write with the configured scheme; returns its cost.
    pub fn write_line(&mut self, addr: PhysAddr, new: &LineData) -> Result<WriteOutcome, PcmError> {
        if new.len() != self.line_len() {
            return Err(PcmError::LineSizeMismatch {
                expected: self.line_len(),
                actual: new.len(),
            });
        }
        let d = self.map.decode(addr)?;
        let (old_stored, old_flips) = match self.lines.get(&d.line) {
            None => (LineData::zeroed(self.line_len()), 0),
            Some(s) => (s.data, s.flips),
        };
        let ctx = WriteCtx {
            old_stored: &old_stored,
            old_flips,
            new_logical: new,
            cfg: &self.cfg,
        };
        let plan: WritePlan = self.scheme.plan(&ctx);
        debug_assert!(
            plan.check_decodes_to(new).is_ok(),
            "scheme broke the decode invariant"
        );

        self.lines.insert(
            d.line,
            StoredLine {
                data: plan.stored,
                flips: plan.flips,
            },
        );
        self.stats.writes += 1;
        self.stats.write_units_sum += plan.write_units_equiv;
        self.stats.energy += plan.energy;
        self.stats.cell_sets += plan.cell_sets as u64;
        self.stats.cell_resets += plan.cell_resets as u64;
        Ok(WriteOutcome {
            service_time: plan.service_time,
            energy: plan.energy,
            write_units_equiv: plan.write_units_equiv,
            cell_sets: plan.cell_sets,
            cell_resets: plan.cell_resets,
            partitions_used: plan.partitions_used,
            coset_row: self.plan_coset_row(&plan),
        })
    }

    /// The coset row a plan's tag word selects, when the scheme stores
    /// flip bits and the line has spare tag bits for a row field.
    fn plan_coset_row(&self, plan: &WritePlan) -> Option<u32> {
        if self.scheme.uses_flip_bits() && coset_rows_available(plan.stored.num_units()) {
            Some(coset_row(plan.flips) as u32)
        } else {
            None
        }
    }

    /// Service several line writes as one batched operation (shared bank
    /// occupancy). Falls back to serial service when the scheme has no
    /// batched mode. Returns the total bank-busy time and, for schemes
    /// that report it, the batch's packing quality.
    pub fn write_lines_batch(
        &mut self,
        writes: &[(PhysAddr, LineData)],
    ) -> Result<BatchOutcome, PcmError> {
        if writes.len() == 1 {
            let one = self.write_line(writes[0].0, &writes[0].1)?;
            let mut coset_rows = [0u32; 4];
            if let Some(r) = one.coset_row {
                coset_rows[r as usize] += 1;
            }
            return Ok(BatchOutcome {
                service_time: one.service_time,
                pack: None,
                partitions_used: one.partitions_used,
                coset_rows,
            });
        }
        // Gather the old state of every line up front (ctxs borrow it).
        let mut line_idx = Vec::with_capacity(writes.len());
        let mut olds = Vec::with_capacity(writes.len());
        for (addr, new) in writes {
            if new.len() != self.line_len() {
                return Err(PcmError::LineSizeMismatch {
                    expected: self.line_len(),
                    actual: new.len(),
                });
            }
            let d = self.map.decode(*addr)?;
            let (stored, flips) = match self.lines.get(&d.line) {
                None => (LineData::zeroed(self.line_len()), 0),
                Some(s) => (s.data, s.flips),
            };
            line_idx.push(d.line);
            olds.push((stored, flips));
        }
        let ctxs: Vec<WriteCtx<'_>> = writes
            .iter()
            .zip(&olds)
            .map(|((_, new), (stored, flips))| WriteCtx {
                old_stored: stored,
                old_flips: *flips,
                new_logical: new,
                cfg: &self.cfg,
            })
            .collect();
        match self.scheme.plan_batched(&ctxs) {
            Some(batch) => {
                let mut partitions_used = 0;
                let mut coset_rows = [0u32; 4];
                for ((plan, line), (_, new)) in batch.plans.iter().zip(&line_idx).zip(writes) {
                    debug_assert!(plan.check_decodes_to(new).is_ok());
                    partitions_used = partitions_used.max(plan.partitions_used);
                    if let Some(r) = self.plan_coset_row(plan) {
                        coset_rows[r as usize] += 1;
                    }
                    self.lines.insert(
                        *line,
                        StoredLine {
                            data: plan.stored,
                            flips: plan.flips,
                        },
                    );
                    self.stats.writes += 1;
                    self.stats.write_units_sum += plan.write_units_equiv;
                    self.stats.energy += plan.energy;
                    self.stats.cell_sets += plan.cell_sets as u64;
                    self.stats.cell_resets += plan.cell_resets as u64;
                }
                Ok(BatchOutcome {
                    service_time: batch.service_time,
                    pack: batch.pack,
                    partitions_used,
                    coset_rows,
                })
            }
            None => {
                // Serial fallback: sum of individual services.
                let mut total = Ps::ZERO;
                let mut partitions_used = 0;
                let mut coset_rows = [0u32; 4];
                for (addr, new) in writes {
                    let one = self.write_line(*addr, new)?;
                    total += one.service_time;
                    partitions_used = partitions_used.max(one.partitions_used);
                    if let Some(r) = one.coset_row {
                        coset_rows[r as usize] += 1;
                    }
                }
                Ok(BatchOutcome {
                    service_time: total,
                    pack: None,
                    partitions_used,
                    coset_rows,
                })
            }
        }
    }

    /// Number of lines touched so far.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Mean write units per serviced write (Fig. 10).
    pub fn avg_write_units(&self) -> f64 {
        if self.stats.writes == 0 {
            0.0
        } else {
            self.stats.write_units_sum / self.stats.writes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_schemes::{DcwWrite, FlipNWrite};
    use tetris_write::TetrisWrite;

    fn mem(scheme: Box<dyn WriteScheme>) -> PcmMainMemory {
        PcmMainMemory::new(SchemeConfig::paper_baseline(), scheme).unwrap()
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let mut m = mem(Box::new(DcwWrite));
        let l = m.read_line(0x1000).unwrap();
        assert_eq!(l.popcount(), 0);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn write_then_read_roundtrip_dcw() {
        let mut m = mem(Box::new(DcwWrite));
        let line = LineData::from_units(&[0xDEAD, 0xBEEF, 1, 2, 3, 4, 5, u64::MAX]);
        let out = m.write_line(0x40, &line).unwrap();
        assert!(out.service_time > Ps::ZERO);
        assert_eq!(m.read_line(0x40).unwrap(), line);
        assert_eq!(m.resident_lines(), 1);
    }

    #[test]
    fn write_then_read_roundtrip_with_flip_schemes() {
        for scheme in [
            Box::new(FlipNWrite) as Box<dyn WriteScheme>,
            Box::new(TetrisWrite::paper_baseline()),
        ] {
            let mut m = mem(scheme);
            // Dense line forces inversions.
            let line = LineData::from_units(&[u64::MAX; 8]);
            m.write_line(0x80, &line).unwrap();
            assert_eq!(m.read_line(0x80).unwrap(), line);
            // Overwrite with sparse data (forces un-flip decisions).
            let line2 = LineData::from_units(&[1; 8]);
            m.write_line(0x80, &line2).unwrap();
            assert_eq!(m.read_line(0x80).unwrap(), line2);
        }
    }

    #[test]
    fn stats_track_write_units() {
        let mut m = mem(Box::new(DcwWrite));
        let line = LineData::from_units(&[1; 8]);
        m.write_line(0, &line).unwrap();
        m.write_line(64, &line).unwrap();
        assert_eq!(m.stats().writes, 2);
        assert_eq!(m.avg_write_units(), 8.0, "DCW always costs N/M units");
    }

    #[test]
    fn tetris_write_units_reflect_content() {
        let mut m = mem(Box::new(TetrisWrite::paper_baseline()));
        let mut line = LineData::zeroed(64);
        for i in 0..8 {
            line.set_unit(i, 0x7F); // 7 SETs per unit
        }
        m.write_line(0, &line).unwrap();
        assert_eq!(
            m.avg_write_units(),
            1.0,
            "56 SET-equivalents pack into one unit"
        );
    }

    #[test]
    fn wrong_line_size_rejected() {
        let mut m = mem(Box::new(DcwWrite));
        let line = LineData::zeroed(128);
        assert!(matches!(
            m.write_line(0, &line),
            Err(PcmError::LineSizeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = mem(Box::new(DcwWrite));
        assert!(m.read_line(u64::MAX).is_err());
    }
}

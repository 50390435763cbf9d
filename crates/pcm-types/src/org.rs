//! Memory organization: how cache lines decompose into write units and
//! data units, and how banks/ranks are laid out (Fig. 2 of the paper).

/// Organization of the PCM main memory.
///
/// Defaults follow Table II: 4 GB single-rank SLC PCM, 8 banks, 4 × X16
/// chips per bank (8 B write unit per bank), 64 B cache lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOrg {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of ranks.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// PCM chips composing one bank (matching the data-bus width).
    pub chips_per_bank: u32,
    /// Write unit size per chip, in bits (X16 → 16, X8 → 8, mobile X4/X2).
    pub write_unit_bits_per_chip: u32,
    /// Last-level cache line size in bytes (64 typical; 128 POWER7, 256 z).
    pub cache_line_bytes: u32,
    /// Data-unit width in bits — the granularity the write schemes count
    /// SET/RESET demand at (64 in the paper).
    pub data_unit_bits: u32,
    /// Independently addressable partitions inside one bank (PALP-style
    /// intra-bank parallelism; 1 = monolithic bank, the classic model).
    pub partitions_per_bank: u32,
}

impl Default for MemOrg {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl MemOrg {
    /// Table II baseline.
    pub const fn paper_baseline() -> Self {
        MemOrg {
            capacity_bytes: 4 << 30,
            ranks: 1,
            banks_per_rank: 8,
            chips_per_bank: 4,
            write_unit_bits_per_chip: 16,
            cache_line_bytes: 64,
            data_unit_bits: 64,
            partitions_per_bank: 4,
        }
    }

    /// Write-unit size per bank in bytes (8 B in the baseline).
    pub const fn write_unit_bytes(&self) -> u32 {
        self.chips_per_bank * self.write_unit_bits_per_chip / 8
    }

    /// Number of write units needed to cover one cache line
    /// (the conventional scheme's serial write count; 8 in the baseline).
    pub const fn write_units_per_line(&self) -> u32 {
        self.cache_line_bytes / self.write_unit_bytes()
    }

    /// Number of data units per cache line (8 × 64-bit in the baseline).
    pub const fn data_units_per_line(&self) -> u32 {
        self.cache_line_bytes * 8 / self.data_unit_bits
    }

    /// Total banks across all ranks.
    pub const fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank
    }

    /// Total number of cache lines in the memory.
    pub const fn total_lines(&self) -> u64 {
        self.capacity_bytes / self.cache_line_bytes as u64
    }

    /// Sanity checks on divisibility and ranges.
    pub fn validate(&self) -> Result<(), crate::PcmError> {
        let e = crate::PcmError::config;
        if self.ranks == 0 || self.banks_per_rank == 0 || self.chips_per_bank == 0 {
            return Err(e("ranks, banks and chips must be non-zero"));
        }
        if self.partitions_per_bank == 0 {
            return Err(e("partitions per bank must be non-zero"));
        }
        if !self.write_unit_bits_per_chip.is_power_of_two() || self.write_unit_bits_per_chip > 64 {
            return Err(e("write unit bits per chip must be a power of two ≤ 64"));
        }
        if !self.cache_line_bytes.is_power_of_two() {
            return Err(e("cache line size must be a power of two"));
        }
        // Bounding the line first keeps the arithmetic below overflow-free.
        if self.cache_line_bytes as usize > crate::data::MAX_LINE_BYTES {
            return Err(e("cache line exceeds LineData capacity"));
        }
        if self.data_unit_bits != 64 && self.data_unit_bits != 32 {
            return Err(e("data unit width must be 32 or 64 bits"));
        }
        if self.cache_line_bytes * 8 % self.data_unit_bits != 0 {
            return Err(e("cache line must be a whole number of data units"));
        }
        let write_unit_bytes =
            self.chips_per_bank as u64 * self.write_unit_bits_per_chip as u64 / 8;
        if write_unit_bytes == 0 || self.cache_line_bytes as u64 % write_unit_bytes != 0 {
            return Err(e("cache line must be a whole number of write units"));
        }
        if self.capacity_bytes % self.cache_line_bytes as u64 != 0 {
            return Err(e("capacity must be a whole number of cache lines"));
        }
        if self.data_units_per_line() as usize > crate::data::MAX_UNITS_PER_LINE {
            return Err(e("too many data units per line for fixed buffers"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let o = MemOrg::paper_baseline();
        assert_eq!(o.write_unit_bytes(), 8, "8 B write unit per bank");
        assert_eq!(o.write_units_per_line(), 8, "64/8 = 8 write units per line");
        assert_eq!(o.data_units_per_line(), 8, "8 × 64-bit data units");
        assert_eq!(o.total_banks(), 8);
        assert_eq!(o.partitions_per_bank, 4, "PALP-style 4-partition banks");
        assert!(o.validate().is_ok());
    }

    #[test]
    fn power7_line() {
        let o = MemOrg {
            cache_line_bytes: 128,
            ..MemOrg::paper_baseline()
        };
        assert_eq!(o.write_units_per_line(), 16);
        assert_eq!(o.data_units_per_line(), 16);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn mobile_x4() {
        let o = MemOrg {
            write_unit_bits_per_chip: 4,
            ..MemOrg::paper_baseline()
        };
        assert_eq!(o.write_unit_bytes(), 2);
        assert_eq!(o.write_units_per_line(), 32);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = MemOrg::paper_baseline();
        assert!(MemOrg { ranks: 0, ..base }.validate().is_err());
        assert!(MemOrg {
            write_unit_bits_per_chip: 12,
            ..base
        }
        .validate()
        .is_err());
        assert!(MemOrg {
            cache_line_bytes: 96,
            ..base
        }
        .validate()
        .is_err());
        assert!(MemOrg {
            data_unit_bits: 48,
            ..base
        }
        .validate()
        .is_err());
        assert!(MemOrg {
            capacity_bytes: 100,
            ..base
        }
        .validate()
        .is_err());
        assert!(MemOrg {
            partitions_per_bank: 0,
            ..base
        }
        .validate()
        .is_err());
    }
}

//! The [`WriteScheme`] trait and the plan/context types every scheme shares.

use pcm_types::{
    coset_decode_unit, EnergyParams, LineData, MemOrg, PcmError, PcmTimings, PicoJoules,
    PowerParams, Ps,
};

/// Static configuration a scheme plans against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemeConfig {
    /// Pulse timings (Table II).
    pub timings: PcmTimings,
    /// Current budget and asymmetry.
    pub power: PowerParams,
    /// Memory organization (write-unit / line geometry).
    pub org: MemOrg,
    /// Per-bit energies.
    pub energy: EnergyParams,
    /// Which scheme [`SchemeConfig::instantiate`] constructs.
    pub select: crate::preset::SchemeSelect,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl SchemeConfig {
    /// Table II baseline configuration.
    pub fn paper_baseline() -> Self {
        SchemeConfig {
            timings: PcmTimings::paper_baseline(),
            power: PowerParams::paper_baseline(),
            org: MemOrg::paper_baseline(),
            energy: EnergyParams::paper_baseline(),
            select: crate::preset::SchemeSelect::Dcw,
        }
    }

    /// Validate all sub-configurations.
    pub fn validate(&self) -> Result<(), PcmError> {
        self.timings.validate()?;
        self.power.validate()?;
        self.org.validate()?;
        Ok(())
    }
}

/// One cache-line write to plan: the array's current bits and the new
/// logical data.
#[derive(Clone, Copy, Debug)]
pub struct WriteCtx<'a> {
    /// Bits currently stored in the array (possibly inverted lines).
    pub old_stored: &'a LineData,
    /// Current flip-tag bitmask (bit `i` = data unit `i`).
    pub old_flips: u32,
    /// The logical data the CPU wants persisted.
    pub new_logical: &'a LineData,
    /// Configuration.
    pub cfg: &'a SchemeConfig,
}

impl<'a> WriteCtx<'a> {
    /// The logical data currently stored (decoding flip tags and, for
    /// WIRE-coded lines, the coset row packed into the tag word's top
    /// bits — tag words without row bits decode exactly as classic
    /// Flip-N-Write).
    pub fn old_logical(&self) -> LineData {
        let mut out = *self.old_stored;
        let n = out.num_units();
        for i in 0..n {
            out.set_unit(
                i,
                coset_decode_unit(self.old_stored.unit(i), self.old_flips, i, n),
            );
        }
        out
    }
}

/// The outcome of planning one cache-line write.
#[derive(Clone, Debug)]
pub struct WritePlan {
    /// Time the bank is busy servicing this write (includes any
    /// read-before-write and analysis overhead).
    pub service_time: Ps,
    /// Programming + read energy consumed.
    pub energy: PicoJoules,
    /// Serial cost in write units of `Tset` (the paper's Fig. 10 metric):
    /// `service_time_without_read / Tset`.
    pub write_units_equiv: f64,
    /// Bits the scheme will leave in the array.
    pub stored: LineData,
    /// Flip-tag bitmask the scheme will leave behind.
    pub flips: u32,
    /// SET pulses delivered to cells.
    pub cell_sets: u32,
    /// RESET pulses delivered to cells.
    pub cell_resets: u32,
    /// Whether the scheme performed a read before writing.
    pub read_before_write: bool,
    /// Intra-bank partitions the plan drives concurrently (0 for schemes
    /// without a partition model; ≥ 1 for PALP-style plans).
    pub partitions_used: u32,
}

impl WritePlan {
    /// Check the fundamental invariant: stored bits + flip tags must decode
    /// to the requested logical data. Used by tests and debug builds.
    pub fn check_decodes_to(&self, logical: &LineData) -> Result<(), PcmError> {
        if self.stored.len() != logical.len() {
            return Err(PcmError::LineSizeMismatch {
                expected: logical.len(),
                actual: self.stored.len(),
            });
        }
        let n = logical.num_units();
        for i in 0..n {
            if coset_decode_unit(self.stored.unit(i), self.flips, i, n) != logical.unit(i) {
                return Err(PcmError::IncompleteSchedule(format!(
                    "unit {i} decodes incorrectly"
                )));
            }
        }
        Ok(())
    }
}

/// How well a packing scheme filled the write units it scheduled.
///
/// Produced by schemes that pack pulses under a shared current budget
/// (Tetris Write); the memory controller forwards it to telemetry so a
/// trace can show *why* a batch was cheap or expensive.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PackStats {
    /// Write0 (RESET) jobs placed inside the write-1 region's slack —
    /// the paper's "dropping short Tetris pieces into the gaps" — rather
    /// than in overflow sub-write-units.
    pub stolen_write0s: u32,
    /// Mean fraction of the instantaneous current budget used across the
    /// schedule's occupied sub-slots, in [0, 1].
    pub utilization: f64,
    /// Serial cost of the whole schedule in `Tset` write units
    /// (`result + subresult / K`).
    pub write_units_equiv: f64,
}

/// A batch of line writes planned together (shared bank occupancy).
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Total bank-busy time for the whole batch; every line in the batch
    /// completes at this time.
    pub service_time: Ps,
    /// Per-line plans (stored bits, flips, energy, pulse counts). Their
    /// individual `service_time` fields equal the shared total.
    pub plans: Vec<WritePlan>,
    /// Packing quality, for schemes that report it (`None` otherwise).
    pub pack: Option<PackStats>,
}

/// A PCM cache-line write scheme.
///
/// ```
/// use pcm_schemes::{FlipNWrite, SchemeConfig, WriteCtx, WriteScheme};
/// use pcm_types::LineData;
///
/// let cfg = SchemeConfig::paper_baseline();
/// let old = LineData::zeroed(64);
/// let new = LineData::from_units(&[u64::MAX; 8]); // dense → gets inverted
/// let ctx = WriteCtx { old_stored: &old, old_flips: 0, new_logical: &new, cfg: &cfg };
/// let plan = FlipNWrite.plan(&ctx);
/// assert_eq!(plan.flips, 0xFF, "all units stored inverted");
/// assert_eq!(plan.cell_sets, 8, "one flip-bit SET per unit");
/// plan.check_decodes_to(&new).unwrap();
/// ```
pub trait WriteScheme: Send + Sync {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Plan one cache-line write.
    fn plan(&self, ctx: &WriteCtx<'_>) -> WritePlan;

    /// Whether the scheme maintains flip tags (schemes that don't always
    /// leave `flips == 0`).
    fn uses_flip_bits(&self) -> bool {
        false
    }

    /// Plan several queued writes as one batch sharing the bank and the
    /// power budget. Returns `None` if the scheme has no batched mode (the
    /// caller then services the writes serially). Tetris Write overrides
    /// this (inter-line packing, the authors' DATE'16 direction).
    fn plan_batched(&self, _ctxs: &[WriteCtx<'_>]) -> Option<BatchPlan> {
        None
    }
}

/// Worst-case number of data units whose SETs fit one write unit after
/// flip-bounding (changed bits ≤ unit/2): `max(1, PB / (bits/2))`.
pub(crate) fn worst_case_set_concurrency(cfg: &SchemeConfig, flip_bounded: bool) -> u32 {
    let bits = cfg.org.data_unit_bits;
    let worst_sets = if flip_bounded { bits / 2 } else { bits };
    (cfg.power.budget_per_bank / cfg.power.set_cost(worst_sets).max(1)).max(1)
}

/// Worst-case number of data units whose RESETs fit one sub-write-unit.
pub(crate) fn worst_case_reset_concurrency(cfg: &SchemeConfig, flip_bounded: bool) -> u32 {
    let bits = cfg.org.data_unit_bits;
    let worst_resets = if flip_bounded { bits / 2 } else { bits };
    (cfg.power.budget_per_bank / cfg.power.reset_cost(worst_resets).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::flip_units;

    #[test]
    fn old_logical_decodes_flips() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::from_units(&[!5u64, 7, 0, 0, 0, 0, 0, 0]);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0b1,
            new_logical: &old,
            cfg: &cfg,
        };
        let logical = ctx.old_logical();
        assert_eq!(logical.unit(0), 5, "unit 0 was stored inverted");
        assert_eq!(logical.unit(1), 7);
    }

    #[test]
    fn plan_invariant_checker_accepts_flip_encoding() {
        let old = LineData::zeroed(64);
        let new = LineData::from_units(&[u64::MAX, 3, 0, 0, 0, 0, 0, 0]);
        let fl = flip_units(&old, 0, &new);
        let plan = WritePlan {
            service_time: Ps::from_ns(1),
            energy: PicoJoules::ZERO,
            write_units_equiv: 1.0,
            stored: fl.stored,
            flips: fl.flips,
            cell_sets: 0,
            cell_resets: 0,
            read_before_write: true,
            partitions_used: 0,
        };
        assert!(plan.check_decodes_to(&new).is_ok());
        let other = LineData::zeroed(64);
        assert!(plan.check_decodes_to(&other).is_err());
    }

    #[test]
    fn scheme_builder_validates() {
        let mut cfg = SchemeConfig::paper_baseline();
        cfg.org.capacity_bytes = 8 * 64;
        assert!(cfg.validate().is_ok());
        // Capacity that is not a whole number of lines is rejected.
        cfg.org.capacity_bytes = 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn worst_case_concurrencies_match_paper() {
        let cfg = SchemeConfig::paper_baseline();
        // With flip bounding: ≤32 SETs/unit → 128/32 = 4 units per Tset;
        // ≤32 RESETs/unit → 128/64 = 2 units per Treset.
        assert_eq!(worst_case_set_concurrency(&cfg, true), 4);
        assert_eq!(worst_case_reset_concurrency(&cfg, true), 2);
        // Without: 64 SETs → 2 units; 64 RESETs → 1 unit.
        assert_eq!(worst_case_set_concurrency(&cfg, false), 2);
        assert_eq!(worst_case_reset_concurrency(&cfg, false), 1);
    }
}

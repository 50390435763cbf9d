//! PreSET (Qureshi et al., ISCA'12 — the paper's ref. \[23\]).
//!
//! Exploits the write-time asymmetry from the opposite direction of the
//! staged schemes: when a line sits dirty in the cache, the memory
//! controller *proactively SETs every bit* of its PCM frame during idle
//! time. The eventual write-back then only needs the fast RESETs
//! (`N/M · Treset ≈ 0.99` write units — even less critical-path time than
//! Tetris), at the price of programming energy and endurance: every
//! preset+writeback cycle pulses nearly every cell of the line.
//!
//! Model: the background preset is assumed to complete between consecutive
//! writes to a line (the controller has idle slots; contention from preset
//! traffic is not modelled — see DESIGN.md). Its SET pulses are charged to
//! this write's energy; the foreground service time is the RESET stage
//! only.
//!
//! This module also hosts the **unified scheme factory**: a
//! [`SchemeSelect`] tag on [`SchemeConfig`] plus
//! [`SchemeConfig::instantiate`], so every construction site (runner,
//! ablations, replay) builds schemes through one path instead of
//! hand-matching enums.

use crate::traits::{SchemeConfig, WriteCtx, WritePlan, WriteScheme};
use std::sync::OnceLock;

pcm_types::registry! {
    /// Which write scheme a [`SchemeConfig`] instantiates, by tag (CLI /
    /// JSON). `ALL` lists every scheme in the paper's presentation order.
    ///
    /// `Tetris` lives in the downstream `tetris-write` crate (it depends on
    /// this one), so its constructor is injected via
    /// [`register_tetris_factory`] rather than named here.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
    pub enum SchemeSelect: "scheme" {
        /// Every bit programmed, strictly serial write units (Eq. 1).
        Conventional => "conventional" | "conv",
        /// Data-comparison write — the paper's baseline.
        #[default]
        Dcw => "dcw" | "baseline",
        /// Flip-N-Write: read + inversion bounds changed bits (Eq. 2).
        Fnw => "fnw" | "flip-n-write",
        /// RESET stage + asymmetry-sized SET stage (Eq. 3).
        TwoStage => "2stage" | "2sw" | "two-stage" | "2-stage-write",
        /// 2-Stage + Flip-N-Write's read/flip (Eq. 4).
        ThreeStage => "3stage" | "3sw" | "three-stage" | "three-stage-write",
        /// Background full-SET sweeps, RESET-only write-backs (ref. \[23\]).
        PreSet => "preset",
        /// The paper's contribution (constructed by the registered factory).
        Tetris => "tetris" | "tetris-write",
        /// Partition-level parallelism inside one bank (PALP, Song et al.).
        Palp => "palp" | "partition-parallel",
        /// Restricted coset coding (WIRE, Seyedzadeh et al.).
        Wire => "wire" | "coset",
    }
}

impl SchemeSelect {
    /// The five schemes of Figs. 10–14 (baseline first).
    pub const COMPARED: [SchemeSelect; 5] = [
        SchemeSelect::Dcw,
        SchemeSelect::Fnw,
        SchemeSelect::TwoStage,
        SchemeSelect::ThreeStage,
        SchemeSelect::Tetris,
    ];

    /// Display name matching the paper.
    pub const fn name(self) -> &'static str {
        match self {
            SchemeSelect::Conventional => "Conventional",
            SchemeSelect::Dcw => "Baseline (DCW)",
            SchemeSelect::Fnw => "Flip-N-Write",
            SchemeSelect::TwoStage => "2-Stage-Write",
            SchemeSelect::ThreeStage => "Three-Stage-Write",
            SchemeSelect::PreSet => "PreSET",
            SchemeSelect::Tetris => "Tetris Write",
            SchemeSelect::Palp => "PALP",
            SchemeSelect::Wire => "WIRE",
        }
    }

    /// Short column label.
    pub const fn short(self) -> &'static str {
        match self {
            SchemeSelect::Conventional => "Conv",
            SchemeSelect::Dcw => "DCW",
            SchemeSelect::Fnw => "FNW",
            SchemeSelect::TwoStage => "2SW",
            SchemeSelect::ThreeStage => "3SW",
            SchemeSelect::PreSet => "PreSET",
            SchemeSelect::Tetris => "Tetris",
            SchemeSelect::Palp => "PALP",
            SchemeSelect::Wire => "WIRE",
        }
    }
}

/// Constructor for the Tetris scheme, registered by the `tetris-write`
/// crate (which depends on this one and therefore cannot be named here).
type TetrisFactory = fn(&SchemeConfig) -> Box<dyn WriteScheme>;

static TETRIS_FACTORY: OnceLock<TetrisFactory> = OnceLock::new();

/// Register the constructor [`SchemeConfig::instantiate`] uses for
/// [`SchemeSelect::Tetris`]. Idempotent; the first registration wins.
/// `tetris_write::register_scheme_factory()` calls this on behalf of any
/// code that links the downstream crate.
pub fn register_tetris_factory(f: TetrisFactory) {
    let _ = TETRIS_FACTORY.set(f);
}

impl SchemeConfig {
    /// Construct the write scheme this configuration selects.
    ///
    /// This is the single factory every construction site goes through;
    /// the returned scheme plans against `self`.
    ///
    /// # Panics
    ///
    /// Panics if `select` is [`SchemeSelect::Tetris`] and no factory has
    /// been registered — call `tetris_write::register_scheme_factory()`
    /// (or `pcm_memsim::System::build`, which does so) first.
    pub fn instantiate(&self) -> Box<dyn WriteScheme> {
        match self.select {
            SchemeSelect::Conventional => Box::new(crate::ConventionalWrite),
            SchemeSelect::Dcw => Box::new(crate::DcwWrite),
            SchemeSelect::Fnw => Box::new(crate::FlipNWrite),
            SchemeSelect::TwoStage => Box::new(crate::TwoStageWrite),
            SchemeSelect::ThreeStage => Box::new(crate::ThreeStageWrite),
            SchemeSelect::PreSet => Box::new(PreSetWrite),
            SchemeSelect::Palp => Box::new(crate::PalpWrite),
            SchemeSelect::Wire => Box::new(crate::WireWrite),
            SchemeSelect::Tetris => {
                let f = TETRIS_FACTORY.get().expect(
                    "SchemeSelect::Tetris requires tetris_write::register_scheme_factory() \
                     to have been called (System::build does this automatically)",
                );
                f(self)
            }
        }
    }
}

/// PreSET: background full-SET, foreground RESET-only write-back.
#[derive(Clone, Copy, Debug, Default)]
pub struct PreSetWrite;

impl WriteScheme for PreSetWrite {
    fn name(&self) -> &'static str {
        "PreSET"
    }

    fn plan(&self, ctx: &WriteCtx<'_>) -> WritePlan {
        let cfg: &SchemeConfig = ctx.cfg;
        let unit_bits = cfg.org.data_unit_bits;
        let num_units = ctx.new_logical.num_units() as u32;

        // Background preset: every currently-0 cell gets a SET pulse
        // (logical view; stale flip tags are cleared as part of the sweep).
        let old_logical = ctx.old_logical();
        let total_bits = unit_bits * num_units;
        let preset_sets = total_bits - old_logical.popcount() + ctx.old_flips.count_ones();

        // Foreground write-back: RESET every bit that must read 0.
        let resets = total_bits - ctx.new_logical.popcount();
        // Worst case 64 RESETs/unit = 128 SET-equivalents = the bank budget
        // → strictly one unit per Treset slot.
        let per_slot =
            (cfg.power.budget_per_bank / cfg.power.reset_cost(unit_bits).max(1)).max(1) as u64;
        let slots = (cfg.org.write_units_per_line() as u64).div_ceil(per_slot);
        let service = cfg.timings.t_reset * slots;
        let equiv = service.as_ps() as f64 / cfg.timings.t_set.as_ps() as f64;

        WritePlan {
            service_time: service,
            energy: cfg.energy.write_energy(preset_sets as u64, resets as u64),
            write_units_equiv: equiv,
            stored: *ctx.new_logical,
            flips: 0,
            cell_sets: preset_sets,
            cell_resets: resets,
            read_before_write: false,
            partitions_used: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcwWrite, ThreeStageWrite};
    use pcm_types::{LineData, Ps};

    fn plan(old: &LineData, flips: u32, new: &LineData) -> WritePlan {
        let cfg = SchemeConfig::paper_baseline();
        PreSetWrite.plan(&WriteCtx {
            old_stored: old,
            old_flips: flips,
            new_logical: new,
            cfg: &cfg,
        })
    }

    #[test]
    fn parse_roundtrip() {
        for k in SchemeSelect::ALL {
            assert_eq!(k.short().parse::<SchemeSelect>().ok(), Some(k));
            assert_eq!(k.tag().parse::<SchemeSelect>().ok(), Some(k));
        }
        assert_eq!(
            "TETRIS".parse::<SchemeSelect>().ok(),
            Some(SchemeSelect::Tetris)
        );
        assert_eq!("bogus".parse::<SchemeSelect>().ok(), None);
    }

    #[test]
    fn compared_starts_with_baseline() {
        assert_eq!(SchemeSelect::COMPARED[0], SchemeSelect::Dcw);
        assert_eq!(
            *SchemeSelect::COMPARED.last().unwrap(),
            SchemeSelect::Tetris
        );
    }

    #[test]
    fn foreground_service_is_reset_stage_only() {
        let old = LineData::zeroed(64);
        let new = LineData::from_units(&[0xABCD; 8]);
        let p = plan(&old, 0, &new);
        assert_eq!(p.service_time, Ps::from_ns(8 * 53), "8 Treset, no read");
        assert!(p.write_units_equiv < 1.0, "even below one Tset-equivalent");
        assert!(!p.read_before_write);
        assert!(p.check_decodes_to(&new).is_ok());
    }

    #[test]
    fn fastest_foreground_but_worst_energy() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::from_units(&[0xF0F0_F0F0; 8]);
        let mut new = old;
        new.xor_unit(2, 0b111);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let preset = PreSetWrite.plan(&ctx);
        let dcw = DcwWrite.plan(&ctx);
        let three = ThreeStageWrite.plan(&ctx);
        assert!(preset.service_time < three.service_time);
        assert!(
            preset.energy > dcw.energy * 10,
            "preset pays for its speed in energy"
        );
    }

    #[test]
    fn pulse_accounting_covers_preset_and_resets() {
        // Old: all zeros → preset SETs all 512 bits; new has 8 ones per
        // unit → 56 zero bits per unit get RESET.
        let old = LineData::zeroed(64);
        let new = LineData::from_units(&[0xFF; 8]);
        let p = plan(&old, 0, &new);
        assert_eq!(p.cell_sets, 512);
        assert_eq!(p.cell_resets, 8 * 56);
    }

    #[test]
    fn instantiate_builds_every_local_scheme() {
        use super::SchemeSelect::*;
        for (sel, name) in [
            (Conventional, "Conventional"),
            (Dcw, "DCW (baseline)"),
            (Fnw, "Flip-N-Write"),
            (TwoStage, "2-Stage-Write"),
            (ThreeStage, "Three-Stage-Write"),
            (PreSet, "PreSET"),
            (Palp, "PALP"),
            (Wire, "WIRE"),
        ] {
            let cfg = SchemeConfig {
                select: sel,
                ..SchemeConfig::paper_baseline()
            };
            assert_eq!(cfg.instantiate().name(), name, "select {sel:?}");
        }
    }

    #[test]
    fn default_select_is_the_paper_baseline() {
        assert_eq!(
            SchemeConfig::paper_baseline().select,
            super::SchemeSelect::Dcw
        );
    }

    #[test]
    fn fromstr_accepts_aliases_case_insensitively() {
        for (alias, want) in [
            ("Conv", SchemeSelect::Conventional),
            ("BASELINE", SchemeSelect::Dcw),
            ("flip-n-write", SchemeSelect::Fnw),
            ("2SW", SchemeSelect::TwoStage),
            ("three-stage-write", SchemeSelect::ThreeStage),
            ("Tetris-Write", SchemeSelect::Tetris),
            ("preset", SchemeSelect::PreSet),
            ("Partition-Parallel", SchemeSelect::Palp),
            ("COSET", SchemeSelect::Wire),
        ] {
            assert_eq!(alias.parse::<SchemeSelect>(), Ok(want), "{alias}");
        }
        let err = "bogus".parse::<SchemeSelect>().unwrap_err();
        assert_eq!(err.input, "bogus");
        // The message is derived from ALL — every canonical tag appears.
        for s in SchemeSelect::ALL {
            assert!(err.to_string().contains(s.tag()), "lists {}", s.tag());
        }
    }

    pcm_types::propcheck! {
        /// Display → FromStr is the identity over the whole registry,
        /// in any ASCII case.
        fn display_fromstr_roundtrip(i in 0usize..SchemeSelect::ALL.len(), upper in pcm_types::propcheck::any_bool()) {
            let scheme = SchemeSelect::ALL[i];
            let mut tag = scheme.to_string();
            pcm_types::prop_assert_eq!(tag.as_str(), scheme.tag());
            if upper {
                tag = tag.to_ascii_uppercase();
            }
            pcm_types::prop_assert_eq!(tag.parse::<SchemeSelect>(), Ok(scheme));
        }
    }

    #[test]
    fn stale_flip_tags_cleared_by_the_sweep() {
        let mut old = LineData::zeroed(64);
        old.set_unit(0, !5u64);
        let mut new = LineData::zeroed(64);
        new.set_unit(0, 5);
        let p = plan(&old, 0b1, &new);
        assert_eq!(p.flips, 0);
        assert!(p.check_decodes_to(&new).is_ok());
    }
}

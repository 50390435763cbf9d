//! A near-literal transcription of the paper's Algorithm 2 listing, kept
//! for the ablation study.
//!
//! The printed pseudocode cannot run as written:
//!
//! * line 16's placement condition is inverted (`>` places nothing, ever);
//! * the `j = (result − 1)` guards compare against a loop variable in a way
//!   that can never be true on the first unit;
//! * line 23–25 updates `WUp[k]` for `k ∈ [1, j·K]` — every sub-slot of
//!   every *earlier* write unit, not the slots of unit `j`.
//!
//! This module applies the *minimum* repairs needed to execute (un-invert
//! the condition, open a new unit when the scan exhausts existing ones) but
//! keeps the listing's two distinctive quirks: the budget is checked at a
//! single sub-slot (`WUp[j·K]`, the unit's last slot) rather than across
//! all `K`, and a placement charges every sub-slot up to and including the
//! chosen unit. The second quirk makes packing strictly pessimistic, which
//! is why the corrected first-fit-decreasing in [`crate::analysis`] never
//! does worse — `tetris-experiments ablation` quantifies the gap.

use crate::config::TetrisConfig;
use pcm_types::{LineDemand, PcmError};

/// Result of the literal algorithm: just the two counters of Eq. 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaperLiteralResult {
    /// Write units consumed by write-1s.
    pub result: u32,
    /// Overflow sub-write-units for write-0s.
    pub subresult: u32,
}

impl PaperLiteralResult {
    /// Fig. 10 metric.
    pub fn write_units_equiv(&self, k: usize) -> f64 {
        self.result as f64 + self.subresult as f64 / k as f64
    }
}

/// Run the (minimally repaired) literal Algorithm 2.
pub fn paper_literal_analyze(
    demand: &LineDemand,
    cfg: &TetrisConfig,
) -> Result<PaperLiteralResult, PcmError> {
    let power = &cfg.scheme.power;
    let k = cfg.scheme.timings.k_ratio() as usize;
    let l = power.l_ratio;
    let pb = power.budget_per_bank;
    if pb < l {
        return Err(PcmError::config("budget cannot source even one RESET"));
    }

    // IN1[i] ← NUM1[i]; IN0[i] ← NUM0[i] × L  (lines 2–5).
    let mut in1: Vec<u32> = demand.units().iter().map(|u| u.sets).collect();
    let mut in0: Vec<u32> = demand.units().iter().map(|u| u.resets * l).collect();
    // Lines 7–10: sort decreasing.
    in1.sort_unstable_by_key(|&v| std::cmp::Reverse(v));
    in0.sort_unstable_by_key(|&v| std::cmp::Reverse(v));

    // result ← 1 (line 6): one write unit exists from the start.
    let mut result: u32 = 1;
    let mut wup: Vec<u32> = vec![0; k];

    // Lines 12–29: traverse write-1 data units.
    for &need in in1.iter().filter(|&&n| n > 0) {
        // A single unit's demand above the budget cannot be placed by the
        // listing at all; surface that instead of looping forever.
        if need > pb {
            return Err(PcmError::PowerBudgetViolation {
                slot: 0,
                demand: need,
                budget: pb,
            });
        }
        loop {
            let mut placed = false;
            for j in 0..result as usize {
                // Listing quirk #1: the check samples one slot, WUp[j·K]
                // (the unit's last sub-slot).
                let probe = wup[(j + 1) * k - 1];
                if need + probe <= pb {
                    // Listing quirk #2: charge every sub-slot in [0, j·K].
                    for slot in wup.iter_mut().take((j + 1) * k) {
                        *slot += need;
                    }
                    placed = true;
                    break;
                }
            }
            if placed {
                break;
            }
            result += 1;
            wup.extend(std::iter::repeat_n(0, k));
        }
    }

    // Lines 31–44: traverse write-0 data units over sub-slots.
    let mut subresult: u32 = 0;
    for &need in in0.iter().filter(|&&n| n > 0) {
        if need > pb {
            return Err(PcmError::PowerBudgetViolation {
                slot: 0,
                demand: need,
                budget: pb,
            });
        }
        match wup.iter().position(|&u| need + u <= pb) {
            Some(s) => wup[s] += need,
            None => {
                subresult += 1;
                wup.push(need);
            }
        }
    }

    Ok(PaperLiteralResult { result, subresult })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use pcm_types::propcheck::vec_of;
    use pcm_types::{prop_assert, propcheck};
    use pcm_types::{PowerParams, UnitDemand};

    fn cfg_with_budget(budget: u32) -> TetrisConfig {
        let mut cfg = TetrisConfig::paper_baseline();
        cfg.scheme.power = PowerParams {
            l_ratio: 2,
            budget_per_bank: budget,
            chips_per_bank: 4,
        };
        cfg
    }

    fn demand(units: &[(u32, u32)]) -> LineDemand {
        LineDemand::from_units(
            &units
                .iter()
                .map(|&(s, r)| UnitDemand::new(s, r))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn fig4_example_matches_corrected_result() {
        // On the worked example the quirks happen not to hurt: same counts.
        let cfg = cfg_with_budget(32);
        let d = demand(&[
            (8, 0),
            (7, 1),
            (7, 1),
            (6, 2),
            (6, 3),
            (6, 2),
            (5, 2),
            (3, 5),
        ]);
        let lit = paper_literal_analyze(&d, &cfg).unwrap();
        assert_eq!(lit.result, 2);
        assert_eq!(lit.subresult, 0);
    }

    #[test]
    fn empty_demand_keeps_initial_unit() {
        let cfg = TetrisConfig::paper_baseline();
        let d = demand(&[(0, 0); 8]);
        let lit = paper_literal_analyze(&d, &cfg).unwrap();
        assert_eq!(
            lit,
            PaperLiteralResult {
                result: 1,
                subresult: 0
            }
        );
    }

    #[test]
    fn oversized_demand_is_an_error_not_a_hang() {
        let cfg = cfg_with_budget(16);
        let d = demand(&[(20, 0)]);
        assert!(paper_literal_analyze(&d, &cfg).is_err());
        let d = demand(&[(0, 20)]);
        assert!(
            paper_literal_analyze(&d, &cfg).is_err(),
            "40 > 16 RESET current"
        );
    }

    propcheck! {
        /// The corrected FFD packer never needs more write units than the
        /// literal listing (whose over-charging only wastes space).
        fn corrected_is_never_worse(
            units in vec_of((0u32..=32, 0u32..=16), 8),
        ) {
            let cfg = TetrisConfig::paper_baseline();
            let d = demand(&units);
            let lit = paper_literal_analyze(&d, &cfg).unwrap();
            let fixed = analyze(&d, &cfg).unwrap();
            prop_assert!(fixed.result <= lit.result);
            prop_assert!(
                fixed.write_units_equiv() <= lit.write_units_equiv(fixed.k) + 1e-9
            );
        }
    }
}

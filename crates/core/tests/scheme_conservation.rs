//! Pulse-conservation property for every scheme in the registry.
//!
//! Each scheme reports `cell_sets`/`cell_resets` — the pulses its write
//! circuit would issue. Those numbers must be *conserved* against the
//! stored-line state transition the plan claims to perform:
//!
//! * **Differential schemes** (DCW, FNW, 3-Stage, Tetris, PALP, WIRE): the reported
//!   pulses are exactly the popcounts of the `transitions()` masks from
//!   the old stored bits (+ flip tags) to the planned stored bits
//!   (+ flip tags) — no phantom pulses, no unpaid transitions.
//! * **Full-programming schemes** (Conventional, 2-Stage): every data
//!   cell (and, for 2-Stage, every flip tag) is pulsed *to its target
//!   value*, so the split is the popcount of the planned stored bits vs
//!   the rest, plus stale/fresh tag pulses.
//! * **PreSET**: the background sweep SETs every logical-0 cell (clearing
//!   stale tags on the way), the foreground write-back RESETs every bit
//!   that must read 0.
//!
//! Driven off [`SchemeSelect::ALL`] so a scheme added to the registry is
//! automatically covered — a new variant that misreports its pulse
//! accounting fails here, not in an energy figure three PRs later.

use pcm_schemes::{SchemeConfig, SchemeSelect, WriteCtx, WritePlan};
use pcm_types::propcheck::{any_u64, just, masked_u64, union, vec_of, Strategy};
use pcm_types::{prop_assert, prop_assert_eq, propcheck};
use pcm_types::{transitions, LineData};

fn line_strategy() -> impl Strategy<Value = Vec<u64>> {
    vec_of(
        union(vec![
            Box::new(just(0u64)),
            Box::new(just(u64::MAX)),
            Box::new(any_u64()),
            Box::new(masked_u64(0xFF)), // sparse
        ]),
        8,
    )
}

/// The expected (sets, resets) for `plan` under `sel`, derived from the
/// stored-line transition masks — independently of the scheme's own
/// accounting code.
fn expected_pulses(sel: SchemeSelect, ctx: &WriteCtx<'_>, plan: &WritePlan) -> (u32, u32) {
    let unit_bits = ctx.cfg.org.data_unit_bits;
    let num_units = ctx.new_logical.num_units() as u32;
    let total_bits = unit_bits * num_units;
    match sel {
        // Differential: pulses == transitions(old stored → planned stored)
        // plus transitions(old flip tags → planned flip tags).
        SchemeSelect::Dcw
        | SchemeSelect::Fnw
        | SchemeSelect::ThreeStage
        | SchemeSelect::Tetris
        | SchemeSelect::Palp
        | SchemeSelect::Wire => {
            let mut sets = 0u32;
            let mut resets = 0u32;
            for i in 0..ctx.new_logical.num_units() {
                let t = transitions(ctx.old_stored.unit(i), plan.stored.unit(i));
                sets += t.num_sets();
                resets += t.num_resets();
            }
            let tags = transitions(ctx.old_flips as u64, plan.flips as u64);
            (sets + tags.num_sets(), resets + tags.num_resets())
        }
        // Every bit programmed to its target value; stale flip tags reset.
        SchemeSelect::Conventional => {
            let ones = plan.stored.popcount();
            (ones, total_bits - ones + ctx.old_flips.count_ones())
        }
        // Every data cell and every flip tag pulsed to its target value.
        SchemeSelect::TwoStage => {
            let ones = plan.stored.popcount();
            let tag_ones = plan.flips.count_ones();
            (
                ones + tag_ones,
                (total_bits - ones) + (num_units - tag_ones),
            )
        }
        // Background sweep SETs every logical 0 (and stale tags); the
        // write-back RESETs every bit that must read 0.
        SchemeSelect::PreSet => {
            let old_logical = ctx.old_logical();
            (
                total_bits - old_logical.popcount() + ctx.old_flips.count_ones(),
                total_bits - ctx.new_logical.popcount(),
            )
        }
    }
}

propcheck! {
    cases = 128;

    /// Reported sets/resets match the transition-mask accounting for
    /// every registered scheme, across arbitrary content and stale tags.
    fn pulse_accounting_is_conserved(
        old in line_strategy(),
        flips in 0u32..256,
        new in line_strategy(),
    ) {
        tetris_write::register_scheme_factory();
        let old = LineData::from_units(&old);
        let new = LineData::from_units(&new);
        for sel in SchemeSelect::ALL {
            let cfg = SchemeConfig {
                select: sel,
                ..SchemeConfig::paper_baseline()
            };
            let scheme = cfg.instantiate();
            let ctx = WriteCtx {
                old_stored: &old,
                old_flips: flips,
                new_logical: &new,
                cfg: &cfg,
            };
            let plan = scheme.plan(&ctx);
            let (sets, resets) = expected_pulses(sel, &ctx, &plan);
            prop_assert_eq!(
                (plan.cell_sets, plan.cell_resets),
                (sets, resets),
                "{} ({}) misreports pulses",
                scheme.name(),
                sel.tag()
            );
            // The paired statement from the issue: total pulses equal the
            // total transition-mask popcounts of the claimed state change.
            prop_assert_eq!(plan.cell_sets + plan.cell_resets, sets + resets);
            // And the accounting must be for a plan that actually stores
            // the requested data.
            prop_assert!(
                plan.check_decodes_to(&new).is_ok(),
                "{} corrupted data",
                scheme.name()
            );
        }
    }
}

/// `SchemeSelect::ALL` is the whole registry: every variant appears
/// exactly once (a new variant that isn't added to `ALL` fails the
/// arm-count check below at compile time via `tag()`'s exhaustive match,
/// and this test catches a forgotten `ALL` entry).
#[test]
fn registry_covers_every_scheme_once() {
    let mut tags: Vec<&str> = SchemeSelect::ALL.iter().map(|s| s.tag()).collect();
    tags.sort_unstable();
    let mut deduped = tags.clone();
    deduped.dedup();
    assert_eq!(tags, deduped, "duplicate entry in SchemeSelect::ALL");
    assert_eq!(
        tags,
        [
            "2stage",
            "3stage",
            "conventional",
            "dcw",
            "fnw",
            "palp",
            "preset",
            "tetris",
            "wire"
        ]
    );
}

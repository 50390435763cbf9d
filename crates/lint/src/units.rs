//! The unit lattice behind the `units-flow` rule.
//!
//! The paper's timing model lives in two incompatible spellings: wall
//! durations (`Ps`, `*_ns` fields, `as_ns()` accessors) and controller
//! clock counts (`*_cycles` fields, `cycles_at()`, `from_cycles()`). A
//! value that crosses between them without an explicit conversion is the
//! highest-risk silent-corruption class this repo has — the number stays
//! plausible, every test that doesn't pin the exact figure passes, and the
//! model is quietly off by a clock frequency.
//!
//! Classification is name-driven and deliberately three-valued:
//!
//! * [`UnitClass::Ns`] — born from a `*_ns` ident or an `as_ns` /
//!   `as_ns_f64` accessor.
//! * [`UnitClass::Cycles`] — born from a `*_cycles` ident (or bare
//!   `cycles`) or a `cycles_at` conversion.
//! * [`UnitClass::Neutral`] — everything else, including values passed
//!   through an explicit converter (`Ps::from_ns`, `Ps::from_cycles`,
//!   `as_ps`, the `Ps` newtype itself): a conversion states intent, so
//!   flow past it is never flagged.
//!
//! Mixed expressions (both an `_ns` and a `_cycles` mention with no
//! converter) are ratios or deltas whose unit we cannot know; they
//! classify as [`UnitClass::Neutral`] rather than guess.

/// Which unit family a name or expression belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitClass {
    /// No unit information, or explicitly converted.
    Neutral,
    /// Nanosecond-valued (wall duration).
    Ns,
    /// Controller/CPU clock cycles.
    Cycles,
}

/// Converter names: calling one is an explicit unit statement, and the
/// call's *result* class (second column) replaces whatever fed it.
const CONVERTERS: &[(&str, UnitClass)] = &[
    ("as_ns", UnitClass::Ns),
    ("as_ns_f64", UnitClass::Ns),
    ("cycles_at", UnitClass::Cycles),
    ("from_ns", UnitClass::Neutral),
    ("from_cycles", UnitClass::Neutral),
    ("as_ps", UnitClass::Neutral),
    ("from_ps", UnitClass::Neutral),
    ("Ps", UnitClass::Neutral),
];

/// Class of a bare identifier (variable, field or parameter name).
pub fn classify_name(name: &str) -> UnitClass {
    if name.ends_with("_ns") || name == "ns" {
        UnitClass::Ns
    } else if name.ends_with("_cycles") || name == "cycles" {
        UnitClass::Cycles
    } else {
        UnitClass::Neutral
    }
}

/// Class of a parameter or struct field, considering its type annotation:
/// a `Ps`-typed slot is newtype-protected, so its name cannot mis-claim a
/// unit (`at_ns: Ps` would be a naming bug, not a flow bug).
pub fn classify_slot(name: &str, ty: &str) -> UnitClass {
    if ty
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|seg| seg == "Ps")
    {
        return UnitClass::Neutral;
    }
    classify_name(name)
}

/// Class of an expression, given its significant-token texts.
///
/// If any converter appears, the **last** converter wins (postfix chains
/// put the outermost conversion last: `Ps::from_ns(x).cycles_at(f)` is
/// cycles). Otherwise the suffix markers decide, and a mix of both
/// families is `Neutral`.
pub fn classify_expr<'a>(texts: impl Iterator<Item = &'a str>) -> UnitClass {
    let mut converted: Option<UnitClass> = None;
    let mut saw_ns = false;
    let mut saw_cycles = false;
    for t in texts {
        if let Some((_, out)) = CONVERTERS.iter().find(|(n, _)| *n == t) {
            converted = Some(*out);
            continue;
        }
        match classify_name(t) {
            UnitClass::Ns => saw_ns = true,
            UnitClass::Cycles => saw_cycles = true,
            UnitClass::Neutral => {}
        }
    }
    if let Some(c) = converted {
        return c;
    }
    match (saw_ns, saw_cycles) {
        (true, false) => UnitClass::Ns,
        (false, true) => UnitClass::Cycles,
        _ => UnitClass::Neutral,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> UnitClass {
        classify_expr(src.split_whitespace())
    }

    #[test]
    fn names_classify_by_suffix() {
        assert_eq!(classify_name("mean_gap_ns"), UnitClass::Ns);
        assert_eq!(classify_name("latency_cycles"), UnitClass::Cycles);
        assert_eq!(classify_name("cycles"), UnitClass::Cycles);
        assert_eq!(classify_name("ns"), UnitClass::Ns);
        assert_eq!(classify_name("runtime"), UnitClass::Neutral);
        assert_eq!(classify_name("columns"), UnitClass::Neutral);
    }

    #[test]
    fn ps_typed_slots_are_neutral() {
        assert_eq!(classify_slot("at_ns", "Ps"), UnitClass::Neutral);
        assert_eq!(classify_slot("at_ns", "u64"), UnitClass::Ns);
        assert_eq!(
            classify_slot("until", "pcm_types :: Ps"),
            UnitClass::Neutral
        );
    }

    #[test]
    fn converters_override_operands() {
        assert_eq!(expr("Ps :: from_ns ( at_ns )"), UnitClass::Neutral);
        assert_eq!(expr("busy . as_ns ( )"), UnitClass::Ns);
        assert_eq!(expr("gap . cycles_at ( freq )"), UnitClass::Cycles);
        assert_eq!(
            expr("Ps :: from_ns ( x ) . cycles_at ( f )"),
            UnitClass::Cycles
        );
    }

    #[test]
    fn mixed_families_without_converter_are_neutral() {
        assert_eq!(expr("a_ns / b_cycles"), UnitClass::Neutral);
        assert_eq!(expr("think_ns + pad_ns"), UnitClass::Ns);
        assert_eq!(expr("x + 1"), UnitClass::Neutral);
    }
}

//! Property tests for the item parser.
//!
//! The graph rules' soundness rests on the parser recovering *every*
//! top-level item (a missed `fn` means a missed call-graph node, a missed
//! `struct` means unclassified fields) with spans that tile the file. The
//! properties generate item soups from templates covering every
//! [`ItemKind`] dispatch arm — in random order and multiplicity — and
//! check the structural invariants over hundreds of seeded cases, the
//! same way `lexer_props.rs` pins the lexer.

use pcm_lint::items::{self, FileFacts, ItemKind};
use pcm_lint::lexer::{lex, test_regions};
use pcm_types::propcheck::{any_bool, one_of, vec_of, Strategy};
use pcm_types::{prop_assert, prop_assert_eq, propcheck};

/// One well-formed top-level item per template, covering every dispatch
/// arm of the item parser (attrs, generics, impl-for, nested items,
/// tuple/unit bodies, macros).
fn soup() -> impl Strategy<Value = Vec<&'static str>> {
    vec_of(
        one_of(&[
            "fn f(t_ns: u64) -> u64 { t_ns }",
            "pub fn g(x: usize, y_cycles: u64) -> u64 { y_cycles + x as u64 }",
            "pub(crate) fn h<T: Clone>(v: Vec<T>) -> usize { v.len() }",
            "pub struct S { pub width_cycles: u64, name: String }",
            "struct Tup(u32, u64);",
            "enum E { A, B(u32), C { x_ns: u64 } }",
            "impl S { fn get(&self) -> u64 { self.width_cycles } }",
            "impl Display for S { fn fmt(&self, f: &mut Formatter<'_>) -> Result { Ok(()) } }",
            "const K: usize = 4;",
            "static ST: u64 = 0;",
            "type Alias = Vec<u32>;",
            "use std::collections::BTreeMap;",
            "mod m { fn inner() {} }",
            "#[derive(Debug)]\nstruct D { d: u8 }",
            "macro_rules! mk { () => {}; }",
            "trait Tr { fn req(&self) -> u64; }",
        ]),
        0..=12usize,
    )
}

fn parse(src: &str) -> FileFacts {
    let toks = lex(src);
    let regions = test_regions(src, &toks);
    items::parse(src, &toks, &regions)
}

propcheck! {
    /// Byte-exact span cover: every significant token of a well-formed
    /// item soup lies inside exactly one top-level item, and the item
    /// count matches the soup — nothing merged, nothing dropped.
    fn top_level_items_tile_generated_soups(
        frags in soup(),
        sep in one_of(&["\n", "\n\n", "\n \n"]),
    ) {
        let src = frags.join(sep);
        let facts = parse(&src);
        let top: Vec<_> = facts.items.iter().filter(|i| i.depth == 0).collect();
        prop_assert_eq!(top.len(), frags.len(), "one top-level item per fragment");
        for t in lex(&src).iter().filter(|t| t.significant()) {
            let cover = top
                .iter()
                .filter(|i| t.lo >= i.lo && t.lo < i.hi)
                .count();
            prop_assert_eq!(cover, 1, "token `{}` at byte {}", t.text(&src), t.lo);
        }
    }

    /// Nesting is well-formed: every nested item lies inside the span of
    /// some shallower container, and `lo < hi` everywhere.
    fn nested_items_stay_inside_their_parent(frags in soup()) {
        let src = frags.join("\n");
        let facts = parse(&src);
        for item in &facts.items {
            prop_assert!(item.lo < item.hi, "non-empty span for {:?}", item.kind);
            if item.depth > 0 {
                let parent = facts.items.iter().find(|p| {
                    p.depth == item.depth - 1 && p.lo <= item.lo && item.hi <= p.hi
                });
                prop_assert!(
                    parent.is_some(),
                    "nested item {:?} has no enclosing depth-{} container",
                    item.name,
                    item.depth - 1
                );
            }
        }
    }

    /// Recovered structure matches the templates: fn parameters keep
    /// their declared names in order, struct fields keep name and type,
    /// and methods inherit the impl's self type.
    fn recovered_signatures_match_templates(pad in 0usize..4) {
        let prefix = "const PAD: usize = 0;\n".repeat(pad);
        let src = format!(
            "{prefix}pub fn g(x: usize, y_cycles: u64) -> u64 {{ y_cycles }}\n\
             pub struct S {{ pub width_cycles: u64, name: String }}\n\
             impl S {{ fn get(&self) -> u64 {{ self.width_cycles }} }}\n"
        );
        let facts = parse(&src);
        let g = facts.named(ItemKind::Fn, "g").expect("fn g parsed");
        let names: Vec<&str> = g.params.iter().map(|p| p.name.as_str()).collect();
        prop_assert_eq!(names, vec!["x", "y_cycles"]);
        let s = facts.named(ItemKind::Struct, "S").expect("struct S parsed");
        prop_assert_eq!(s.fields.len(), 2usize);
        prop_assert_eq!(s.fields[0].name.as_str(), "width_cycles");
        prop_assert_eq!(s.fields[1].ty.as_str(), "String");
        let get = facts.named(ItemKind::Fn, "get").expect("method parsed");
        prop_assert_eq!(get.self_ty.as_str(), "S");
    }

    /// `#[cfg(test)]` gating flows into every parsed item's `in_test`
    /// flag, and its absence leaves every item live.
    fn in_test_flags_follow_cfg_gating(frags in soup(), gated in any_bool()) {
        let body: String = frags.join("\n");
        let src = if gated {
            format!("#[cfg(test)]\nmod t {{\n{body}\n}}\n")
        } else {
            format!("mod t {{\n{body}\n}}\n")
        };
        let facts = parse(&src);
        for item in facts.items.iter().filter(|i| i.depth > 0) {
            prop_assert_eq!(
                item.in_test,
                gated,
                "item {:?} gating (gated = {})",
                item.name,
                gated
            );
        }
    }
}

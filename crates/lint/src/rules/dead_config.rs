//! `dead-config-knob`: a config field nobody reads is a lie in the
//! experiment matrix.
//!
//! The config structs (`SystemConfig`, `SchemeConfig`, `WriteCacheConfig`)
//! are the sweep surface: every field is a knob the experiment runner may
//! vary, and readers of a results table assume each knob *did something*.
//! A field that is written by the builder, validated, serialized — and
//! then never read by the model — silently produces identical rows for
//! every setting. That is worse than a missing feature: it is a published
//! number with a false caption.
//!
//! Mechanics: for each field of the target structs, count `.field` read
//! accesses across the whole workspace (facts layer). Accesses inside
//! builder impls (`self_ty` containing `Builder`), inside `validate`
//! functions, and inside tests don't count — those surfaces touch every
//! field by construction. Matching is name-based: a same-named field on
//! an unrelated struct counts as a read, which can *hide* a dead knob but
//! never flags a live one.

use super::Rule;
use crate::diag::Diagnostic;
use crate::graph::ItemGraph;
use crate::items::ItemKind;
use crate::workspace::{SourceFile, Workspace};

/// The sweep-surface structs whose fields must all be live.
const TARGETS: &[&str] = &["SystemConfig", "SchemeConfig", "WriteCacheConfig"];

/// See module docs.
pub struct DeadConfigKnob;

/// Is the access at `lo` inside a builder impl or a `validate` fn?
fn in_plumbing(file: &SourceFile, lo: usize) -> bool {
    file.facts.items.iter().any(|it| {
        lo >= it.lo
            && lo < it.hi
            && matches!(it.kind, ItemKind::Fn | ItemKind::Impl)
            && (it.self_ty.contains("Builder")
                || it.name == "validate"
                || it.name.contains("Builder"))
    })
}

impl Rule for DeadConfigKnob {
    fn id(&self) -> &'static str {
        "dead-config-knob"
    }

    fn describe(&self) -> &'static str {
        "config-struct fields must be read somewhere outside their builder/validate plumbing"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let g = ItemGraph::build(ws);
        let mut out = Vec::new();
        for target in TARGETS {
            let Some(decls) = g.structs.get(target) else {
                continue;
            };
            for decl in decls {
                if decl.item.in_test || !decl.file.path.contains("/src/") {
                    continue;
                }
                for field in &decl.item.fields {
                    let read = ws.files.iter().any(|file| {
                        file.facts.field_accesses.iter().any(|a| {
                            a.name == field.name
                                && !a.write
                                && !a.in_test
                                && !in_plumbing(file, a.lo)
                        })
                    });
                    if !read {
                        out.push(decl.file.diag(
                            self.id(),
                            field.lo,
                            field.name.len(),
                            format!(
                                "`{}::{}` is never read outside its builder/validate \
                                 plumbing — a dead config knob publishes identical \
                                 results for every setting; wire it into the model or \
                                 delete it",
                                target, field.name,
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

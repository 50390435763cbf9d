//! `dead-config-knob`: a config field that is set and validated but never
//! read gives the same results for every setting, and rustc never flags an
//! unread `pub` field. Fields come from each target's `struct X { … }`
//! block; a read is `. name` not followed by `(` or an assignment, outside
//! tests and `fn validate` bodies, in any file. Matching is by name, so a
//! same-named field elsewhere can hide a dead knob but never flags a live one.

use super::{Rule, SigView};
use crate::diag::Diagnostic;
use crate::workspace::Workspace;
use std::collections::BTreeSet;

/// The sweep-surface structs whose fields must all be live.
const TARGETS: &[&str] = &["SystemConfig", "SchemeConfig", "WriteCacheConfig"];

/// Index of the bracket closing the one at significant token `open`.
fn block_end(v: &SigView<'_>, open: usize) -> usize {
    let mut depth = 0;
    (open..v.len())
        .find(|&i| {
            depth += match v.text(i) {
                "{" | "(" | "[" => 1,
                "}" | ")" | "]" => -1,
                _ => 0,
            };
            depth == 0
        })
        .unwrap_or(v.len())
}

/// Is `t` an identifier (or keyword) token?
fn ident(t: &str) -> bool {
    t.starts_with(|c: char| c == '_' || c.is_ascii_alphabetic())
}

/// Does the token at `i` start an assignment operator (`=`, `+=`, `<<=`…)?
fn is_assign(v: &SigView<'_>, i: usize) -> bool {
    match (v.text(i), v.text(i + 1), v.text(i + 2)) {
        ("=", b, _) => b != "=" && b != ">",
        ("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^", "=", c) => c != "=",
        (a @ ("<" | ">"), b, "=") => a == b,
        _ => false,
    }
}

/// See module docs.
pub struct DeadConfigKnob;

impl Rule for DeadConfigKnob {
    fn id(&self) -> &'static str {
        "dead-config-knob"
    }

    fn describe(&self) -> &'static str {
        "config-struct fields must be read somewhere outside validate() and tests"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let (mut fields, mut reads) = (Vec::new(), BTreeSet::new());
        for file in &ws.files {
            let v = SigView::new(file);
            let mut skip_to = 0;
            for i in 0..v.len() {
                if v.matches(i, &["fn", "validate"]) {
                    let end = (i..v.len()).find(|&k| matches!(v.text(k), "{" | ";"));
                    if let Some(open) = end.filter(|&k| v.text(k) == "{") {
                        skip_to = block_end(&v, open);
                    }
                }
                let (kw, name) = (v.text(i), v.text(i + 1));
                let decl = kw == "struct" && TARGETS.contains(&name) && v.text(i + 2) == "{";
                if decl && file.path.contains("/src/") && !v.in_test(i) {
                    let (mut k, end) = (i + 3, block_end(&v, i + 2));
                    while k < end {
                        if matches!(v.text(k), "{" | "(" | "[") {
                            k = block_end(&v, k);
                        } else if ident(v.text(k)) && v.text(k + 1) == ":" && v.text(k + 2) != ":" {
                            fields.push((file, name, v.text(k), v.tok(k).lo));
                        }
                        k += 1;
                    }
                }
                let read = i > skip_to && kw == "." && v.text(i - 1) != ".";
                let field = ident(name) && v.text(i + 2) != "(" && !is_assign(&v, i + 2);
                if read && field && !v.in_test(i) {
                    reads.insert(name);
                }
            }
        }
        let dead = fields.into_iter().filter(|f| !reads.contains(f.2));
        dead.map(|(file, target, name, lo)| {
            let msg = format!(
                "`{target}::{name}` is never read outside validate() and tests, so every \
                 setting gives the same results; wire it into the model or delete it"
            );
            file.diag(self.id(), lo, name.len(), msg)
        })
        .collect()
    }
}

//! `no-resurrected-apis`: removed constructors must not quietly come back.
//!
//! `SystemConfig::small_test` and `RunConfig::quick` were preset
//! constructors; configs now start from `paper_baseline()` or `Default`
//! and assign fields. `System::new` was replaced by the validating
//! `System::build`. Each removal was a one-way door: a merge-conflict
//! resolution or an LLM-assisted edit that re-introduces a call (or a
//! fresh definition) re-opens a second way to build the same thing, or the
//! unvalidated path, for every caller that follows. The rule bans the path
//! expressions outright — in tests and examples too, since those are
//! exactly where copy-paste resurrection starts.

use super::{FileRule, SigView};
use crate::diag::Diagnostic;
use crate::workspace::SourceFile;

/// Banned `Type::method` paths and what to use instead.
const BANNED: &[(&str, &str, &str)] = &[
    (
        "System",
        "new",
        "System::build(SystemConfig) — validates before constructing",
    ),
    (
        "SystemConfig",
        "small_test",
        "SystemConfig::paper_baseline() and assign the cache fields",
    ),
    (
        "RunConfig",
        "quick",
        "RunConfig { instructions_per_core: QUICK_INSTRUCTIONS, ..RunConfig::default() }",
    ),
];

/// See module docs.
pub struct NoResurrectedApis;

impl FileRule for NoResurrectedApis {
    fn id(&self) -> &'static str {
        "no-resurrected-apis"
    }

    fn describe(&self) -> &'static str {
        "removed constructors (System::new, SystemConfig::small_test, RunConfig::quick) stay removed"
    }

    fn check_file(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if file.crate_name == "lint" {
            return out; // this file spells the banned names in its tables
        }
        {
            let v = SigView::new(file);
            for i in 0..v.len() {
                for (ty, method, instead) in BANNED {
                    if v.text(i) == *ty && v.matches(i + 1, &[":", ":", method]) {
                        let lo = v.tok(i).lo;
                        let hi = v.tok(i + 3).hi;
                        out.push(file.diag(
                            self.id(),
                            lo,
                            hi - lo,
                            format!("`{ty}::{method}` was removed; use {instead}"),
                        ));
                    }
                }
            }
        }
        out
    }
}

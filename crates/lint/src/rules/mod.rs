//! The rule catalog.
//!
//! Every rule has a stable ID (used in waivers and `--allow`), a one-line
//! description, and a checker producing span-accurate [`Diagnostic`]s.
//! Rules come in two layers:
//!
//! * **File rules** ([`FileRule`]) see one file's token stream at a time.
//!   Their findings depend only on that file's bytes, so the scan runs
//!   them as it lexes, in parallel across files.
//! * **Workspace rules** ([`Rule`] entries in [`workspace_rules`]) read
//!   other files' tokens (or `ci.yml`) too, so they run once after every
//!   file is lexed.
//!
//! All rules are syntactic — they work on tokens, not on types — so each
//! one documents the approximation it makes and errs on the side of
//! flagging (waivers carry the justification when the approximation is
//! wrong). Invariants the compiler can hold are left to it: unit mix-ups
//! are a type error (`pcm_types::Cycles` vs `Ps`), registry enums are
//! generated from one table (`pcm_types::registry!`), and exhaustive
//! `match`es keep telemetry consumers in step with `TelemetryEvent`.

mod ci_parity;
mod dead_config;
mod lossy_casts;
mod panic_policy;
mod resurrected_api;
mod typed_units;
mod unordered_iter;
mod wall_clock;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::workspace::{SourceFile, Workspace};

/// A whole-workspace lint rule (the catalog interface).
pub trait Rule {
    /// Stable identifier (kebab-case; referenced by waivers and docs).
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Scan the workspace and report findings.
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic>;
}

/// A rule whose findings depend on a single file's contents only. Runs in
/// parallel during the scan.
pub trait FileRule: Sync {
    /// Stable identifier (kebab-case; referenced by waivers and docs).
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Scan one lexed file and report findings.
    fn check_file(&self, file: &SourceFile) -> Vec<Diagnostic>;
}

/// Adapter presenting a [`FileRule`] as a whole-workspace [`Rule`].
struct PerFile(Box<dyn FileRule>);

impl Rule for PerFile {
    fn id(&self) -> &'static str {
        self.0.id()
    }

    fn describe(&self) -> &'static str {
        self.0.describe()
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        ws.files.iter().flat_map(|f| self.0.check_file(f)).collect()
    }
}

/// All rule IDs, in catalog order (also the JSON decoder's whitelist).
pub const RULE_IDS: &[&str] = &[
    "no-wall-clock",
    "no-unordered-iteration",
    "typed-units",
    "no-lossy-cycle-casts",
    "panic-policy",
    "no-resurrected-apis",
    "ci-phase-parity",
    "dead-config-knob",
    crate::allowlist::ALLOWLIST_RULE,
];

/// The per-file layer, in catalog order.
pub fn file_rules() -> Vec<Box<dyn FileRule>> {
    vec![
        Box::new(wall_clock::NoWallClock),
        Box::new(unordered_iter::NoUnorderedIteration),
        Box::new(typed_units::TypedUnits),
        Box::new(lossy_casts::NoLossyCycleCasts),
        Box::new(panic_policy::PanicPolicy),
        Box::new(resurrected_api::NoResurrectedApis),
    ]
}

/// The cross-file layer, in catalog order.
pub fn workspace_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(ci_parity::CiPhaseParity),
        Box::new(dead_config::DeadConfigKnob),
    ]
}

/// Instantiate the full catalog, in [`RULE_IDS`] order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> = file_rules()
        .into_iter()
        .map(|r| Box::new(PerFile(r)) as Box<dyn Rule>)
        .collect();
    rules.extend(workspace_rules());
    rules
}

/// A file's significant tokens with convenience accessors; the shared
/// substrate every file rule matches against.
pub struct SigView<'a> {
    /// The file under scan.
    pub file: &'a SourceFile,
    sig: Vec<usize>,
}

impl<'a> SigView<'a> {
    /// Build the significant-token view of `file`.
    pub fn new(file: &'a SourceFile) -> SigView<'a> {
        SigView {
            file,
            sig: file.sig_indices(),
        }
    }

    /// Number of significant tokens.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// The `i`-th significant token.
    pub fn tok(&self, i: usize) -> &Tok {
        &self.file.toks[self.sig[i]]
    }

    /// Its text, or `""` past the end (so rules can look ahead freely).
    pub fn text(&self, i: usize) -> &'a str {
        let file: &'a SourceFile = self.file;
        self.sig
            .get(i)
            .map_or("", |&t| file.toks[t].text(&file.src))
    }

    /// Its kind.
    pub fn kind(&self, i: usize) -> TokKind {
        self.tok(i).kind
    }

    /// Does the significant-token sequence starting at `i` spell out
    /// `pattern` (one entry per token, e.g. `&["Instant", ":", ":", "now"]`)?
    pub fn matches(&self, i: usize, pattern: &[&str]) -> bool {
        pattern
            .iter()
            .enumerate()
            .all(|(k, p)| i + k < self.len() && self.text(i + k) == *p)
    }

    /// True when token `i` starts inside a test-gated region.
    pub fn in_test(&self, i: usize) -> bool {
        self.file.in_test(self.tok(i).lo)
    }
}

/// Walk back from the significant token at `i` (exclusive) over one postfix
/// expression tail and return the index of its "subject" name: for
/// `foo.bar(x, y)` with `i` pointing past `)`, returns the index of `bar`;
/// for `foo` returns `foo`. Used by the cast rule to ask "what expression is
/// being cast?". Returns `None` when the shape is unrecognized.
pub fn postfix_subject(v: &SigView<'_>, i: usize) -> Option<usize> {
    if i == 0 {
        return None;
    }
    let last = i - 1;
    match v.text(last) {
        ")" => {
            // Walk to the matching `(`, then the callee ident before it.
            let mut depth = 0i32;
            let mut j = last;
            loop {
                match v.text(j) {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            (j > 0 && v.kind(j - 1) == TokKind::Ident).then(|| j - 1)
        }
        _ if v.kind(last) == TokKind::Ident || v.kind(last) == TokKind::NumLit => Some(last),
        _ => None,
    }
}

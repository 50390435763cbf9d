//! `ci-phase-parity`: every CLI subcommand wired into `tetris-experiments`
//! must be exercised by the CI workflow.
//!
//! The experiment binary is the repo's acceptance surface — `report`,
//! `sched-ablation` and friends are how regressions are *demonstrated*.
//! A subcommand that CI never runs rots invisibly (flag parsing drifts,
//! output formats break) until someone needs it mid-investigation. The
//! rule finds the binary's `Some("…") =>` dispatch arms in its token
//! stream and requires each subcommand name to appear as a
//! whitespace-delimited word in `.github/workflows/ci.yml`.

use super::{Rule, SigView};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::workspace::Workspace;

const BIN_FILE: &str = "crates/experiments/src/bin/tetris-experiments.rs";

/// Extract `(subcommand, byte-offset)` pairs from `Some("name") =>` arms.
pub fn subcommands(ws: &Workspace) -> Vec<(String, usize)> {
    let Some(file) = ws.file(BIN_FILE) else {
        return Vec::new();
    };
    let v = SigView::new(file);
    (0..v.len())
        .filter(|&i| {
            v.matches(i, &["Some", "("])
                && v.matches(i + 3, &[")", "=", ">"])
                && v.kind(i + 2) == TokKind::StrLit
        })
        .map(|i| (v.text(i + 2).trim_matches('"').to_string(), v.tok(i + 2).lo))
        .filter(|(name, _)| !name.is_empty())
        .collect()
}

/// See module docs.
pub struct CiPhaseParity;

impl Rule for CiPhaseParity {
    fn id(&self) -> &'static str {
        "ci-phase-parity"
    }

    fn describe(&self) -> &'static str {
        "every tetris-experiments subcommand must be exercised in ci.yml"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let cmds = subcommands(ws);
        if cmds.is_empty() {
            return Vec::new();
        }
        let Some(ci) = &ws.ci_yml else {
            return Vec::new();
        };
        let Some(file) = ws.file(BIN_FILE) else {
            return Vec::new();
        };
        // Word-exact matching so `--trace` / `sched-traces` don't satisfy
        // the `trace` subcommand.
        let words: std::collections::BTreeSet<&str> = ci.split_whitespace().collect();
        let mut out = Vec::new();
        for (name, lo) in cmds {
            if !words.contains(name.as_str()) {
                out.push(file.diag(
                    self.id(),
                    lo,
                    name.len() + 2,
                    format!(
                        "subcommand `{name}` is wired in tetris-experiments but never run \
                         in .github/workflows/ci.yml — add a smoke step so it cannot rot"
                    ),
                ));
            }
        }
        out
    }
}

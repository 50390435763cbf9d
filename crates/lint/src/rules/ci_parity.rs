//! `ci-phase-parity`: every CLI subcommand wired into `tetris-experiments`
//! must be exercised by the CI workflow.
//!
//! The experiment binary is the repo's acceptance surface — `report`,
//! `sched-ablation` and friends are how regressions are *demonstrated*.
//! A subcommand that CI never runs rots invisibly (flag parsing drifts,
//! output formats break) until someone needs it mid-investigation. The
//! rule reads the `Some("…") =>` dispatch arms the item parser records in
//! [`crate::items::FileFacts::subcommand_arms`] and requires each
//! subcommand name to appear as a whitespace-delimited word in
//! `.github/workflows/ci.yml`.

use super::Rule;
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

const BIN_FILE: &str = "crates/experiments/src/bin/tetris-experiments.rs";

/// Extract `(subcommand, byte-offset)` pairs from `Some("name") =>` arms.
pub fn subcommands(ws: &Workspace) -> Vec<(String, usize)> {
    let Some(file) = ws.file(BIN_FILE) else {
        return Vec::new();
    };
    file.facts
        .subcommand_arms
        .iter()
        .filter(|arm| !arm.text.is_empty())
        .map(|arm| (arm.text.clone(), arm.lo))
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

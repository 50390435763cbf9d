//! `pcm-lint` — zero-dependency static analysis for the Tetris-Write
//! workspace.
//!
//! The simulator's headline guarantees (bit-for-bit Eq. 5 service times,
//! 1-rank sharded ≡ unsharded, thread-count-independent results) rest on
//! source-level invariants that neither a test nor the compiler checks:
//! no wall-clock in sim logic, no unordered-container iteration on
//! deterministic paths, timing constants only via `pcm_types` newtypes,
//! no dead config knobs. This crate checks them over the token stream of
//! a comment/string-aware Rust lexer ([`lexer`]): per-file and
//! workspace-wide rules ([`rules`]) produce span-accurate diagnostics
//! ([`diag`]), filtered through a justification-carrying waiver file
//! ([`allowlist`]). What rustc can hold (ns vs cycles, registry enums,
//! telemetry matches) it leaves to rustc.
//!
//! Scanning is parallel (the `pcm_types::pool` work-stealing pool):
//! every file is lexed and checked by the per-file rules on a worker, then
//! the workspace rules run once over all the token streams. Each run scans
//! every file from source; the result does not depend on the thread count
//! (`tests/golden.rs` pins that).
//!
//! Run it as `cargo run -p pcm-lint -- --workspace`; the `static-analysis`
//! CI job gates on a clean run. See `DESIGN.md` §10 for the rule catalog
//! and waiver policy.

pub mod allowlist;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use diag::Diagnostic;
use std::path::{Path, PathBuf};
use workspace::{SourceFile, Workspace};

/// Name of the waiver file at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// Outcome of a full workspace scan.
pub struct LintReport {
    /// Findings that fail the gate (allowlist problems included).
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a justified waiver (informational).
    pub waived: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Knobs for [`run_with`]. `Default` is all rules, one thread per
/// available core.
#[derive(Default)]
pub struct RunOptions {
    /// Rule ids to suppress entirely (the CLI's `--allow`).
    pub allow: Vec<String>,
    /// Worker threads for the lex/scan phase; `0` means one per core.
    pub threads: usize,
}

/// In-memory result of the scan phase (lex + per-file rules + workspace
/// rules), before waivers.
pub struct ScanOutcome {
    /// All raw findings, unsorted and unwaived.
    pub diags: Vec<Diagnostic>,
    /// Files scanned in total.
    pub files: usize,
}

/// Scan in-memory sources: lex them in parallel on `threads` workers
/// (0 = one per core) running the per-file rules, then run the workspace
/// rules on everything.
pub fn scan(sources: &[(String, String)], ci_yml: Option<String>, threads: usize) -> ScanOutcome {
    let threads = if threads == 0 {
        pcm_types::pool::default_threads()
    } else {
        threads
    };
    let frules = rules::file_rules();
    let scanned: Vec<(SourceFile, Vec<Diagnostic>)> =
        pcm_types::pool::parallel_map(sources, threads, |(rel, src)| {
            let file = SourceFile::new(rel, src.clone());
            let diags = frules.iter().flat_map(|r| r.check_file(&file)).collect();
            (file, diags)
        });
    let (files, per_file): (Vec<_>, Vec<Vec<Diagnostic>>) = scanned.into_iter().unzip();
    let mut diags: Vec<Diagnostic> = per_file.into_iter().flatten().collect();
    let ws = Workspace {
        root: PathBuf::new(),
        files,
        ci_yml,
    };
    for rule in rules::workspace_rules() {
        diags.extend(rule.check(&ws));
    }
    ScanOutcome {
        diags,
        files: ws.files.len(),
    }
}

/// Lint the workspace rooted at `root` with explicit options.
pub fn run_with(root: &Path, opts: &RunOptions) -> std::io::Result<LintReport> {
    let mut sources = Vec::new();
    for (rel, abs) in workspace::source_paths(root)? {
        sources.push((rel, std::fs::read_to_string(&abs)?));
    }
    let ci_yml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).ok();
    let outcome = scan(&sources, ci_yml, opts.threads);
    let mut diags = outcome.diags;
    diags.retain(|d| !opts.allow.iter().any(|a| a == d.rule));
    let allowlist_text = std::fs::read_to_string(root.join(ALLOWLIST_FILE)).unwrap_or_default();
    let al = allowlist::Allowlist::parse(ALLOWLIST_FILE, &allowlist_text);
    let (mut findings, waived) = al.apply(diags);
    findings.extend(al.problems);
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(LintReport {
        findings,
        waived,
        files_scanned: outcome.files,
    })
}

/// Lint the workspace rooted at `root` with every rule on. `allow`
/// suppresses whole rules by id.
pub fn run(root: &Path, allow: &[String]) -> std::io::Result<LintReport> {
    run_with(
        root,
        &RunOptions {
            allow: allow.to_vec(),
            ..RunOptions::default()
        },
    )
}

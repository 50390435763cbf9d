//! `pcm-lint` — zero-dependency static analysis for the Tetris-Write
//! workspace.
//!
//! The simulator's headline guarantees (bit-for-bit Eq. 5 service times,
//! 1-rank sharded ≡ unsharded, thread-count-independent results) rest on
//! source-level invariants no test asserts: no wall-clock in sim logic, no
//! unordered-container iteration on deterministic paths, timing constants
//! only via `pcm_types` newtypes, ns/cycles kept apart across call
//! boundaries. This crate machine-checks them in two layers: a
//! comment/string-aware Rust lexer ([`lexer`]) feeds a recursive-descent
//! item parser ([`items`]) whose per-file facts power both per-file rules
//! and workspace-wide graph rules ([`rules`], [`graph`]) producing
//! span-accurate diagnostics ([`diag`]), filtered through a
//! justification-carrying waiver file ([`allowlist`]).
//!
//! Scanning is parallel (the `pcm_types::pool` work-stealing
//! pool) and incremental: each file's parsed facts and per-file findings
//! are cached by content fingerprint in `target/lint-cache.json`
//! ([`cache`]), so a warm re-run re-parses only changed files. Graph
//! rules run on every scan — their findings depend on *other* files,
//! which a per-file cache cannot key — but they consume only facts,
//! never tokens, so cache-restored files are full participants. Warm and
//! cold scans produce byte-identical reports by construction (the cache
//! stores exactly what the scan would recompute); `tests/cache.rs` pins
//! that equivalence.
//!
//! Run it as `cargo run -p pcm-lint -- --workspace`; the `static-analysis`
//! CI job gates on a clean cold run *and* a fully-cached warm run. See
//! `DESIGN.md` §10 and §15 for the rule catalog, waiver policy, item-graph
//! design and cache-invalidation policy.

pub mod allowlist;
pub mod cache;
pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod units;
pub mod workspace;

use diag::Diagnostic;
use std::path::{Path, PathBuf};
use workspace::{SourceFile, Workspace};

/// Name of the waiver file at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// Default location of the warm-scan cache, relative to the root.
pub const CACHE_FILE: &str = "target/lint-cache.json";

/// Outcome of a full workspace scan.
pub struct LintReport {
    /// Findings that fail the gate (allowlist problems included).
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a justified waiver (informational).
    pub waived: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Files restored from the warm cache (fingerprint hit).
    pub cache_hits: usize,
    /// Files lexed + parsed this run (fingerprint miss or cache off).
    pub cache_misses: usize,
}

/// Knobs for [`run_with`]. `Default` is the library/test configuration:
/// no cache (hermetic), all rules, one thread per available core.
#[derive(Default)]
pub struct RunOptions {
    /// Rule ids to suppress entirely (the CLI's `--allow`).
    pub allow: Vec<String>,
    /// Load/store `target/lint-cache.json` (the CLI default; off for
    /// library callers so tests stay hermetic).
    pub use_cache: bool,
    /// Override the cache location (defaults to [`CACHE_FILE`] under the
    /// root).
    pub cache_path: Option<PathBuf>,
    /// Worker threads for the parse/scan phase; `0` means one per core.
    pub threads: usize,
}

/// In-memory result of the scan phase (parse + per-file rules + graph
/// rules), before waivers. This is the unit the benches time: hand it a
/// warm [`cache::Cache`] and it skips every unchanged file's lex/parse.
pub struct ScanOutcome {
    /// All raw findings, unsorted and unwaived.
    pub diags: Vec<Diagnostic>,
    /// The refreshed cache (an entry for every scanned file).
    pub cache: cache::Cache,
    /// Files restored from `old` without re-parsing.
    pub hits: usize,
    /// Files parsed from source.
    pub misses: usize,
    /// Files scanned in total.
    pub files: usize,
}

/// Scan in-memory sources: restore unchanged files from `old`, lex/parse
/// the rest in parallel on `threads` workers (0 = one per core), run the
/// per-file rules on parsed files and the graph rules on everything.
pub fn scan(
    sources: &[(String, String)],
    ci_yml: Option<String>,
    old: &cache::Cache,
    threads: usize,
) -> ScanOutcome {
    let threads = if threads == 0 {
        pcm_types::pool::default_threads()
    } else {
        threads
    };
    let frules = rules::file_rules();
    let scanned: Vec<(SourceFile, Vec<Diagnostic>, u64, bool)> =
        pcm_types::pool::parallel_map(sources, threads, |(rel, src)| {
            let fp = cache::fingerprint(src);
            match old.lookup(rel, fp) {
                Some(entry) => (
                    SourceFile::restored(rel, src.clone(), entry.facts.clone()),
                    entry.diags.clone(),
                    fp,
                    true,
                ),
                None => {
                    let file = SourceFile::new(rel, src.clone());
                    let diags = frules.iter().flat_map(|r| r.check_file(&file)).collect();
                    (file, diags, fp, false)
                }
            }
        });
    let mut files = Vec::with_capacity(scanned.len());
    let mut diags = Vec::new();
    let mut fresh = cache::Cache::empty();
    let (mut hits, mut misses) = (0usize, 0usize);
    for (file, file_diags, fp, hit) in scanned {
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
        fresh.insert(
            file.path.clone(),
            cache::CacheEntry {
                fp,
                facts: file.facts.clone(),
                diags: file_diags.clone(),
            },
        );
        diags.extend(file_diags);
        files.push(file);
    }
    let ws = Workspace {
        root: PathBuf::new(),
        files,
        ci_yml,
    };
    for rule in rules::graph_rules() {
        diags.extend(rule.check(&ws));
    }
    ScanOutcome {
        diags,
        cache: fresh,
        hits,
        misses,
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
    let cache_file = opts
        .cache_path
        .clone()
        .unwrap_or_else(|| root.join(CACHE_FILE));
    let old = if opts.use_cache {
        cache::Cache::load(&cache_file)
    } else {
        cache::Cache::empty()
    };
    let outcome = scan(&sources, ci_yml, &old, opts.threads);
    if opts.use_cache {
        // Best-effort: a read-only checkout still lints fine, just cold.
        let _ = outcome.cache.save(&cache_file);
    }
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
        cache_hits: outcome.hits,
        cache_misses: outcome.misses,
    })
}

/// Lint the workspace rooted at `root` hermetically (no cache). `allow`
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

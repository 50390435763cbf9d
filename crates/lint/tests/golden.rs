//! Golden-fixture tests: each rule runs against a small source file with
//! known violations (and known non-violations), and the diagnostics must
//! land on exact `(line, col)` positions. The fixtures live under
//! `tests/fixtures/`, which the workspace loader deliberately skips, so
//! the lint's own test material never gates the real tree.

use pcm_lint::diag::{to_json_report, Diagnostic};
use pcm_lint::rules::{all_rules, Rule};
use pcm_lint::workspace::{SourceFile, Workspace};
use pcm_types::{Json, JsonCodec};
use std::path::PathBuf;

/// Build a synthetic workspace from `(repo-relative path, source)` pairs.
fn ws(files: &[(&str, &str)], ci_yml: Option<&str>) -> Workspace {
    Workspace {
        root: PathBuf::from("."),
        files: files
            .iter()
            .map(|(p, s)| SourceFile::new(p, (*s).to_string()))
            .collect(),
        ci_yml: ci_yml.map(str::to_string),
    }
}

fn rule(id: &str) -> Box<dyn Rule> {
    all_rules()
        .into_iter()
        .find(|r| r.id() == id)
        .unwrap_or_else(|| panic!("unknown rule {id}"))
}

/// Run one rule and return sorted `(line, col)` positions of its findings.
fn locs(id: &str, ws: &Workspace) -> Vec<(u32, u32)> {
    let diags = rule(id).check(ws);
    for d in &diags {
        assert_eq!(d.rule, id);
        assert!(!d.snippet.is_empty(), "snippet attached: {d:?}");
    }
    let mut out: Vec<(u32, u32)> = diags.iter().map(|d| (d.line, d.col)).collect();
    out.sort_unstable();
    out
}

#[test]
fn wall_clock_fixture() {
    let src = include_str!("fixtures/wall_clock.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    // `Instant` in the import and in `timed()`; `SystemTime` under
    // `#[cfg(test)]` is exempt.
    assert_eq!(locs("no-wall-clock", &w), vec![(1, 16), (4, 13)]);
}

#[test]
fn unordered_iter_fixture() {
    let src = include_str!("fixtures/unordered_iter.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    // The `for … in &self.counters` header and `.values()` call; `.get()`
    // probes and test-module iteration are exempt.
    assert_eq!(locs("no-unordered-iteration", &w), vec![(10, 30), (17, 14)]);
}

#[test]
fn unordered_iter_ignores_non_deterministic_crates() {
    let src = include_str!("fixtures/unordered_iter.rs");
    let w = ws(&[("crates/experiments/src/fixture.rs", src)], None);
    assert_eq!(locs("no-unordered-iteration", &w), vec![]);
}

#[test]
fn typed_units_fixture() {
    let src = include_str!("fixtures/typed_units.rs");
    let w = ws(&[("crates/schemes/src/fixture.rs", src)], None);
    // `430` and `53` in live code; the test module's literals are exempt.
    assert_eq!(locs("typed-units", &w), vec![(2, 17), (3, 19)]);
}

#[test]
fn typed_units_allows_pcm_types_itself() {
    let src = include_str!("fixtures/typed_units.rs");
    let w = ws(&[("crates/pcm-types/src/fixture.rs", src)], None);
    assert_eq!(locs("typed-units", &w), vec![]);
}

#[test]
fn lossy_casts_fixture() {
    let src = include_str!("fixtures/lossy_casts.rs");
    let w = ws(&[("crates/core/src/fixture.rs", src)], None);
    // `busy as u32`, `t_ps as usize`, `self.as_ps() as u32`; the
    // non-time-valued `width as u32` is exempt.
    assert_eq!(
        locs("no-lossy-cycle-casts", &w),
        vec![(3, 11), (7, 10), (18, 22)]
    );
}

#[test]
fn panic_policy_fixture() {
    let src = include_str!("fixtures/panic_policy.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    // `.unwrap()` and `.expect("…")`; the parser-style `expect(b'[')`
    // (non-string argument) and the test module are exempt.
    assert_eq!(locs("panic-policy", &w), vec![(2, 22), (3, 21)]);
}

#[test]
fn resurrected_api_fixture() {
    let src = include_str!("fixtures/resurrected_api.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    assert_eq!(
        locs("no-resurrected-apis", &w),
        vec![(2, 16), (2, 28), (3, 15)]
    );
}

#[test]
fn ci_parity_fixture() {
    let src = include_str!("fixtures/ci_parity.rs");
    let ci = "jobs:\n  smoke:\n    run: cargo run -p tetris-experiments -- run --quick\n";
    let w = ws(
        &[("crates/experiments/src/bin/tetris-experiments.rs", src)],
        Some(ci),
    );
    // `run` appears as a word in ci.yml; `orphan` does not.
    let diags = rule("ci-phase-parity").check(&w);
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].line, diags[0].col), (5, 14));
    assert!(diags[0].msg.contains("`orphan`"));
}

#[test]
fn dead_config_fixture() {
    let src = include_str!("fixtures/dead_config.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    let diags = rule("dead-config-knob").check(&w);
    // `orphan_knob` is only touched by validate();
    // `capacity_lines` is read by model_step and stays clean.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].line, diags[0].col), (5, 9));
    assert!(diags[0].msg.contains("`WriteCacheConfig::orphan_knob`"));
}

#[test]
fn dead_config_sees_reads_in_other_files() {
    let src = include_str!("fixtures/dead_config.rs");
    let reader = "pub fn drain(cfg: &WriteCacheConfig) -> u64 { cfg.orphan_knob }\n";
    let w = ws(
        &[
            ("crates/memsim/src/fixture.rs", src),
            ("crates/core/src/reader.rs", reader),
        ],
        None,
    );
    assert_eq!(locs("dead-config-knob", &w), vec![]);
}

#[test]
fn render_golden() {
    let src = include_str!("fixtures/typed_units.rs");
    let w = ws(&[("crates/schemes/src/fixture.rs", src)], None);
    let diags = rule("typed-units").check(&w);
    let r = diags[0].render();
    let mut lines = r.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("crates/schemes/src/fixture.rs:2:17: [typed-units]"));
    assert_eq!(lines.next().unwrap(), "    2 |     let t_set = 430;");
    assert_eq!(lines.next().unwrap(), "      |                 ^^^");
}

#[test]
fn json_report_round_trips_fixture_findings() {
    let src = include_str!("fixtures/panic_policy.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    let diags = rule("panic-policy").check(&w);
    let report = to_json_report(&diags);
    let v = Json::parse(&report).expect("valid JSON");
    assert_eq!(
        v.get("count").and_then(Json::as_u64),
        Some(diags.len() as u64)
    );
    let Some(Json::Arr(arr)) = v.get("findings") else {
        panic!("findings array missing");
    };
    for (j, d) in arr.iter().zip(&diags) {
        assert_eq!(&Diagnostic::from_json(j).expect("decodes"), d);
    }
}

/// The dead-config-knob rule's clean pass on the real tree is only
/// meaningful if it finds the real config structs. Rename a field of each
/// target in an in-memory copy and the rename must surface as a finding.
#[test]
fn real_tree_feeds_dead_config_knob() {
    let root = pcm_lint::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let mut w = pcm_lint::workspace::load(&root).expect("load workspace");
    assert_eq!(locs("dead-config-knob", &w), vec![]);
    let edits = [
        (
            "crates/memsim/src/config.rs",
            "    pub cores: usize,",
            "cores",
        ),
        (
            "crates/memsim/src/config.rs",
            "    pub frames: usize,",
            "frames",
        ),
        (
            "crates/schemes/src/traits.rs",
            "    pub select: crate::preset::SchemeSelect,",
            "select",
        ),
    ];
    for (path, line, field) in edits {
        let file = w.files.iter_mut().find(|f| f.path == path).expect(path);
        assert!(file.src.contains(line), "{path} declares `{line}`");
        let src = file
            .src
            .replacen(line, &line.replace(field, "never_read_knob"), 1);
        *file = SourceFile::new(path, src);
    }
    let diags = rule("dead-config-knob").check(&w);
    assert_eq!(diags.len(), 3, "{diags:?}");
    for (d, target) in diags
        .iter()
        .zip(["WriteCacheConfig", "SystemConfig", "SchemeConfig"])
    {
        assert!(
            d.msg.contains(&format!("`{target}::never_read_knob`")),
            "{}",
            d.msg
        );
    }
}

/// The real tree must lint clean with the real allowlist — the same gate
/// the `static-analysis` CI job enforces, kept honest under `cargo test`.
#[test]
fn workspace_is_clean() {
    let root = pcm_lint::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = pcm_lint::run(&root, &[]).expect("lint runs");
    let rendered: Vec<String> = report.findings.iter().map(Diagnostic::render).collect();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 100, "whole tree scanned");
}

/// The parallel scan is the only thing that could make two runs over the
/// same tree differ: one worker and four must report the same findings
/// and waivers, in the same order, field for field.
#[test]
fn report_does_not_depend_on_thread_count() {
    let root = pcm_lint::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let run = |threads| {
        let opts = pcm_lint::RunOptions {
            allow: Vec::new(),
            threads,
        };
        pcm_lint::run_with(&root, &opts).expect("lint runs")
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.findings, four.findings);
    assert_eq!(one.waived, four.waived);
    assert_eq!(one.files_scanned, four.files_scanned);
}

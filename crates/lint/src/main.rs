//! The `pcm-lint` binary.
//!
//! ```text
//! cargo run -p pcm-lint -- --workspace [--json] [--json-out FILE]
//!                          [--allow <rule>]... [--root DIR] [--list-rules]
//!                          [--threads N]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use pcm_lint::diag::to_json_report;
use pcm_lint::{rules, run_with, workspace, RunOptions};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: pcm-lint --workspace [--json] [--json-out FILE] [--allow RULE]... \
         [--root DIR] [--list-rules] [--threads N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_stdout = false;
    let mut json_out: Option<PathBuf> = None;
    let mut allow: Vec<String> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut workspace_flag = false;
    let mut threads = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => workspace_flag = true,
            "--json" => json_stdout = true,
            "--list-rules" => list_rules = true,
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--json-out" => {
                i += 1;
                json_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--allow" => {
                i += 1;
                let r = args.get(i).unwrap_or_else(|| usage()).clone();
                if !rules::RULE_IDS.contains(&r.as_str()) {
                    eprintln!("unknown rule `{r}`; see --list-rules");
                    std::process::exit(2);
                }
                allow.push(r);
            }
            "--root" => {
                i += 1;
                root = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
        i += 1;
    }
    if list_rules {
        for rule in rules::all_rules() {
            println!("{:<24} {}", rule.id(), rule.describe());
        }
        return;
    }
    if !workspace_flag {
        usage();
    }
    let root = root
        .or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| workspace::find_root(&d))
        })
        .unwrap_or_else(|| {
            eprintln!("cannot locate the workspace root (no Cargo.toml with [workspace])");
            std::process::exit(2);
        });
    let report = run_with(&root, &RunOptions { allow, threads }).unwrap_or_else(|e| {
        eprintln!("pcm-lint: {e}");
        std::process::exit(2);
    });
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, to_json_report(&report.findings)) {
            eprintln!("pcm-lint: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if json_stdout {
        println!("{}", to_json_report(&report.findings));
    } else {
        for d in &report.findings {
            println!("{}\n", d.render());
        }
        eprintln!(
            "pcm-lint: {} file(s) scanned, {} finding(s), {} waived",
            report.files_scanned,
            report.findings.len(),
            report.waived.len()
        );
    }
    if !report.findings.is_empty() {
        std::process::exit(1);
    }
}

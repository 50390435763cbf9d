//! `tetris-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! tetris-experiments [TARGETS...] [--quick] [--instructions N] [--ranks R] [--json FILE]
//!                    [--csv DIR] [--trace OUT.jsonl] [--trace-level coarse|fine]
//!
//! TARGETS: all (default) | fig1 | fig3 | fig4 | table1 | table2 | table3 |
//!          fig10 | fig11 | fig12 | fig13 | fig14 | energy | ablation
//!
//! tetris-experiments run --scheme TAG [--workload W] [--quick] [--instructions N]
//!                    [--ranks R] [--write-cache FRAMES] [--policy lru|clock|2q]
//!                    [--trace OUT.jsonl] [--trace-level coarse|fine] [--json FILE]
//! tetris-experiments run --list-schemes
//! tetris-experiments trace WORKLOAD OUT.jsonl [--instructions N]
//! tetris-experiments replay TRACE.jsonl SCHEME
//! tetris-experiments report TRACE.jsonl [--csv DIR]
//! tetris-experiments sched-ablation [--quick] [--workload W] [--instructions N]
//!                    [--ranks R] [--trace-dir DIR] [--csv DIR] [--assert]
//! tetris-experiments cache-sweep [--quick] [--workload W]... [--frames LIST]
//!                    [--policy TAG]... [--instructions N] [--trace-dir DIR] [--csv DIR]
//! ```
//!
//! `run` simulates one (workload, scheme) cell and prints a one-line
//! summary — the CI `scheme-matrix` job runs every registered scheme tag
//! through it (`--list-schemes` prints the tags, one per line).
//! `--trace` records a telemetry trace of one run (vips × Tetris, the
//! paper's write-heaviest pairing) to a JSONL file; `report` renders such
//! a file into per-bank utilization and queue-depth percentile tables.
//! `run --write-cache FRAMES --policy TAG` puts the DRAM write-cache tier
//! in front of the controller; `cache-sweep` tables the tier's hit rate,
//! coalesce ratio and drain behaviour per (frame budget × policy ×
//! workload) cell, recording one trace per cell (the CI `cache-sweep`
//! job runs the quick matrix).
//! `sched-ablation` runs the same workload under the fixed and the
//! adaptive controller scheduling policy and prints the delta table;
//! `--assert` exits nonzero if the adaptive policy regresses (the CI
//! `sched-regression` job runs exactly this).

use pcm_memsim::SystemConfig;
/// Print to stdout, exiting quietly if the consumer closed the pipe
/// (`tetris-experiments fig3 | head` must not panic).
fn out(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{text}").is_err() {
        std::process::exit(0);
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

use pcm_schemes::SchemeConfig;
use pcm_types::{LineDemand, PowerParams, UnitDemand};
use pcm_workloads::ALL_PROFILES;
use tetris_experiments::figures::{self, MatrixView};
use tetris_experiments::report::Table;
use tetris_experiments::{ablation, run_matrix, RunConfig, SchemeSelect};
use tetris_write::{analyze, render_gantt, TetrisConfig};

fn print_fig4_gantt() {
    // The paper's worked example: budget 32 per chip, write-1 loads
    // 8,7,7,6,6,6,5,3 and write-0 loads 0,1,1,2,3,2,2,5.
    let mut cfg = TetrisConfig::paper_baseline();
    cfg.scheme.power = PowerParams {
        l_ratio: 2,
        budget_per_bank: 32,
        chips_per_bank: 4,
    };
    let demand = LineDemand::from_units(&[
        UnitDemand::new(8, 0),
        UnitDemand::new(7, 1),
        UnitDemand::new(7, 1),
        UnitDemand::new(6, 2),
        UnitDemand::new(6, 3),
        UnitDemand::new(6, 2),
        UnitDemand::new(5, 2),
        UnitDemand::new(3, 5),
    ]);
    let a = analyze(&demand, &cfg).expect("fig4 demand packs");
    outln!("== Fig. 4 — chip-level schedule of the paper's worked example ==");
    outln!("{}", render_gantt(&a, 8));
}

/// Print a table and, when `--csv DIR` was given, also write it as CSV.
fn emit(t: &Table, csv_dir: &Option<String>) {
    outln!("{t}");
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = format!("{dir}/{}.csv", t.slug());
        std::fs::write(&path, t.to_csv()).expect("write csv");
    }
}

/// `trace WORKLOAD OUT.jsonl`: record a synthetic trace to disk.
fn cmd_trace(workload: &str, out: &str, instructions: u64) {
    use pcm_memsim::VecTrace;
    use pcm_workloads::generator::{GeneratorConfig, SyntheticParsec};
    use pcm_workloads::trace::write_trace;
    let p = pcm_workloads::WorkloadProfile::by_name(workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload}");
        std::process::exit(1);
    });
    let cfg = GeneratorConfig {
        instructions_per_core: instructions,
        ..Default::default()
    };
    let mut gen = SyntheticParsec::new(p, cfg);
    let trace = VecTrace::capture(&mut gen, cfg.cores);
    let mut file = std::io::BufWriter::new(std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    }));
    write_trace(&mut file, trace.ops()).expect("write trace");
    let ops: usize = trace.ops().iter().map(Vec::len).sum();
    eprintln!("wrote {ops} ops for {} cores to {out}", trace.ops().len());
}

/// Canonical scheme tags, slash-joined for error hints — derived from the
/// registry so a newly registered scheme shows up here for free.
fn scheme_tag_hint() -> String {
    pcm_schemes::SchemeSelect::ALL
        .iter()
        .map(|s| s.tag())
        .collect::<Vec<_>>()
        .join("/")
}

/// `run --scheme TAG`: simulate one (workload, scheme) cell and print a
/// one-line summary. This is the CI scheme-matrix entry point: one
/// invocation per registered tag, optionally recording a telemetry trace
/// for `report` to render.
fn cmd_run(args: &[String]) {
    let mut scheme: Option<String> = None;
    let mut workload = "vips".to_string();
    let mut quick = false;
    let mut instructions: Option<u64> = None;
    let mut ranks: Option<u32> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_level = pcm_telemetry::TraceDetail::Fine;
    let mut json_path: Option<String> = None;
    let mut write_cache: Option<usize> = None;
    let mut policy = pcm_memsim::PolicySelect::Lru;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--list-schemes" => {
                for s in pcm_schemes::SchemeSelect::ALL {
                    outln!("{}", s.tag());
                }
                return;
            }
            "--quick" => quick = true,
            "--scheme" => {
                i += 1;
                scheme = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--scheme needs a tag"))
                        .clone(),
                );
            }
            "--workload" => {
                i += 1;
                workload = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--workload needs a name"))
                    .clone();
            }
            "--instructions" => {
                i += 1;
                instructions = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--instructions needs a number")),
                );
            }
            "--ranks" => {
                i += 1;
                ranks = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|r: &u32| r.is_power_of_two())
                        .unwrap_or_else(|| usage_error("--ranks needs a power-of-two number")),
                );
            }
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--trace needs a path"))
                        .clone(),
                );
            }
            "--trace-level" => {
                i += 1;
                trace_level = args
                    .get(i)
                    .and_then(|v| pcm_telemetry::TraceDetail::parse(v))
                    .unwrap_or_else(|| usage_error("--trace-level needs 'coarse' or 'fine'"));
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--json needs a path"))
                        .clone(),
                );
            }
            "--write-cache" => {
                i += 1;
                write_cache = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--write-cache needs a frame count")),
                );
            }
            "--policy" => {
                i += 1;
                policy = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--policy needs lru, clock or 2q"));
            }
            other => usage_error(&format!("unknown run flag '{other}'")),
        }
        i += 1;
    }
    let scheme =
        scheme.unwrap_or_else(|| usage_error("run needs --scheme TAG (or --list-schemes)"));
    let kind = scheme.parse::<SchemeSelect>().ok().unwrap_or_else(|| {
        eprintln!("unknown scheme {scheme}; try {}", scheme_tag_hint());
        std::process::exit(1);
    });
    let profile = pcm_workloads::WorkloadProfile::by_name(&workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload}");
        std::process::exit(1);
    });
    let mut cfg = run_config(quick, instructions, ranks);
    if let Some(frames) = write_cache {
        cfg.system.write_cache = if frames == 0 {
            pcm_memsim::WriteCacheConfig::disabled()
        } else {
            pcm_memsim::WriteCacheConfig::with_frames(frames, policy)
        };
        cfg.system
            .validate()
            .unwrap_or_else(|e| usage_error(&e.to_string()));
    }
    eprintln!(
        "run: {} × {}, {} instructions/core, {} rank(s)…",
        profile.name,
        kind.name(),
        cfg.instructions_per_core,
        cfg.system.mem.org.ranks
    );
    if cfg.system.write_cache.enabled() {
        eprintln!(
            "write cache: {} frames, {} policy, drain watermark {}",
            cfg.system.write_cache.frames,
            cfg.system.write_cache.policy,
            cfg.system.write_cache.drain_watermark
        );
    }
    let r = if let Some(out) = &trace_path {
        let (r, written) = tetris_experiments::run_one_to_file(
            profile,
            kind,
            &cfg,
            std::path::Path::new(out),
            trace_level,
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot trace to {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("{written} telemetry events → {out}");
        r
    } else {
        tetris_experiments::run_one(profile, kind, &cfg)
    };
    outln!(
        "{} × {}: runtime {:.1} µs, IPC {:.3}, read {:.1} ns, write {:.1} ns, {} reads / {} writes, {} sets / {} resets",
        profile.name,
        kind.name(),
        r.runtime.as_ns_f64() / 1000.0,
        r.ipc(),
        r.read_latency.mean_ns(),
        r.write_latency.mean_ns(),
        r.mem_reads,
        r.mem_writes,
        r.cell_sets,
        r.cell_resets
    );
    if let Some(path) = &json_path {
        let json = tetris_experiments::report::results_to_json(std::slice::from_ref(&r));
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
}

/// `cache-sweep`: table the DRAM write-cache tier per (frame budget ×
/// replacement policy × workload) cell — the CI `cache-sweep` job runs
/// the quick 3-policy × 2-workload matrix through this.
fn cmd_cache_sweep(args: &[String]) {
    use pcm_memsim::PolicySelect;
    let mut quick = false;
    let mut instructions: Option<u64> = None;
    let mut workloads: Vec<String> = Vec::new();
    let mut frames: Vec<usize> = Vec::new();
    let mut policies: Vec<PolicySelect> = Vec::new();
    let mut trace_dir = "target/cache-sweep".to_string();
    let mut csv_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--instructions" => {
                i += 1;
                instructions = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--instructions needs a number")),
                );
            }
            "--workload" => {
                i += 1;
                workloads.push(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--workload needs a name"))
                        .clone(),
                );
            }
            "--frames" => {
                i += 1;
                let list = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--frames needs a comma-separated list"));
                for part in list.split(',') {
                    frames.push(
                        part.trim()
                            .parse()
                            .unwrap_or_else(|_| usage_error("--frames entries must be numbers")),
                    );
                }
            }
            "--policy" => {
                i += 1;
                policies.push(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--policy needs lru, clock or 2q")),
                );
            }
            "--trace-dir" => {
                i += 1;
                trace_dir = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--trace-dir needs a directory"))
                    .clone();
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--csv needs a directory"))
                        .clone(),
                );
            }
            other => usage_error(&format!("unknown cache-sweep flag '{other}'")),
        }
        i += 1;
    }
    if workloads.is_empty() {
        workloads = vec!["vips".to_string(), "ferret".to_string()];
    }
    if frames.is_empty() {
        frames = if quick { vec![64] } else { vec![64, 256, 1024] };
    }
    if policies.is_empty() {
        policies = PolicySelect::ALL.to_vec();
    }
    let profiles: Vec<pcm_workloads::WorkloadProfile> = workloads
        .iter()
        .map(|w| {
            *pcm_workloads::WorkloadProfile::by_name(w).unwrap_or_else(|| {
                eprintln!("unknown workload {w}");
                std::process::exit(1);
            })
        })
        .collect();
    let cfg = run_config(quick, instructions, None);
    eprintln!(
        "cache-sweep: {} workload(s) × {} frame budget(s) × {} policy(ies), {} instructions/core…",
        profiles.len(),
        frames.len(),
        policies.len(),
        cfg.instructions_per_core
    );
    let cells = tetris_experiments::run_cache_sweep(
        &profiles,
        &frames,
        &policies,
        &cfg,
        std::path::Path::new(&trace_dir),
    )
    .unwrap_or_else(|e| {
        eprintln!("cache-sweep failed: {e}");
        std::process::exit(1);
    });
    eprintln!("{} cell(s), traces under {trace_dir}", cells.len());
    emit(&tetris_experiments::cache_sweep_table(&cells), &csv_dir);
}

/// `replay TRACE.jsonl SCHEME`: run a recorded trace through the system.
fn cmd_replay(path: &str, scheme: &str) {
    use pcm_memsim::cpu::VecTrace;
    use pcm_memsim::{System, SystemConfig, UniformRandomContent};
    use pcm_workloads::trace::read_trace;
    let kind = scheme.parse::<SchemeSelect>().ok().unwrap_or_else(|| {
        eprintln!("unknown scheme {scheme}; try {}", scheme_tag_hint());
        std::process::exit(1);
    });
    let file = std::io::BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open trace {path}: {e}");
        std::process::exit(1);
    }));
    let trace = read_trace(file).unwrap_or_else(|e| {
        eprintln!("cannot parse trace {path}: {e}");
        std::process::exit(1);
    });
    if trace.is_empty() {
        eprintln!("trace {path} contains no cores");
        std::process::exit(1);
    }
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = trace.len();
    cfg.mem.select = kind;
    let mut sys = System::build(cfg)
        .expect("valid config")
        .with_trace(Box::new(VecTrace::new(trace)))
        .with_content(Box::new(UniformRandomContent::new(7)));
    sys.set_workload_name(path);
    let r = sys.run();
    outln!(
        "{}: runtime {:.1} µs, IPC {:.3}, read {:.1} ns, write {:.1} ns, {} reads / {} writes",
        kind.name(),
        r.runtime.as_ns_f64() / 1000.0,
        r.ipc(),
        r.read_latency.mean_ns(),
        r.write_latency.mean_ns(),
        r.mem_reads,
        r.mem_writes
    );
}

/// `report TRACE.jsonl`: summarize a recorded telemetry trace. Ranked
/// (tagged) traces additionally render a per-rank rollup and per-rank
/// tables; plain single-rank traces render exactly as before.
fn cmd_report(path: &str, csv_dir: &Option<String>) {
    use pcm_telemetry::{read_tagged_events, TraceSummary};
    let file = std::io::BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open trace {path}: {e}");
        std::process::exit(1);
    }));
    let tagged = read_tagged_events(file).unwrap_or_else(|e| {
        eprintln!("cannot parse trace {path}: {e}");
        std::process::exit(1);
    });
    if tagged.is_empty() {
        eprintln!("trace {path} contains no events");
        std::process::exit(1);
    }
    let ranks = TraceSummary::by_rank(&tagged);
    if ranks.len() == 1 {
        emit(
            &tetris_experiments::report::trace_bank_table(&ranks[0]),
            csv_dir,
        );
        emit(
            &tetris_experiments::report::trace_queue_table(&ranks[0]),
            csv_dir,
        );
        return;
    }
    emit(
        &tetris_experiments::report::rank_util_table(&ranks),
        csv_dir,
    );
    let merged = TraceSummary::merged(&ranks);
    emit(
        &tetris_experiments::report::trace_bank_table(&merged),
        csv_dir,
    );
    emit(
        &tetris_experiments::report::trace_queue_table(&merged),
        csv_dir,
    );
    for (i, s) in ranks.iter().enumerate() {
        emit(
            &tetris_experiments::report::trace_bank_table_for_rank(s, i as u32),
            csv_dir,
        );
        emit(
            &tetris_experiments::report::trace_queue_table_for_rank(s, i as u32),
            csv_dir,
        );
    }
}

/// `--trace OUT.jsonl`: run vips × Tetris once, streaming rank-tagged
/// JSONL telemetry through the async background writer.
fn run_traced(out: &str, level: pcm_telemetry::TraceDetail, cfg: &RunConfig) {
    let vips = pcm_workloads::WorkloadProfile::by_name("vips").expect("vips profile exists");
    let ranks = cfg.system.mem.org.ranks;
    eprintln!(
        "tracing vips × Tetris ({} instructions/core, {ranks} rank(s), {:?} detail) to {out}…",
        cfg.instructions_per_core, level
    );
    let (r, written) = tetris_experiments::run_one_to_file(
        vips,
        SchemeSelect::Tetris,
        cfg,
        std::path::Path::new(out),
        level,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot trace to {out}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "traced run done: runtime {:.1} µs, {} reads / {} writes, {written} events — render with `tetris-experiments report {out}`",
        r.runtime.as_ns_f64() / 1000.0,
        r.mem_reads,
        r.mem_writes
    );
}

/// `sched-ablation`: fixed vs adaptive scheduling head-to-head.
fn cmd_sched_ablation(args: &[String]) {
    let mut workload = "vips".to_string();
    let mut quick = false;
    let mut instructions: Option<u64> = None;
    let mut ranks: Option<u32> = None;
    let mut trace_dir = "sched-traces".to_string();
    let mut csv_dir: Option<String> = None;
    let mut assert_no_regression = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--assert" => assert_no_regression = true,
            "--ranks" => {
                i += 1;
                ranks = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|r: &u32| r.is_power_of_two())
                        .unwrap_or_else(|| usage_error("--ranks needs a power-of-two number")),
                );
            }
            "--workload" => {
                i += 1;
                workload = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--workload needs a name"))
                    .clone();
            }
            "--instructions" => {
                i += 1;
                instructions = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--instructions needs a number")),
                );
            }
            "--trace-dir" => {
                i += 1;
                trace_dir = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--trace-dir needs a directory"))
                    .clone();
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--csv needs a directory"))
                        .clone(),
                );
            }
            other => usage_error(&format!("unknown sched-ablation flag '{other}'")),
        }
        i += 1;
    }
    let profile = pcm_workloads::WorkloadProfile::by_name(&workload).unwrap_or_else(|| {
        eprintln!("unknown workload {workload}");
        std::process::exit(1);
    });
    let cfg = run_config(quick, instructions, ranks);
    eprintln!(
        "sched-ablation: {} × Tetris, {} instructions/core, {} rank(s), fixed vs adaptive…",
        profile.name, cfg.instructions_per_core, cfg.system.mem.org.ranks
    );
    let out =
        tetris_experiments::run_sched_ablation(profile, &cfg, std::path::Path::new(&trace_dir))
            .unwrap_or_else(|e| {
                eprintln!("sched-ablation failed: {e}");
                std::process::exit(1);
            });
    eprintln!(
        "traces: {} and {}",
        out.base_trace.display(),
        out.adaptive_trace.display()
    );
    emit(
        &tetris_experiments::delta_table(&out.base, &out.adaptive),
        &csv_dir,
    );
    if out.adaptive_ranks.len() > 1 {
        emit(
            &tetris_experiments::report::rank_util_table(&out.adaptive_ranks),
            &csv_dir,
        );
    }
    let violations = tetris_experiments::regression_check(&out.base, &out.adaptive);
    if violations.is_empty() {
        outln!("regression check: OK — adaptive is no worse than fixed");
    } else {
        for v in &violations {
            outln!("regression check: FAIL — {v}");
        }
        if assert_no_regression {
            std::process::exit(1);
        }
    }
}

/// The run configuration the `--quick`, `--instructions` and `--ranks`
/// flags select (`--instructions` overrides `--quick`), validated: an invalid
/// combination is a usage error.
fn run_config(quick: bool, instructions: Option<u64>, ranks: Option<u32>) -> RunConfig {
    let mut cfg = RunConfig::default();
    if quick {
        cfg.instructions_per_core = tetris_experiments::QUICK_INSTRUCTIONS;
    }
    if let Some(n) = instructions {
        cfg.instructions_per_core = n;
    }
    if let Some(r) = ranks {
        cfg.system.mem.org.ranks = r;
    }
    cfg.system
        .validate()
        .unwrap_or_else(|e| usage_error(&e.to_string()));
    cfg
}

/// Exit with a clean usage error instead of a panic backtrace.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (see --help)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands with positional arguments first.
    match args.first().map(String::as_str) {
        Some("run") => {
            cmd_run(&args);
            return;
        }
        Some("trace") => {
            let instructions = args
                .iter()
                .position(|a| a == "--instructions")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(1_000_000);
            cmd_trace(
                args.get(1)
                    .unwrap_or_else(|| usage_error("trace needs a workload")),
                args.get(2)
                    .unwrap_or_else(|| usage_error("trace needs an output path")),
                instructions,
            );
            return;
        }
        Some("replay") => {
            cmd_replay(
                args.get(1)
                    .unwrap_or_else(|| usage_error("replay needs a trace path")),
                args.get(2)
                    .unwrap_or_else(|| usage_error("replay needs a scheme")),
            );
            return;
        }
        Some("report") => {
            let csv_dir = args
                .iter()
                .position(|a| a == "--csv")
                .and_then(|i| args.get(i + 1))
                .cloned();
            cmd_report(
                args.get(1)
                    .unwrap_or_else(|| usage_error("report needs a trace path")),
                &csv_dir,
            );
            return;
        }
        Some("sched-ablation") => {
            cmd_sched_ablation(&args);
            return;
        }
        Some("cache-sweep") => {
            cmd_cache_sweep(&args);
            return;
        }
        _ => {}
    }
    let mut targets: Vec<String> = Vec::new();
    let mut quick = false;
    let mut instructions: Option<u64> = None;
    let mut ranks: Option<u32> = None;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_level = pcm_telemetry::TraceDetail::Fine;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--instructions" => {
                i += 1;
                instructions = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--instructions needs a number")),
                );
            }
            "--ranks" => {
                i += 1;
                ranks = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|r: &u32| r.is_power_of_two())
                        .unwrap_or_else(|| usage_error("--ranks needs a power-of-two number")),
                );
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--json needs a path"))
                        .clone(),
                );
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--csv needs a directory"))
                        .clone(),
                );
            }
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error("--trace needs a path"))
                        .clone(),
                );
            }
            "--trace-level" => {
                i += 1;
                trace_level = args
                    .get(i)
                    .and_then(|v| pcm_telemetry::TraceDetail::parse(v))
                    .unwrap_or_else(|| usage_error("--trace-level needs 'coarse' or 'fine'"));
            }
            "--help" | "-h" => {
                outln!(
                    "usage: tetris-experiments [all|fig1|fig3|fig4|fig10|fig11|fig12|fig13|fig14|table1|table2|table3|energy|ablation]... [--quick] [--instructions N] [--ranks R] [--json FILE] [--csv DIR] [--trace OUT.jsonl] [--trace-level coarse|fine]"
                );
                outln!("       tetris-experiments run --scheme TAG [--workload W] [--quick] [--instructions N] [--ranks R] [--write-cache FRAMES] [--policy lru|clock|2q] [--trace OUT.jsonl] [--trace-level coarse|fine] [--json FILE]");
                outln!("       tetris-experiments run --list-schemes");
                outln!("       tetris-experiments trace WORKLOAD OUT.jsonl [--instructions N]");
                outln!("       tetris-experiments replay TRACE.jsonl SCHEME");
                outln!("       tetris-experiments report TRACE.jsonl [--csv DIR]");
                outln!("       tetris-experiments sched-ablation [--quick] [--workload W] [--instructions N] [--ranks R] [--trace-dir DIR] [--csv DIR] [--assert]");
                outln!("       tetris-experiments cache-sweep [--quick] [--workload W]... [--frames LIST] [--policy TAG]... [--instructions N] [--trace-dir DIR] [--csv DIR]");
                return;
            }
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    let explicit_targets = !targets.is_empty();
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    const KNOWN: [&str; 15] = [
        "all", "fig1", "fig3", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14", "table1",
        "table2", "table3", "energy", "ablation", "gantt",
    ];
    for t in &targets {
        if !KNOWN.contains(&t.as_str()) {
            usage_error(&format!("unknown target '{t}'"));
        }
    }
    let all = targets.iter().any(|t| t == "all");
    let want = |t: &str| all || targets.iter().any(|x| x == t);

    let cfg = run_config(quick, instructions, ranks);

    // A traced run is its own artifact: record it first, and unless the
    // user also asked for figures/tables explicitly, stop there.
    if let Some(out) = &trace_path {
        run_traced(out, trace_level, &cfg);
        if !explicit_targets {
            return;
        }
    }
    let scheme_cfg = SchemeConfig::paper_baseline();
    let sample_writes = if quick { 500 } else { 3_000 };

    // Static artifacts first (no simulation needed).
    if want("fig1") {
        emit(&figures::fig1(&scheme_cfg), &csv_dir);
    }
    if want("table2") {
        emit(&figures::table2(&SystemConfig::paper_baseline()), &csv_dir);
    }
    if want("fig3") {
        emit(&figures::fig3(sample_writes, 7), &csv_dir);
    }
    if want("fig4") {
        print_fig4_gantt();
    }

    // System-level figures share one run matrix.
    let needs_matrix = [
        "fig10", "fig11", "fig12", "fig13", "fig14", "table1", "table3", "energy",
    ]
    .iter()
    .any(|t| want(t));
    if needs_matrix {
        eprintln!(
            "running {} simulations ({} instructions/core)…",
            ALL_PROFILES.len() * SchemeSelect::COMPARED.len(),
            cfg.instructions_per_core
        );
        let results = run_matrix(&ALL_PROFILES, &SchemeSelect::COMPARED, &cfg);
        let m = MatrixView::new(&results, &ALL_PROFILES, &SchemeSelect::COMPARED);
        if want("table1") {
            emit(&figures::table1(&m), &csv_dir);
        }
        if want("table3") {
            emit(&figures::table3(Some(&m)), &csv_dir);
        }
        if want("fig10") {
            emit(&figures::fig10(&m, &scheme_cfg), &csv_dir);
        }
        if want("fig11") {
            emit(&figures::fig11(&m), &csv_dir);
        }
        if want("fig12") {
            emit(&figures::fig12(&m), &csv_dir);
        }
        if want("fig13") {
            emit(&figures::fig13(&m), &csv_dir);
        }
        if want("fig14") {
            emit(&figures::fig14(&m), &csv_dir);
        }
        if want("energy") {
            emit(&figures::energy_figure(&m), &csv_dir);
            emit(&figures::tail_latency_figure(&m, "ferret"), &csv_dir);
            emit(
                &ablation::wear_comparison(&results, &ALL_PROFILES, &SchemeSelect::COMPARED),
                &csv_dir,
            );
        }
        if let Some(path) = &json_path {
            let json = tetris_experiments::report::results_to_json(&results);
            std::fs::write(path, json).expect("write results JSON");
            eprintln!("wrote {path}");
        }
    }

    if want("ablation") {
        emit(
            &ablation::packing_ablation(sample_writes as usize, 3),
            &csv_dir,
        );
        emit(&ablation::write_pausing_study(&cfg), &csv_dir);
        emit(
            &ablation::batching_study(sample_writes as usize, 21),
            &csv_dir,
        );
        emit(&ablation::system_batching_study(&cfg), &csv_dir);
        emit(&ablation::bank_parallelism_sweep(&cfg), &csv_dir);
        emit(&ablation::subarray_sweep(&cfg), &csv_dir);
        emit(&ablation::budget_sweep(sample_writes as usize, 4), &csv_dir);
        emit(
            &ablation::line_size_sweep(sample_writes as usize / 2, 5),
            &csv_dir,
        );
        emit(
            &ablation::asymmetry_sensitivity(sample_writes as usize / 2, 8),
            &csv_dir,
        );
        emit(
            &ablation::utilization_study(sample_writes as usize, 6),
            &csv_dir,
        );
    }
}

//! Run one synthetic PARSEC workload through the full system under every
//! scheme and print the per-workload slice of Figs. 11–14.
//!
//! ```text
//! cargo run --release --example parsec_sim -- vips [instructions-per-core]
//! ```

use tetris_experiments::{run_one, RunConfig, SchemeSelect, WorkloadProfile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("vips");
    let profile = WorkloadProfile::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name}; try blackscholes/bodytrack/canneal/dedup/ferret/freqmine/swaptions/vips");
        std::process::exit(1);
    });
    let mut cfg = RunConfig::default();
    if let Some(n) = args.get(1).and_then(|v| v.parse().ok()) {
        cfg.instructions_per_core = n;
    } else {
        cfg.instructions_per_core = 2_000_000;
    }

    println!(
        "workload {} (RPKI {}, WPKI {}), {} instructions/core on {} cores\n",
        profile.name, profile.rpki, profile.wpki, cfg.instructions_per_core, cfg.system.cores
    );
    println!(
        "{:<20} {:>10} {:>12} {:>12} {:>8} {:>10} {:>12}",
        "scheme", "runtime", "read lat", "write lat", "IPC", "wr units", "energy (uJ)"
    );

    let mut baseline: Option<(f64, f64, f64, f64)> = None;
    for kind in SchemeSelect::COMPARED {
        let r = run_one(profile, kind, &cfg);
        let runtime_us = r.runtime.as_ns_f64() / 1000.0;
        let ipc = r.ipc();
        println!(
            "{:<20} {:>8.1}us {:>10.1}ns {:>10.1}ns {:>8.3} {:>10.2} {:>12.1}",
            kind.name(),
            runtime_us,
            r.read_latency.mean_ns(),
            r.write_latency.mean_ns(),
            ipc,
            r.avg_write_units,
            r.energy.as_pj() as f64 / 1e6,
        );
        match &baseline {
            None => {
                baseline = Some((
                    runtime_us,
                    r.read_latency.mean_ns(),
                    r.write_latency.mean_ns(),
                    ipc,
                ))
            }
            Some((bt, br, bw, bipc)) => {
                if kind == SchemeSelect::Tetris {
                    println!(
                        "\nTetris vs baseline: runtime -{:.0}%, read latency -{:.0}%, write latency -{:.0}%, IPC {:.2}x",
                        (1.0 - runtime_us / bt) * 100.0,
                        (1.0 - r.read_latency.mean_ns() / br) * 100.0,
                        (1.0 - r.write_latency.mean_ns() / bw) * 100.0,
                        ipc / bipc,
                    );
                }
            }
        }
    }
}

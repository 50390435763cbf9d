//! Inter-line batching: schedule several queued writes as one Tetris batch
//! and watch write units amortize (algorithm level), then run the batched
//! drain through the full system.
//!
//! ```text
//! cargo run --release --example batch_scheduler
//! ```

use tetris_experiments::ablation::sample_demands;
use tetris_experiments::{run_one, RunConfig, SchemeSelect, WorkloadProfile};
use tetris_write::{analyze, analyze_batch, render_gantt, TetrisConfig};

fn main() {
    let cfg = TetrisConfig::paper_baseline();
    let p = WorkloadProfile::by_name("ferret").unwrap();
    let demands = sample_demands(p, 64, 5);

    // Algorithm level: pack two queued lines together.
    let a = &demands[0];
    let b = &demands[1];
    let single_a = analyze(a, &cfg).unwrap();
    let single_b = analyze(b, &cfg).unwrap();
    let batch = analyze_batch(&[*a, *b], &cfg).unwrap();
    println!(
        "line A alone : {:.2} write units",
        single_a.write_units_equiv()
    );
    println!(
        "line B alone : {:.2} write units",
        single_b.write_units_equiv()
    );
    println!(
        "A + B batched: {:.2} write units total = {:.2} per line\n",
        batch.analysis.write_units_equiv(),
        batch.write_units_per_line()
    );
    println!("batched schedule (rows 0-7 = line A, 8-15 = line B):");
    println!("{}", render_gantt(&batch.analysis, 16));

    // System level: drain the write queue in batches of 1/2/4.
    println!("full-system effect on ferret (write-queue drains):");
    let mut run_cfg = RunConfig {
        instructions_per_core: 1_000_000,
        ..RunConfig::default()
    };
    let mut baseline = None;
    for batch_writes in [1usize, 2, 4] {
        run_cfg.system.controller.batch_writes = batch_writes;
        let r = run_one(p, SchemeSelect::Tetris, &run_cfg);
        let runtime_us = r.runtime.as_ns_f64() / 1000.0;
        let norm = match baseline {
            None => {
                baseline = Some(runtime_us);
                1.0
            }
            Some(b) => runtime_us / b,
        };
        println!(
            "  batch={batch_writes}: runtime {runtime_us:8.1} µs ({norm:.3}x), \
             write latency {:7.1} ns, {:.2} units/write",
            r.write_latency.mean_ns(),
            r.avg_write_units
        );
    }
    println!("\nbatching amortizes the fixed read+analysis overhead across the");
    println!("batch and lets one line's SET slack swallow another's RESETs.");
}

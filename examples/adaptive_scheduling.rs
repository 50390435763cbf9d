//! Adaptive write scheduling: run the paper's write-heaviest workload
//! (vips) under the fixed fill-to-capacity drain policy and under the
//! adaptive policy layer (burst-headroom watermarks + least-utilized-first
//! bank steering + read-priority windows), then diff the two runs from
//! their telemetry traces.
//!
//! ```text
//! cargo run --release --example adaptive_scheduling
//! ```

use pcm_memsim::SchedConfig;
use tetris_experiments::sched_ablation::run_sched_ablation;
use tetris_experiments::{
    delta_table, regression_check, RunConfig, WorkloadProfile, QUICK_INSTRUCTIONS,
};

fn main() {
    let p = WorkloadProfile::by_name("vips").unwrap();
    let cfg = RunConfig {
        instructions_per_core: QUICK_INSTRUCTIONS,
        ..RunConfig::default()
    };

    // The policy knobs are plain config — any run can opt in piecemeal:
    let piecemeal = SchedConfig {
        bank_steering: true,
        ..SchedConfig::fixed()
    };
    println!(
        "piecemeal example config: steering={}, adaptive watermarks={}\n",
        piecemeal.bank_steering, piecemeal.adaptive_watermarks
    );

    // The ablation runs both presets head-to-head and traces each run.
    let dir = std::env::temp_dir().join("adaptive_scheduling_example");
    let out = run_sched_ablation(p, &cfg, &dir).expect("ablation runs");
    println!("{}", delta_table(&out.base, &out.adaptive));

    let violations = regression_check(&out.base, &out.adaptive);
    if violations.is_empty() {
        println!("adaptive is no worse than fixed on every gated metric.");
    } else {
        for v in &violations {
            println!("regression: {v}");
        }
    }
    println!(
        "\ntraces left in {} — render with `tetris-experiments report <file>`",
        dir.display()
    );
}

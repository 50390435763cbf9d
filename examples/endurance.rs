//! Endurance study: PCM cells survive ~10⁸ programming pulses, so the
//! pulses a write scheme delivers per line write directly map to lifetime.
//! Compare per-scheme cell wear on the device model and on a full run.
//!
//! ```text
//! cargo run --release --example endurance
//! ```

use pcm_device::{FsmExecutor, PcmBank, ScheduledBitWrite, WriteOp};
use pcm_memsim::prelude::*;
use tetris_experiments::{run_one, RunConfig, SchemeSelect, WorkloadProfile, QUICK_INSTRUCTIONS};
use tetris_write::{build_jobs, read_stage};

fn main() {
    device_level();
    println!();
    system_level();
}

/// Drive a real (modeled) bank with Tetris schedules and read the wear
/// counters back from the cells.
fn device_level() {
    println!("device level — wear after 200 Tetris-scheduled line writes");
    let cfg = TetrisConfig::paper_baseline();
    let mut bank = PcmBank::new(1, 8, PowerParams::paper_baseline(), true).unwrap();
    let exec = FsmExecutor::new(PcmTimings::paper_baseline()).unwrap();
    let mut logical = LineData::zeroed(64);
    let mut flips = 0u32;
    let mut stored = LineData::zeroed(64);
    let mut rng_state = 0x12345u64;
    let mut rand_bits = move |n: u32| {
        // xorshift for a dependency-free example
        let mut mask = 0u64;
        for _ in 0..n {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            mask |= 1 << (rng_state % 64);
        }
        mask
    };
    for _ in 0..200 {
        let mut new = logical;
        for i in 0..8 {
            new.xor_unit(i, rand_bits(5));
        }
        let ctx = WriteCtx {
            old_stored: &stored,
            old_flips: flips,
            new_logical: &new,
            cfg: &cfg.scheme,
        };
        let out = read_stage(&ctx);
        let analysis = analyze(&out.demand, &cfg).unwrap();
        let jobs: Vec<ScheduledBitWrite> = build_jobs(&stored, flips, &out, &analysis).unwrap();
        exec.execute(&mut bank, &jobs).unwrap();
        let _ = WriteOp::Set; // (re-exported for users writing custom jobs)
        stored = *out.stored();
        flips = out.flips();
        logical = new;
    }
    println!(
        "  total cell pulses: {}   max per-cell wear: {}",
        bank.total_wear(),
        bank.max_wear()
    );
    println!("  (differential scheduling: only changed cells were pulsed)");
}

/// Pulses per line write across schemes on a full simulated run.
fn system_level() {
    println!("system level — cell pulses per line write (ferret, quick run)");
    let p = WorkloadProfile::by_name("ferret").unwrap();
    let cfg = RunConfig {
        instructions_per_core: QUICK_INSTRUCTIONS,
        ..RunConfig::default()
    };
    println!(
        "  {:<20} {:>14} {:>18}",
        "scheme", "pulses/write", "relative lifetime"
    );
    let mut baseline_pulses = None;
    for kind in [
        SchemeSelect::Conventional,
        SchemeSelect::Dcw,
        SchemeSelect::TwoStage,
        SchemeSelect::ThreeStage,
        SchemeSelect::Tetris,
    ] {
        let r = run_one(p, kind, &cfg);
        let per_write = (r.cell_sets + r.cell_resets) as f64 / r.mem_writes.max(1) as f64;
        let rel = match baseline_pulses {
            None => {
                baseline_pulses = Some(per_write);
                1.0
            }
            Some(b) => b / per_write,
        };
        println!("  {:<20} {:>14.1} {:>17.1}x", kind.name(), per_write, rel);
    }
    println!("  (2SW programs every bit — Table I's 'does not reduce energy' column");
    println!("   is also an endurance penalty; differential schemes wear ~10x less)");
}

//! Beyond-paper studies: packing-policy ablations, power-budget and
//! cache-line sweeps, asymmetry sensitivity, and wear comparisons.

use crate::report::{f2, mean, Table};
use pcm_memsim::{SimResult, WriteContent};
use pcm_schemes::{analytic, SchemeSelect};
use pcm_types::rng::{Rng, SmallRng};
use pcm_types::{flip_units, LineData, LineDemand, PcmTimings, PowerParams, Ps};
use pcm_workloads::{ProfileContent, WorkloadProfile, ALL_PROFILES};
use std::collections::HashMap;
use tetris_write::{analyze, analyze_batch, paper_literal::paper_literal_analyze, TetrisConfig};

/// Sample steady-state per-line demands for a profile (the same model the
/// Fig. 3 harness uses, but returning the `LineDemand`s themselves).
pub fn sample_demands(profile: &WorkloadProfile, n: usize, seed: u64) -> Vec<LineDemand> {
    let ws_lines = (n / 4).max(16);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut content = ProfileContent::new(profile, seed ^ 0xABCD);
    let mut mem: HashMap<usize, (LineData, u32)> = HashMap::new();
    let mut out = Vec::with_capacity(n);
    // Generate more writes than demands so first touches warm the set.
    while out.len() < n {
        let idx = rng.gen_range(0..ws_lines);
        let first = !mem.contains_key(&idx);
        let (stored, flips) = mem.entry(idx).or_insert_with(|| (LineData::zeroed(64), 0));
        let mut logical = *stored;
        for i in 0..8 {
            if *flips & (1 << i) != 0 {
                logical.set_unit(i, !logical.unit(i));
            }
        }
        let new_logical = content.generate(0, &logical);
        let fl = flip_units(stored, *flips, &new_logical);
        if !first {
            out.push(LineDemand::from_flipped(&fl));
        }
        *stored = fl.stored;
        *flips = fl.flips;
    }
    out
}

fn avg_units(
    demands: &[LineDemand],
    cfg: &TetrisConfig,
    f: impl Fn(&LineDemand, &TetrisConfig) -> f64,
) -> f64 {
    mean(&demands.iter().map(|d| f(d, cfg)).collect::<Vec<_>>())
}

/// Packing-policy ablation: full Tetris vs no-sorting (plain first-fit),
/// no slack stealing, and the paper-literal Algorithm 2.
pub fn packing_ablation(samples: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Ablation — write units under packing-policy variants",
        &[
            "workload",
            "Tetris (FFD+steal)",
            "no sort",
            "no steal",
            "paper-literal",
        ],
    );
    let base = TetrisConfig::paper_baseline();
    let mut no_sort = base;
    no_sort.sort_decreasing = false;
    let mut no_steal = base;
    no_steal.steal_write0_slack = false;

    let full_f = |d: &LineDemand, c: &TetrisConfig| analyze(d, c).unwrap().write_units_equiv();
    let lit_f = |d: &LineDemand, c: &TetrisConfig| {
        paper_literal_analyze(d, c).unwrap().write_units_equiv(8)
    };

    let mut cols: [Vec<f64>; 4] = Default::default();
    for p in &ALL_PROFILES {
        let demands = sample_demands(p, samples, seed);
        let vals = [
            avg_units(&demands, &base, full_f),
            avg_units(&demands, &no_sort, full_f),
            avg_units(&demands, &no_steal, full_f),
            avg_units(&demands, &base, lit_f),
        ];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v);
        }
        let mut row = vec![p.name.to_string()];
        row.extend(vals.iter().map(|&v| f2(v)));
        t.row(row);
    }
    let mut row = vec!["average".to_string()];
    row.extend(cols.iter().map(|c| f2(mean(c))));
    t.row(row);
    t.note("each mechanism removed in isolation; lower is better");
    t
}

/// Power-budget sweep: Tetris write units as the per-chip budget shrinks
/// toward mobile configurations (paper §I: X8/X4/X2 division modes).
pub fn budget_sweep(samples: usize, seed: u64) -> Table {
    let budgets = [32u32, 16, 8, 4];
    let mut headers = vec!["workload".to_string()];
    headers.extend(budgets.iter().map(|b| format!("chip budget {b}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Sweep — Tetris write units vs power budget", &headers_ref);
    for p in &ALL_PROFILES {
        let demands = sample_demands(p, samples, seed);
        let mut row = vec![p.name.to_string()];
        for &b in &budgets {
            let mut cfg = TetrisConfig::paper_baseline();
            cfg.scheme.power = PowerParams {
                l_ratio: 2,
                budget_per_bank: b * 4,
                chips_per_bank: 4,
            };
            row.push(f2(avg_units(&demands, &cfg, |d, c| {
                analyze(d, c).unwrap().write_units_equiv()
            })));
        }
        t.row(row);
    }
    t.note("bank budget = 4 x chip budget (GCP); baseline chip budget is 32");
    t
}

/// Cache-line-size sweep (64 B baseline, 128 B POWER7, 256 B zEnterprise):
/// Tetris measured vs the static schemes' analytic write units.
pub fn line_size_sweep(samples: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Sweep — write units vs cache-line size",
        &[
            "line size",
            "Conv",
            "FNW",
            "2SW",
            "3SW",
            "Tetris (vips)",
            "Tetris (blackscholes)",
        ],
    );
    for line_bytes in [64u32, 128, 256] {
        let mut cfg = TetrisConfig::paper_baseline();
        cfg.scheme.org.cache_line_bytes = line_bytes;
        let theory = analytic::theoretical_write_units(&cfg.scheme);
        let tetris_units = |profile_name: &str| {
            let p = WorkloadProfile::by_name(profile_name).unwrap();
            // Wider lines: replicate the 8-unit demand model across units.
            let demands: Vec<LineDemand> = sample_demands(p, samples, seed)
                .into_iter()
                .map(|d| {
                    let units_needed = (line_bytes / 8) as usize;
                    let mut units = Vec::with_capacity(units_needed);
                    while units.len() < units_needed {
                        units.extend_from_slice(d.units());
                    }
                    units.truncate(units_needed);
                    LineDemand::from_units(&units)
                })
                .collect();
            avg_units(&demands, &cfg, |d, c| {
                analyze(d, c).unwrap().write_units_equiv()
            })
        };
        t.row(vec![
            format!("{line_bytes} B"),
            f2(theory[0].1),
            f2(theory[1].1),
            f2(theory[2].1),
            f2(theory[3].1),
            f2(tetris_units("vips")),
            f2(tetris_units("blackscholes")),
        ]);
    }
    t.note("the static schemes scale linearly with line size; Tetris absorbs it into slack");
    t
}

/// Asymmetry sensitivity: Tetris vs 3SW service time as K = Tset/Treset and
/// L vary.
pub fn asymmetry_sensitivity(samples: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Sweep — avg write service time (ns) vs asymmetries (dedup demand)",
        &["K (Tset/Treset)", "L", "3SW (Eq. 4)", "Tetris"],
    );
    let p = WorkloadProfile::by_name("dedup").unwrap();
    let demands = sample_demands(p, samples, seed);
    for (k, l) in [(8u64, 2u32), (8, 4), (4, 2), (16, 2)] {
        let mut cfg = TetrisConfig::paper_baseline();
        cfg.scheme.timings = PcmTimings {
            t_read: Ps::from_ns(50),
            t_reset: Ps::from_ns(430 / k),
            t_set: Ps::from_ns(430),
        };
        cfg.scheme.power.l_ratio = l;
        let three = analytic::t_three_stage(&cfg.scheme);
        let tetris = mean(
            &demands
                .iter()
                .map(|d| {
                    let a = analyze(d, &cfg).unwrap();
                    (cfg.scheme.timings.t_read
                        + cfg.analysis_overhead
                        + a.write_time(cfg.scheme.timings.t_set))
                    .as_ns_f64()
                })
                .collect::<Vec<_>>(),
        );
        t.row(vec![
            k.to_string(),
            l.to_string(),
            f2(three.as_ns_f64()),
            f2(tetris),
        ]);
    }
    t
}

/// Wear/endurance comparison from a run matrix: total cell pulses per
/// scheme (lower wears the array less).
pub fn wear_comparison(
    results: &[SimResult],
    profiles: &[WorkloadProfile],
    schemes: &[SchemeSelect],
) -> Table {
    let mut headers = vec!["workload".to_string()];
    headers.extend(schemes.iter().map(|s| s.short().to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Endurance — cell pulses per line write", &headers_ref);
    for (p, prof) in profiles.iter().enumerate() {
        let mut row = vec![prof.name.to_string()];
        for s in 0..schemes.len() {
            let r = &results[p * schemes.len() + s];
            let per_write = (r.cell_sets + r.cell_resets) as f64 / r.mem_writes.max(1) as f64;
            row.push(f2(per_write));
        }
        t.row(row);
    }
    t.note("differential schemes pulse only changed cells; 2SW/Conv pulse everything");
    t
}

/// Extension — inter-line batching (the authors' DATE'16 follow-up,
/// ref. \[10\]): schedule 1/2/4 queued lines together; write units amortize
/// across the batch as one line's SET slack hides another's RESETs.
pub fn batching_study(samples: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension — write units per line when batching queued writes",
        &["workload", "batch=1", "batch=2", "batch=4"],
    );
    let cfg = TetrisConfig::paper_baseline();
    for p in &ALL_PROFILES {
        let demands = sample_demands(p, samples, seed);
        let mut row = vec![p.name.to_string()];
        for batch in [1usize, 2, 4] {
            let mut per_line = Vec::new();
            for group in demands.chunks_exact(batch) {
                let b = analyze_batch(group, &cfg).expect("batch fits");
                per_line.push(b.write_units_per_line());
            }
            row.push(f2(mean(&per_line)));
        }
        t.row(row);
    }
    t.note("all lines in a batch share write units and complete together");
    t
}

/// Extension — bank/rank parallelism sweep: how much of Tetris's win
/// could be bought with more banks instead (the paper's architecture uses
/// 8 banks × 1 rank)?
pub fn bank_parallelism_sweep(base: &crate::runner::RunConfig) -> Table {
    let mut t = Table::new(
        "Sweep — runtime (µs) vs bank/rank parallelism (vips)",
        &["banks x ranks", "DCW", "Tetris", "Tetris/DCW"],
    );
    let p = WorkloadProfile::by_name("vips").expect("known workload");
    for (banks, ranks) in [(4u32, 1u32), (8, 1), (16, 1), (8, 2)] {
        let mut cfg = *base;
        cfg.system.mem.org.banks_per_rank = banks;
        cfg.system.mem.org.ranks = ranks;
        let dcw = crate::runner::run_one(p, SchemeSelect::Dcw, &cfg);
        let tetris = crate::runner::run_one(p, SchemeSelect::Tetris, &cfg);
        let d = dcw.runtime.as_ns_f64() / 1000.0;
        let w = tetris.runtime.as_ns_f64() / 1000.0;
        t.row(vec![
            format!("{banks} x {ranks}"),
            format!("{d:.1}"),
            format!("{w:.1}"),
            format!("{:.2}", w / d),
        ]);
    }
    t.note("more banks help the baseline too; Tetris's edge persists at every width");
    t
}

/// Extension — system-level batching: runtime and write latency when the
/// controller drains 1/2/4 writes per bank as one Tetris batch.
pub fn system_batching_study(base: &crate::runner::RunConfig) -> Table {
    let mut t = Table::new(
        "Extension — batched drains (Tetris): normalized runtime",
        &["workload", "batch=1", "batch=2", "batch=4"],
    );
    for name in ["dedup", "ferret", "vips"] {
        let p = WorkloadProfile::by_name(name).expect("known workload");
        let mut row = vec![name.to_string()];
        let mut baseline = None;
        for batch in [1usize, 2, 4] {
            let mut cfg = *base;
            cfg.system.controller.batch_writes = batch;
            let r = crate::runner::run_one(p, SchemeSelect::Tetris, &cfg);
            let runtime = r.runtime.as_ns_f64();
            let norm = match baseline {
                None => {
                    baseline = Some(runtime);
                    1.0
                }
                Some(b) => runtime / b,
            };
            row.push(format!("{norm:.3}"));
        }
        t.row(row);
    }
    t.note("batching amortizes read+analysis overhead and shares write units");
    t
}

/// Extension — subarray parallelism (ref. \[15\]): read latency as reads
/// gain subarrays to dodge in-flight writes.
pub fn subarray_sweep(base: &crate::runner::RunConfig) -> Table {
    let mut t = Table::new(
        "Extension — subarrays per bank: mean read latency (ns)",
        &["workload", "DCW s=1", "DCW s=4", "Tetris s=1", "Tetris s=4"],
    );
    for name in ["canneal", "vips"] {
        let p = WorkloadProfile::by_name(name).expect("known workload");
        let mut row = vec![name.to_string()];
        for kind in [SchemeSelect::Dcw, SchemeSelect::Tetris] {
            for subarrays in [1usize, 4] {
                let mut cfg = *base;
                cfg.system.controller.subarrays_per_bank = subarrays;
                let r = crate::runner::run_one(p, kind, &cfg);
                row.push(f2(r.read_latency.mean_ns()));
            }
        }
        t.row(row);
    }
    t.note("subarrays let reads dodge writes — another mitigation Tetris needs less");
    t
}

/// Extension — write pausing (the paper's ref. \[24\]): read latency with
/// and without allowing reads to preempt in-flight writes. Pausing rescues
/// the baseline's reads from long writes; Tetris's short writes leave much
/// less to rescue.
pub fn write_pausing_study(base: &crate::runner::RunConfig) -> Table {
    let mut t = Table::new(
        "Extension — write pausing: mean read latency (ns)",
        &["workload", "DCW", "DCW+pause", "Tetris", "Tetris+pause"],
    );
    let mut paused_cfg = *base;
    paused_cfg.system.controller.write_pausing = true;
    for name in ["canneal", "ferret", "vips"] {
        let p = WorkloadProfile::by_name(name).expect("known workload");
        let row = [
            crate::runner::run_one(p, SchemeSelect::Dcw, base),
            crate::runner::run_one(p, SchemeSelect::Dcw, &paused_cfg),
            crate::runner::run_one(p, SchemeSelect::Tetris, base),
            crate::runner::run_one(p, SchemeSelect::Tetris, &paused_cfg),
        ];
        let mut cells = vec![name.to_string()];
        cells.extend(row.iter().map(|r| f2(r.read_latency.mean_ns())));
        t.row(cells);
    }
    t.note("pausing shortens reads stuck behind writes; Tetris needs it far less");
    t
}

/// Observation-2 utilization: mean power-budget utilization of the
/// schedule under Tetris vs the worst-case provisioning of the baselines.
pub fn utilization_study(samples: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Observation — power-budget utilization",
        &["workload", "Tetris schedule", "FNW worst-case provisioning"],
    );
    let cfg = TetrisConfig::paper_baseline();
    for p in &ALL_PROFILES {
        let demands = sample_demands(p, samples, seed);
        let tetris_util = mean(
            &demands
                .iter()
                .map(|d| analyze(d, &cfg).unwrap().utilization())
                .collect::<Vec<_>>(),
        );
        // FNW provisions 2 units/slot over 4 slots: utilization is actual
        // charge over budget x slots.
        let fnw_util = mean(
            &demands
                .iter()
                .map(|d| {
                    let charge: u32 = d.units().iter().map(|u| u.sets + 2 * u.resets).sum();
                    charge as f64 / (128.0 * 4.0)
                })
                .collect::<Vec<_>>(),
        );
        t.row(vec![
            p.name.to_string(),
            format!("{:.0}%", tetris_util * 100.0),
            format!("{:.0}%", fnw_util * 100.0),
        ]);
    }
    t.note("paper Observation 1: FNW leaves utilization near (9.6x2)/64 = 30%");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demands_match_profile_statistics() {
        let p = WorkloadProfile::by_name("ferret").unwrap();
        let demands = sample_demands(p, 400, 5);
        assert_eq!(demands.len(), 400);
        let avg_total = mean(
            &demands
                .iter()
                .map(|d| d.total_changed() as f64 / d.len() as f64)
                .collect::<Vec<_>>(),
        );
        assert!((avg_total - p.total_mean()).abs() < p.total_mean() * 0.3);
    }

    #[test]
    fn packing_ablation_ordering() {
        let t = packing_ablation(150, 3);
        assert_eq!(t.num_rows(), 9);
        // Average row: full Tetris ≤ each ablated variant.
        let avg = t.num_rows() - 1;
        let full: f64 = t.cell(avg, 1).parse().unwrap();
        for col in 2..=4 {
            let v: f64 = t.cell(avg, col).parse().unwrap();
            assert!(full <= v + 1e-9, "full {full} vs col {col} = {v}");
        }
    }

    #[test]
    fn budget_sweep_monotone() {
        let t = budget_sweep(120, 4);
        for row in 0..t.num_rows() {
            let wide: f64 = t.cell(row, 1).parse().unwrap();
            let narrow: f64 = t.cell(row, 4).parse().unwrap();
            assert!(narrow >= wide, "smaller budget cannot pack tighter");
        }
    }

    #[test]
    fn line_size_sweep_static_schemes_scale() {
        let t = line_size_sweep(100, 5);
        let conv64: f64 = t.cell(0, 1).parse().unwrap();
        let conv256: f64 = t.cell(2, 1).parse().unwrap();
        assert_eq!(conv64, 8.0);
        assert_eq!(conv256, 32.0);
        let tetris64: f64 = t.cell(0, 6).parse().unwrap();
        let tetris256: f64 = t.cell(2, 6).parse().unwrap();
        assert!(
            tetris256 < tetris64 * 4.0 * 0.8,
            "Tetris absorbs line growth: {tetris64} -> {tetris256}"
        );
    }

    #[test]
    fn utilization_tetris_beats_fnw_provisioning() {
        let t = utilization_study(100, 6);
        assert_eq!(t.num_rows(), 8);
    }

    #[test]
    fn batching_reduces_units_per_line() {
        let t = batching_study(160, 21);
        assert_eq!(t.num_rows(), 8);
        for row in 0..t.num_rows() {
            let b1: f64 = t.cell(row, 1).parse().unwrap();
            let b2: f64 = t.cell(row, 2).parse().unwrap();
            let b4: f64 = t.cell(row, 3).parse().unwrap();
            assert!(b2 <= b1 + 1e-9, "batch=2 never worse: {b1} -> {b2}");
            assert!(b4 <= b2 + 1e-9, "batch=4 never worse: {b2} -> {b4}");
        }
        // Sparse workloads amortize dramatically (≈ 1/batch).
        let light: f64 = t.cell(0, 3).parse().unwrap(); // blackscholes, batch=4
        assert!(light < 0.5, "blackscholes batch=4 per-line units: {light}");
    }

    #[test]
    fn more_banks_reduce_runtime_for_both() {
        let cfg = crate::runner::RunConfig {
            instructions_per_core: 200_000,
            ..crate::runner::RunConfig::default()
        };
        let t = bank_parallelism_sweep(&cfg);
        assert_eq!(t.num_rows(), 4);
        let dcw4: f64 = t.cell(0, 1).parse().unwrap();
        let dcw16: f64 = t.cell(2, 1).parse().unwrap();
        assert!(dcw16 < dcw4, "16 banks beat 4 for the baseline");
        // Tetris stays ahead at every geometry.
        for row in 0..4 {
            let ratio: f64 = t.cell(row, 3).parse().unwrap();
            assert!(ratio < 1.0, "row {row}: Tetris/DCW = {ratio}");
        }
    }

    #[test]
    fn system_batching_monotone() {
        let cfg = crate::runner::RunConfig {
            instructions_per_core: 250_000,
            ..crate::runner::RunConfig::default()
        };
        let t = system_batching_study(&cfg);
        for row in 0..t.num_rows() {
            let b4: f64 = t.cell(row, 3).parse().unwrap();
            assert!(b4 <= 1.02, "batch=4 should not be slower: {b4}");
        }
    }

    #[test]
    fn subarrays_help_baseline_reads() {
        let cfg = crate::runner::RunConfig {
            instructions_per_core: 250_000,
            ..crate::runner::RunConfig::default()
        };
        let t = subarray_sweep(&cfg);
        for row in 0..t.num_rows() {
            let dcw1: f64 = t.cell(row, 1).parse().unwrap();
            let dcw4: f64 = t.cell(row, 2).parse().unwrap();
            assert!(dcw4 < dcw1, "row {row}: {dcw1} -> {dcw4}");
        }
    }

    #[test]
    fn pausing_helps_baseline_reads_more_than_tetris() {
        let cfg = crate::runner::RunConfig {
            instructions_per_core: 300_000,
            ..crate::runner::RunConfig::default()
        };
        let t = write_pausing_study(&cfg);
        assert_eq!(t.num_rows(), 3);
        for row in 0..t.num_rows() {
            let dcw: f64 = t.cell(row, 1).parse().unwrap();
            let dcw_p: f64 = t.cell(row, 2).parse().unwrap();
            let tetris: f64 = t.cell(row, 3).parse().unwrap();
            let tetris_p: f64 = t.cell(row, 4).parse().unwrap();
            assert!(dcw_p < dcw, "pausing must cut baseline read latency");
            // Absolute rescue for the baseline dwarfs Tetris's.
            assert!(
                dcw - dcw_p > (tetris - tetris_p).abs(),
                "row {row}: {dcw}->{dcw_p} vs {tetris}->{tetris_p}"
            );
        }
    }

    #[test]
    fn asymmetry_table_renders() {
        let t = asymmetry_sensitivity(60, 8);
        assert_eq!(t.num_rows(), 4);
    }
}

//! Shape tests against the paper's headline claims (§V): who wins, by
//! roughly what factor, and where the anomalies fall. Absolute numbers are
//! not compared — the substrate is a simulator, not the authors' testbed.

use pcm_workloads::{WorkloadProfile, ALL_PROFILES};
use tetris_experiments::figures::{self, MatrixView};
use tetris_experiments::{run_matrix, run_one, RunConfig, SchemeSelect};

fn cfg() -> RunConfig {
    RunConfig {
        instructions_per_core: 400_000,
        ..RunConfig::default()
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// One matrix reused across all shape assertions (kept small for test
/// speed; the `tetris-experiments` binary runs the full-size version).
fn matrix() -> (
    Vec<pcm_memsim::SimResult>,
    Vec<WorkloadProfile>,
    Vec<SchemeSelect>,
) {
    let profiles: Vec<WorkloadProfile> = ALL_PROFILES.to_vec();
    let schemes: Vec<SchemeSelect> = SchemeSelect::COMPARED.to_vec();
    let results = run_matrix(&profiles, &schemes, &cfg());
    (results, profiles, schemes)
}

#[test]
fn headline_shape_holds() {
    let (results, profiles, schemes) = matrix();
    let m = MatrixView::new(&results, &profiles, &schemes);

    // Collect per-scheme averages of the normalized metrics.
    let avg_norm = |metric: &dyn Fn(&pcm_memsim::SimResult) -> f64| -> Vec<f64> {
        (0..schemes.len())
            .map(|s| {
                mean(
                    &(0..profiles.len())
                        .map(|p| metric(m.get(p, s)) / metric(m.get(p, 0)).max(1e-12))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };

    // Fig. 11: read latency — Tetris < 3SW < 2SW < FNW < baseline.
    let read = avg_norm(&|r| r.read_latency.mean_ns());
    assert!(
        read[4] < read[3] && read[3] < read[2] && read[2] < read[1] && read[1] < read[0],
        "read latency ordering: {read:?}"
    );
    assert!(
        read[4] < 0.55,
        "Tetris removes well over a third of read latency: {read:?}"
    );

    // Fig. 12: write latency — same ordering on average.
    let write = avg_norm(&|r| r.write_latency.mean_ns());
    assert!(
        write[4] < write[3] && write[3] < write[1],
        "write latency ordering: {write:?}"
    );
    assert!(write[4] < 0.75, "Tetris write latency reduction: {write:?}");

    // Fig. 13: IPC — 1 < FNW < 2SW < 3SW < Tetris, Tetris ≈ 2×.
    let ipc = avg_norm(&|r| r.ipc());
    assert!(
        ipc[1] > 1.0 && ipc[2] > ipc[1] && ipc[3] > ipc[2] && ipc[4] > ipc[3],
        "IPC ordering: {ipc:?}"
    );
    assert!(
        (1.5..=2.6).contains(&ipc[4]),
        "Tetris IPC improvement ≈ 2x: {}",
        ipc[4]
    );
    assert!(
        (1.1..=1.7).contains(&ipc[1]),
        "FNW IPC improvement ≈ 1.4x: {}",
        ipc[1]
    );

    // Fig. 14: running time — Tetris < 3SW < 2SW < FNW < baseline.
    let rt = avg_norm(&|r| r.runtime.as_ns_f64());
    assert!(
        rt[4] < rt[3] && rt[3] < rt[2] && rt[2] < rt[1] && rt[1] < 1.0,
        "running time ordering: {rt:?}"
    );
    assert!(
        rt[4] < 0.75,
        "Tetris removes a large share of runtime: {rt:?}"
    );

    // Fig. 10: write units — Tetris in ≈ [1, 1.5]; baselines at theory.
    let tetris_units: Vec<f64> = (0..profiles.len())
        .map(|p| m.get(p, 4).avg_write_units)
        .collect();
    for (p, &u) in profiles.iter().zip(&tetris_units) {
        assert!((1.0..=1.8).contains(&u), "{}: Tetris units {u}", p.name);
    }
    let avg_units = mean(&tetris_units);
    assert!(
        (1.0..=1.5).contains(&avg_units),
        "paper range 1.06-1.46: {avg_units}"
    );
    for p in 0..profiles.len() {
        assert_eq!(m.get(p, 0).avg_write_units, 8.0, "baseline is 8 units");
    }

    // Energy (Table I): 2SW does NOT reduce energy; FNW/3SW/Tetris do.
    for p in 0..profiles.len() {
        let base = m.get(p, 0).energy.as_pj() as f64;
        assert!(
            m.get(p, 2).energy.as_pj() as f64 >= base,
            "2SW must not use less energy than differential DCW"
        );
        assert!(
            (m.get(p, 4).energy.as_pj() as f64) < base * 1.2,
            "Tetris energy stays near-differential"
        );
    }
}

#[test]
fn blackscholes_swaptions_write_anomaly() {
    // Paper §V-B3: in the read-dominant workloads the write queue rarely
    // fills, so writes wait enormously and Tetris's edge (nearly) vanishes;
    // the analysis overhead can even make it slightly worse.
    for name in ["blackscholes", "swaptions"] {
        let p = WorkloadProfile::by_name(name).unwrap();
        let dcw = run_one(p, SchemeSelect::Dcw, &cfg());
        let tetris = run_one(p, SchemeSelect::Tetris, &cfg());
        let norm = tetris.write_latency.mean_ns() / dcw.write_latency.mean_ns();
        assert!(
            norm > 0.80,
            "{name}: write-latency gain should be small, got {norm}"
        );
        // The writes dwarf their own service time: queue-dominated.
        assert!(
            dcw.write_latency.mean_ns() > 10_000.0,
            "{name}: writes should wait ~the whole run"
        );
    }
}

#[test]
fn heavy_workloads_show_biggest_gains() {
    // vips (WPKI 1.56) must gain much more than blackscholes (WPKI 0.02).
    let c = cfg();
    let gain = |name: &str| {
        let p = WorkloadProfile::by_name(name).unwrap();
        let dcw = run_one(p, SchemeSelect::Dcw, &c);
        let t = run_one(p, SchemeSelect::Tetris, &c);
        dcw.runtime.as_ns_f64() / t.runtime.as_ns_f64()
    };
    let heavy = gain("vips");
    let light = gain("blackscholes");
    assert!(
        heavy > light + 0.5,
        "vips {heavy:.2}x vs blackscholes {light:.2}x"
    );
}

#[test]
fn tetris_units_track_workload_weight() {
    // Fig. 10's second observation: dedup/vips (many RESET+SET) reduce
    // write units the least.
    let (results, profiles, schemes) = matrix();
    let m = MatrixView::new(&results, &profiles, &schemes);
    let units: Vec<(String, f64)> = profiles
        .iter()
        .enumerate()
        .map(|(p, prof)| (prof.name.to_string(), m.get(p, 4).avg_write_units))
        .collect();
    let get = |n: &str| units.iter().find(|(name, _)| name == n).unwrap().1;
    assert!(get("dedup") > get("blackscholes"));
    assert!(get("vips") > get("blackscholes"));
    assert!(get("dedup") >= get("freqmine"));
}

#[test]
fn figure_tables_render_from_matrix() {
    let (results, profiles, schemes) = matrix();
    let m = MatrixView::new(&results, &profiles, &schemes);
    // All artifact generators run on full-suite data without panicking and
    // carry the right row counts (8 workloads + average).
    for t in [
        figures::fig10(&m, &pcm_schemes::SchemeConfig::paper_baseline()),
        figures::fig11(&m),
        figures::fig12(&m),
        figures::fig13(&m),
        figures::fig14(&m),
    ] {
        assert_eq!(t.num_rows(), 9, "{}", t.title());
    }
    assert_eq!(figures::table3(Some(&m)).num_rows(), 8);
}

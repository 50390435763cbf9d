//! Figs. 11–14 — full-system latency/IPC/runtime: print a compact version
//! of the four figures once, then measure one simulation per scheme.

use pcm_bench::quick_run_config;
use pcm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcm_workloads::{WorkloadProfile, ALL_PROFILES};
use std::hint::black_box;
use tetris_experiments::figures::{self, MatrixView};
use tetris_experiments::{run_matrix, run_one, SchemeSelect};

fn bench(c: &mut Criterion) {
    let cfg = quick_run_config();
    // Regenerate Figs. 11–14 on the quick sizing.
    let results = run_matrix(&ALL_PROFILES, &SchemeSelect::COMPARED, &cfg);
    let m = MatrixView::new(&results, &ALL_PROFILES, &SchemeSelect::COMPARED);
    eprintln!("{}", figures::fig11(&m));
    eprintln!("{}", figures::fig12(&m));
    eprintln!("{}", figures::fig13(&m));
    eprintln!("{}", figures::fig14(&m));

    let p = WorkloadProfile::by_name("ferret").unwrap();
    let mut g = c.benchmark_group("system_sim_ferret_100k");
    g.sample_size(10);
    for kind in SchemeSelect::COMPARED {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.short()),
            &kind,
            |b, &kind| b.iter(|| black_box(run_one(p, kind, &cfg))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

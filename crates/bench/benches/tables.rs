//! Tables I–III: print them once, then measure their generation cost.

use pcm_bench::quick_run_config;
use pcm_bench::{criterion_group, criterion_main, Criterion};
use pcm_memsim::SystemConfig;
use pcm_workloads::ALL_PROFILES;
use std::hint::black_box;
use tetris_experiments::figures::{self, MatrixView};
use tetris_experiments::{run_matrix, SchemeSelect};

fn bench(c: &mut Criterion) {
    let cfg = quick_run_config();
    let results = run_matrix(&ALL_PROFILES, &SchemeSelect::COMPARED, &cfg);
    let m = MatrixView::new(&results, &ALL_PROFILES, &SchemeSelect::COMPARED);
    eprintln!("{}", figures::table1(&m));
    eprintln!("{}", figures::table2(&SystemConfig::paper_baseline()));
    eprintln!("{}", figures::table3(Some(&m)));

    c.bench_function("tables/render_all", |b| {
        b.iter(|| {
            black_box(figures::table1(&m));
            black_box(figures::table2(&SystemConfig::paper_baseline()));
            black_box(figures::table3(Some(&m)));
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Telemetry overhead: the instrumented simulator must cost nothing when
//! tracing is off (`NullSink`, the default) and stay cheap with an
//! in-memory sink. Compares a full system run under each sink, plus the
//! raw per-event cost of the sink trait object.

use pcm_bench::{criterion_group, criterion_main, Criterion};
use pcm_telemetry::{
    AsyncTraceWriter, MemorySink, NullSink, OpKind, Telemetry, TelemetryEvent, TraceDetail,
};
use pcm_types::Ps;
use pcm_workloads::WorkloadProfile;
use std::hint::black_box;
use tetris_experiments::{run_one, run_one_traced, RunConfig, SchemeSelect};

fn bench(c: &mut Criterion) {
    let cfg = RunConfig {
        instructions_per_core: 50_000,
        ..RunConfig::default()
    };
    let p = WorkloadProfile::by_name("vips").unwrap();

    let mut g = c.benchmark_group("telemetry/system_run");
    g.sample_size(10);
    // Baseline: the default path, NullSink behind the scenes.
    g.bench_function("null_sink", |b| {
        b.iter(|| black_box(run_one(p, SchemeSelect::Tetris, &cfg)))
    });
    // Every event recorded in memory (upper bound on tracing overhead
    // without disk I/O in the loop).
    g.bench_function("memory_sink", |b| {
        b.iter(|| {
            black_box(run_one_traced(
                p,
                SchemeSelect::Tetris,
                &cfg,
                Box::new(MemorySink::with_detail(TraceDetail::Fine)),
            ))
        })
    });
    // Async rank-tagged sink draining into a background thread (the
    // sharded-run tracing path; acceptance target is <2% over null_sink
    // at Coarse detail — the producer only pays a bounded-channel send).
    // The writer thread lives across iterations; Drop joins it untimed.
    g.bench_function("async_sink_coarse", |b| {
        let w = AsyncTraceWriter::new(std::io::sink(), TraceDetail::Coarse);
        b.iter(|| {
            black_box(run_one_traced(
                p,
                SchemeSelect::Tetris,
                &cfg,
                Box::new(w.rank_sink(0)),
            ))
        })
    });
    g.finish();

    // Raw dispatch cost of one event through the trait object.
    let ev = TelemetryEvent::BankBusy {
        at: Ps(1_000),
        bank: 3,
        kind: OpKind::Write,
        until: Ps(501_000),
        lines: 4,
    };
    c.bench_function("telemetry/null_sink_event", |b| {
        let mut sink: Box<dyn Telemetry> = Box::new(NullSink);
        b.iter(|| sink.record(black_box(&ev)))
    });
    c.bench_function("telemetry/memory_sink_event", |b| {
        let mut sink: Box<dyn Telemetry> = Box::new(MemorySink::new());
        b.iter(|| sink.record(black_box(&ev)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Micro benchmarks of the hot paths: bit utilities, flip coding, the
//! Tetris packer vs demand size, the write driver, cache lookups, the
//! event queue and the zipf sampler.

use pcm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcm_device::{WriteDriver, WriteSignal};
use pcm_memsim::cache::Cache;
use pcm_memsim::engine::{Event, EventQueue};
use pcm_memsim::SystemConfig;
use pcm_types::rng::{Rng, SmallRng};
use pcm_types::{flip_encode, hamming_unit, transitions, LineDemand, Ps, UnitDemand};
use pcm_workloads::Zipf;
use std::hint::black_box;
use tetris_write::{analyze, TetrisConfig};

fn bench(c: &mut Criterion) {
    c.bench_function("micro/transitions", |b| {
        b.iter(|| black_box(transitions(black_box(0xDEAD_BEEF), black_box(0xFEED_FACE))))
    });
    c.bench_function("micro/hamming_unit", |b| {
        b.iter(|| black_box(hamming_unit(black_box(0x0F0F), black_box(0xF0F0))))
    });
    c.bench_function("micro/flip_encode", |b| {
        b.iter(|| {
            black_box(flip_encode(
                black_box(0xAAAA),
                false,
                black_box(0x5555_5555),
            ))
        })
    });

    // Tetris packer scaling with line width (8/16/32 units = 64/128/256 B).
    let cfg = TetrisConfig::paper_baseline();
    let mut g = c.benchmark_group("micro/analyze_units");
    for n in [8usize, 16, 32] {
        let demand = LineDemand::from_units(&vec![UnitDemand::new(7, 3); n]);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &demand, |b, d| {
            b.iter(|| black_box(analyze(d, &cfg).unwrap()))
        });
    }
    g.finish();

    c.bench_function("micro/write_driver", |b| {
        let d = WriteDriver::new(17);
        b.iter(|| black_box(d.drive(black_box(0x1_5555), black_box(0x0_AAAA), WriteSignal::One)))
    });

    c.bench_function("micro/cache_access", |b| {
        // Table II L1: 32 KB, 4-way.
        let mut cache = Cache::new(SystemConfig::paper_baseline().l1, 64).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| {
            let addr = (rng.gen::<u64>() % 4096) * 64;
            black_box(cache.access(addr, rng.gen_bool(0.2)))
        })
    });

    c.bench_function("micro/event_queue_push_pop", |b| {
        let mut q = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.push(Ps(t % 1000), Event::CoreStep { core: 0 });
            black_box(q.pop())
        })
    });

    c.bench_function("micro/zipf_sample", |b| {
        let z = Zipf::new(16_384, 0.9);
        let mut rng = SmallRng::seed_from_u64(6);
        b.iter(|| black_box(z.sample(&mut rng)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

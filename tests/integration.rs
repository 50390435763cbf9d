//! Cross-crate integration tests: the full pipeline from workload content
//! through scheme planning, memory state, controller and system run.

use pcm_memsim::cpu::VecTrace;
use pcm_memsim::{
    AccessKind, PcmMainMemory, ShardedSystem, System, SystemConfig, TraceLevel, TraceOp,
    UniformRandomContent,
};
use pcm_schemes::{
    DcwWrite, FlipNWrite, SchemeConfig, ThreeStageWrite, TwoStageWrite, WriteScheme,
};
use pcm_types::rng::{Rng, StdRng};
use pcm_types::LineData;
use pcm_workloads::{
    generator::{GeneratorConfig, SyntheticParsec},
    trace::{write_trace, TraceFileSource},
    ProfileContent, WorkloadProfile, ALL_PROFILES,
};
use tetris_write::TetrisWrite;

fn all_schemes() -> Vec<Box<dyn WriteScheme>> {
    vec![
        Box::new(DcwWrite),
        Box::new(FlipNWrite),
        Box::new(TwoStageWrite),
        Box::new(ThreeStageWrite),
        Box::new(TetrisWrite::paper_baseline()),
    ]
}

/// Every scheme, applied to the same random write stream through the
/// memory model, must leave identical *logical* contents.
#[test]
fn all_schemes_preserve_logical_contents() {
    let cfg = SchemeConfig::paper_baseline();
    let mut rng = StdRng::seed_from_u64(77);
    let writes: Vec<(u64, LineData)> = (0..200)
        .map(|_| {
            let addr = (rng.gen_range(0..1024u64)) * 64;
            let units: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
            (addr, LineData::from_units(&units))
        })
        .collect();

    let mut finals: Vec<Vec<LineData>> = Vec::new();
    for scheme in all_schemes() {
        let mut mem = PcmMainMemory::new(cfg, scheme).unwrap();
        for (addr, line) in &writes {
            mem.write_line(*addr, line).unwrap();
        }
        let snapshot: Vec<LineData> = (0..1024u64)
            .map(|i| mem.peek_line(i * 64).unwrap())
            .collect();
        finals.push(snapshot);
    }
    for other in &finals[1..] {
        assert_eq!(&finals[0], other, "schemes disagree on logical contents");
    }
}

/// The profile content model drives a real memory-model write stream whose
/// demand the Tetris scheme can always schedule within budget.
#[test]
fn profile_content_through_tetris_memory() {
    let cfg = SchemeConfig::paper_baseline();
    for p in &ALL_PROFILES {
        let mut mem = PcmMainMemory::new(cfg, Box::new(TetrisWrite::paper_baseline())).unwrap();
        let mut content = ProfileContent::new(p, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let addr = rng.gen_range(0..64u64) * 64;
            let old = mem.peek_line(addr).unwrap();
            let new = pcm_memsim::WriteContent::generate(&mut content, 0, &old);
            let out = mem.write_line(addr, &new).unwrap();
            assert!(out.write_units_equiv >= 1.0);
            assert!(
                out.write_units_equiv <= 4.0,
                "{}: {}",
                p.name,
                out.write_units_equiv
            );
            assert_eq!(mem.peek_line(addr).unwrap(), new);
        }
    }
}

/// Generated traces survive a JSON round trip and replay to the same
/// simulation result as the live generator.
#[test]
fn recorded_trace_replays_identically() {
    let p = WorkloadProfile::by_name("ferret").unwrap();
    let gen_cfg = GeneratorConfig {
        instructions_per_core: 100_000,
        cores: 2,
        ..Default::default()
    };
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = 2;

    let run = |trace: Box<dyn pcm_memsim::RequestSource>| {
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(trace)
            .with_content(Box::new(UniformRandomContent::new(3)));
        sys.run()
    };

    let live = run(Box::new(SyntheticParsec::new(p, gen_cfg)));

    let mut gen = SyntheticParsec::new(p, gen_cfg);
    let recorded = VecTrace::capture(&mut gen, 2);
    let mut buf = Vec::new();
    write_trace(&mut buf, recorded.ops()).unwrap();
    let replayed = run(Box::new(
        TraceFileSource::from_reader(std::io::BufReader::new(&buf[..])).unwrap(),
    ));

    assert_eq!(live.runtime, replayed.runtime);
    assert_eq!(live.mem_reads, replayed.mem_reads);
    assert_eq!(live.mem_writes, replayed.mem_writes);
    assert_eq!(live.read_latency.sum_ps, replayed.read_latency.sum_ps);
}

/// Memory-level and CPU-level modes agree on conservation laws: every op
/// issued is eventually serviced, none invented.
#[test]
fn cpu_mode_conserves_work() {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = 1;
    cfg.l1.size_bytes = 4 << 10;
    cfg.l1.assoc = 2;
    cfg.l2.size_bytes = 32 << 10;
    cfg.l2.assoc = 4;
    cfg.l3.size_bytes = 256 << 10;
    cfg.l3.assoc = 8;
    cfg.level = TraceLevel::CpuLevel;
    let lines = 4096u64;
    let ops: Vec<TraceOp> = (0..lines)
        .map(|i| TraceOp {
            gap: 2,
            kind: if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            addr: i * 64,
        })
        .collect();
    let n_reads = ops.iter().filter(|o| o.kind == AccessKind::Read).count() as u64;
    let mut sys = System::build(cfg)
        .unwrap()
        .with_trace(Box::new(VecTrace::new(vec![ops])))
        .with_content(Box::new(UniformRandomContent::new(8)));
    let r = sys.run();
    // Every distinct line misses exactly once (footprint streams, no reuse).
    assert_eq!(r.mem_reads, lines, "write-allocate fetch per line");
    // Every dirtied line eventually lands in PCM (evictions + final flush).
    assert_eq!(r.mem_writes, lines.div_ceil(3));
    assert!(r.instructions[0] >= n_reads);
}

/// Determinism across the whole stack: same seeds → byte-identical results
/// for every scheme.
#[test]
fn end_to_end_determinism() {
    let p = WorkloadProfile::by_name("dedup").unwrap();
    for kind in [
        tetris_experiments::SchemeSelect::Dcw,
        tetris_experiments::SchemeSelect::Tetris,
    ] {
        let cfg = tetris_experiments::RunConfig {
            instructions_per_core: 150_000,
            ..Default::default()
        };
        let a = tetris_experiments::run_one(p, kind, &cfg);
        let b = tetris_experiments::run_one(p, kind, &cfg);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.cell_sets, b.cell_sets);
        assert_eq!(a.write_latency.sum_ps, b.write_latency.sum_ps);
    }
}

/// The controller services every write exactly once (no loss, no
/// duplication) even under backpressure.
#[test]
fn writes_conserved_under_backpressure() {
    let ops: Vec<TraceOp> = (0..500)
        .map(|i| TraceOp {
            gap: 0,
            kind: AccessKind::Write,
            addr: i * 64,
        })
        .collect();
    let mut sys = System::build(SystemConfig::paper_baseline())
        .unwrap()
        .with_trace(Box::new(VecTrace::new(vec![ops])))
        .with_content(Box::new(UniformRandomContent::new(1)));
    let r = sys.run();
    assert_eq!(r.mem_writes, 500);
    assert_eq!(r.write_latency.count, 500);
    assert!(
        r.write_stall.as_ps() > 0,
        "32-entry queue must backpressure 500 writes"
    );
}

/// A recorded workload trace sharded across 4 ranks conserves traffic and
/// instruction counts against the single-controller run of the same trace.
#[test]
fn sharded_replay_conserves_traffic() {
    let p = WorkloadProfile::by_name("vips").unwrap();
    let gen_cfg = GeneratorConfig {
        instructions_per_core: 100_000,
        cores: 2,
        ..Default::default()
    };
    let mut gen = SyntheticParsec::new(p, gen_cfg);
    let ops = VecTrace::capture(&mut gen, 2);
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = 2;

    let mut single = System::build(cfg)
        .unwrap()
        .with_trace(Box::new(ops.clone()));
    let one = single.run();

    cfg.mem.org.ranks = 4;
    let four = ShardedSystem::build(cfg, &mut ops.clone())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(four.mem_reads, one.mem_reads);
    assert_eq!(four.mem_writes, one.mem_writes);
    assert_eq!(four.instructions, one.instructions);
    assert!(four.runtime <= one.runtime);
}

/// The traced-run path writes a JSONL telemetry file that round-trips
/// through the reader into a non-trivial summary: run metadata, per-bank
/// activity and queue-depth samples all survive the disk hop.
#[test]
fn traced_run_roundtrips_through_jsonl() {
    use pcm_telemetry::{read_events, JsonlSink, TraceDetail, TraceSummary};
    let path = std::env::temp_dir().join(format!(
        "tetris-trace-roundtrip-{}.jsonl",
        std::process::id()
    ));
    let sink = JsonlSink::create(&path, TraceDetail::Fine).unwrap();
    let p = WorkloadProfile::by_name("vips").unwrap();
    let cfg = tetris_experiments::RunConfig {
        instructions_per_core: 100_000,
        ..Default::default()
    };
    let r = tetris_experiments::run_one_traced(
        p,
        tetris_experiments::SchemeSelect::Tetris,
        &cfg,
        Box::new(sink),
    );
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let events = read_events(file).unwrap();
    std::fs::remove_file(&path).ok();
    let s = TraceSummary::from_events(&events);
    assert_eq!(s.workload, "vips");
    assert_eq!(s.scheme, "Tetris Write");
    assert_eq!(s.banks.len(), cfg.system.mem.org.total_banks() as usize);
    let reads: u64 = s.banks.iter().map(|b| b.reads).sum();
    let writes: u64 = s.banks.iter().map(|b| b.writes).sum();
    assert_eq!(reads, r.mem_reads, "every memory read is traced");
    assert!(writes > 0 && !s.read_depths.is_empty());
    // The rendered tables carry one row per bank / queue.
    let banks = tetris_experiments::report::trace_bank_table(&s);
    let queues = tetris_experiments::report::trace_queue_table(&s);
    assert_eq!(banks.to_csv().lines().count(), 2 + s.banks.len());
    assert!(queues.to_csv().contains("\nread,"));
}

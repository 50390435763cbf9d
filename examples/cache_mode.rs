//! CPU-level trace mode: drive the full L1/L2/L3 hierarchy and watch LLC
//! misses and write-backs reach the PCM.
//!
//! ```text
//! cargo run --release --example cache_mode
//! ```

use pcm_memsim::prelude::*;
use tetris_experiments::SchemeSelect;

fn main() {
    // Scaled-down caches (4 KB L1 / 32 KB L2 / 256 KB L3) so the
    // streaming writer overflows the L3 quickly.
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = 2;
    cfg.l1.size_bytes = 4 << 10;
    cfg.l1.assoc = 2;
    cfg.l2.size_bytes = 32 << 10;
    cfg.l2.assoc = 4;
    cfg.l3.size_bytes = 256 << 10;
    cfg.l3.assoc = 8;

    // Each core: a pointer-chase over a hot footprint (cache-resident)
    // interleaved with a streaming writer whose footprint exceeds the L3.
    let l3_lines = cfg.l3.size_bytes / 64;
    let mk_core = |core: u64| -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for i in 0..(l3_lines * 2) {
            // Hot reads: 256-line private region, revisited constantly.
            ops.push(TraceOp {
                gap: 10,
                kind: AccessKind::Read,
                addr: 0x100_0000 * (core + 1) + (i % 256) * 64,
            });
            // Streaming writes: march across 2× the L3.
            ops.push(TraceOp {
                gap: 10,
                kind: AccessKind::Write,
                addr: 0x4000_0000 + core * 0x1000_0000 + i * 64,
            });
        }
        ops
    };

    for kind in [SchemeSelect::Dcw, SchemeSelect::Tetris] {
        let mut cfg = cfg;
        cfg.level = TraceLevel::CpuLevel;
        cfg.mem.select = kind;
        let mut sys = System::build(cfg)
            .expect("valid config")
            .with_trace(Box::new(VecTrace::new(vec![mk_core(0), mk_core(1)])))
            .with_content(Box::new(UniformRandomContent::new(12)));
        sys.set_workload_name("cache-mode-demo");
        let r = sys.run();
        let (l1, l2) = sys.hierarchy().unwrap().core_stats(0);
        let l3 = sys.hierarchy().unwrap().l3_stats();
        println!("scheme: {kind:?}");
        println!(
            "  L1 hit rate {:.1}%   L2 hit rate {:.1}%   L3 hit rate {:.1}%",
            (1.0 - l1.miss_ratio()) * 100.0,
            (1.0 - l2.miss_ratio()) * 100.0,
            (1.0 - l3.miss_ratio()) * 100.0
        );
        println!(
            "  PCM traffic: {} reads, {} writes (write-backs)",
            r.mem_reads, r.mem_writes
        );
        println!(
            "  runtime {:.2} ms, IPC {:.3}, read latency {:.0} ns, write latency {:.0} ns\n",
            r.runtime.as_ns_f64() / 1e6,
            r.ipc(),
            r.read_latency.mean_ns(),
            r.write_latency.mean_ns()
        );
    }
    println!("the hot read region stays cache-resident; the streaming writer's");
    println!("dirty lines spill out of the L3 and their service time is set by");
    println!("the PCM write scheme — Tetris shortens exactly that path.");
}

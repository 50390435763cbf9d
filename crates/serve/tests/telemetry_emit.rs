//! Every `TelemetryEvent` variant is emitted by some run.
//!
//! The count side needs no test: `TraceSummary::from_events` matches the
//! enum with no `_` arm, so rustc rejects a variant it does not count.
//! This test holds the emit side. Its variant list is an exhaustive
//! `match` (again no `_` arm): a new variant does not compile until it is
//! listed here, and fails the test until one of the runs below emits it.

use pcm_memsim::{
    AccessKind, PolicySelect, SchedConfig, SchemeSelect, System, SystemConfig, TraceOp,
    UniformRandomContent, VecTrace, WriteCacheConfig,
};
use pcm_serve::{Admission, ServeConfig, ServeEngine};
use pcm_telemetry::{Telemetry, TelemetryEvent, TraceDetail};
use pcm_types::Ps;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Declares `NAMES` and `name()` from one list of variants.
macro_rules! variants {
    ($($v:ident),+ $(,)?) => {
        const NAMES: &[&str] = &[$(stringify!($v)),+];

        fn name(e: &TelemetryEvent) -> &'static str {
            match e {
                $(TelemetryEvent::$v { .. } => stringify!($v),)+
            }
        }
    };
}

variants!(
    RunMeta,
    BankBusy,
    BankIdle,
    QueueDepth,
    DrainStart,
    DrainStop,
    WritePause,
    WriteResume,
    WatermarkAdjust,
    WriteSteer,
    ReadWindow,
    BatchPack,
    PartitionWrite,
    CosetChoice,
    RequestDone,
    Backpressure,
    WriteCacheHit,
    WriteCacheDrain,
);

/// A Fine-detail sink whose log outlives the simulator that owns it.
#[derive(Clone, Default)]
struct Shared(Rc<RefCell<BTreeSet<&'static str>>>);

impl Telemetry for Shared {
    fn detail(&self) -> Option<TraceDetail> {
        Some(TraceDetail::Fine)
    }

    fn record(&mut self, ev: &TelemetryEvent) {
        self.0.borrow_mut().insert(name(ev));
    }
}

/// A write-heavy stream per core over a few hundred lines. Every fourth
/// op is a read: of the line just written (a write-cache or queue hit),
/// or of one written long ago (a trip to a bank that may be writing).
fn ops(core: u64, n: u64) -> Vec<TraceOp> {
    let line = |i: u64| (i * 7 + core * 1_000) % 384;
    (0..n)
        .map(|i| {
            let (kind, line) = match i % 8 {
                3 => (AccessKind::Read, line(i - 1)),
                7 => (AccessKind::Read, line(i + 190)),
                _ => (AccessKind::Write, line(i)),
            };
            TraceOp {
                gap: 2,
                kind,
                addr: line * 64,
            }
        })
        .collect()
}

fn run_system(cfg: SystemConfig, sink: &Shared) {
    let trace = VecTrace::new((0..cfg.cores as u64).map(|c| ops(c, 3_000)).collect());
    let mut sys = System::build(cfg)
        .expect("valid config")
        .with_trace(Box::new(trace))
        .with_content(Box::new(UniformRandomContent::new(7)));
    sys.set_telemetry(Box::new(sink.clone()));
    sys.run();
}

#[test]
fn every_variant_is_emitted() {
    let sink = Shared::default();

    // Adaptive Tetris behind the write cache, with pausing and batching.
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = 2;
    cfg.mem.select = SchemeSelect::Tetris;
    cfg.controller.sched = SchedConfig::adaptive();
    cfg.controller.write_pausing = true;
    cfg.controller.batch_writes = 4;
    cfg.write_cache = WriteCacheConfig::with_frames(32, PolicySelect::Lru);
    run_system(cfg, &sink);

    // PALP and WIRE, each with its own plan telemetry; reads pause writes.
    for select in [SchemeSelect::Palp, SchemeSelect::Wire] {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = 2;
        cfg.mem.select = select;
        cfg.controller.write_pausing = true;
        run_system(cfg, &sink);
    }

    // A serve engine that sheds: a write burst past a tiny watermark.
    let cfg = ServeConfig {
        shed_watermark: 2,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(cfg, Box::new(sink.clone())).expect("valid config");
    let mut shed = 0;
    for i in 0..64u64 {
        let kind = if i % 8 == 7 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let admitted = engine.submit(0, kind, i * 64, Ps::ZERO).expect("submit");
        shed += u32::from(matches!(admitted, Admission::Shed { .. }));
    }
    engine.drain().expect("drain");
    assert!(shed > 0, "the burst must overflow the watermark");

    let seen = sink.0.borrow();
    let missing: Vec<&str> = NAMES
        .iter()
        .copied()
        .filter(|n| !seen.contains(n))
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
}

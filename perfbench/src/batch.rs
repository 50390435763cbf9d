//! The batch workloads: one pass through the entry point users call,
//! `System::build(..).with_trace(..).with_content(..).run()`.

use crate::layers::{
    CountingSink, EventCounts, Span, TimedContent, TimedScheme, TimedSink, TimedSource,
};
use pcm_memsim::controller::CtrlStats;
use pcm_memsim::{
    AccessKind, PcmMainMemory, RequestSource, SchemeSelect, SimResult, System, SystemConfig,
    WriteContent, WriteScheme,
};
use pcm_telemetry::{NullSink, Telemetry, TraceDetail};
use pcm_types::{LineData, PcmError, PhysAddr};
use pcm_workloads::{GeneratorConfig, ProfileContent, SyntheticParsec, WorkloadProfile};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One batch workload: a Table III profile under Tetris on the
/// paper-baseline system (1 rank, write cache off).
#[derive(Clone, Copy, Debug)]
pub struct BatchWorkload {
    /// Workload name as the benchmark's `--workload` flag spells it.
    pub name: &'static str,
    /// Table III profile driving the generator and the content model.
    pub profile: &'static str,
    /// Instructions each of the four cores retires.
    pub instructions_per_core: u64,
}

/// Write-heavy (WPKI 1.56): the write path — content synthesis, scheme
/// planning, the backing store, drains — does most of the work.
pub const VIPS_TETRIS: BatchWorkload = BatchWorkload {
    name: "vips_tetris",
    profile: "vips",
    instructions_per_core: 10_000_000,
};

/// Read-heavy (RPKI 2.76, WPKI 0.19): the same layers driven mostly by
/// reads, so a write-path gain that taxes reads or the generator shows.
pub const CANNEAL_TETRIS: BatchWorkload = BatchWorkload {
    name: "canneal_tetris",
    profile: "canneal",
    instructions_per_core: 30_000_000,
};

/// What one finished batch run exposes through its public getters.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// The run's statistics.
    pub result: SimResult,
    /// The controller's counters.
    pub ctrl: CtrlStats,
}

impl BatchOutput {
    /// Two outputs are the same model output when every field matches.
    pub fn same_as(&self, other: &BatchOutput) -> bool {
        format!("{:?}{:?}", self.result, self.ctrl) == format!("{:?}{:?}", other.result, other.ctrl)
    }

    /// Memory operations the run serviced.
    pub fn ops(&self) -> u64 {
        self.result.mem_reads + self.result.mem_writes
    }
}

/// Host times of one untraced run.
#[derive(Clone, Copy, Debug)]
pub struct RunTimes {
    /// Building the program's objects: generator, content model, system.
    pub setup: Duration,
    /// `System::run`.
    pub run: Duration,
}

/// One traced run: host time per layer, charged by the timing adapters.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// `System::run`, traced.
    pub run: Duration,
    /// `RequestSource::next` calls and nanoseconds.
    pub gen: (u64, u64),
    /// `WriteContent::generate` calls and nanoseconds.
    pub content: (u64, u64),
    /// Telemetry sink nanoseconds.
    pub telemetry_ns: u64,
    /// The model output, which the adapters must not change.
    pub out: BatchOutput,
}

/// A Fine-detail run into a [`CountingSink`].
#[derive(Clone, Debug)]
pub struct CountedRun {
    /// `System::run` with the counting sink installed.
    pub run: Duration,
    /// Events the sink received.
    pub events: u64,
    /// The model output, which telemetry must not change.
    pub out: BatchOutput,
}

/// The workload's write stream replayed into a standalone memory.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// Lines written.
    pub writes: u64,
    /// Scheme plans made, and their nanoseconds.
    pub plans: (u64, u64),
    /// Nanoseconds of the whole `write_line` loop, plans included.
    pub write_loop_ns: u64,
}

impl BatchWorkload {
    fn profile(&self) -> &'static WorkloadProfile {
        WorkloadProfile::by_name(self.profile).expect("batch workloads name Table III profiles")
    }

    /// The system every batch run builds: paper baseline under Tetris.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.mem.select = SchemeSelect::Tetris;
        cfg
    }

    fn gen_config(&self, seed: u64) -> GeneratorConfig {
        let cfg = self.system_config();
        GeneratorConfig {
            instructions_per_core: self.instructions_per_core,
            cores: cfg.cores,
            line_bytes: cfg.mem.org.cache_line_bytes as u64,
            seed,
        }
    }

    /// The request generator for `seed`.
    pub fn source(&self, seed: u64) -> SyntheticParsec {
        SyntheticParsec::new(self.profile(), self.gen_config(seed))
    }

    /// The write-content model for `seed` (the experiments runner's
    /// seed relation between trace and content).
    pub fn content(&self, seed: u64) -> ProfileContent {
        ProfileContent::new(self.profile(), seed ^ 0x51)
    }

    fn build(
        &self,
        trace: Box<dyn RequestSource>,
        content: Box<dyn WriteContent>,
        tel: Box<dyn Telemetry>,
    ) -> Result<System, PcmError> {
        let mut sys = System::build(self.system_config())?
            .with_trace(trace)
            .with_content(content)
            .with_telemetry(tel);
        sys.set_workload_name(self.profile);
        Ok(sys)
    }

    fn finish(sys: &mut System) -> (Duration, BatchOutput) {
        let t = Instant::now();
        let result = sys.run();
        let run = t.elapsed();
        (
            run,
            BatchOutput {
                result,
                ctrl: sys.ctrl_stats(),
            },
        )
    }

    /// Build the program's objects and drop them, returning the set-up
    /// time alone.
    pub fn setup_only(&self, seed: u64) -> Result<Duration, PcmError> {
        let t = Instant::now();
        let sys = self.build(
            Box::new(self.source(seed)),
            Box::new(self.content(seed)),
            Box::new(NullSink),
        )?;
        let setup = t.elapsed();
        drop(std::hint::black_box(sys));
        Ok(setup)
    }

    /// One untraced run with the zero-cost sink.
    pub fn run_plain(&self, seed: u64) -> Result<(RunTimes, BatchOutput), PcmError> {
        let t = Instant::now();
        let mut sys = self.build(
            Box::new(self.source(seed)),
            Box::new(self.content(seed)),
            Box::new(NullSink),
        )?;
        let setup = t.elapsed();
        let (run, out) = Self::finish(&mut sys);
        Ok((RunTimes { setup, run }, out))
    }

    /// One run with every seam wrapped in a timing adapter.
    pub fn run_traced(&self, seed: u64) -> Result<TracedRun, PcmError> {
        let (gen, content, tel) = (Span::shared(), Span::shared(), Span::shared());
        let mut sys = self.build(
            Box::new(TimedSource::new(self.source(seed), Arc::clone(&gen))),
            Box::new(TimedContent::new(self.content(seed), Arc::clone(&content))),
            Box::new(TimedSink::new(NullSink, Arc::clone(&tel))),
        )?;
        let (run, out) = Self::finish(&mut sys);
        Ok(TracedRun {
            run,
            gen: (gen.calls(), gen.ns()),
            content: (content.calls(), content.ns()),
            telemetry_ns: tel.ns(),
            out,
        })
    }

    /// One run recording every event up to `level` into a counting sink.
    pub fn run_counted(&self, seed: u64, level: TraceDetail) -> Result<CountedRun, PcmError> {
        let counts = Arc::new(EventCounts::default());
        let mut sys = self.build(
            Box::new(self.source(seed)),
            Box::new(self.content(seed)),
            Box::new(CountingSink::new(level, Arc::clone(&counts))),
        )?;
        let (run, out) = Self::finish(&mut sys);
        Ok(CountedRun {
            run,
            events: counts.events.load(std::sync::atomic::Ordering::Relaxed),
            out,
        })
    }

    /// Memory operations the generator offers for `seed` (benchmark
    /// input, counted before timing starts).
    pub fn offered_ops(&self, seed: u64) -> u64 {
        let mut src = self.source(seed);
        let cores = self.system_config().cores;
        (0..cores)
            .map(|core| std::iter::from_fn(|| src.next(core)).count() as u64)
            .sum()
    }

    /// The workload's write stream: the generator's writes, cores
    /// interleaved round-robin, with new contents from the workload's
    /// content model applied to the line's previous logical contents.
    /// Write order differs from the simulated issue order; the address
    /// and content distributions are the workload's own.
    pub fn write_stream(&self, seed: u64) -> Vec<(PhysAddr, LineData)> {
        let cfg = self.system_config();
        let line_bytes = cfg.mem.org.cache_line_bytes as usize;
        let mut src = self.source(seed);
        let mut content = self.content(seed);
        let mut logical: HashMap<PhysAddr, LineData> = HashMap::new();
        let mut stream = Vec::new();
        let mut live: Vec<usize> = (0..cfg.cores).collect();
        while !live.is_empty() {
            live.retain(|&core| match src.next(core) {
                Some(op) => {
                    if op.kind == AccessKind::Write {
                        let old = logical
                            .get(&op.addr)
                            .copied()
                            .unwrap_or_else(|| LineData::zeroed(line_bytes));
                        let new = content.generate(core, &old);
                        logical.insert(op.addr, new);
                        stream.push((op.addr, new));
                    }
                    true
                }
                None => false,
            });
        }
        stream
    }
}

/// The write scheme `System::build` instantiates for `cfg`.
pub fn instantiate_scheme(cfg: &SystemConfig) -> Box<dyn WriteScheme> {
    if cfg.mem.select == SchemeSelect::Tetris {
        // System::build routes Tetris through cfg.tetris so its packing
        // knobs apply; do the same.
        let mut t = cfg.tetris;
        t.scheme = cfg.mem;
        Box::new(tetris_write::TetrisWrite::new(t))
    } else {
        tetris_write::register_scheme_factory();
        cfg.mem.instantiate()
    }
}

/// A standalone memory whose scheme is the instantiated one wrapped in a
/// [`TimedScheme`] charging `span`.
pub fn timed_memory(cfg: &SystemConfig, span: Arc<Span>) -> Result<PcmMainMemory, PcmError> {
    PcmMainMemory::new(
        cfg.mem,
        Box::new(TimedScheme::new(instantiate_scheme(cfg), span)),
    )
}

/// Replay `stream` into a fresh [`timed_memory`], one single-line batch
/// per write, as the controller issues them with `batch_writes = 1`.
pub fn replay(cfg: &SystemConfig, stream: &[(PhysAddr, LineData)]) -> Result<Replay, PcmError> {
    let span = Span::shared();
    let mut mem = timed_memory(cfg, Arc::clone(&span))?;
    let t = Instant::now();
    for w in stream {
        std::hint::black_box(mem.write_lines_batch(std::slice::from_ref(w))?);
    }
    let write_loop_ns = t.elapsed().as_nanos() as u64;
    Ok(Replay {
        writes: stream.len() as u64,
        plans: (span.calls(), span.ns()),
        write_loop_ns,
    })
}

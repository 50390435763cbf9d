//! The two passes over a workload: untraced end-to-end metrics, and the
//! traced per-layer attribution.

use crate::batch::{self, BatchOutput, BatchWorkload, RunTimes, CANNEAL_TETRIS, VIPS_TETRIS};
use crate::reference;
use crate::report::{fingerprint, fnv1a, median, percentile_u64, quantile, Metric};
use crate::serve::{check_responses, ServeInput, ServeSummary, ServeWorkload, SERVE_OPENLOOP};
use pcm_telemetry::{NullSink, TraceDetail};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// A batch `System` run.
    Batch(BatchWorkload),
    /// The `pcm-serve` wire path.
    Serve(ServeWorkload),
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload::Batch(VIPS_TETRIS),
    Workload::Batch(CANNEAL_TETRIS),
    Workload::Serve(SERVE_OPENLOOP),
];

impl Workload {
    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Batch(w) => w.name,
            Workload::Serve(w) => w.name,
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups timed after each measured run (each run times one more), so
/// set-up samples spread over the whole measuring period.
const SETUPS_PER_RUN: usize = 16;
/// Untraced runs per set, whatever the time budget: repeats are what the
/// determinism check compares.
const MIN_RUNS: usize = 3;
/// Traced rounds per set, whatever the time budget.
const MIN_ROUNDS: usize = 2;
/// Replays of the write stream for the scheme and store layers.
const REPLAY_PASSES: usize = 5;
/// How far the layer shares may sum from the traced wall time.
const SHARE_SUM_TOLERANCE: f64 = 0.05;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("host_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics, in `BENCHMARK.json` order. Every workload
/// reports all of them; a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("gen.calls", "count"),
    ("gen.ns_per_call", "ns"),
    ("gen.self_frac", "ratio"),
    ("content.calls", "count"),
    ("content.ns_per_call", "ns"),
    ("content.self_frac", "ratio"),
    ("scheme.plans", "count"),
    ("scheme.plan_ns", "ns"),
    ("scheme.self_frac", "ratio"),
    ("store.write_ns", "ns"),
    ("store.self_frac", "ratio"),
    ("ctrl.self_frac", "ratio"),
    ("ctrl.drains", "count"),
    ("ctrl.write_pauses", "count"),
    ("ctrl.read_forwards", "count"),
    ("telemetry.self_frac", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.fine_overhead_frac", "ratio"),
    ("proto.parse_ns", "ns"),
    ("proto.format_ns", "ns"),
    ("proto.self_frac", "ratio"),
    ("engine.submit_ns", "ns"),
    ("engine.submit_p99_ns", "ns"),
    ("engine.submit_samples", "count"),
    ("engine.drain_ns", "ns"),
    ("engine.self_frac", "ratio"),
    ("server.self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.share_sum", "ratio"),
    ("sim.mem_reads", "count"),
    ("sim.mem_writes", "count"),
    ("sim.cell_sets", "count"),
    ("sim.cell_resets", "count"),
    ("sim.ipc", "instr/cycle"),
    ("sim.read_latency_ns", "ns"),
    ("sim.write_latency_ns", "ns"),
    ("sim.read_p99_ns", "ns"),
    ("sim.write_p99_ns", "ns"),
    ("serve.peak_write_depth", "count"),
    ("sim.fingerprint", "hash"),
];

/// What one benchmark invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered to the program over every measured run.
    pub attempted: u64,
    /// Operations that failed: shed or refused requests, or every op of
    /// a run that errored.
    pub failed: u64,
    /// The metrics of the pass, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// Run `f`, turning an error or a panic into a message.
fn guarded<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())),
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Measure `w` for about `budget` of host time: the end-to-end metrics
/// untraced, or the per-layer metrics with `traced`.
pub fn measure(w: Workload, seed: u64, budget: Duration, traced: bool) -> Outcome {
    let mut o = match (w, traced) {
        (Workload::Batch(b), false) => batch_end_to_end(b, seed, budget),
        (Workload::Batch(b), true) => batch_layers(b, seed, budget),
        (Workload::Serve(s), false) => serve_end_to_end(s, seed, budget),
        (Workload::Serve(s), true) => serve_layers(s, seed, budget),
    };
    if o.attempted == 0 {
        o.attempted = 1;
        o.failed = 1;
        o.problem("no operation was attempted");
    }
    for m in &o.metrics {
        if !m.value.is_finite() {
            o.problems
                .push(format!("{} is not a finite number", m.name));
        }
    }
    o
}

/// Untraced samples: per-run host ns per op and set-up seconds, scaled
/// to the reference speed, with the raw values beside them.
#[derive(Debug, Default)]
struct Samples {
    per_op_ns: Vec<f64>,
    raw_per_op_ns: Vec<f64>,
    setup_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
}

impl Samples {
    fn push_setup(&mut self, d: Duration, speed: f64) {
        self.raw_setup_s.push(d.as_secs_f64());
        self.setup_s.push(d.as_secs_f64() * speed);
    }
}

/// Repeat `run` for at least `budget` and [`MIN_RUNS`] runs, bracketing
/// each by reference-kernel passes. `run` checks its own output and
/// returns the run's times and its op count, or an error that fails all
/// `offered` ops and ends the loop; `setup` times one set-up alone.
fn repeat(
    o: &mut Outcome,
    budget: Duration,
    offered: u64,
    mut run: impl FnMut(&mut Outcome) -> Result<(RunTimes, u64), String>,
    mut setup: impl FnMut() -> Result<Duration, String>,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while s.per_op_ns.len() < MIN_RUNS || start.elapsed() < budget {
        o.attempted += offered;
        let before = reference::kernel_ns();
        let result = run(o);
        let speed = reference::speed_factor(before, reference::kernel_ns());
        let (times, ops) = match result {
            Ok(v) => v,
            Err(e) => {
                o.failed += offered;
                o.problem(e);
                break;
            }
        };
        let raw = ns(times.run) / ops.max(1) as f64;
        s.raw_per_op_ns.push(raw);
        s.per_op_ns.push(raw * speed);
        s.push_setup(times.setup, speed);
        for _ in 0..SETUPS_PER_RUN {
            match setup() {
                Ok(d) => s.push_setup(d, speed),
                Err(e) => o.problem(format!("set-up failed: {e}")),
            }
        }
    }
    s
}

/// Summarise untraced samples into the end-to-end metrics.
fn end_to_end(o: &mut Outcome, s: &Samples) {
    let rss = crate::report::peak_rss_mb().unwrap_or_else(|| {
        o.problem("peak RSS unavailable: /proc/self/status has no VmHWM");
        0.0
    });
    let ok_frac = (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64;
    let values = [median(&s.per_op_ns), median(&s.setup_s), rss, ok_frac];
    o.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let samples: Vec<String> = s.per_op_ns.iter().map(|v| format!("{v:.0}")).collect();
    o.notes.extend([
        format!(
            "host_ns_per_op {:.1} ns at reference speed: median of {} runs (q1 {:.1}, q3 {:.1}); raw median {:.1} ns",
            median(&s.per_op_ns),
            s.per_op_ns.len(),
            quantile(&s.per_op_ns, 0.25),
            quantile(&s.per_op_ns, 0.75),
            median(&s.raw_per_op_ns),
        ),
        format!("host_ns_per_op samples in run order: {}", samples.join(" ")),
        format!(
            "setup_s {:.3e} s at reference speed: median of {} set-ups; raw median {:.3e} s",
            median(&s.setup_s),
            s.setup_s.len(),
            median(&s.raw_setup_s),
        ),
        format!("peak_rss_mb {rss:.1} MB"),
        format!(
            "fail_frac {} ratio: {} failed of {} attempted ops",
            o.failed as f64 / o.attempted.max(1) as f64,
            o.failed,
            o.attempted
        ),
    ]);
}

/// Print the simulated counts and their fingerprint as notes.
fn sim_notes(o: &mut Outcome, sim: &[Metric]) {
    let line: Vec<String> = sim
        .iter()
        .map(|m| format!("{}={}", m.name, m.value))
        .collect();
    o.notes.push(format!("sim {}", line.join(" ")));
    o.notes
        .push(format!("sim.fingerprint {:016x}", fingerprint(sim)));
}

fn metrics(rows: &[(&'static str, f64, &'static str)]) -> Vec<Metric> {
    rows.iter()
        .map(|&(name, value, unit)| Metric { name, value, unit })
        .collect()
}

/// The exact simulated counts of a batch run.
fn batch_sim(out: &BatchOutput) -> Vec<Metric> {
    let r = &out.result;
    metrics(&[
        ("sim.mem_reads", r.mem_reads as f64, "count"),
        ("sim.mem_writes", r.mem_writes as f64, "count"),
        ("sim.cell_sets", r.cell_sets as f64, "count"),
        ("sim.cell_resets", r.cell_resets as f64, "count"),
        ("sim.ipc", r.ipc(), "instr/cycle"),
        ("sim.read_latency_ns", r.read_latency.mean_ns(), "ns"),
        ("sim.write_latency_ns", r.write_latency.mean_ns(), "ns"),
        ("sim.read_p99_ns", r.read_latency.percentile_ns(0.99), "ns"),
        (
            "sim.write_p99_ns",
            r.write_latency.percentile_ns(0.99),
            "ns",
        ),
    ])
}

/// The exact simulated counts of a serve pass. The engine exposes no
/// cell counts or instruction count, so those read 0.
fn serve_sim(s: &ServeSummary) -> Vec<Metric> {
    let mean_ns = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3;
    let p99_ns = |v: &[u64]| percentile_u64(v, 0.99) as f64 / 1e3;
    metrics(&[
        ("sim.mem_reads", s.read_ps.len() as f64, "count"),
        ("sim.mem_writes", s.write_ps.len() as f64, "count"),
        ("sim.cell_sets", 0.0, "count"),
        ("sim.cell_resets", 0.0, "count"),
        ("sim.ipc", 0.0, "instr/cycle"),
        ("sim.read_latency_ns", mean_ns(&s.read_ps), "ns"),
        ("sim.write_latency_ns", mean_ns(&s.write_ps), "ns"),
        ("sim.read_p99_ns", p99_ns(&s.read_ps), "ns"),
        ("sim.write_p99_ns", p99_ns(&s.write_ps), "ns"),
        ("serve.peak_write_depth", s.peak_write_depth as f64, "count"),
    ])
}

fn batch_end_to_end(w: BatchWorkload, seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let offered = w.offered_ops(seed);
    let mut first: Option<BatchOutput> = None;
    let samples = repeat(
        &mut o,
        budget,
        offered,
        |o| {
            let (times, out) =
                guarded(|| w.run_plain(seed)).map_err(|e| format!("run failed: {e}"))?;
            if out.ops() != offered {
                o.problem(format!("serviced {} ops of {offered} offered", out.ops()));
            }
            let ops = out.ops();
            match &first {
                Some(f) if !f.same_as(&out) => {
                    o.problem("SimResult differs between repeats of one seed")
                }
                Some(_) => {}
                None => first = Some(out),
            }
            Ok((times, ops))
        },
        || guarded(|| w.setup_only(seed)),
    );
    end_to_end(&mut o, &samples);
    if let Some(f) = &first {
        sim_notes(&mut o, &batch_sim(f));
    }
    o
}

fn serve_end_to_end(w: ServeWorkload, seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let input = w.input(seed);
    let offered = input.kinds.len() as u64;
    let mut first: Option<(u64, ServeSummary)> = None;
    let samples = repeat(
        &mut o,
        budget,
        offered,
        |o| {
            let (times, out) =
                guarded(|| w.run_plain(&input)).map_err(|e| format!("serving failed: {e}"))?;
            let summary = check_responses(&input, &out)?;
            o.failed += summary.shed + summary.errors;
            let digest = fnv1a(&out);
            match &first {
                Some((d, _)) if *d != digest => {
                    o.problem("response stream differs between repeats of one seed")
                }
                Some(_) => {}
                None => first = Some((digest, summary)),
            }
            Ok((times, offered))
        },
        || {
            let (d, engine) = guarded(|| w.engine(Box::new(NullSink)))?;
            drop(std::hint::black_box(engine));
            Ok(d)
        },
    );
    end_to_end(&mut o, &samples);
    if let Some((_, s)) = &first {
        o.notes.push(format!(
            "served={} shed={} err={}",
            s.served, s.shed, s.errors
        ));
        sim_notes(&mut o, &serve_sim(s));
    }
    o
}

/// One traced round's per-layer values, by metric name.
type Row = HashMap<&'static str, f64>;

/// Median of every per-layer metric across rounds, plus the simulated
/// counts and their fingerprint; a name no round set reads 0.
fn per_layer(o: &mut Outcome, rows: &[Row], sim: Vec<Metric>) {
    let fp = fingerprint(&sim);
    sim_notes(o, &sim);
    let sim: HashMap<&str, f64> = sim.iter().map(|m| (m.name, m.value)).collect();
    for (name, unit) in PER_LAYER {
        let value = if name == "sim.fingerprint" {
            // The top 52 bits, so the value survives a round trip through
            // a JSON double exactly.
            (fp >> 12) as f64
        } else if let Some(&v) = sim.get(name) {
            v
        } else {
            let xs: Vec<f64> = rows.iter().filter_map(|r| r.get(name).copied()).collect();
            median(&xs)
        };
        o.metrics.push(Metric { name, value, unit });
    }
    let share = |n: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    let sum = share("trace.share_sum");
    let mut table: Vec<String> = PER_LAYER
        .iter()
        .filter(|(n, _)| n.ends_with(".self_frac"))
        .map(|(n, _)| format!("{}={:.3}", n.trim_end_matches(".self_frac"), share(n)))
        .collect();
    table.push(format!("sum={sum:.3}"));
    o.notes.push(format!(
        "self time shares ({} rounds): {}",
        rows.len(),
        table.join(" ")
    ));
    if (sum - 1.0).abs() > SHARE_SUM_TOLERANCE {
        o.problem(format!(
            "layer shares sum to {sum:.3} of the traced wall time"
        ));
    }
}

/// Shares of the measured layers plus the non-negative residual, over
/// the traced wall time.
fn share_sum(measured: &[f64]) -> (f64, f64) {
    let known: f64 = measured.iter().sum();
    let residual = 1.0 - known;
    (residual, known + residual.max(0.0))
}

fn batch_layers(w: BatchWorkload, seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let start = Instant::now();
    let cfg = w.system_config();
    let offered = w.offered_ops(seed);
    let stream = w.write_stream(seed);
    let (mut plan_ns, mut store_ns, mut plans) = (Vec::new(), Vec::new(), 0);
    for _ in 0..REPLAY_PASSES {
        match guarded(|| batch::replay(&cfg, &stream)) {
            Ok(r) => {
                plans = r.plans.0;
                plan_ns.push(r.plans.1 as f64 / r.plans.0.max(1) as f64);
                store_ns.push(
                    r.write_loop_ns.saturating_sub(r.plans.1) as f64 / r.writes.max(1) as f64,
                );
            }
            Err(e) => {
                o.problem(format!("replay failed: {e}"));
                return o;
            }
        }
    }
    drop(stream);
    let (plan_ns, store_ns) = (median(&plan_ns), median(&store_ns));
    let mut rows = Vec::new();
    let mut sim = Vec::new();
    while rows.len() < MIN_ROUNDS || start.elapsed() < budget {
        o.attempted += 3 * offered;
        let round = guarded(|| -> Result<_, pcm_types::PcmError> {
            Ok((
                w.run_plain(seed)?,
                w.run_traced(seed)?,
                w.run_counted(seed, TraceDetail::Fine)?,
            ))
        });
        let ((plain_t, plain), traced, counted) = match round {
            Ok(v) => v,
            Err(e) => {
                o.failed += 3 * offered;
                o.problem(format!("run failed: {e}"));
                break;
            }
        };
        if !traced.out.same_as(&plain) {
            o.problem("the timing adapters changed the SimResult");
        }
        if !counted.out.same_as(&plain) {
            o.problem("a Fine telemetry sink changed the SimResult");
        }
        let wall = ns(traced.run);
        let writes = plain.result.mem_writes as f64;
        let gen = traced.gen.1 as f64 / wall;
        let content = traced.content.1 as f64 / wall;
        let tel = traced.telemetry_ns as f64 / wall;
        let scheme = plan_ns * writes / wall;
        let store = store_ns * writes / wall;
        let (ctrl, sum) = share_sum(&[gen, content, tel, scheme, store]);
        let c = plain.ctrl;
        rows.push(Row::from([
            ("gen.calls", traced.gen.0 as f64),
            (
                "gen.ns_per_call",
                traced.gen.1 as f64 / traced.gen.0.max(1) as f64,
            ),
            ("gen.self_frac", gen),
            ("content.calls", traced.content.0 as f64),
            (
                "content.ns_per_call",
                traced.content.1 as f64 / traced.content.0.max(1) as f64,
            ),
            ("content.self_frac", content),
            ("scheme.plans", plans as f64),
            ("scheme.plan_ns", plan_ns),
            ("scheme.self_frac", scheme),
            ("store.write_ns", store_ns),
            ("store.self_frac", store),
            ("ctrl.self_frac", ctrl),
            ("ctrl.drains", c.drains as f64),
            ("ctrl.write_pauses", c.write_pauses as f64),
            ("ctrl.read_forwards", c.read_forwards as f64),
            ("telemetry.self_frac", tel),
            ("telemetry.events", counted.events as f64),
            (
                "telemetry.fine_overhead_frac",
                ns(counted.run) / ns(plain_t.run) - 1.0,
            ),
            ("trace.overhead_frac", wall / ns(plain_t.run) - 1.0),
            ("trace.share_sum", sum),
        ]));
        sim = batch_sim(&plain);
    }
    per_layer(&mut o, &rows, sim);
    o
}

fn serve_layers(w: ServeWorkload, seed: u64, budget: Duration) -> Outcome {
    let mut o = Outcome::default();
    let start = Instant::now();
    let input: ServeInput = w.input(seed);
    let offered = input.kinds.len() as u64;
    let mut rows = Vec::new();
    let mut sim = Vec::new();
    while rows.len() < MIN_ROUNDS || start.elapsed() < budget {
        o.attempted += 3 * offered;
        let round = guarded(|| -> std::io::Result<_> {
            Ok((
                w.run_plain(&input)?,
                w.run_traced(&input)?,
                w.run_counted(&input, TraceDetail::Fine)?,
            ))
        });
        let ((plain_t, plain), traced, counted) = match round {
            Ok(v) => v,
            Err(e) => {
                o.failed += 3 * offered;
                o.problem(format!("serving failed: {e}"));
                break;
            }
        };
        let summary = match check_responses(&input, &plain) {
            Ok(s) => s,
            Err(e) => {
                o.failed += 3 * offered;
                o.problem(e);
                break;
            }
        };
        o.failed += 3 * (summary.shed + summary.errors);
        if traced.out != plain {
            o.problem("the traced serving loop's responses differ from serve_connection's");
        }
        if counted.out != plain {
            o.problem("a Fine telemetry sink changed the response stream");
        }
        let s = &traced.spans;
        let wall = ns(traced.run);
        let submit_total: u64 = s.submit_ns.iter().sum();
        let tel = traced.telemetry_ns as f64 / wall;
        let proto = (s.parse_ns + s.format_ns) as f64 / wall;
        let engine = (submit_total + s.take_ns + s.drain_ns) as f64 / wall - tel;
        let (server, sum) = share_sum(&[proto, engine, tel]);
        rows.push(Row::from([
            ("telemetry.self_frac", tel),
            ("telemetry.events", counted.events as f64),
            (
                "telemetry.fine_overhead_frac",
                ns(counted.run) / ns(plain_t.run) - 1.0,
            ),
            ("ctrl.drains", counted.drains as f64),
            ("ctrl.write_pauses", counted.write_pauses as f64),
            ("proto.parse_ns", s.parse_ns as f64 / offered.max(1) as f64),
            (
                "proto.format_ns",
                s.format_ns as f64 / s.formats.max(1) as f64,
            ),
            ("proto.self_frac", proto),
            ("engine.submit_ns", percentile_u64(&s.submit_ns, 0.5) as f64),
            (
                "engine.submit_p99_ns",
                percentile_u64(&s.submit_ns, 0.99) as f64,
            ),
            ("engine.submit_samples", s.submit_ns.len() as f64),
            ("engine.drain_ns", s.drain_ns as f64),
            ("engine.self_frac", engine),
            ("server.self_frac", server),
            ("trace.overhead_frac", wall / ns(plain_t.run) - 1.0),
            ("trace.share_sum", sum),
        ]));
        sim = serve_sim(&summary);
    }
    per_layer(&mut o, &rows, sim);
    o
}

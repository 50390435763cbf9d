//! The wire path: a pre-generated open-loop request stream, formatted as
//! protocol lines, fed through `serve_connection` from an in-memory
//! reader into an in-memory writer.

use crate::batch::RunTimes;
use crate::layers::{CountingSink, EventCounts, Span, TimedSink};
use pcm_memsim::{AccessKind, SchemeSelect};
use pcm_serve::engine::Admission;
use pcm_serve::{
    proto, serve_connection, OpenLoop, OpenLoopConfig, ServeConfig, ServeEngine, ServeStats,
};
use pcm_telemetry::{NullSink, Telemetry, TraceDetail};
use pcm_types::{PcmError, Ps};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One open-loop traffic mix into a default `ServeEngine` under Tetris.
#[derive(Clone, Copy, Debug)]
pub struct ServeWorkload {
    /// Workload name as the benchmark's `--workload` flag spells it.
    pub name: &'static str,
    /// Requests offered per pass.
    pub requests: u64,
    /// Tenants, round-robin.
    pub tenants: u32,
    /// Mean simulated inter-arrival gap.
    pub mean_gap_ns: u64,
    /// Probability of a back-to-back arrival.
    pub burstiness: f64,
    /// Probability a request is a write.
    pub write_frac: f64,
}

/// Two tenants, 30% writes, bursty arrivals. The write queue fills to
/// its drain watermark and drains run, while admission control sheds
/// nothing: the gap leaves headroom over the bursts that make the
/// engine shed at 500–900 ns.
pub const SERVE_OPENLOOP: ServeWorkload = ServeWorkload {
    name: "serve_openloop",
    requests: 200_000,
    tenants: 2,
    mean_gap_ns: 2_000,
    burstiness: 0.1,
    write_frac: 0.3,
};

/// A formatted request stream and what each request asked for.
#[derive(Clone, Debug)]
pub struct ServeInput {
    /// Protocol lines, one request each, newline-terminated.
    pub bytes: Vec<u8>,
    /// Kind of request `id`, indexed by wire id.
    pub kinds: Vec<AccessKind>,
}

/// Host time the traced loop charged to each layer.
#[derive(Clone, Debug, Default)]
pub struct ServeSpans {
    /// `proto::parse_request`.
    pub parse_ns: u64,
    /// `proto::format_*`.
    pub format_ns: u64,
    /// Formatted responses.
    pub formats: u64,
    /// Each `ServeEngine::submit`, in nanoseconds.
    pub submit_ns: Vec<u64>,
    /// `ServeEngine::take_completions`.
    pub take_ns: u64,
    /// `ServeEngine::drain`.
    pub drain_ns: u64,
}

/// One traced pass.
#[derive(Clone, Debug)]
pub struct ServeTraced {
    /// The whole serving loop.
    pub run: Duration,
    /// Per-layer host time.
    pub spans: ServeSpans,
    /// Telemetry sink nanoseconds (inside `submit` and `drain`).
    pub telemetry_ns: u64,
    /// The response stream.
    pub out: Vec<u8>,
}

/// One pass recording events into a counting sink.
#[derive(Clone, Debug)]
pub struct ServeCounted {
    /// The whole serving loop.
    pub run: Duration,
    /// Events, drains and write pauses the sink received.
    pub events: u64,
    /// `DrainStart` events.
    pub drains: u64,
    /// `WritePause` events.
    pub write_pauses: u64,
    /// The response stream.
    pub out: Vec<u8>,
}

/// What a response stream says, once checked against its input.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Requests acknowledged.
    pub served: u64,
    /// Requests shed.
    pub shed: u64,
    /// `err` responses.
    pub errors: u64,
    /// Peak write-queue depth from the `done` line.
    pub peak_write_depth: u64,
    /// Simulated read latencies (ps), in response order.
    pub read_ps: Vec<u64>,
    /// Simulated write latencies (ps), in response order.
    pub write_ps: Vec<u64>,
}

impl ServeWorkload {
    fn load(&self, seed: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            seed,
            requests: self.requests,
            tenants: self.tenants,
            mean_gap_ns: self.mean_gap_ns,
            burstiness: self.burstiness,
            write_frac: self.write_frac,
            ..OpenLoopConfig::default()
        }
    }

    /// The request stream for `seed` (benchmark input, made before timing).
    pub fn input(&self, seed: u64) -> ServeInput {
        let mut bytes = Vec::new();
        let mut kinds = Vec::new();
        for r in OpenLoop::new(self.load(seed)) {
            debug_assert_eq!(r.id, kinds.len() as u64);
            kinds.push(r.kind);
            bytes.extend_from_slice(proto::format_request(&r).as_bytes());
            bytes.push(b'\n');
        }
        ServeInput { bytes, kinds }
    }

    /// The engine configuration: defaults, with Tetris as the scheme.
    pub fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.system.mem.select = SchemeSelect::Tetris;
        cfg
    }

    /// Build the engine, returning the set-up time with it.
    pub fn engine(&self, tel: Box<dyn Telemetry>) -> Result<(Duration, ServeEngine), PcmError> {
        let t = Instant::now();
        let engine = ServeEngine::new(self.config(), tel)?;
        Ok((t.elapsed(), engine))
    }

    /// One untraced pass through `serve_connection` with the zero-cost sink.
    pub fn run_plain(&self, input: &ServeInput) -> io::Result<(RunTimes, Vec<u8>)> {
        let (setup, mut engine) = self.engine(Box::new(NullSink)).map_err(io::Error::other)?;
        let mut out = Vec::with_capacity(input.bytes.len());
        let t = Instant::now();
        serve_connection(&mut engine, &input.bytes[..], &mut out)?;
        Ok((
            RunTimes {
                setup,
                run: t.elapsed(),
            },
            out,
        ))
    }

    /// One pass through the benchmark's timed copy of the serving loop.
    pub fn run_traced(&self, input: &ServeInput) -> io::Result<ServeTraced> {
        let tel = Span::shared();
        let (_, mut engine) = self
            .engine(Box::new(TimedSink::new(NullSink, Arc::clone(&tel))))
            .map_err(io::Error::other)?;
        let mut out = Vec::with_capacity(input.bytes.len());
        let mut spans = ServeSpans {
            submit_ns: Vec::with_capacity(input.kinds.len()),
            ..ServeSpans::default()
        };
        let t = Instant::now();
        traced_serve_loop(&mut engine, &input.bytes[..], &mut out, &mut spans)?;
        Ok(ServeTraced {
            run: t.elapsed(),
            spans,
            telemetry_ns: tel.ns(),
            out,
        })
    }

    /// One `serve_connection` pass recording events up to `level`.
    pub fn run_counted(&self, input: &ServeInput, level: TraceDetail) -> io::Result<ServeCounted> {
        let counts = Arc::new(EventCounts::default());
        let (_, mut engine) = self
            .engine(Box::new(CountingSink::new(level, Arc::clone(&counts))))
            .map_err(io::Error::other)?;
        let mut out = Vec::with_capacity(input.bytes.len());
        let t = Instant::now();
        serve_connection(&mut engine, &input.bytes[..], &mut out)?;
        Ok(ServeCounted {
            run: t.elapsed(),
            events: counts.events.load(Ordering::Relaxed),
            drains: counts.drains.load(Ordering::Relaxed),
            write_pauses: counts.write_pauses.load(Ordering::Relaxed),
            out,
        })
    }
}

/// `serve_connection`, line for line, with every call into `proto` and
/// the engine timed. Its response stream is byte-identical to
/// `serve_connection`'s for the same input.
pub fn traced_serve_loop<R: BufRead, W: Write>(
    engine: &mut ServeEngine,
    input: R,
    out: &mut W,
    spans: &mut ServeSpans,
) -> io::Result<(u64, u64)> {
    fn format(spans: &mut ServeSpans, f: impl FnOnce() -> String) -> String {
        let t = Instant::now();
        let s = f();
        spans.format_ns += t.elapsed().as_nanos() as u64;
        spans.formats += 1;
        s
    }
    fn respond<W: Write>(
        engine: &mut ServeEngine,
        wire_ids: &mut BTreeMap<u64, u64>,
        out: &mut W,
        spans: &mut ServeSpans,
    ) -> io::Result<()> {
        let t = Instant::now();
        let done = engine.take_completions();
        spans.take_ns += t.elapsed().as_nanos() as u64;
        for c in done {
            if let Some(wire) = wire_ids.remove(&c.id) {
                let line = format(spans, || proto::format_ok(wire, c.latency.as_ps()));
                writeln!(out, "{line}")?;
            }
        }
        Ok(())
    }
    let mut wire_ids: BTreeMap<u64, u64> = BTreeMap::new();
    for line in input.lines() {
        let line = line?;
        let t = Instant::now();
        let parsed = proto::parse_request(&line);
        spans.parse_ns += t.elapsed().as_nanos() as u64;
        let req = match parsed {
            Ok(None) => continue,
            Ok(Some(r)) => r,
            Err(e) => {
                writeln!(out, "err {}", e.msg)?;
                continue;
            }
        };
        let t = Instant::now();
        let admission = engine.submit(req.tenant, req.kind, req.addr, Ps::from_ns(req.at_ns));
        spans.submit_ns.push(t.elapsed().as_nanos() as u64);
        match admission {
            Ok(Admission::Accepted { id }) => {
                wire_ids.insert(id, req.id);
                let line = format(spans, || proto::format_ack(req.id));
                writeln!(out, "{line}")?;
            }
            Ok(Admission::Shed { depth }) => {
                let line = format(spans, || proto::format_shed(req.id, depth));
                writeln!(out, "{line}")?;
            }
            Err(e) => writeln!(out, "err {e}")?,
        }
        respond(engine, &mut wire_ids, out, spans)?;
    }
    let t = Instant::now();
    let drained = engine.drain();
    spans.drain_ns += t.elapsed().as_nanos() as u64;
    drained.map_err(|e| io::Error::other(e.to_string()))?;
    respond(engine, &mut wire_ids, out, spans)?;
    let s: ServeStats = *engine.stats();
    let line = format(spans, || {
        proto::format_done(s.served, s.shed, s.peak_write_depth)
    });
    writeln!(out, "{line}")?;
    out.flush()?;
    Ok((s.served, s.shed))
}

/// Check a response stream against its input: exactly one `ack`/`shed`
/// per request, one `ok` per `ack`, and one final `done` line whose
/// totals match and add up to the requests offered.
pub fn check_responses(input: &ServeInput, out: &[u8]) -> Result<ServeSummary, String> {
    let text =
        std::str::from_utf8(out).map_err(|e| format!("response stream is not UTF-8: {e}"))?;
    let offered = input.kinds.len();
    let mut answered = vec![false; offered];
    let mut completed = vec![false; offered];
    let mut sum = ServeSummary::default();
    let mut done: Option<(u64, u64, u64)> = None;
    let id_of = |s: Option<&str>| -> Result<usize, String> {
        let id: usize = s
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad id in response `{s:?}`"))?;
        if id < offered {
            Ok(id)
        } else {
            Err(format!("response names unknown request {id}"))
        }
    };
    for line in text.lines() {
        if done.is_some() {
            return Err(format!("response after `done`: `{line}`"));
        }
        let mut f = line.split(' ');
        match f.next() {
            Some(verb @ ("ack" | "shed")) => {
                let id = id_of(f.next())?;
                if std::mem::replace(&mut answered[id], true) {
                    return Err(format!("request {id} answered twice"));
                }
                if verb == "ack" {
                    sum.served += 1;
                } else {
                    sum.shed += 1;
                }
            }
            Some("ok") => {
                let id = id_of(f.next())?;
                let ps: u64 = f
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad latency in `{line}`"))?;
                if !answered[id] || std::mem::replace(&mut completed[id], true) {
                    return Err(format!("`ok` for request {id} without one prior `ack`"));
                }
                match input.kinds[id] {
                    AccessKind::Read => sum.read_ps.push(ps),
                    AccessKind::Write => sum.write_ps.push(ps),
                }
            }
            Some("err") => sum.errors += 1,
            Some("done") => {
                let field = |name: &str, v: Option<&str>| -> Result<u64, String> {
                    v.and_then(|kv| kv.strip_prefix(name))
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| format!("bad `done` line `{line}`"))
                };
                done = Some((
                    field("served=", f.next())?,
                    field("shed=", f.next())?,
                    field("peakw=", f.next())?,
                ));
            }
            _ => return Err(format!("unknown response `{line}`")),
        }
    }
    let (served, shed, peakw) = done.ok_or("response stream has no `done` line")?;
    if served != sum.served || shed != sum.shed {
        return Err(format!(
            "`done` says served={served} shed={shed}, stream has {} acks and {} sheds",
            sum.served, sum.shed
        ));
    }
    if served + shed != offered as u64 {
        return Err(format!(
            "served {served} + shed {shed} != {offered} offered"
        ));
    }
    let oks = (sum.read_ps.len() + sum.write_ps.len()) as u64;
    if oks != served {
        return Err(format!(
            "{oks} `ok` responses for {served} admitted requests"
        ));
    }
    sum.peak_write_depth = peakw;
    Ok(sum)
}

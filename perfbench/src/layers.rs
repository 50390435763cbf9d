//! Timing adapters for the seams the simulator already exposes.
//!
//! Each adapter wraps one `Box<dyn …>` seam — [`RequestSource`],
//! [`WriteContent`], [`Telemetry`], [`WriteScheme`] — forwards every call
//! unchanged, and adds the call's host time to a shared [`Span`]. The
//! clock is read here, in the benchmark, so the simulator crates stay free
//! of wall-clock reads. Spans use atomics because the seams require
//! `Send` (and `Sync` for schemes); every run is single-threaded, so the
//! `Relaxed` counters publish nothing else.

use pcm_memsim::{RequestSource, TraceOp, WriteContent};
use pcm_schemes::{BatchPlan, WriteCtx, WritePlan, WriteScheme};
use pcm_telemetry::{Telemetry, TelemetryEvent, TraceDetail};
use pcm_types::LineData;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls into one layer and the host time they took.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    /// A fresh, shareable span.
    pub fn shared() -> Arc<Span> {
        Arc::new(Span::default())
    }

    /// Run `f`, charging its host time to this span as `calls` calls.
    pub fn time<T>(&self, calls: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host nanoseconds recorded so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Times `RequestSource::next` (the `gen` layer).
pub struct TimedSource<S> {
    inner: S,
    span: Arc<Span>,
}

impl<S> TimedSource<S> {
    /// Wrap `inner`, charging its calls to `span`.
    pub fn new(inner: S, span: Arc<Span>) -> Self {
        TimedSource { inner, span }
    }
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn next(&mut self, core: usize) -> Option<TraceOp> {
        let inner = &mut self.inner;
        self.span.time(1, || inner.next(core))
    }
}

/// Times `WriteContent::generate` (the `content` layer).
pub struct TimedContent<C> {
    inner: C,
    span: Arc<Span>,
}

impl<C> TimedContent<C> {
    /// Wrap `inner`, charging its calls to `span`.
    pub fn new(inner: C, span: Arc<Span>) -> Self {
        TimedContent { inner, span }
    }
}

impl<C: WriteContent> WriteContent for TimedContent<C> {
    fn generate(&mut self, core: usize, old_logical: &LineData) -> LineData {
        let inner = &mut self.inner;
        self.span.time(1, || inner.generate(core, old_logical))
    }
}

/// Times `Telemetry::record` and `flush` (the `telemetry` layer).
///
/// `detail` and `wants` are forwarded untimed: they are the cheap gate
/// every instrumentation point checks, and timing them would cost more
/// than the call itself.
pub struct TimedSink<T> {
    inner: T,
    span: Arc<Span>,
}

impl<T> TimedSink<T> {
    /// Wrap `inner`, charging its calls to `span`.
    pub fn new(inner: T, span: Arc<Span>) -> Self {
        TimedSink { inner, span }
    }
}

impl<T: Telemetry> Telemetry for TimedSink<T> {
    fn detail(&self) -> Option<TraceDetail> {
        self.inner.detail()
    }

    fn wants(&self, d: TraceDetail) -> bool {
        self.inner.wants(d)
    }

    fn record(&mut self, ev: &TelemetryEvent) {
        let inner = &mut self.inner;
        self.span.time(1, || inner.record(ev));
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.span.time(0, || inner.flush())
    }
}

/// Times `WriteScheme::plan` and `plan_batched` (the `scheme` layer); a
/// batched plan counts one call per line.
pub struct TimedScheme {
    inner: Box<dyn WriteScheme>,
    span: Arc<Span>,
}

impl TimedScheme {
    /// Wrap `inner`, charging its plans to `span`.
    pub fn new(inner: Box<dyn WriteScheme>, span: Arc<Span>) -> Self {
        TimedScheme { inner, span }
    }
}

impl WriteScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, ctx: &WriteCtx<'_>) -> WritePlan {
        self.span.time(1, || self.inner.plan(ctx))
    }

    fn uses_flip_bits(&self) -> bool {
        self.inner.uses_flip_bits()
    }

    fn plan_batched(&self, ctxs: &[WriteCtx<'_>]) -> Option<BatchPlan> {
        self.span
            .time(ctxs.len() as u64, || self.inner.plan_batched(ctxs))
    }
}

/// Event counts seen by a [`CountingSink`].
#[derive(Debug, Default)]
pub struct EventCounts {
    /// Every recorded event.
    pub events: AtomicU64,
    /// `DrainStart` events.
    pub drains: AtomicU64,
    /// `WritePause` events.
    pub write_pauses: AtomicU64,
}

/// A sink that keeps only counts: the cheapest sink that still makes the
/// simulator build every event at its detail level.
pub struct CountingSink {
    level: TraceDetail,
    counts: Arc<EventCounts>,
}

impl CountingSink {
    /// Count events up to `level` into `counts`.
    pub fn new(level: TraceDetail, counts: Arc<EventCounts>) -> Self {
        CountingSink { level, counts }
    }
}

impl Telemetry for CountingSink {
    fn detail(&self) -> Option<TraceDetail> {
        Some(self.level)
    }

    fn record(&mut self, ev: &TelemetryEvent) {
        if ev.detail() > self.level {
            return;
        }
        self.counts.events.fetch_add(1, Ordering::Relaxed);
        match ev {
            TelemetryEvent::DrainStart { .. } => {
                self.counts.drains.fetch_add(1, Ordering::Relaxed);
            }
            TelemetryEvent::WritePause { .. } => {
                self.counts.write_pauses.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

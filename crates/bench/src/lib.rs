//! # pcm-bench
//!
//! Benchmarks, one target per paper artifact plus micro benchmarks, on an
//! in-repo, stdlib-only harness exposing a Criterion-compatible API
//! ([`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], [`Throughput`],
//! [`criterion_group!`]/[`criterion_main!`]) — the bench files are written
//! exactly as they would be against the real crate; only the `use` line
//! differs. Each figure bench *regenerates its artifact once* (printed to
//! stderr so `cargo bench` output shows the same rows the paper reports)
//! and then measures the cost of the computation behind it.
//!
//! Methodology: every benchmark is warmed up until the per-iteration cost
//! is known, then timed over `sample_size` samples (batches sized to
//! ~5 ms each) and reported as **median ± MAD** — both robust to scheduler
//! noise, unlike mean/σ.
//!
//! CLI (`cargo bench --bench micro -- <filter>…`): positional arguments
//! are substring filters over the full benchmark id (`group/name`);
//! anything starting with `-` (e.g. cargo's own `--bench`) is ignored.
//!
//! Targets:
//!
//! | bench | artifact |
//! |---|---|
//! | `fig1_pulse_model` | Fig. 1 pulse asymmetries + cell programming |
//! | `fig3_bit_stats` | Fig. 3 per-workload SET/RESET statistics |
//! | `fig4_schedule` | Fig. 4 worked-example schedule + Gantt |
//! | `fig10_write_units` | Fig. 10 write-unit counts per scheme |
//! | `system_figures` | Figs. 11–14 full-system latency/IPC/runtime |
//! | `tables` | Tables I–III |
//! | `micro` | scheduler/driver/cache/zipf hot paths |
//! | `ablation` | packing-policy variants (FFD / FF / literal) |

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub mod snapshot;
pub mod suite;

/// Shared quick-run sizing for the system benches.
pub fn quick_run_config() -> tetris_experiments::RunConfig {
    tetris_experiments::RunConfig {
        instructions_per_core: 100_000,
        ..Default::default()
    }
}

/// Default samples per benchmark (a group can override via
/// [`BenchmarkGroup::sample_size`]).
const DEFAULT_SAMPLE_SIZE: usize = 20;
/// Target wall-clock per sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);
/// Warmup budget before sampling starts.
const WARMUP: Duration = Duration::from_millis(200);

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
    /// The routine processes this many bytes per iteration.
    Bytes(u64),
}

/// A `function/parameter` benchmark identifier.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `new("plan", "dcw")` → id `plan/dcw`.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Id consisting of the parameter alone (`from_parameter(64)` → `64`).
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark id: a string or a [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// The id string.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
    called: bool,
}

impl Bencher {
    /// Time `routine`, called `iters` times back to back.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.called = true;
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// One recorded benchmark outcome (also returned by [`Criterion::results`]
/// so tests can assert on the harness itself).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full id (`group/name`).
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration time, ns.
    pub mad_ns: f64,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Throughput annotation of the group the bench ran under, if any.
    pub throughput: Option<Throughput>,
}

/// The benchmark driver: registers, filters, runs, and reports.
#[derive(Default)]
pub struct Criterion {
    filters: Vec<String>,
    results: Vec<BenchResult>,
    skipped: usize,
    failures: Vec<String>,
}

impl Criterion {
    /// Driver configured from the process arguments: positional args are
    /// substring filters, `-`-prefixed args (cargo's `--bench`) ignored.
    pub fn from_args() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Self::with_filters(filters)
    }

    /// Driver with an explicit substring-filter list (empty = run all).
    pub fn with_filters(filters: Vec<String>) -> Self {
        Criterion {
            filters,
            ..Default::default()
        }
    }

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f))
    }

    /// Benchmark a single function under `id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_id();
        self.run_one(id, DEFAULT_SAMPLE_SIZE, None, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            throughput: None,
        }
    }

    /// Results recorded so far (for harness self-tests).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Hard failures recorded so far (duplicate ids, zero-sample benches).
    /// Any entry here must make the process exit non-zero — a silently
    /// empty or ambiguous result set would poison every later snapshot
    /// comparison.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// True when any benchmark failed structurally (see [`Self::failures`]).
    pub fn has_failures(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Print the closing line (and any failures); returns the number of
    /// benchmarks run.
    pub fn final_summary(&self) -> usize {
        eprintln!(
            "bench summary: {} run, {} filtered out",
            self.results.len(),
            self.skipped
        );
        for f in &self.failures {
            eprintln!("bench FAILURE: {f}");
        }
        self.results.len()
    }

    fn run_one(
        &mut self,
        id: String,
        sample_size: usize,
        throughput: Option<Throughput>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        if !self.matches(&id) {
            self.skipped += 1;
            return;
        }
        if self.results.iter().any(|r| r.id == id) {
            self.failures.push(format!(
                "duplicate benchmark id `{id}` — ids must be unique"
            ));
            return;
        }
        // Warmup: ramp the batch size until one batch costs ≥ ~1/4 of the
        // warmup budget or the budget elapses, to learn the per-iter cost.
        let warmup_start = Instant::now();
        let mut iters = 1u64;
        let mut per_iter;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
                called: false,
            };
            f(&mut b);
            if !b.called {
                // The closure never invoked `Bencher::iter`: no timing was
                // taken, so every "sample" would be a fabricated zero.
                self.failures.push(format!(
                    "benchmark `{id}` recorded zero samples (closure never called Bencher::iter)"
                ));
                return;
            }
            per_iter = b.elapsed.as_secs_f64() / iters as f64;
            if warmup_start.elapsed() >= WARMUP || b.elapsed >= WARMUP / 4 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        // Size sample batches to the target; slow routines get 1 iter.
        let iters_per_sample = if per_iter > 0.0 {
            ((TARGET_SAMPLE.as_secs_f64() / per_iter) as u64).clamp(1, 1 << 24)
        } else {
            1 << 24
        };
        let mut samples_ns: Vec<f64> = (0..sample_size.max(3))
            .map(|_| {
                let mut b = Bencher {
                    iters: iters_per_sample,
                    elapsed: Duration::ZERO,
                    called: false,
                };
                f(&mut b);
                b.elapsed.as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        let median_ns = median_of(&mut samples_ns);
        let mad_ns = mad_of(&samples_ns, median_ns);

        let mut line = format!(
            "{id:<44} time: [{} ± {}]  ({} samples × {} iters)",
            fmt_ns(median_ns),
            fmt_ns(mad_ns),
            samples_ns.len(),
            iters_per_sample,
        );
        if let Some(t) = throughput {
            let per_sec = match t {
                Throughput::Elements(n) => (n as f64) / (median_ns * 1e-9),
                Throughput::Bytes(n) => (n as f64) / (median_ns * 1e-9),
            };
            let unit = match t {
                Throughput::Elements(_) => "elem/s",
                Throughput::Bytes(_) => "B/s",
            };
            line.push_str(&format!("  thrpt: {} {unit}", fmt_count(per_sec)));
        }
        eprintln!("{line}");
        self.results.push(BenchResult {
            id,
            median_ns,
            mad_ns,
            samples: samples_ns.len(),
            iters_per_sample,
            throughput,
        });
    }
}

/// A named group of benchmarks sharing sample-size/throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Override the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Annotate subsequent benchmarks with a throughput rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark `f` as `<group>/<id>`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_id());
        self.criterion
            .run_one(full, self.sample_size, self.throughput, &mut f);
        self
    }

    /// Benchmark `f(b, input)` as `<group>/<id>`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_id());
        self.criterion
            .run_one(full, self.sample_size, self.throughput, &mut |b| {
                f(b, input)
            });
        self
    }

    /// Close the group (kept for criterion API parity; drop also works).
    pub fn finish(self) {}
}

/// Median of a sample series (sorts in place). Empty input yields 0.0 —
/// callers that care distinguish "no samples" *before* reaching here (see
/// the zero-sample failure path in `run_one`).
pub fn median_of(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `median`. A constant series has MAD 0
/// exactly; downstream the regression gate treats that as "fall back to
/// the relative tolerance" — 0 is a legal value, never a divisor.
pub fn mad_of(values: &[f64], median: f64) -> f64 {
    let mut deviations: Vec<f64> = values.iter().map(|s| (s - median).abs()).collect();
    median_of(&mut deviations)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn fmt_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Bundle bench functions into a group runner, exactly like criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generate `main` running the given groups, like criterion's macro.
/// Exits non-zero when any benchmark failed structurally (duplicate id or
/// zero samples) so CI can't mistake a broken suite for a quiet one.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
            if c.has_failures() {
                std::process::exit(1);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_result() {
        let mut c = Criterion::default();
        c.bench_function("t/add", |b| b.iter(|| black_box(2u64) + black_box(3)));
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.id, "t/add");
        assert!(r.median_ns > 0.0);
        assert!(r.samples >= 3);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn filters_skip_nonmatching() {
        let mut c = Criterion {
            filters: vec!["zipf".into()],
            ..Default::default()
        };
        c.bench_function("micro/hamming", |b| b.iter(|| black_box(1)));
        c.bench_function("micro/zipf_sample", |b| b.iter(|| black_box(1)));
        assert_eq!(c.results().len(), 1);
        assert_eq!(c.results()[0].id, "micro/zipf_sample");
        assert_eq!(c.final_summary(), 1);
    }

    #[test]
    fn groups_prefix_and_configure() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("grp");
        g.sample_size(4);
        g.throughput(Throughput::Elements(64));
        g.bench_function(BenchmarkId::from_parameter(8), |b| b.iter(|| black_box(8)));
        g.bench_with_input(BenchmarkId::new("sq", 5), &5u64, |b, &v| {
            b.iter(|| black_box(v * v))
        });
        g.finish();
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].id, "grp/8");
        assert_eq!(c.results()[1].id, "grp/sq/5");
        assert_eq!(c.results()[0].samples, 4);
    }

    #[test]
    fn median_and_mad_are_robust() {
        let mut v = vec![10.0, 11.0, 9.0, 10.5, 1000.0];
        assert_eq!(median_of(&mut v), 10.5);
        assert!(mad_of(&v, 10.5) <= 1.5, "outlier must not dominate MAD");
    }

    #[test]
    fn median_handles_odd_even_and_single_series() {
        assert_eq!(median_of(&mut [7.0]), 7.0, "single sample is its median");
        assert_eq!(median_of(&mut [3.0, 1.0, 2.0]), 2.0, "odd count");
        assert_eq!(
            median_of(&mut [4.0, 1.0, 3.0, 2.0]),
            2.5,
            "even count averages the middle pair"
        );
        assert_eq!(median_of(&mut []), 0.0, "empty series is sentinel zero");
    }

    #[test]
    fn mad_of_constant_series_is_exactly_zero() {
        let v = [5.0; 8];
        let m = median_of(&mut v.to_vec());
        assert_eq!(mad_of(&v, m), 0.0);
        // And a zero MAD must not blow up the regression gate: the
        // threshold falls back to the relative tolerance (no division).
        let rec = |median_ns, mad_ns| pcm_types::BenchRecord {
            id: "x".into(),
            median_ns,
            mad_ns,
            samples: 8,
            iters_per_sample: 1,
            throughput: None,
        };
        let gate = pcm_types::GatePolicy::default();
        let t = gate.threshold_ns(&rec(100.0, 0.0), &rec(100.0, 0.0));
        assert!(t.is_finite() && t > 0.0, "k·MAD fallback must stay usable");
        assert_eq!(t, 5.0, "5% tolerance decides when MAD is 0");
    }

    #[test]
    fn zero_sample_bench_is_a_loud_failure() {
        let mut c = Criterion::default();
        // A closure that never calls `b.iter` records nothing.
        c.bench_function("broken/no_iter", |_b| {});
        assert!(c.results().is_empty());
        assert!(c.has_failures());
        assert!(
            c.failures()[0].contains("zero samples"),
            "{:?}",
            c.failures()
        );
    }

    #[test]
    fn duplicate_bench_id_is_a_loud_failure() {
        let mut c = Criterion::default();
        c.bench_function("dup/x", |b| b.iter(|| black_box(1)));
        c.bench_function("dup/x", |b| b.iter(|| black_box(2)));
        assert_eq!(c.results().len(), 1, "second registration rejected");
        assert!(c.has_failures());
        assert!(c.failures()[0].contains("duplicate"), "{:?}", c.failures());
    }

    #[test]
    fn with_filters_matches_substring() {
        let mut c = Criterion::with_filters(vec!["keep".into()]);
        c.bench_function("a/keep_me", |b| b.iter(|| black_box(1)));
        c.bench_function("a/drop_me", |b| b.iter(|| black_box(1)));
        assert_eq!(c.results().len(), 1);
        assert_eq!(c.results()[0].id, "a/keep_me");
    }

    #[test]
    fn throughput_annotation_lands_in_results() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("tp");
        g.sample_size(3);
        g.throughput(Throughput::Bytes(64));
        g.bench_function("x", |b| b.iter(|| black_box(1)));
        g.finish();
        assert!(matches!(
            c.results()[0].throughput,
            Some(Throughput::Bytes(64))
        ));
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.340 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.340 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
        assert_eq!(fmt_count(2.5e6), "2.50 M");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("plan", "dcw").into_id(), "plan/dcw");
        assert_eq!(BenchmarkId::from_parameter(64).into_id(), "64");
    }
}

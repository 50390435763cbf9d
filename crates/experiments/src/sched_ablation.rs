//! Head-to-head comparison of the controller's scheduling policies.
//!
//! Runs the same workload twice — once with the paper's fixed
//! fill-to-capacity drain ([`pcm_memsim::SchedConfig::fixed`]), once with
//! the adaptive policies on ([`pcm_memsim::SchedConfig::adaptive`]) —
//! recording a fine-detail telemetry trace of each, then diffs the
//! telemetry-derived metrics: queue-depth percentiles, per-bank
//! utilization spread, and read/write latency. The `sched-ablation`
//! subcommand prints the delta table; `--assert` turns the comparison
//! into the CI regression gate (adaptive must not be worse than the
//! baseline on p95 write-queue depth, mean read latency, or utilization
//! spread, within tolerance).

use crate::report::{f2, Table};
use crate::runner::{run_one_to_file, RunConfig};
use pcm_memsim::{SchedConfig, SimResult};
use pcm_schemes::SchemeSelect;
use pcm_telemetry::{percentile, read_tagged_events, TraceDetail, TraceSummary};
use pcm_types::PcmError;
use pcm_workloads::WorkloadProfile;
use std::path::{Path, PathBuf};

/// Telemetry-derived metrics of one policy's run, ready for diffing.
#[derive(Clone, Debug)]
pub struct PolicySummary {
    /// Policy label ("fixed" / "adaptive").
    pub label: String,
    /// End-to-end runtime in µs.
    pub runtime_us: f64,
    /// Mean read latency in ns.
    pub mean_read_ns: f64,
    /// p95 read latency in ns.
    pub p95_read_ns: f64,
    /// Mean write latency in ns.
    pub mean_write_ns: f64,
    /// Mean write-queue depth over all fine-detail samples.
    pub mean_wq_depth: f64,
    /// p95 write-queue depth (nearest-rank, exact).
    pub p95_wq_depth: u32,
    /// Per-bank utilization spread (max − min) in percentage points.
    pub util_spread_pct: f64,
    /// Mean per-bank utilization in percent.
    pub mean_util_pct: f64,
    /// Drain episodes entered.
    pub drains: u64,
    /// Writes steered to a colder bank than FIFO order would pick.
    pub steered_writes: u64,
    /// Read-priority windows opened mid-drain.
    pub read_windows: u64,
    /// Watermark moves recorded.
    pub watermark_adjusts: u64,
}

/// Reduce one run (result + summarized trace) to its policy metrics.
pub fn summarize(label: &str, r: &SimResult, s: &TraceSummary) -> PolicySummary {
    let utils: Vec<f64> = (0..s.banks.len()).map(|b| s.utilization(b)).collect();
    let max_u = utils.iter().cloned().fold(0.0f64, f64::max);
    let min_u = utils.iter().cloned().fold(f64::INFINITY, f64::min);
    let spread = if utils.is_empty() { 0.0 } else { max_u - min_u };
    let mean_wq = if s.write_depths.is_empty() {
        0.0
    } else {
        s.write_depths.iter().map(|&d| d as f64).sum::<f64>() / s.write_depths.len() as f64
    };
    PolicySummary {
        label: label.to_string(),
        runtime_us: r.runtime.as_ns_f64() / 1000.0,
        mean_read_ns: r.read_latency.mean_ns(),
        p95_read_ns: r.read_latency.percentile_ns(0.95),
        mean_write_ns: r.write_latency.mean_ns(),
        mean_wq_depth: mean_wq,
        p95_wq_depth: percentile(&s.write_depths, 0.95),
        util_spread_pct: spread * 100.0,
        mean_util_pct: s.mean_utilization() * 100.0,
        drains: s.drains,
        steered_writes: s.steered_writes,
        read_windows: s.read_windows,
        watermark_adjusts: s.watermark_adjusts,
    }
}

/// Signed percentage change from `base` to `new` ("-12.5%"); "n/a" when
/// the baseline is zero.
fn delta_pct(base: f64, new: f64) -> String {
    if base == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (new - base) / base * 100.0)
    }
}

/// The fixed-vs-adaptive delta table the `sched-ablation` subcommand
/// prints (and the golden-fixture test pins down).
pub fn delta_table(base: &PolicySummary, adaptive: &PolicySummary) -> Table {
    let mut t = Table::new(
        "Scheduler ablation — fixed vs adaptive",
        &["metric", &base.label, &adaptive.label, "delta"],
    );
    let mut push = |metric: &str, b: f64, a: f64| {
        t.row(vec![metric.to_string(), f2(b), f2(a), delta_pct(b, a)]);
    };
    push("runtime (µs)", base.runtime_us, adaptive.runtime_us);
    push(
        "mean read latency (ns)",
        base.mean_read_ns,
        adaptive.mean_read_ns,
    );
    push(
        "p95 read latency (ns)",
        base.p95_read_ns,
        adaptive.p95_read_ns,
    );
    push(
        "mean write latency (ns)",
        base.mean_write_ns,
        adaptive.mean_write_ns,
    );
    push(
        "mean write-queue depth",
        base.mean_wq_depth,
        adaptive.mean_wq_depth,
    );
    push(
        "p95 write-queue depth",
        base.p95_wq_depth as f64,
        adaptive.p95_wq_depth as f64,
    );
    push(
        "bank utilization spread (pp)",
        base.util_spread_pct,
        adaptive.util_spread_pct,
    );
    push(
        "mean bank utilization (%)",
        base.mean_util_pct,
        adaptive.mean_util_pct,
    );
    push("drain episodes", base.drains as f64, adaptive.drains as f64);
    t.note(format!(
        "adaptive decisions: {} watermark moves, {} steered writes, {} read windows",
        adaptive.watermark_adjusts, adaptive.steered_writes, adaptive.read_windows
    ));
    t
}

/// Regression gate: is the adaptive policy no worse than the baseline?
/// Returns the list of violated checks (empty = pass). Tolerances: p95
/// write-queue depth may exceed the baseline by 1 entry, mean read
/// latency by 5%, utilization spread by 0.5 percentage points.
pub fn regression_check(base: &PolicySummary, adaptive: &PolicySummary) -> Vec<String> {
    let mut violations = Vec::new();
    if adaptive.p95_wq_depth > base.p95_wq_depth + 1 {
        violations.push(format!(
            "p95 write-queue depth regressed: {} -> {} (tolerance +1)",
            base.p95_wq_depth, adaptive.p95_wq_depth
        ));
    }
    if adaptive.mean_read_ns > base.mean_read_ns * 1.05 {
        violations.push(format!(
            "mean read latency regressed: {:.1} ns -> {:.1} ns (tolerance +5%)",
            base.mean_read_ns, adaptive.mean_read_ns
        ));
    }
    if adaptive.util_spread_pct > base.util_spread_pct + 0.5 {
        violations.push(format!(
            "bank utilization spread regressed: {:.1} pp -> {:.1} pp (tolerance +0.5 pp)",
            base.util_spread_pct, adaptive.util_spread_pct
        ));
    }
    violations
}

/// Both runs of one ablation: summaries plus the trace files they were
/// derived from (kept for `report` rendering and CI artifacts).
#[derive(Debug)]
pub struct AblationOutcome {
    /// Fixed-policy metrics.
    pub base: PolicySummary,
    /// Adaptive-policy metrics.
    pub adaptive: PolicySummary,
    /// JSONL trace of the fixed run.
    pub base_trace: PathBuf,
    /// JSONL trace of the adaptive run.
    pub adaptive_trace: PathBuf,
    /// Per-rank trace summaries of the fixed run, indexed by rank
    /// (length 1 for unsharded runs).
    pub base_ranks: Vec<TraceSummary>,
    /// Per-rank trace summaries of the adaptive run.
    pub adaptive_ranks: Vec<TraceSummary>,
}

/// Run `profile` under Tetris Write with the fixed and the adaptive
/// scheduling policy, tracing both into `trace_dir` (asynchronously,
/// rank-tagged when `cfg` shards across ranks), and summarize.
pub fn run_sched_ablation(
    profile: &WorkloadProfile,
    cfg: &RunConfig,
    trace_dir: &Path,
) -> Result<AblationOutcome, PcmError> {
    std::fs::create_dir_all(trace_dir)
        .map_err(|e| PcmError::config(format!("cannot create {}: {e}", trace_dir.display())))?;
    let run_policy = |label: &str, sched: SchedConfig| -> Result<_, PcmError> {
        let mut cfg = *cfg;
        cfg.system.controller.sched = sched;
        let path = trace_dir.join(format!("{}_{}.jsonl", profile.name, label));
        let (result, _written) = run_one_to_file(
            profile,
            SchemeSelect::Tetris,
            &cfg,
            &path,
            TraceDetail::Fine,
        )
        .map_err(|e| PcmError::config(format!("cannot trace {}: {e}", path.display())))?;
        let file = std::fs::File::open(&path)
            .map_err(|e| PcmError::config(format!("cannot reopen {}: {e}", path.display())))?;
        let tagged = read_tagged_events(std::io::BufReader::new(file))
            .map_err(|e| PcmError::config(format!("cannot parse {}: {e}", path.display())))?;
        let ranks = TraceSummary::by_rank(&tagged);
        let summary = if ranks.len() == 1 {
            ranks[0].clone()
        } else {
            TraceSummary::merged(&ranks)
        };
        Ok((summarize(label, &result, &summary), ranks, path))
    };
    let (base, base_ranks, base_trace) = run_policy("fixed", SchedConfig::fixed())?;
    let (adaptive, adaptive_ranks, adaptive_trace) =
        run_policy("adaptive", SchedConfig::adaptive())?;
    Ok(AblationOutcome {
        base,
        adaptive,
        base_trace,
        adaptive_trace,
        base_ranks,
        adaptive_ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_workloads::ALL_PROFILES;

    fn fixture(label: &str, scale: f64) -> PolicySummary {
        PolicySummary {
            label: label.to_string(),
            runtime_us: 1000.0 * scale,
            mean_read_ns: 80.0 * scale,
            p95_read_ns: 400.0 * scale,
            mean_write_ns: 5000.0 * scale,
            mean_wq_depth: 20.0 * scale,
            p95_wq_depth: (30.0 * scale) as u32,
            util_spread_pct: 40.0 * scale,
            mean_util_pct: 50.0,
            drains: 10,
            steered_writes: if label == "adaptive" { 42 } else { 0 },
            read_windows: if label == "adaptive" { 3 } else { 0 },
            watermark_adjusts: if label == "adaptive" { 7 } else { 0 },
        }
    }

    /// Golden fixture: two hand-built summaries must render into exactly
    /// this delta table.
    #[test]
    fn delta_table_matches_golden_fixture() {
        let base = fixture("fixed", 1.0);
        let adaptive = fixture("adaptive", 0.8);
        let t = delta_table(&base, &adaptive);
        assert_eq!(
            t.to_csv(),
            "# adaptive decisions: 7 watermark moves, 42 steered writes, 3 read windows\n\
             metric,fixed,adaptive,delta\n\
             runtime (µs),1000.00,800.00,-20.0%\n\
             mean read latency (ns),80.00,64.00,-20.0%\n\
             p95 read latency (ns),400.00,320.00,-20.0%\n\
             mean write latency (ns),5000.00,4000.00,-20.0%\n\
             mean write-queue depth,20.00,16.00,-20.0%\n\
             p95 write-queue depth,30.00,24.00,-20.0%\n\
             bank utilization spread (pp),40.00,32.00,-20.0%\n\
             mean bank utilization (%),50.00,50.00,+0.0%\n\
             drain episodes,10.00,10.00,+0.0%\n"
        );
    }

    #[test]
    fn regression_check_flags_each_metric() {
        let base = fixture("fixed", 1.0);
        assert!(regression_check(&base, &fixture("adaptive", 1.0)).is_empty());
        assert!(
            regression_check(&base, &fixture("adaptive", 0.8)).is_empty(),
            "an improvement always passes"
        );
        let worse = fixture("adaptive", 1.5);
        let violations = regression_check(&base, &worse);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("p95 write-queue depth"));
        assert!(violations[1].contains("mean read latency"));
        assert!(violations[2].contains("utilization spread"));

        // Tolerances: +1 queue entry and +5% read latency are not flagged.
        let mut near = fixture("adaptive", 1.0);
        near.p95_wq_depth = base.p95_wq_depth + 1;
        near.mean_read_ns = base.mean_read_ns * 1.049;
        assert!(regression_check(&base, &near).is_empty());
    }

    #[test]
    fn delta_pct_handles_zero_baseline() {
        assert_eq!(delta_pct(0.0, 5.0), "n/a");
        assert_eq!(delta_pct(10.0, 5.0), "-50.0%");
    }

    /// End-to-end on a small run: the adaptive policy must actually make
    /// decisions, and the regression gate must hold on the write-heaviest
    /// workload (the acceptance criterion the CI job enforces at --quick
    /// scale).
    ///
    /// The spread check depends on the write-content stream. At this
    /// point (seed 0xC0FFEE, 120k instructions/core) the spread goes
    /// 17.70 → 18.19 pp, +0.49 pp against the +0.5 pp tolerance. Over
    /// seeds {0xC0FFEE, 1..=6} × {120k, 240k, 480k} instructions/core the
    /// same check fails at 8 of 21 points (mean delta +0.37 pp). A
    /// content sampler that draws a different stream, such as one keyed
    /// on (line, write version) for paired cross-scheme runs, can flip
    /// this test without any change to the scheduler.
    #[test]
    fn vips_ablation_adaptive_not_worse() {
        let p = &ALL_PROFILES[7]; // vips
        let cfg = RunConfig {
            instructions_per_core: 120_000,
            ..RunConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("sched_ablation_{}", std::process::id()));
        let out = run_sched_ablation(p, &cfg, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(out.base.steered_writes, 0);
        assert_eq!(out.base.watermark_adjusts, 0);
        assert!(
            out.adaptive.watermark_adjusts > 0,
            "adaptive run never moved the marks"
        );
        assert!(
            out.adaptive.util_spread_pct <= out.base.util_spread_pct + 0.5,
            "steering must not widen the utilization spread: {} -> {}",
            out.base.util_spread_pct,
            out.adaptive.util_spread_pct
        );
        let violations = regression_check(&out.base, &out.adaptive);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

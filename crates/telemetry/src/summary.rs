//! Reduce a recorded event stream back into report-ready aggregates:
//! per-bank busy time / utilization and queue-depth percentiles.

use crate::event::{OpKind, TelemetryEvent};
use pcm_types::Ps;

/// Accumulated service activity for one bank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankUsage {
    /// Total time the bank spent servicing operations (pause-corrected:
    /// an interrupted write only contributes the portion actually run).
    pub busy: Ps,
    /// Read operations issued to the bank.
    pub reads: u64,
    /// Write operations issued to the bank (a batch counts once).
    pub writes: u64,
    /// Cache lines serviced (batches count their packed lines).
    pub lines: u64,
}

/// Everything the `report` subcommand needs, computed in one pass over
/// a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Workload name from the `run_meta` event (empty if absent).
    pub workload: String,
    /// Scheme name from the `run_meta` event (empty if absent).
    pub scheme: String,
    /// Per-bank usage, indexed by flat bank id (length = max bank seen + 1,
    /// or the `run_meta` bank count if larger).
    pub banks: Vec<BankUsage>,
    /// Last timestamp observed (including scheduled completions) —
    /// the denominator for utilization.
    pub span: Ps,
    /// Sorted read-queue depth samples.
    pub read_depths: Vec<u32>,
    /// Sorted write-queue depth samples.
    pub write_depths: Vec<u32>,
    /// Write pauses observed.
    pub pauses: u64,
    /// Paused-write resumes observed.
    pub resumes: u64,
    /// Drain-mode entries observed.
    pub drains: u64,
    /// Batch-pack outcomes observed.
    pub batches: u64,
    /// Write0 jobs stolen into sub-write-unit slack, summed over batches.
    pub stolen_write0s: u64,
    /// Mean current-budget utilization over batch-pack outcomes.
    pub mean_batch_utilization: f64,
    /// Adaptive watermark adjustments observed.
    pub watermark_adjusts: u64,
    /// Writes steered to a less-utilized bank than FIFO order would pick.
    pub steered_writes: u64,
    /// Read-priority windows opened mid-drain.
    pub read_windows: u64,
    /// Front-end requests served to completion (`request_done` events).
    pub served_requests: u64,
    /// Front-end requests shed by admission control (`backpressure`).
    pub shed_requests: u64,
    /// Partition-parallel writes observed (`partition_write` events).
    pub partition_writes: u64,
    /// Sum of the per-write concurrent-partition counts, for the mean
    /// occupancy `partitions_sum / partition_writes`.
    pub partitions_sum: u64,
    /// Lines stored on each coset row, summed over `coset_choice` events.
    pub coset_rows: [u64; 4],
    /// DRAM write-cache read hits (`write_cache_hit` events with a read
    /// kind: a load served out of a cached dirty line).
    pub write_cache_hits: u64,
    /// DRAM write-cache coalesces (`write_cache_hit` events with a write
    /// kind: a store merged into an already-cached dirty line).
    pub write_cache_coalesces: u64,
    /// Write-cache drain bursts observed (`write_cache_drain` events).
    pub write_cache_drains: u64,
    /// Dirty lines pushed to the controller across all drain bursts.
    pub write_cache_drained_lines: u64,
}

/// Nearest-rank percentile of a **sorted** slice (`p` in [0, 1]).
/// Returns 0 for an empty slice.
/// Thin wrapper over the shared [`pcm_types::stats`] machinery.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    pcm_types::stats::percentile_sorted(sorted, p).unwrap_or(0)
}

impl TraceSummary {
    /// Aggregate an event stream (the order events were recorded in).
    pub fn from_events(events: &[TelemetryEvent]) -> TraceSummary {
        let mut s = TraceSummary::default();
        // Scheduled end of each bank's current operation, so a pause can
        // retract the not-yet-run tail of a busy interval.
        let mut busy_until: Vec<Ps> = Vec::new();
        let mut util_sum = 0.0f64;

        let bank_mut = |banks: &mut Vec<BankUsage>, busy_until: &mut Vec<Ps>, bank: u32| -> usize {
            let i = bank as usize;
            if banks.len() <= i {
                banks.resize(i + 1, BankUsage::default());
                busy_until.resize(i + 1, Ps::ZERO);
            }
            i
        };

        for ev in events {
            if let Some(at) = ev.at() {
                s.span = s.span.max(at);
            }
            match *ev {
                TelemetryEvent::RunMeta {
                    ref workload,
                    ref scheme,
                    banks,
                } => {
                    s.workload = workload.clone();
                    s.scheme = scheme.clone();
                    if s.banks.len() < banks as usize {
                        s.banks.resize(banks as usize, BankUsage::default());
                        busy_until.resize(banks as usize, Ps::ZERO);
                    }
                }
                TelemetryEvent::BankBusy {
                    at,
                    bank,
                    kind,
                    until,
                    lines,
                } => {
                    let i = bank_mut(&mut s.banks, &mut busy_until, bank);
                    s.banks[i].busy += until.saturating_sub(at);
                    s.banks[i].lines += u64::from(lines);
                    match kind {
                        OpKind::Read => s.banks[i].reads += 1,
                        OpKind::Write => s.banks[i].writes += 1,
                    }
                    busy_until[i] = until;
                    s.span = s.span.max(until);
                }
                TelemetryEvent::WritePause { at, bank, .. } => {
                    s.pauses += 1;
                    let i = bank_mut(&mut s.banks, &mut busy_until, bank);
                    // Retract the part of the interval that never ran.
                    s.banks[i].busy -= busy_until[i].saturating_sub(at);
                    busy_until[i] = at;
                }
                TelemetryEvent::WriteResume { at, bank, until } => {
                    s.resumes += 1;
                    let i = bank_mut(&mut s.banks, &mut busy_until, bank);
                    s.banks[i].busy += until.saturating_sub(at);
                    busy_until[i] = until;
                    s.span = s.span.max(until);
                }
                TelemetryEvent::QueueDepth { reads, writes, .. } => {
                    s.read_depths.push(reads);
                    s.write_depths.push(writes);
                }
                TelemetryEvent::DrainStart { .. } => s.drains += 1,
                TelemetryEvent::DrainStop { .. } | TelemetryEvent::BankIdle { .. } => {}
                TelemetryEvent::WatermarkAdjust { .. } => s.watermark_adjusts += 1,
                TelemetryEvent::WriteSteer { .. } => s.steered_writes += 1,
                TelemetryEvent::ReadWindow { until, .. } => {
                    s.read_windows += 1;
                    s.span = s.span.max(until);
                }
                TelemetryEvent::BatchPack {
                    stolen_write0s,
                    utilization,
                    ..
                } => {
                    s.batches += 1;
                    s.stolen_write0s += u64::from(stolen_write0s);
                    util_sum += utilization;
                }
                TelemetryEvent::RequestDone { .. } => s.served_requests += 1,
                TelemetryEvent::Backpressure { .. } => s.shed_requests += 1,
                TelemetryEvent::PartitionWrite { partitions, .. } => {
                    s.partition_writes += 1;
                    s.partitions_sum += u64::from(partitions);
                }
                TelemetryEvent::WriteCacheHit { kind, .. } => match kind {
                    OpKind::Read => s.write_cache_hits += 1,
                    OpKind::Write => s.write_cache_coalesces += 1,
                },
                TelemetryEvent::WriteCacheDrain { lines, .. } => {
                    s.write_cache_drains += 1;
                    s.write_cache_drained_lines += u64::from(lines);
                }
                TelemetryEvent::CosetChoice {
                    row0,
                    row1,
                    row2,
                    row3,
                    ..
                } => {
                    for (slot, n) in s.coset_rows.iter_mut().zip([row0, row1, row2, row3]) {
                        *slot += u64::from(n);
                    }
                }
            }
        }
        if s.batches > 0 {
            s.mean_batch_utilization = util_sum / s.batches as f64;
        }
        s.read_depths.sort_unstable();
        s.write_depths.sort_unstable();
        s
    }

    /// Fraction of the trace span bank `i` spent busy (0 when the trace
    /// is empty).
    pub fn utilization(&self, bank: usize) -> f64 {
        if self.span == Ps::ZERO {
            return 0.0;
        }
        self.banks
            .get(bank)
            .map(|b| b.busy.as_ps() as f64 / self.span.as_ps() as f64)
            .unwrap_or(0.0)
    }

    /// Combine per-rank summaries into one whole-system view.
    ///
    /// Bank tables concatenate in rank-major order (flat bank id =
    /// `rank * banks_per_rank + local`), depth samples pool and re-sort,
    /// counters sum, the span is the maximum, and the mean batch
    /// utilization re-weights by each rank's batch count. The workload /
    /// scheme labels come from the first non-empty part. Merging a single
    /// summary returns it unchanged.
    pub fn merged(parts: &[TraceSummary]) -> TraceSummary {
        let mut out = TraceSummary::default();
        let mut util_weight = 0.0f64;
        for p in parts {
            if out.workload.is_empty() {
                out.workload = p.workload.clone();
            }
            if out.scheme.is_empty() {
                out.scheme = p.scheme.clone();
            }
            out.banks.extend(p.banks.iter().cloned());
            out.span = out.span.max(p.span);
            out.read_depths.extend_from_slice(&p.read_depths);
            out.write_depths.extend_from_slice(&p.write_depths);
            out.pauses += p.pauses;
            out.resumes += p.resumes;
            out.drains += p.drains;
            out.batches += p.batches;
            out.stolen_write0s += p.stolen_write0s;
            util_weight += p.mean_batch_utilization * p.batches as f64;
            out.watermark_adjusts += p.watermark_adjusts;
            out.steered_writes += p.steered_writes;
            out.read_windows += p.read_windows;
            out.served_requests += p.served_requests;
            out.shed_requests += p.shed_requests;
            out.partition_writes += p.partition_writes;
            out.partitions_sum += p.partitions_sum;
            out.write_cache_hits += p.write_cache_hits;
            out.write_cache_coalesces += p.write_cache_coalesces;
            out.write_cache_drains += p.write_cache_drains;
            out.write_cache_drained_lines += p.write_cache_drained_lines;
            for (slot, n) in out.coset_rows.iter_mut().zip(p.coset_rows) {
                *slot += n;
            }
        }
        if out.batches > 0 {
            out.mean_batch_utilization = util_weight / out.batches as f64;
        }
        out.read_depths.sort_unstable();
        out.write_depths.sort_unstable();
        out
    }

    /// Summarize a rank-tagged event stream (as returned by
    /// [`crate::read_tagged_events`]) into one summary per rank, indexed
    /// by rank. Ranks with no events yield an empty summary, so the
    /// result always spans `0..=max_rank`.
    pub fn by_rank(tagged: &[(u32, TelemetryEvent)]) -> Vec<TraceSummary> {
        let ranks = tagged
            .iter()
            .map(|&(r, _)| r)
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut streams: Vec<Vec<TelemetryEvent>> = vec![Vec::new(); ranks];
        for (rank, ev) in tagged {
            streams[*rank as usize].push(ev.clone());
        }
        streams
            .iter()
            .map(|evs| TraceSummary::from_events(evs))
            .collect()
    }

    /// Mean concurrent-partition occupancy over partition-parallel writes
    /// (0 when the scheme never drove multiple partitions).
    pub fn mean_partition_occupancy(&self) -> f64 {
        if self.partition_writes == 0 {
            0.0
        } else {
            self.partitions_sum as f64 / self.partition_writes as f64
        }
    }

    /// Mean utilization across all banks.
    pub fn mean_utilization(&self) -> f64 {
        if self.banks.is_empty() {
            0.0
        } else {
            (0..self.banks.len())
                .map(|b| self.utilization(b))
                .sum::<f64>()
                / self.banks.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::Ps;

    fn meta(banks: u32) -> TelemetryEvent {
        TelemetryEvent::RunMeta {
            workload: "w".into(),
            scheme: "s".into(),
            banks,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn busy_time_accumulates_per_bank() {
        let evs = vec![
            meta(2),
            TelemetryEvent::BankBusy {
                at: Ps(0),
                bank: 0,
                kind: OpKind::Read,
                until: Ps(50_000),
                lines: 1,
            },
            TelemetryEvent::BankBusy {
                at: Ps(50_000),
                bank: 0,
                kind: OpKind::Write,
                until: Ps(100_000),
                lines: 2,
            },
            TelemetryEvent::BankIdle {
                at: Ps(100_000),
                bank: 0,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.banks.len(), 2);
        assert_eq!(s.banks[0].busy, Ps(100_000));
        assert_eq!(s.banks[0].reads, 1);
        assert_eq!(s.banks[0].writes, 1);
        assert_eq!(s.banks[0].lines, 3);
        assert_eq!(s.banks[1].busy, Ps::ZERO);
        assert_eq!(s.span, Ps(100_000));
        assert!((s.utilization(0) - 1.0).abs() < 1e-12);
        assert_eq!(s.utilization(1), 0.0);
        assert!((s.mean_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pause_retracts_unrun_tail_and_resume_re_adds() {
        // Write scheduled 0..430ns, paused at 100ns, resumes 150..480ns.
        let evs = vec![
            meta(1),
            TelemetryEvent::BankBusy {
                at: Ps(0),
                bank: 0,
                kind: OpKind::Write,
                until: Ps(430_000),
                lines: 1,
            },
            TelemetryEvent::WritePause {
                at: Ps(100_000),
                bank: 0,
                pauses: 1,
            },
            TelemetryEvent::WriteResume {
                at: Ps(150_000),
                bank: 0,
                until: Ps(480_000),
            },
        ];
        let s = TraceSummary::from_events(&evs);
        // 100ns before the pause + 330ns after the resume.
        assert_eq!(s.banks[0].busy, Ps(430_000));
        assert_eq!(s.pauses, 1);
        assert_eq!(s.resumes, 1);
        assert_eq!(s.span, Ps(480_000));
        assert!(s.utilization(0) < 1.0);
    }

    #[test]
    fn queue_depths_sorted_and_counted() {
        let evs = vec![
            TelemetryEvent::QueueDepth {
                at: Ps(1),
                reads: 9,
                writes: 2,
            },
            TelemetryEvent::QueueDepth {
                at: Ps(2),
                reads: 3,
                writes: 30,
            },
            TelemetryEvent::DrainStart {
                at: Ps(3),
                writes: 32,
            },
            TelemetryEvent::BatchPack {
                at: Ps(4),
                bank: 0,
                lines: 4,
                write_units: 1.5,
                stolen_write0s: 6,
                utilization: 0.5,
            },
            TelemetryEvent::BatchPack {
                at: Ps(5),
                bank: 0,
                lines: 2,
                write_units: 1.0,
                stolen_write0s: 2,
                utilization: 1.0,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.read_depths, vec![3, 9]);
        assert_eq!(s.write_depths, vec![2, 30]);
        assert_eq!(s.drains, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.stolen_write0s, 8);
        assert!((s.mean_batch_utilization - 0.75).abs() < 1e-12);
    }

    #[test]
    fn scheduler_events_counted_and_window_extends_span() {
        let evs = vec![
            TelemetryEvent::WatermarkAdjust {
                at: Ps(1_000),
                low: 10,
                high: 24,
            },
            TelemetryEvent::WriteSteer {
                at: Ps(2_000),
                bank: 3,
                over: 0,
            },
            TelemetryEvent::WriteSteer {
                at: Ps(3_000),
                bank: 1,
                over: 0,
            },
            TelemetryEvent::ReadWindow {
                at: Ps(4_000),
                until: Ps(90_000),
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.watermark_adjusts, 1);
        assert_eq!(s.steered_writes, 2);
        assert_eq!(s.read_windows, 1);
        assert_eq!(s.span, Ps(90_000), "window end extends the trace span");
    }

    #[test]
    fn merged_concatenates_banks_and_pools_depths() {
        let mut a = TraceSummary::from_events(&[
            meta(2),
            TelemetryEvent::BankBusy {
                at: Ps(0),
                bank: 0,
                kind: OpKind::Read,
                until: Ps(10_000),
                lines: 1,
            },
            TelemetryEvent::QueueDepth {
                at: Ps(1),
                reads: 5,
                writes: 9,
            },
        ]);
        a.drains = 2;
        let b = TraceSummary::from_events(&[
            meta(2),
            TelemetryEvent::BankBusy {
                at: Ps(0),
                bank: 1,
                kind: OpKind::Write,
                until: Ps(40_000),
                lines: 2,
            },
            TelemetryEvent::QueueDepth {
                at: Ps(2),
                reads: 3,
                writes: 1,
            },
        ]);
        let m = TraceSummary::merged(&[a.clone(), b]);
        assert_eq!(m.banks.len(), 4, "rank-major concatenation");
        assert_eq!(m.banks[0].reads, 1);
        assert_eq!(m.banks[3].writes, 1);
        assert_eq!(m.span, Ps(40_000));
        assert_eq!(m.read_depths, vec![3, 5]);
        assert_eq!(m.write_depths, vec![1, 9]);
        assert_eq!(m.drains, 2);
        assert_eq!(m.workload, "w");
        // Single-part merge only re-sorts (already sorted) — equal fields.
        let one = TraceSummary::merged(std::slice::from_ref(&a));
        assert_eq!(one.banks, a.banks);
        assert_eq!(one.read_depths, a.read_depths);
    }

    #[test]
    fn serve_events_counted() {
        let evs = vec![
            TelemetryEvent::RequestDone {
                at: Ps(1_000),
                tenant: 0,
                kind: OpKind::Read,
                latency: Ps(60_000),
            },
            TelemetryEvent::RequestDone {
                at: Ps(2_000),
                tenant: 1,
                kind: OpKind::Write,
                latency: Ps(431_000),
            },
            TelemetryEvent::Backpressure {
                at: Ps(3_000),
                tenant: 1,
                depth: 64,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.served_requests, 2);
        assert_eq!(s.shed_requests, 1);
        assert_eq!(s.span, Ps(3_000));
        let m = TraceSummary::merged(&[s.clone(), s]);
        assert_eq!(m.served_requests, 4);
        assert_eq!(m.shed_requests, 2);
    }

    #[test]
    fn partition_and_coset_events_aggregate() {
        let evs = vec![
            TelemetryEvent::PartitionWrite {
                at: Ps(1_000),
                bank: 0,
                partitions: 4,
                lines: 1,
            },
            TelemetryEvent::PartitionWrite {
                at: Ps(2_000),
                bank: 1,
                partitions: 2,
                lines: 1,
            },
            TelemetryEvent::CosetChoice {
                at: Ps(3_000),
                bank: 0,
                row0: 3,
                row1: 1,
                row2: 0,
                row3: 2,
            },
            TelemetryEvent::CosetChoice {
                at: Ps(4_000),
                bank: 1,
                row0: 1,
                row1: 0,
                row2: 0,
                row3: 0,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.partition_writes, 2);
        assert_eq!(s.partitions_sum, 6);
        assert!((s.mean_partition_occupancy() - 3.0).abs() < 1e-12);
        assert_eq!(s.coset_rows, [4, 1, 0, 2]);
        assert_eq!(s.span, Ps(4_000));
        let m = TraceSummary::merged(&[s.clone(), s]);
        assert_eq!(m.partition_writes, 4);
        assert_eq!(m.coset_rows, [8, 2, 0, 4]);
        assert!((m.mean_partition_occupancy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn write_cache_events_counted() {
        let evs = vec![
            TelemetryEvent::WriteCacheHit {
                at: Ps(1_000),
                kind: OpKind::Write,
            },
            TelemetryEvent::WriteCacheHit {
                at: Ps(2_000),
                kind: OpKind::Write,
            },
            TelemetryEvent::WriteCacheHit {
                at: Ps(3_000),
                kind: OpKind::Read,
            },
            TelemetryEvent::WriteCacheDrain {
                at: Ps(4_000),
                lines: 12,
                depth: 48,
            },
            TelemetryEvent::WriteCacheDrain {
                at: Ps(5_000),
                lines: 4,
                depth: 16,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.write_cache_coalesces, 2);
        assert_eq!(s.write_cache_hits, 1);
        assert_eq!(s.write_cache_drains, 2);
        assert_eq!(s.write_cache_drained_lines, 16);
        assert_eq!(s.span, Ps(5_000));
        let m = TraceSummary::merged(&[s.clone(), s]);
        assert_eq!(m.write_cache_coalesces, 4);
        assert_eq!(m.write_cache_hits, 2);
        assert_eq!(m.write_cache_drains, 4);
        assert_eq!(m.write_cache_drained_lines, 32);
    }

    #[test]
    fn empty_trace_is_all_zeroes() {
        let s = TraceSummary::from_events(&[]);
        assert_eq!(s.span, Ps::ZERO);
        assert!(s.banks.is_empty());
        assert_eq!(s.utilization(0), 0.0);
        assert_eq!(s.mean_utilization(), 0.0);
    }
}

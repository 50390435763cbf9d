//! Trace-driven cores.
//!
//! Each core replays a stream of [`TraceOp`]s: execute `gap` non-memory
//! instructions at one instruction per cycle, then perform a memory
//! operation. Loads block the core until the data returns (an in-order
//! approximation of the paper's O3 ALPHA cores — see DESIGN.md §4); stores
//! are fire-and-forget unless the memory write queue exerts backpressure.

use crate::request::AccessKind;
use pcm_types::{Cycles, PhysAddr, Ps};

/// One trace operation: `gap` compute instructions then a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions preceding the access.
    pub gap: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Byte address accessed.
    pub addr: PhysAddr,
}

/// A pull-based, per-core stream of memory requests.
///
/// Everything that feeds the simulator — synthetic generators, trace
/// files, the `pcm-serve` socket front end — implements this trait; the
/// engine pulls one op at a time, so sources never need to materialize
/// the whole request stream up front.
pub trait RequestSource: Send {
    /// Next operation for `core`, or `None` when the core's work is done.
    fn next(&mut self, core: usize) -> Option<TraceOp>;
}

/// A fixed list of ops per core (tests, examples, and the explicit
/// materialization point for sources that must be replayed or saved).
#[derive(Clone, Debug, Default)]
pub struct VecTrace {
    ops: Vec<Vec<TraceOp>>,
    pos: Vec<usize>,
}

impl VecTrace {
    /// Trace with the given per-core op lists.
    pub fn new(ops: Vec<Vec<TraceOp>>) -> Self {
        let pos = vec![0; ops.len()];
        VecTrace { ops, pos }
    }

    /// Drain a [`RequestSource`] into a materialized trace — the one
    /// sanctioned eager path, for callers that genuinely need the whole
    /// stream at once (saving a trace to disk, replay comparisons).
    pub fn capture(src: &mut dyn RequestSource, cores: usize) -> Self {
        VecTrace::new(
            (0..cores)
                .map(|c| std::iter::from_fn(|| src.next(c)).collect())
                .collect(),
        )
    }

    /// The per-core op lists.
    pub fn ops(&self) -> &[Vec<TraceOp>] {
        &self.ops
    }
}

impl RequestSource for VecTrace {
    fn next(&mut self, core: usize) -> Option<TraceOp> {
        let op = self.ops.get(core)?.get(self.pos[core]).copied();
        if op.is_some() {
            self.pos[core] += 1;
        }
        op
    }
}

/// What a core is doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorePhase {
    /// Ready to fetch/execute the next op.
    Ready,
    /// Executing a compute gap; the pending op issues when it ends.
    Computing,
    /// Blocked on an outstanding memory read (request id attached).
    WaitingRead {
        /// The read request the core is blocked on.
        req_id: u64,
        /// When the stall began.
        since: Ps,
    },
    /// Blocked on write-queue backpressure.
    WaitingWriteSlot {
        /// When the stall began.
        since: Ps,
    },
    /// Blocked on read-queue backpressure.
    WaitingReadSlot {
        /// When the stall began.
        since: Ps,
    },
    /// Trace exhausted.
    Done,
}

/// One core's architectural state.
#[derive(Clone, Copy, Debug)]
pub struct Core {
    /// Core index.
    pub id: usize,
    /// Current phase.
    pub phase: CorePhase,
    /// The memory op awaiting issue (set while Computing/Waiting*Slot).
    pub pending: Option<TraceOp>,
    /// Instructions retired (gaps + memory ops).
    pub instructions: u64,
    /// Time the core retired its last instruction.
    pub finish_time: Ps,
    /// Cumulative read-stall time.
    pub read_stall: Ps,
    /// Cumulative write-backpressure stall time.
    pub write_stall: Ps,
}

impl Core {
    /// A fresh core.
    pub fn new(id: usize) -> Self {
        Core {
            id,
            phase: CorePhase::Ready,
            pending: None,
            instructions: 0,
            finish_time: Ps::ZERO,
            read_stall: Ps::ZERO,
            write_stall: Ps::ZERO,
        }
    }

    /// Cycles the core was live, at the given clock.
    pub fn cycles(&self, freq_mhz: u64) -> Cycles {
        self.finish_time.cycles_at(freq_mhz)
    }

    /// True when the trace has been fully retired.
    pub fn is_done(&self) -> bool {
        self.phase == CorePhase::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_trace_feeds_per_core() {
        let mut t = VecTrace::new(vec![
            vec![TraceOp {
                gap: 10,
                kind: AccessKind::Read,
                addr: 0,
            }],
            vec![
                TraceOp {
                    gap: 1,
                    kind: AccessKind::Write,
                    addr: 64,
                },
                TraceOp {
                    gap: 2,
                    kind: AccessKind::Read,
                    addr: 128,
                },
            ],
        ]);
        assert_eq!(t.next(0).unwrap().gap, 10);
        assert_eq!(t.next(0), None);
        assert_eq!(t.next(1).unwrap().addr, 64);
        assert_eq!(t.next(1).unwrap().addr, 128);
        assert_eq!(t.next(1), None);
        assert_eq!(t.next(5), None, "unknown core has no trace");
    }

    #[test]
    fn core_cycle_accounting() {
        let mut c = Core::new(0);
        c.finish_time = Ps::from_ns(1_000);
        assert_eq!(c.cycles(2_000), Cycles(2_000), "1 µs at 2 GHz");
        assert!(!c.is_done());
        c.phase = CorePhase::Done;
        assert!(c.is_done());
    }
}

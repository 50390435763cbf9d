//! Scoped work-stealing thread pool (the workspace's `rayon` replacement).
//!
//! [`parallel_map`] fans a slice of independent jobs out across OS threads
//! using `std::thread::scope`, so borrowed data (profiles, configs) can be
//! shared without `Arc`. Each worker owns a contiguous index range and pops
//! jobs from its *front*; when its range drains it *steals from the back*
//! of the fullest remaining victim. Ranges are packed `(pos, end)` into a
//! single `AtomicU64`, so both pop and steal are one CAS with no locks.
//!
//! Determinism: workers tag every result with its job index and the pool
//! merges by index after the scope joins, so the output order is exactly
//! the input order — byte-identical to the sequential path — no matter how
//! the steals interleave. With `threads == 1` the pool does not spawn at
//! all; it runs the plain sequential loop.
//!
//! Panics: a panicking worker trips a shared abort flag (via a drop guard)
//! so the other workers stop taking new jobs, then the pool re-raises the
//! original panic payload once every thread has joined — a poisoned run
//! can never deadlock or return partial results.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One worker's index range, packed `(pos << 32) | end`.
///
/// Invariant: `pos <= end` at all times; the range is empty when equal.
struct WorkRange(AtomicU64);

fn pack(pos: u32, end: u32) -> u64 {
    (pos as u64) << 32 | end as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl WorkRange {
    fn new(start: u32, end: u32) -> Self {
        WorkRange(AtomicU64::new(pack(start, end)))
    }

    /// Pop the next index from the front of the range (owner side).
    fn take_front(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (pos, end) = unpack(cur);
            if pos >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(pos + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(pos),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Steal one index from the back of the range (thief side).
    fn take_back(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (pos, end) = unpack(cur);
            if pos >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(pos, end - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(end - 1),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Jobs left in the range (racy, used only to pick steal victims).
    fn remaining(&self) -> u32 {
        let (pos, end) = unpack(self.0.load(Ordering::Relaxed));
        end.saturating_sub(pos)
    }
}

/// Sets the abort flag if its thread unwinds, so peers stop early.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Default worker count: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on `threads` workers, preserving input order.
///
/// Equivalent to `items.iter().map(|t| f(t)).collect()` — including
/// bit-for-bit when `f` is deterministic per item — but wall-clock scales
/// with the slowest *item*, not the slowest *chunk*, thanks to stealing.
///
/// # Panics
/// Re-raises the first observed worker panic after all threads join.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    assert!(n <= u32::MAX as usize, "job count exceeds u32 index space");
    if threads <= 1 || n <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(n);

    // Contiguous initial partition; stealing rebalances dynamically.
    let ranges: Vec<WorkRange> = (0..workers)
        .map(|w| {
            let start = (n * w / workers) as u32;
            let end = (n * (w + 1) / workers) as u32;
            WorkRange::new(start, end)
        })
        .collect();
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ranges = &ranges;
                let abort = &abort;
                let slots = &slots;
                let f = &f;
                scope.spawn(move || {
                    let _guard = AbortOnPanic(abort);
                    loop {
                        if abort.load(Ordering::Acquire) {
                            return;
                        }
                        let idx = ranges[w].take_front().or_else(|| {
                            // Own range drained: steal from the back of
                            // the victim with the most work left.
                            (0..workers)
                                .filter(|&v| v != w)
                                .max_by_key(|&v| ranges[v].remaining())
                                .and_then(|v| ranges[v].take_back())
                        });
                        match idx {
                            Some(i) => {
                                let r = f(&items[i as usize]);
                                *slots[i as usize]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner) = Some(r);
                            }
                            None => return,
                        }
                    }
                })
            })
            .collect();
        // Join explicitly so the first panic payload is re-raised verbatim
        // (scope would otherwise also abort-join, but this keeps the
        // original message).
        let mut panic_payload = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic_payload.get_or_insert(p);
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
    });

    slots
        .into_iter()
        .map(|s| {
            // A slot's lock is only held for the store, which cannot
            // panic, so poisoning carries no torn state.
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| unreachable!("every job index produced a result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn output_order_matches_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, 8, |&v| v * v);
        let seq: Vec<u64> = items.iter().map(|&v| v * v).collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn one_thread_is_sequential() {
        // threads == 1 must not spawn: items are visited in exact input
        // order, which no multi-worker schedule guarantees.
        let order = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map(&items, 1, |&v| {
            order.lock().unwrap().push(v);
            v + 1
        });
        assert_eq!(*order.lock().unwrap(), items);
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = parallel_map(&items, 7, |&v| {
            count.fetch_add(1, Ordering::Relaxed);
            v
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Front-loaded cost: worker 0's chunk is ~100× the others'. With
        // stealing, peers drain it; we only assert completeness and order
        // (timing asserts would be flaky in CI).
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 4, |&v| {
            if v < 16 {
                // Busy work on the skewed chunk.
                (0..50_000u64).fold(v, |a, b| a.wrapping_add(b ^ a))
            } else {
                v
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[32], 32);
    }

    #[test]
    fn panics_propagate_without_deadlock() {
        let items: Vec<u32> = (0..100).collect();
        let res = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&v| {
                if v == 37 {
                    panic!("job 37 exploded");
                }
                v
            })
        });
        let payload = res.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job 37 exploded"), "payload: {msg}");
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 8, |&v| v).is_empty());
        assert_eq!(parallel_map(&[5u32], 8, |&v| v * 2), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&v| v + 1), vec![2, 3, 4]);
    }

    #[test]
    fn work_range_front_and_back() {
        let r = WorkRange::new(0, 4);
        assert_eq!(r.take_front(), Some(0));
        assert_eq!(r.take_back(), Some(3));
        assert_eq!(r.take_back(), Some(2));
        assert_eq!(r.take_front(), Some(1));
        assert_eq!(r.take_front(), None);
        assert_eq!(r.take_back(), None);
        assert_eq!(r.remaining(), 0);
    }
}

//! The broadcast-job / reply-slot protocol, factored out of the
//! fork-join evaluator.
//!
//! [`RegionProtocol`] owns the shared memory of one parallel region
//! scheme: a single job slot the master broadcasts through, one
//! cache-line-padded reply slot per worker, and the sense-reversing
//! barrier whose passes delimit the exclusive-access windows. It is
//! generic over the job and reply types, which is what lets the
//! interleave model tests drive the *exact production protocol* with
//! small payloads (`u64`s instead of trees and engines) — the
//! synchronization under test is this struct, not the kernels.
//!
//! # Protocol windows
//!
//! ```text
//!            master                         worker i
//!   ┌─ publish_job(j)          (workers blocked at fork barrier)
//!   ├─ fork()      ──────────────► fork()
//!   │  read_job(|j| …work…)        read_job(|j| …work…)
//!   │  (job read-only)             write_reply(i, r)   [slot i only]
//!   ├─ join()      ◄────────────── join()
//!   └─ drain_replies()         (workers blocked at next fork)
//! ```
//!
//! The master computes in window 2 like any worker: it keeps its own
//! partial and never touches a reply slot there. With zero workers the
//! barrier has the master as its only participant and never blocks.
//!
//! Every access goes through the closure-scoped
//! [`UnsafeCell`](crate::sync::cell::UnsafeCell) facade, so compiling
//! with `--features interleave` turns each window violation into a
//! model-checker data-race report instead of silent UB.

use crate::barrier::{BarrierToken, Poisoned, SenseBarrier};
use crate::sync::cell;

/// Pads a reply slot to its own cache line so workers completing at
/// the same time don't false-share.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) cell::UnsafeCell<T>);

/// Shared state of a fork-join region scheme for one master plus
/// `workers ≥ 0` workers: broadcast job slot, per-worker reply slots,
/// and the barrier separating their ownership windows.
pub struct RegionProtocol<J, R> {
    barrier: SenseBarrier,
    job: cell::UnsafeCell<J>,
    replies: Vec<CachePadded<R>>,
}

// SAFETY: `job` and `replies` hold `UnsafeCell`s accessed without
// locks. Races are excluded by the barrier protocol, which alternates
// exclusive-access windows:
//
// 1. The master writes `job` (`publish_job`) only while every worker
//    is blocked at the fork barrier — the steady-state invariant
//    between regions.
// 2. Between fork and join, the master and the workers read `job`
//    (shared, `read_job`) and worker `i` writes only `replies[i]`
//    (`write_reply`, exclusive by index).
// 3. After the join barrier the master reads and clears `replies`
//    (`drain_replies`); workers are already blocked at the next fork.
//
// The barrier's AcqRel/Acquire/Release orderings make every write
// before a barrier pass visible to every thread after it; the
// interleave model tests exercise exactly these windows. SAFETY of
// the bounds: `J: Send + Sync` because the master moves jobs in and
// workers read them by reference; `R: Send` because replies move
// from workers to master.
unsafe impl<J: Send + Sync, R: Send> Sync for RegionProtocol<J, R> {}

impl<J, R: Default> RegionProtocol<J, R> {
    /// Creates the shared state for `workers` workers plus the
    /// master, with the job slot holding `initial_job` and every
    /// reply slot holding `R::default()`. `workers == 0` is a
    /// master-only protocol whose barrier passes never block.
    pub fn new(workers: usize, initial_job: J) -> Self {
        RegionProtocol {
            barrier: SenseBarrier::new(workers + 1),
            job: cell::UnsafeCell::new(initial_job),
            replies: (0..workers)
                .map(|_| CachePadded(cell::UnsafeCell::new(R::default())))
                .collect(),
        }
    }
}

impl<J, R> RegionProtocol<J, R> {
    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.replies.len()
    }

    /// Master-side: broadcasts the next job. Must only be called in
    /// window 1 (every worker blocked at the fork barrier).
    pub fn publish_job(&self, job: J) {
        self.job.with_mut(|p| {
            // SAFETY: window 1 — workers are blocked at the fork
            // barrier, so the master holds exclusive access to the
            // job slot.
            unsafe { *p = job }
        });
    }

    /// A fork-barrier pass (master releases the workers into the
    /// job). Master and every worker must each call this once per
    /// region. Fails (promptly, no hang) once the protocol is
    /// poisoned by a dead participant.
    pub fn fork(&self, token: &mut BarrierToken) -> Result<(), Poisoned> {
        self.barrier.wait(token)
    }

    /// A join-barrier pass (workers hand the replies back). Master
    /// and every worker must each call this once per region — except
    /// for a shutdown region, where workers exit early and the master
    /// skips it too. Fails like [`Self::fork`] once poisoned.
    pub fn join(&self, token: &mut BarrierToken) -> Result<(), Poisoned> {
        self.barrier.wait(token)
    }

    /// Marks the protocol dead on behalf of participant `rank` (a
    /// caller-chosen id, reported back in `Poisoned`): every blocked
    /// or future fork/join pass returns `Err(Poisoned)`. Called by a
    /// participant that must unwind outside the normal shutdown
    /// region so the others never deadlock.
    pub fn poison(&self, rank: usize) {
        self.barrier.poison(rank);
    }

    /// The poisoner's rank, if the protocol is dead.
    pub fn poisoned(&self) -> Option<usize> {
        self.barrier.poisoned()
    }

    /// Master- or worker-side: reads the broadcast job. Must only be
    /// called in window 2 (between fork and join).
    pub fn read_job<T>(&self, f: impl FnOnce(&J) -> T) -> T {
        self.job.with(|p| {
            // SAFETY: window 2 — between fork and join nobody writes
            // the job slot; the master and the workers only read it.
            f(unsafe { &*p })
        })
    }

    /// Worker-side: deposits worker `idx`'s reply. Must only be
    /// called in window 2, by worker `idx` itself.
    pub fn write_reply(&self, idx: usize, reply: R) {
        self.replies[idx].0.with_mut(|p| {
            // SAFETY: window 2 — worker `idx` is the sole writer of
            // its own slot between fork and join.
            unsafe { *p = reply }
        });
    }

    /// Master-side: takes every reply, leaving `R::default()` behind.
    /// Must only be called in window 3 (after the join barrier).
    pub fn drain_replies(&self) -> Vec<R>
    where
        R: Default,
    {
        self.replies
            .iter()
            .map(|slot| {
                slot.0.with_mut(|p| {
                    // SAFETY: window 3 — the join barrier completed,
                    // so every worker has written its reply and moved
                    // on to the next fork wait; the master owns the
                    // reply array.
                    unsafe { std::mem::take(&mut *p) }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn one_region_roundtrip() {
        const WORKERS: usize = 3;
        let proto = Arc::new(RegionProtocol::<u64, u64>::new(WORKERS, 0));
        let handles: Vec<_> = (0..WORKERS)
            .map(|idx| {
                let proto = Arc::clone(&proto);
                std::thread::spawn(move || {
                    let mut token = BarrierToken::new();
                    proto.fork(&mut token).unwrap();
                    let job = proto.read_job(|j| *j);
                    proto.write_reply(idx, job * 10 + idx as u64);
                    proto.join(&mut token).unwrap();
                })
            })
            .collect();
        let mut token = BarrierToken::new();
        proto.publish_job(7);
        proto.fork(&mut token).unwrap();
        proto.join(&mut token).unwrap();
        let replies = proto.drain_replies();
        assert_eq!(replies, vec![70, 71, 72]);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn drained_slots_reset_to_default() {
        let proto = RegionProtocol::<u64, u64>::new(2, 0);
        proto.write_reply(0, 5);
        assert_eq!(proto.drain_replies(), vec![5, 0]);
        assert_eq!(proto.drain_replies(), vec![0, 0]);
        assert_eq!(proto.workers(), 2);
    }

    #[test]
    fn zero_workers_is_master_only() {
        let proto = RegionProtocol::<u64, u64>::new(0, 0);
        let mut token = BarrierToken::new();
        for job in [7, 8] {
            proto.publish_job(job);
            proto.fork(&mut token).unwrap();
            assert_eq!(proto.read_job(|j| *j), job);
            proto.join(&mut token).unwrap();
            assert_eq!(proto.drain_replies(), Vec::<u64>::new());
        }
        assert_eq!(proto.workers(), 0);
    }
}

//! The one always-on counter: a striped block of `N` relaxed lanes.
//!
//! Every layer of the stack keeps a handful of event counts that are
//! written on hot paths and read rarely (an index's ops/restarts/size, the
//! server's requests, the log's bytes, the lock events of
//! [`stats`](crate::stats)). A single `AtomicU64` per count makes every
//! operation of every thread write one shared cache line — the very
//! coherence traffic an optimistic reader exists to avoid. A [`Counters`]
//! block instead holds [`STRIPES`] copies of its `N` lanes, each copy alone
//! on its cache lines; a thread adds to the stripe it was dealt on first
//! use and a snapshot sums all of them. Counts stay exact (every add is an
//! atomic RMW, so threads that share a stripe lose nothing), and are
//! monotone for a lane that is only added to.
//!
//! The stripe is per *thread*, not per block: one `thread_local!` index
//! serves every block in the process. It is a `const`-initialised `Cell`
//! with no destructor, so recording from inside another thread-local's
//! `Drop` during thread teardown is an ordinary add.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Copies of each lane. Threads are dealt stripes round-robin, so up to
/// this many live threads write disjoint cache lines; beyond it (or when
/// two long-lived threads happen to draw the same stripe) they share one,
/// which costs speed, never counts. A power of two: the stripe is masked,
/// not bounds-checked. A block is `STRIPES` × 128 B per 16 lanes (2 KiB).
pub const STRIPES: usize = 16;

const UNASSIGNED: usize = usize::MAX;
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

#[cold]
fn deal_stripe() -> usize {
    let s = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
    STRIPE.set(s);
    s
}

/// The calling thread's stripe, `0..STRIPES`, dealt on first use. Other
/// per-thread striped state (the node [`crate::slab`]) indexes by it
/// too, so a thread touches the same stripe of every striped structure.
#[inline(always)]
pub fn stripe() -> usize {
    let s = STRIPE.get();
    let s = if s == UNASSIGNED { deal_stripe() } else { s };
    s & (STRIPES - 1)
}

/// `N` counters, striped so that concurrent adders do not share a line.
pub struct Counters<const N: usize> {
    stripes: [CachePadded<[AtomicU64; N]>; STRIPES],
}

impl<const N: usize> Counters<N> {
    /// A zeroed block.
    pub const fn new() -> Self {
        Counters {
            stripes: [const { CachePadded::new([const { AtomicU64::new(0) }; N]) }; STRIPES],
        }
    }

    /// Add `n` to `lane` on the calling thread's stripe (wrapping).
    #[inline(always)]
    pub fn add(&self, lane: usize, n: u64) {
        self.stripes[stripe()][lane].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from `lane`: a wrapping add of `-n`, so a stripe may
    /// hold a "negative" share of a lane whose stripes sum to its level.
    #[inline(always)]
    pub fn sub(&self, lane: usize, n: u64) {
        self.add(lane, n.wrapping_neg());
    }

    /// Every lane summed over the stripes: exact when no add is in flight,
    /// otherwise some value each lane held during the call.
    pub fn sum(&self) -> [u64; N] {
        let mut out = [0u64; N];
        for stripe in &self.stripes {
            for (total, c) in out.iter_mut().zip(stripe.iter()) {
                *total = total.wrapping_add(c.load(Ordering::Relaxed));
            }
        }
        out
    }

    /// One lane that is both added to and subtracted from, read as a
    /// signed level and clamped at zero: a sum that catches a `sub` on one
    /// stripe before the `add` it undoes on another is transiently
    /// negative.
    pub fn level(&self, lane: usize) -> u64 {
        let total = self
            .stripes
            .iter()
            .fold(0u64, |t, s| t.wrapping_add(s[lane].load(Ordering::Relaxed)));
        (total as i64).max(0) as u64
    }

    /// Zero every lane. Adds racing with the reset may survive it.
    pub fn reset(&self) {
        for c in self.stripes.iter().flat_map(|s| s.iter()) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Default for Counters<N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn lanes_are_independent_and_reset_zeroes() {
        let c = Counters::<3>::new();
        assert_eq!(c.sum(), [0, 0, 0]);
        c.add(0, 5);
        c.add(2, 7);
        c.add(2, 1);
        assert_eq!(c.sum(), [5, 0, 8]);
        c.sub(2, 3);
        assert_eq!(c.sum(), [5, 0, 5]);
        assert_eq!(c.level(2), 5);
        c.reset();
        assert_eq!(c.sum(), [0, 0, 0]);
    }

    #[test]
    fn block_is_cache_line_aligned_and_stripes_do_not_share_lines() {
        assert_eq!(std::mem::align_of::<Counters<1>>(), 128);
        assert_eq!(std::mem::size_of::<Counters<1>>(), STRIPES * 128);
        assert_eq!(std::mem::size_of::<Counters<16>>(), STRIPES * 128);
        assert_eq!(std::mem::size_of::<Counters<17>>(), STRIPES * 256);
        assert!(STRIPES.is_power_of_two());
    }

    /// `threads` threads each add `lane + 1` to every lane `adds` times,
    /// released together so the adds overlap.
    fn hammer(threads: usize, adds: u64) {
        let c = Counters::<4>::new();
        let start = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..adds {
                        for lane in 0..4 {
                            c.add(lane, lane as u64 + 1);
                        }
                    }
                });
            }
        });
        let each = threads as u64 * adds;
        assert_eq!(c.sum(), [each, 2 * each, 3 * each, 4 * each]);
    }

    #[test]
    fn fewer_threads_than_stripes_sum_exactly() {
        hammer(STRIPES / 4, if cfg!(miri) { 20 } else { 20_000 });
    }

    #[test]
    fn more_threads_than_stripes_share_and_still_sum_exactly() {
        hammer(STRIPES * 2 + 3, if cfg!(miri) { 5 } else { 5_000 });
    }

    /// One thread adds, another takes back only what was added, so the
    /// true level is never below zero — but the takes land on a different
    /// stripe, and a reader that passes the adder's stripe first sees more
    /// takes than adds. The level must read as zero then, not as 2^64 - k.
    #[test]
    fn racing_add_and_sub_never_read_back_negative() {
        let rounds: u64 = if cfg!(miri) { 200 } else { 200_000 };
        let c = Counters::<2>::new();
        let added = AtomicU64::new(0);
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..rounds {
                    c.add(1, 1);
                    added.fetch_add(1, Ordering::Release);
                }
            });
            s.spawn(|| {
                start.wait();
                let mut taken = 0;
                while taken < rounds {
                    if added.load(Ordering::Acquire) > taken {
                        c.sub(1, 1);
                        taken += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
            start.wait();
            while added.load(Ordering::Relaxed) < rounds {
                let level = c.level(1);
                assert!(level <= rounds, "level read back as {level}");
            }
        });
        assert_eq!(c.sum(), [0, 0]);
        assert_eq!(c.level(1), 0);
    }

    #[test]
    fn level_clamps_a_negative_sum() {
        let c = Counters::<1>::new();
        c.add(0, 1);
        std::thread::scope(|s| {
            s.spawn(|| c.sub(0, 2));
        });
        assert_eq!(c.sum(), [u64::MAX]);
        assert_eq!(c.level(0), 0);
    }

    /// Recording while the thread's locals are being torn down (a lock
    /// released inside another thread-local's destructor) must not panic.
    #[test]
    fn add_from_a_thread_local_destructor() {
        static C: Counters<1> = Counters::new();
        struct AddsOnDrop;
        impl Drop for AddsOnDrop {
            fn drop(&mut self) {
                C.add(0, 1);
            }
        }
        thread_local! {
            static LATE: AddsOnDrop = const { AddsOnDrop };
        }
        for _ in 0..3 {
            std::thread::spawn(|| {
                // Touch LATE first and the stripe not at all: the add in
                // the destructor is then this thread's first.
                LATE.with(|_| ());
            })
            .join()
            .expect("destructor add panicked");
        }
        assert_eq!(C.sum(), [3]);
    }
}

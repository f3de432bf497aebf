//! Lock-protected register arrays: the smallest structure that turns
//! *any* lock in the workspace into a checkable [`ConcurrentIndex`].
//!
//! The trees only exercise the seven [`IndexLock`] implementations; the
//! writer-only locks (MCS, TTS, TTS-Backoff) have no index to live in.
//! [`LockRegister`] gives every [`ExclusiveLock`] a home — one lock + one
//! `(present, value)` cell per key — so the linearizability driver sweeps
//! the entire lock family, not just the index-capable subset.
//!
//! [`OptRegister`] is the same array for [`IndexLock`] types, but read
//! with the paper's protocol: optimistic `r_lock`/`r_unlock` lookups
//! (seqlock-style, validation discards torn reads) and writes through
//! `x_lock_adjustable` … `x_finish_adjustable` — a direct miniature of
//! Algorithm 4 including, under `OptiQLAor`, the AOR admission window, at
//! a site where a torn or mis-fenced implementation shows up as a per-key
//! linearizability violation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use optiql::{ExclusiveLock, IndexLock};
use optiql_index_api::ConcurrentIndex;

struct Slot<L> {
    lock: L,
    present: AtomicBool,
    value: AtomicU64,
}

impl<L: Default> Default for Slot<L> {
    fn default() -> Self {
        Slot {
            lock: L::default(),
            present: AtomicBool::new(false),
            value: AtomicU64::new(0),
        }
    }
}

fn make_slots<L: Default>(capacity: usize) -> Box<[CachePadded<Slot<L>>]> {
    (0..capacity.max(1))
        .map(|_| CachePadded::new(Slot::default()))
        .collect()
}

macro_rules! register_common {
    () => {
        /// Number of addressable keys.
        pub fn capacity(&self) -> usize {
            self.slots.len()
        }

        #[inline]
        fn slot(&self, k: u64) -> &Slot<L> {
            assert!(
                (k as usize) < self.slots.len(),
                "key {k} out of register capacity {}",
                self.slots.len()
            );
            &self.slots[k as usize]
        }

        /// Present entries from key `from` on (`None`: from 0), ascending.
        /// An unlocked relaxed sweep: registers exist to check per-key
        /// lock protocols, not scan protocols (the dedicated bounds tests
        /// cover those), so a scan is one pass over the array.
        fn entries_from(&self, from: Option<u64>) -> impl Iterator<Item = (u64, u64)> + '_ {
            self.slots
                .iter()
                .enumerate()
                .skip(from.map_or(0, |k| k as usize))
                .filter(|(_, s)| s.present.load(Ordering::Relaxed))
                .map(|(k, s)| (k as u64, s.value.load(Ordering::Relaxed)))
        }
    };
}

/// One lock and one register cell per key; every operation holds the
/// key's lock exclusively. Works for any [`ExclusiveLock`].
pub struct LockRegister<L: ExclusiveLock> {
    slots: Box<[CachePadded<Slot<L>>]>,
}

impl<L: ExclusiveLock> LockRegister<L> {
    /// A register array addressing keys `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        LockRegister {
            slots: make_slots(capacity),
        }
    }

    register_common!();

    /// Run `f` on `(present, value)` of `k`'s cell under its lock,
    /// returning the previous value.
    fn locked<T>(&self, k: u64, f: impl FnOnce(&Slot<L>) -> T) -> T {
        let s = self.slot(k);
        let t = s.lock.x_lock();
        let out = f(s);
        s.lock.x_unlock(t);
        out
    }

    fn read_cell(s: &Slot<L>) -> Option<u64> {
        s.present
            .load(Ordering::Relaxed)
            .then(|| s.value.load(Ordering::Relaxed))
    }
}

impl<L: ExclusiveLock> ConcurrentIndex for LockRegister<L> {
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.locked(k, |s| {
            let prev = Self::read_cell(s);
            s.value.store(v, Ordering::Relaxed);
            s.present.store(true, Ordering::Relaxed);
            prev
        })
    }
    fn update(&self, k: u64, v: u64) -> Option<u64> {
        self.locked(k, |s| {
            let prev = Self::read_cell(s);
            if prev.is_some() {
                s.value.store(v, Ordering::Relaxed);
            }
            prev
        })
    }
    fn lookup(&self, k: u64) -> Option<u64> {
        self.locked(k, Self::read_cell)
    }
    fn remove(&self, k: u64) -> Option<u64> {
        self.locked(k, |s| {
            let prev = Self::read_cell(s);
            s.present.store(false, Ordering::Relaxed);
            prev
        })
    }
    fn scan_chunk(
        &self,
        from: Option<u64>,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<u64> {
        optiql_index_api::chunk_of(self.entries_from(from), limit, out)
    }
    fn len(&self) -> usize {
        self.entries_from(None).count()
    }
}

/// The register array read with the paper's index-locking protocol:
/// optimistic (or pessimistic-shared) lookups, AOR-windowed writes.
pub struct OptRegister<L: IndexLock> {
    slots: Box<[CachePadded<Slot<L>>]>,
}

impl<L: IndexLock> OptRegister<L> {
    /// A register array addressing keys `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        OptRegister {
            slots: make_slots(capacity),
        }
    }

    register_common!();

    /// Write path (Algorithm 4 in miniature): acquire (with the AOR
    /// window open under `OptiQLAor`), "locate the target" (read the
    /// previous state), close the window, then modify.
    fn write(&self, k: u64, f: impl FnOnce(&Slot<L>, Option<u64>)) -> Option<u64> {
        let s = self.slot(k);
        let t = s.lock.x_lock_adjustable();
        let prev = s
            .present
            .load(Ordering::Relaxed)
            .then(|| s.value.load(Ordering::Relaxed));
        let t = s.lock.x_finish_adjustable(t);
        f(s, prev);
        s.lock.x_unlock(t);
        prev
    }
}

impl<L: IndexLock> ConcurrentIndex for OptRegister<L> {
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.write(k, |s, _| {
            s.value.store(v, Ordering::Relaxed);
            s.present.store(true, Ordering::Relaxed);
        })
    }
    fn update(&self, k: u64, v: u64) -> Option<u64> {
        self.write(k, |s, prev| {
            if prev.is_some() {
                s.value.store(v, Ordering::Relaxed);
            }
        })
    }
    fn lookup(&self, k: u64) -> Option<u64> {
        let s = self.slot(k);
        loop {
            let Some(ver) = s.lock.r_lock() else {
                std::hint::spin_loop();
                continue;
            };
            let present = s.present.load(Ordering::Relaxed);
            let value = s.value.load(Ordering::Relaxed);
            if s.lock.r_unlock(ver) {
                return present.then_some(value);
            }
        }
    }
    fn remove(&self, k: u64) -> Option<u64> {
        self.write(k, |s, _| {
            s.present.store(false, Ordering::Relaxed);
        })
    }
    fn scan_chunk(
        &self,
        from: Option<u64>,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<u64> {
        optiql_index_api::chunk_of(self.entries_from(from), limit, out)
    }
    fn len(&self) -> usize {
        self.entries_from(None).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_register_round_trips() {
        let r: LockRegister<optiql::McsLock> = LockRegister::new(8);
        assert_eq!(r.capacity(), 8);
        assert_eq!(r.insert(3, 30), None);
        assert_eq!(r.insert(3, 31), Some(30));
        assert_eq!(r.update(4, 40), None, "update never inserts");
        assert_eq!(r.lookup(3), Some(31));
        assert_eq!(r.len(), 1);
        let count = |start| {
            r.range(std::ops::Bound::Included(start), std::ops::Bound::Unbounded)
                .count()
        };
        assert_eq!(count(0), 1);
        assert_eq!(count(4), 0);
        assert_eq!(r.remove(3), Some(31));
        assert_eq!(r.remove(3), None);
    }

    #[test]
    fn opt_register_round_trips() {
        let r: OptRegister<optiql::OptiQLAor> = OptRegister::new(8);
        assert_eq!(r.insert(1, 10), None);
        assert_eq!(r.lookup(1), Some(10));
        assert_eq!(r.update(1, 11), Some(10));
        assert_eq!(r.lookup(1), Some(11));
        assert_eq!(r.remove(1), Some(11));
        assert_eq!(r.lookup(1), None);
        assert_eq!(r.update(1, 12), None);
        assert_eq!(r.lookup(1), None, "failed update must not write");
    }

    #[test]
    #[should_panic(expected = "out of register capacity")]
    fn out_of_capacity_keys_panic() {
        let r: LockRegister<optiql::TtsLock> = LockRegister::new(4);
        r.insert(4, 0);
    }
}

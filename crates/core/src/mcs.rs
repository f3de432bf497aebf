//! Classic MCS mutual-exclusion lock (paper §2.3, Algorithm 1;
//! Mellor-Crummey & Scott \[38\]).
//!
//! Requesters form a FIFO queue; each spins on a flag in its *own* queue
//! node, so lock handover touches one remote cache line instead of
//! hammering the shared word. This is the robustness/fairness base OptiQL
//! extends with optimistic reads. Included as a writer-only reference in
//! Figure 6.
//!
//! This implementation draws queue nodes from the shared [`crate::qnode`]
//! pool (the `granted` boolean of Algorithm 1 is represented by the node's
//! `version` field leaving its `INVALID` sentinel).

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::qnode::{self, QNode};
use crate::spin::Spinner;
use crate::stats::{record, Event};
use crate::traits::{ExclusiveLock, WriteToken};
use crate::word::INVALID_VERSION;

/// Classic MCS lock: the word is the queue tail pointer; null means free.
#[derive(Default)]
pub struct McsLock {
    tail: AtomicPtr<QNode>,
}

impl McsLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        McsLock {
            tail: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// True iff some requester is queued or holding (diagnostic).
    pub fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    /// Acquire with the caller-held queue node `id` (paper Algorithm 1
    /// left).
    ///
    /// # Safety contract
    /// `id` must stay allocated and untouched by the caller until the
    /// matching [`Self::release_with`] returns; enforced here by taking
    /// nodes from the pool in the [`ExclusiveLock`] impl.
    pub fn acquire_with(&self, id: u16) {
        let qn = qnode::to_ptr(id);
        qn.reset();
        let me = qn as *const QNode as *mut QNode;
        let pred = self.tail.swap(me, Ordering::AcqRel);
        if pred.is_null() {
            record(Event::ExAcquire);
            return; // lock was free; granted immediately
        }
        // Link behind the predecessor, then spin locally.
        record(Event::ExQueueWait);
        unsafe { (*pred).next.store(me, Ordering::Release) };
        let mut s = Spinner::new();
        while qn.version.load(Ordering::Acquire) == INVALID_VERSION {
            s.spin();
        }
        record(Event::ExAcquire);
    }

    /// Release with the queue node `id` used at acquire (Algorithm 1
    /// right).
    pub fn release_with(&self, id: u16) {
        let qn = qnode::to_ptr(id);
        let me = qn as *const QNode as *mut QNode;
        if qn.next.load(Ordering::Acquire).is_null() {
            // Appears to have no successor: try to reset the tail.
            if self
                .tail
                .compare_exchange(me, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return; // indeed no successor
            }
            // A successor swapped in but has not linked yet; wait for it.
            let mut s = Spinner::new();
            while qn.next.load(Ordering::Acquire).is_null() {
                s.spin();
            }
        }
        // Pass the lock to the successor.
        let next = qn.next.load(Ordering::Relaxed);
        unsafe { (*next).version.store(0, Ordering::Release) };
        record(Event::ExHandover);
    }
}

impl ExclusiveLock for McsLock {
    const NAME: &'static str = "MCS";

    #[inline]
    fn x_lock(&self) -> WriteToken {
        let id = qnode::alloc();
        self.acquire_with(id);
        WriteToken::from_qnode(id)
    }

    #[inline]
    fn x_unlock(&self, t: WriteToken) {
        let id = t.qnode_id();
        self.release_with(id);
        qnode::free(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn uncontended_cycle() {
        let l = McsLock::new();
        assert!(!l.is_locked());
        let t = l.x_lock();
        assert!(l.is_locked());
        l.x_unlock(t);
        assert!(!l.is_locked());
    }

    #[test]
    fn nested_distinct_locks() {
        let a = McsLock::new();
        let b = McsLock::new();
        let ta = a.x_lock();
        let tb = b.x_lock();
        b.x_unlock(tb);
        a.x_unlock(ta);
        assert!(!a.is_locked() && !b.is_locked());
    }

    #[test]
    fn mutual_exclusion_and_progress() {
        let l = Arc::new(McsLock::new());
        let c = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let t = l.x_lock();
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                        l.x_unlock(t);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 40_000);
        assert!(!l.is_locked());
    }

    #[test]
    fn handover_chain_under_forced_queueing() {
        // Hold the lock while several requesters pile up, then release and
        // make sure all of them are eventually granted in order.
        let l = Arc::new(McsLock::new());
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t0 = l.x_lock();
        let hs: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                let order = Arc::clone(&order);
                let h = std::thread::spawn(move || {
                    let t = l.x_lock();
                    order.lock().push(i);
                    l.x_unlock(t);
                });
                // Stagger arrivals so FIFO order is observable.
                std::thread::sleep(std::time::Duration::from_millis(20));
                h
            })
            .collect();
        l.x_unlock(t0);
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(
            &*order.lock(),
            &[0, 1, 2, 3],
            "MCS must grant in FIFO order"
        );
    }
}

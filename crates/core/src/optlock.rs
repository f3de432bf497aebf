//! Centralized optimistic lock, "OptLock" (paper Figure 2b; Leis et al.
//! \[26, 28\]).
//!
//! The lock every recent memory-optimized index uses: a TTS-style spinlock
//! whose 8-byte word additionally carries a version counter. Readers proceed
//! without writing shared memory and validate afterwards; writers CAS the
//! lock bit and bump the version on release. Fast under low contention,
//! collapses under high contention (Figure 1) — the problem OptiQL solves.
//! [`OptLockBackoff`] is the same lock with truncated exponential backoff
//! between a writer's retries.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::backoff::Backoff;
use crate::spin::Spinner;
use crate::stats::{record, Event};
use crate::traits::{ExclusiveLock, IndexLock, WriteStrategy, WriteToken};

/// Exclusive bit, most significant (paper: `1UL << 63`).
pub const LOCKED: u64 = 1 << 63;

/// Shared implementation; `BACKOFF` selects how a writer that found the
/// lock held waits before it retries.
#[derive(Default)]
pub struct OptLockCore<const BACKOFF: bool> {
    word: AtomicU64,
}

/// Centralized optimistic lock.
pub type OptLock = OptLockCore<false>;
/// OptLock with truncated exponential backoff on the writer path
/// (ablation: eases collapse, sacrifices fairness — paper §1.1).
pub type OptLockBackoff = OptLockCore<true>;

impl<const BACKOFF: bool> OptLockCore<BACKOFF> {
    /// New, unlocked, version 0.
    pub const fn new() -> Self {
        OptLockCore {
            word: AtomicU64::new(0),
        }
    }
}

impl<const BACKOFF: bool> ExclusiveLock for OptLockCore<BACKOFF> {
    const NAME: &'static str = if BACKOFF {
        "OptLock-Backoff"
    } else {
        "OptLock"
    };

    #[inline]
    fn x_lock(&self) -> WriteToken {
        let mut s = Spinner::new();
        let mut b = Backoff::default();
        let mut contended = false;
        loop {
            let v = self.word.load(Ordering::Relaxed);
            if v & LOCKED == 0
                && self
                    .word
                    .compare_exchange_weak(v, v | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                record(Event::ExAcquire);
                return WriteToken::empty();
            }
            if !contended {
                contended = true;
                record(Event::ExQueueWait);
            }
            if BACKOFF {
                b.wait();
            } else {
                s.spin();
            }
        }
    }

    #[inline]
    fn x_unlock(&self, _t: WriteToken) {
        // Single writer: plain load + store is race-free on the version.
        // `(lock + 1) & ~LOCKED` — clears the lock bit and bumps the
        // version in one store, exactly as in Figure 2b.
        let v = self.word.load(Ordering::Relaxed);
        debug_assert!(v & LOCKED != 0, "x_unlock of unheld OptLock");
        self.word
            .store(v.wrapping_add(1) & !LOCKED, Ordering::Release);
    }
}

impl<const BACKOFF: bool> IndexLock for OptLockCore<BACKOFF> {
    const STRATEGY: WriteStrategy = WriteStrategy::Upgrade;

    #[inline]
    fn r_lock(&self) -> Option<u64> {
        let v = self.word.load(Ordering::Acquire);
        if v & LOCKED == 0 {
            record(Event::ReadAdmit);
            Some(v)
        } else {
            record(Event::ReadReject);
            None
        }
    }

    #[inline]
    fn r_unlock(&self, v: u64) -> bool {
        // Seqlock idiom: order all data reads before the validation load.
        fence(Ordering::Acquire);
        let ok = self.word.load(Ordering::Relaxed) == v;
        record(if ok {
            Event::ReadValidateOk
        } else {
            Event::ReadValidateFail
        });
        ok
    }

    #[inline]
    fn recheck(&self, v: u64) -> bool {
        self.r_unlock(v)
    }

    #[inline]
    fn try_upgrade(&self, v: u64) -> Option<WriteToken> {
        debug_assert!(v & LOCKED == 0);
        let t = self
            .word
            .compare_exchange(v, v | LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| WriteToken::empty());
        record(if t.is_some() {
            Event::UpgradeOk
        } else {
            Event::UpgradeFail
        });
        t
    }

    #[inline]
    fn is_locked_ex(&self) -> bool {
        self.word.load(Ordering::Relaxed) & LOCKED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn version_bumps_once_per_write_cycle() {
        let l = OptLock::new();
        let v0 = l.r_lock().unwrap();
        let t = l.x_lock();
        l.x_unlock(t);
        let v1 = l.r_lock().unwrap();
        assert_eq!(v1, v0 + 1);
    }

    #[test]
    fn readers_fail_while_locked() {
        let l = OptLock::new();
        let t = l.x_lock();
        assert!(l.r_lock().is_none());
        l.x_unlock(t);
        assert!(l.r_lock().is_some());
    }

    #[test]
    fn validation_fails_after_write() {
        let l = OptLock::new();
        let v = l.r_lock().unwrap();
        assert!(l.r_unlock(v));
        let t = l.x_lock();
        l.x_unlock(t);
        assert!(!l.r_unlock(v), "stale snapshot must fail validation");
    }

    #[test]
    fn upgrade_succeeds_only_on_fresh_version() {
        let l = OptLock::new();
        let v = l.r_lock().unwrap();
        let t = l.try_upgrade(v).expect("fresh upgrade");
        // A second upgrade from the same snapshot must fail: lock held.
        assert!(l.try_upgrade(v).is_none());
        l.x_unlock(t);
        // Version moved on; the old snapshot can no longer upgrade.
        assert!(l.try_upgrade(v).is_none());
    }

    #[test]
    fn concurrent_writers_serialize() {
        let l = Arc::new(OptLock::new());
        let c = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
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
        assert!(!l.is_locked_ex());
    }

    #[test]
    fn backoff_variant_excludes_and_versions() {
        let l = OptLockBackoff::new();
        let v0 = l.r_lock().unwrap();
        let t = l.x_lock();
        assert!(l.is_locked_ex());
        l.x_unlock(t);
        assert!(!l.r_unlock(v0));
        assert_eq!(l.r_lock().unwrap(), v0 + 1);
    }
}

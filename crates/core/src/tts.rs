//! Test-and-test-and-set spinlock (paper Figure 2a, Rudolph & Segall \[41\]).
//!
//! The classic centralized mutual-exclusion baseline: spin reading the lock
//! word until it looks free, then CAS it to locked. No reader support, no
//! fairness, collapses under contention — included as the reference point
//! for Figure 6. [`TtsBackoff`] is the same lock with truncated
//! exponential backoff between retries (ablation baseline; trades
//! fairness for less coherence traffic).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::backoff::Backoff;
use crate::spin::Spinner;
use crate::stats::{record, Event};
use crate::traits::{ExclusiveLock, WriteToken};

const UNLOCKED: u64 = 0;
const LOCKED: u64 = 1;

/// Shared implementation; `BACKOFF` selects how a failed attempt waits.
#[derive(Default)]
pub struct TtsCore<const BACKOFF: bool> {
    word: AtomicU64,
}

/// Classic TTS spinlock.
pub type TtsLock = TtsCore<false>;
/// TTS with truncated exponential backoff between retries.
pub type TtsBackoff = TtsCore<true>;

impl<const BACKOFF: bool> TtsCore<BACKOFF> {
    /// New, unlocked.
    pub const fn new() -> Self {
        TtsCore {
            word: AtomicU64::new(UNLOCKED),
        }
    }
}

impl<const BACKOFF: bool> ExclusiveLock for TtsCore<BACKOFF> {
    const NAME: &'static str = if BACKOFF { "TTS-Backoff" } else { "TTS" };

    #[inline]
    fn x_lock(&self) -> WriteToken {
        let mut s = Spinner::new();
        let mut b = Backoff::default();
        let mut contended = false;
        loop {
            // Test: spin on a (cacheable) read first.
            if self.word.load(Ordering::Relaxed) == UNLOCKED
                && self
                    .word
                    .compare_exchange_weak(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
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
        self.word.store(UNLOCKED, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock_cycle() {
        let l = TtsLock::new();
        let t = l.x_lock();
        assert_eq!(l.word.load(Ordering::Relaxed), LOCKED);
        l.x_unlock(t);
        assert_eq!(l.word.load(Ordering::Relaxed), UNLOCKED);
    }

    #[test]
    fn mutual_exclusion_under_threads() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let l = Arc::new(TtsLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let t = l.x_lock();
                        // Split read-modify-write: torn iff exclusion fails.
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                        l.x_unlock(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40_000);
    }
}

//! "pthread" baseline: an OS/library-grade pessimistic reader-writer lock
//! (paper §7.1 uses `pthread_rwlock_t` / `std::shared_mutex`, 56 bytes).
//!
//! We wrap `parking_lot::RawRwLock`, which like glibc's rwlock expands into
//! a queue-based wait structure under contention (parking_lot parks waiters
//! in a global hash table). It is *not* 8-byte-constrained in spirit: the
//! in-object word is one `usize`, but the queue state lives outside the
//! lock, which is exactly the compactness property (D4) the paper's
//! comparison calls out. Readers write shared memory (pessimistic), so it
//! pairs with pessimistic lock coupling in the index protocols.

use parking_lot::lock_api::RawRwLock as RawRwLockApi;
use parking_lot::RawRwLock;

use crate::stats::{record, Event};
use crate::traits::{ExclusiveLock, IndexLock, WriteStrategy, WriteToken};

/// Pessimistic reader-writer lock backed by `parking_lot`.
pub struct PthreadRwLock {
    raw: RawRwLock,
}

impl Default for PthreadRwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl PthreadRwLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        PthreadRwLock {
            raw: RawRwLock::INIT,
        }
    }
}

impl ExclusiveLock for PthreadRwLock {
    const NAME: &'static str = "pthread";

    #[inline]
    fn x_lock(&self) -> WriteToken {
        self.raw.lock_exclusive();
        record(Event::ExAcquire);
        WriteToken::empty()
    }

    #[inline]
    fn x_unlock(&self, _t: WriteToken) {
        // Safety: paired with a successful `x_lock` by contract.
        unsafe { self.raw.unlock_exclusive() }
    }
}

impl IndexLock for PthreadRwLock {
    const STRATEGY: WriteStrategy = WriteStrategy::Pessimistic;

    #[inline]
    fn r_lock(&self) -> Option<u64> {
        self.raw.lock_shared();
        record(Event::ReadAdmit);
        Some(0)
    }

    #[inline]
    fn r_unlock(&self, _v: u64) -> bool {
        // Safety: paired with a successful `r_lock` by contract.
        unsafe { self.raw.unlock_shared() }
        record(Event::ReadValidateOk);
        true
    }

    #[inline]
    fn recheck(&self, _v: u64) -> bool {
        true
    }

    #[inline]
    fn try_upgrade(&self, _v: u64) -> Option<WriteToken> {
        None
    }

    #[inline]
    fn is_locked_ex(&self) -> bool {
        self.raw.is_locked_exclusive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_cycle() {
        let l = PthreadRwLock::new();
        let t = l.x_lock();
        assert!(l.is_locked_ex());
        l.x_unlock(t);
        assert!(!l.is_locked_ex());
    }

    #[test]
    fn shared_readers_coexist() {
        let l = PthreadRwLock::new();
        let a = l.r_lock().unwrap();
        let b = l.r_lock().unwrap();
        assert!(l.r_unlock(a));
        assert!(l.r_unlock(b));
    }

    #[test]
    fn upgrade_is_unsupported() {
        let l = PthreadRwLock::new();
        let v = l.r_lock().unwrap();
        assert!(l.try_upgrade(v).is_none());
        l.r_unlock(v);
    }
}

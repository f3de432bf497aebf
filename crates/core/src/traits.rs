//! Unified lock interfaces used by the index lock-coupling protocols and the
//! microbenchmark harness.
//!
//! Two layers:
//!
//! * [`ExclusiveLock`] — writer-only mutual exclusion. Implemented by every
//!   lock in the crate (including reader-capable ones); this is what the
//!   paper's Figure 6 microbenchmark exercises.
//! * [`IndexLock`] — adds the optimistic/shared read interface of paper
//!   §4.1 and the upgrade interface of §6.2. Pessimistic reader-writer locks
//!   implement the same interface by making `r_lock` blocking and
//!   `r_unlock` an actual release (validation trivially succeeds). Index
//!   code holds nodes through [`OptimisticGuard`](crate::olc::OptimisticGuard),
//!   which for these locks takes a node exclusively where the descent
//!   means to write — so the same traversal code, reads and writes alike,
//!   is classic lock coupling: exactly how the paper runs its pessimistic
//!   baselines.

/// Token returned by `x_lock`, to be passed back to `x_unlock`.
///
/// Queue-based locks store the queue node ID of the acquisition here;
/// centralized locks ignore it. `WriteToken` is deliberately `Copy` and
/// opaque so index code can thread it through without caring which lock is
/// underneath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteToken(pub(crate) u64);

impl WriteToken {
    /// Token for locks that carry no per-acquisition state.
    #[inline]
    pub const fn empty() -> Self {
        WriteToken(0)
    }

    /// The queue node ID carried by this token (queue-based locks only).
    #[inline]
    pub const fn qnode_id(self) -> u16 {
        self.0 as u16
    }

    #[inline]
    pub(crate) const fn from_qnode(id: u16) -> Self {
        WriteToken(id as u64)
    }
}

/// How an index write path should obtain exclusive ownership of a node.
/// Determined per lock type at compile time (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStrategy {
    /// Classic OLC: read-validate then CAS-upgrade the recorded version; on
    /// failure restart from the root (centralized optimistic locks).
    Upgrade,
    /// Paper Algorithm 4: acquire the lock directly (blocking, queued) at
    /// the leaf, then validate the parent; avoids the re-search after a
    /// failed upgrade (OptiQL). Whether readers stay admitted while the
    /// writer locates its slot (AOR) is the lock's own
    /// [`IndexLock::x_lock_adjustable`].
    DirectLock,
    /// Pessimistic lock coupling: readers hold shared locks, writers hold
    /// exclusive locks during the descent (MCS-RW, pthread).
    Pessimistic,
}

/// Writer-only mutual exclusion.
pub trait ExclusiveLock: Send + Sync + Default + 'static {
    /// Human-readable name used by the benchmark harness (matches the
    /// paper's legends: "OptLock", "OptiQL", "MCS", ...).
    const NAME: &'static str;

    /// Acquire the lock in exclusive mode. Blocking.
    fn x_lock(&self) -> WriteToken;

    /// Release the lock in exclusive mode.
    fn x_unlock(&self, token: WriteToken);
}

/// Full index-locking interface: optimistic (or pessimistic-shared) readers,
/// exclusive writers, and version upgrade.
pub trait IndexLock: ExclusiveLock {
    /// Strategy the index write paths should use with this lock.
    /// [`WriteStrategy::Pessimistic`] is the one mark of a lock whose
    /// `r_lock` blocks and actually holds a shared lock.
    const STRATEGY: WriteStrategy;

    /// Begin a read (paper `acquire_sh`). Optimistic locks return a version
    /// snapshot without writing shared memory; `None` tells the caller to
    /// retry. Pessimistic locks block until the shared lock is granted and
    /// always return `Some`.
    fn r_lock(&self) -> Option<u64>;

    /// End a read (paper `release_sh`): validate the snapshot (optimistic)
    /// or release the shared lock (pessimistic; always `true`).
    ///
    /// Optimistic implementations issue an `Acquire` fence before the
    /// validation load so every data read between `r_lock` and `r_unlock`
    /// is ordered before it (seqlock idiom).
    fn r_unlock(&self, v: u64) -> bool;

    /// Re-validate a snapshot without ending the read (used mid-traversal,
    /// e.g. Algorithm 4 line 13). Pessimistic locks trivially succeed.
    fn recheck(&self, v: u64) -> bool;

    /// Try to upgrade a read at snapshot `v` to exclusive ownership
    /// (paper §6.2). Fails (returns `None`) if the protected data may have
    /// changed since `v` was taken, or if the lock does not support
    /// upgrading. A successful upgrade transfers the read into a write: no
    /// `r_unlock` must follow.
    fn try_upgrade(&self, v: u64) -> Option<WriteToken>;

    /// True iff currently held in exclusive mode (diagnostic).
    fn is_locked_ex(&self) -> bool;

    /// Adjustable-opportunistic-read acquire (paper §5.3): OptiQL-AOR
    /// leaves a queued handover's reader window open until
    /// [`IndexLock::x_finish_adjustable`]. Every other lock falls back to
    /// a plain exclusive acquire, so [`olc::lock_for_write`] calls this
    /// unconditionally.
    ///
    /// [`olc::lock_for_write`]: crate::olc::lock_for_write
    #[inline]
    fn x_lock_adjustable(&self) -> WriteToken {
        self.x_lock()
    }

    /// Close the reader-admission window opened by
    /// [`IndexLock::x_lock_adjustable`] and return the token to unlock
    /// with (the caller rebinds: the old one still says the window is
    /// open). Must run before the holder modifies protected data;
    /// `x_unlock` closes a window the holder abandoned without finishing.
    /// Identity for locks without AOR.
    #[inline]
    #[must_use = "unlock with the returned token"]
    fn x_finish_adjustable(&self, token: WriteToken) -> WriteToken {
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_token_roundtrips_qnode_id() {
        let t = WriteToken::from_qnode(1023);
        assert_eq!(t.qnode_id(), 1023);
        assert_eq!(WriteToken::empty().qnode_id(), 0);
    }
}

//! OptiQL: the optimistic queuing lock (paper §4–5).
//!
//! OptiQL extends the MCS lock with optimistic read capabilities:
//!
//! 1. **Writer queue** — exclusive requesters form an MCS-style FIFO queue
//!    and spin locally, giving robustness under contention and fairness
//!    among writers (paper D2/D3).
//! 2. **Optimistic reads** — readers never write shared memory; they
//!    snapshot the 8-byte lock word and validate it after reading
//!    (Algorithm 2), exactly like centralized optimistic locks.
//! 3. **Opportunistic read** — because a queued lock is *always* in the
//!    locked state during handover, readers would starve whenever writers
//!    queue. During handover (after the holder finished its critical
//!    section, before the successor is granted) the data is consistent, so
//!    the releasing writer publishes `OPREAD | version` on the word and
//!    readers are admitted in that window (§5.3). The version must ride
//!    along to defeat the ABA scenario described in §5.3.
//!
//! The lock word layout is defined in [`crate::word`]; queue nodes are
//! translated from compact IDs by [`crate::qnode`] (§6.3).
//!
//! [`OptiQL`] enables opportunistic read; [`OptiQLNor`] (paper
//! "OptiQL-NOR") disables it, saving two atomics per handover at the cost
//! of starving readers whenever writers queue. [`OptiQLAor`] adds
//! adjustable opportunistic read ("AOR", §5.3): its
//! [`IndexLock::x_lock_adjustable`] leaves a queued handover's window open
//! until [`IndexLock::x_finish_adjustable`], so readers keep being
//! admitted while the writer locates its write target. On the other two
//! the adjustable acquire is `x_lock`.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::qnode::{self, QNode};
use crate::spin::Spinner;
use crate::stats::{record, Event};
use crate::traits::{ExclusiveLock, IndexLock, WriteStrategy, WriteToken};
use crate::word::{
    bump_version, is_locked, locked_word, readable, word_id, word_version, INVALID_VERSION, OPREAD,
    VERSION_MASK,
};

/// Token flag: the opportunistic-read window is still open and must be
/// closed (with a `FETCH_AND`) before data modification / release.
const AOR_PENDING: u64 = 1 << 32;

/// Shared implementation; `OPPORTUNISTIC` selects OptiQL vs OptiQL-NOR,
/// `AOR` whether the adjustable acquire keeps the window open.
pub struct OptiQLCore<const OPPORTUNISTIC: bool, const AOR: bool = false> {
    word: AtomicU64,
}

/// OptiQL with opportunistic read (the paper's headline configuration).
pub type OptiQL = OptiQLCore<true>;
/// OptiQL without opportunistic read (paper "OptiQL-NOR").
pub type OptiQLNor = OptiQLCore<false>;
/// OptiQL with adjustable opportunistic read ("OptiQL-AOR", §5.3/§7.4):
/// a writer granted through the queue keeps the reader-admission window
/// open until it has found its target slot.
pub type OptiQLAor = OptiQLCore<true, true>;

impl<const OPPORTUNISTIC: bool, const AOR: bool> Default for OptiQLCore<OPPORTUNISTIC, AOR> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const OPPORTUNISTIC: bool, const AOR: bool> OptiQLCore<OPPORTUNISTIC, AOR> {
    /// New, unlocked, version 0.
    pub const fn new() -> Self {
        OptiQLCore {
            word: AtomicU64::new(0),
        }
    }

    /// Current raw lock word (diagnostic).
    #[inline]
    pub fn raw(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    // ---------------------------------------------------------------
    // Reader protocol (paper Algorithm 2) — identical to centralized
    // optimistic locks: no queue node, no address translation.
    // ---------------------------------------------------------------

    /// `acquire_sh`: snapshot the word; `None` when a writer holds the lock
    /// and opportunistic read is off. A free word is tested first, so the
    /// common case is one branch.
    #[inline]
    pub fn acquire_sh(&self) -> Option<u64> {
        let v = self.word.load(Ordering::Acquire);
        if !is_locked(v) {
            record(Event::ReadAdmit);
            Some(v)
        } else if readable(v) {
            record(Event::OpReadAdmit);
            Some(v)
        } else {
            record(Event::ReadReject);
            None
        }
    }

    /// `release_sh`: validate that the word still equals the snapshot.
    /// The `Acquire` fence orders all data reads before the validation load.
    #[inline]
    pub fn release_sh(&self, v: u64) -> bool {
        fence(Ordering::Acquire);
        let ok = self.word.load(Ordering::Relaxed) == v;
        record(if ok {
            Event::ReadValidateOk
        } else {
            Event::ReadValidateFail
        });
        ok
    }

    // ---------------------------------------------------------------
    // Writer protocol (paper Algorithm 3).
    // ---------------------------------------------------------------

    /// `acquire_ex` with the caller-held queue node `id`. Returns `true`
    /// when the acquisition went through the queue (i.e. a predecessor
    /// handed the lock over), in which case the opportunistic-read window is
    /// open until [`Self::close_opread_window`] runs; the wrapped trait
    /// impls deal with this automatically.
    pub fn acquire_ex_with(&self, id: u16) -> bool {
        let qn = qnode::to_ptr(id);
        qn.reset();
        // Record ourselves as the latest requester: locked bit on,
        // opportunistic read off, version bits zeroed (Alg 3 l.2).
        let prev = self.word.swap(locked_word(id), Ordering::AcqRel);
        if !is_locked(prev) {
            // Lock was free: we hold it. Our release-version is the
            // previous word's version + 1 (Alg 3 l.4).
            qn.version
                .store(bump_version(word_version(prev)), Ordering::Relaxed);
            record(Event::ExAcquire);
            false
        } else {
            Self::wait_for_grant(word_id(prev), qn);
            true
        }
    }

    /// Queue behind the predecessor `pred` and spin locally until it hands
    /// the lock over (Alg 3 l.7-9). Kept out of line so that the free-word
    /// path of [`Self::acquire_ex_with`] stays small enough to inline.
    #[inline(never)]
    fn wait_for_grant(pred: u16, qn: &QNode) {
        record(Event::ExQueueWait);
        qnode::to_ptr(pred)
            .next
            .store(qn as *const QNode as *mut QNode, Ordering::Release);
        let mut s = Spinner::new();
        while qn.version.load(Ordering::Acquire) == INVALID_VERSION {
            s.spin();
        }
        record(Event::ExAcquire);
    }

    /// Close the opportunistic-read window after a queued handover
    /// (Alg 3 l.11): clear `OPREAD` and the version bits in one atomic.
    /// Readers that snapshotted the handover word will now fail validation.
    #[inline]
    pub fn close_opread_window(&self) {
        self.word
            .fetch_and(!(OPREAD | VERSION_MASK), Ordering::AcqRel);
        record(Event::OpReadWindowClose);
    }

    /// `release_ex` with the queue node `id` used at acquire (Alg 3
    /// l.13-23).
    pub fn release_ex_with(&self, id: u16) {
        let qn = qnode::to_ptr(id);
        let my_version = qn.version.load(Ordering::Relaxed);
        debug_assert_ne!(my_version, INVALID_VERSION);
        if qn.next.load(Ordering::Acquire).is_null() {
            // No known successor: publish the new version and unlock in one
            // CAS. The expected value pins both the locked bit and our own
            // queue node ID — if any requester swapped in since, this fails.
            if self
                .word
                .compare_exchange(
                    locked_word(id),
                    my_version,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
        }
        self.hand_over(qn, my_version);
    }

    /// Release to the successor that has swapped itself in behind `qn`
    /// (Alg 3 l.17-23). Out of line for the same reason as
    /// [`Self::wait_for_grant`]: the uncontended release stays one CAS.
    #[inline(never)]
    fn hand_over(&self, qn: &QNode, my_version: u64) {
        if OPPORTUNISTIC {
            // Handover window: data is consistent until the successor is
            // granted. Publish OPREAD + our version so readers can sneak
            // in; the version must ride along or a reader could pass
            // validation across two critical sections (ABA, §5.3).
            self.word.fetch_or(OPREAD | my_version, Ordering::Release);
        }
        // Wait for the successor to link itself (Alg 3 l.20-21).
        let mut s = Spinner::new();
        let mut next = qn.next.load(Ordering::Acquire);
        while next.is_null() {
            s.spin();
            next = qn.next.load(Ordering::Acquire);
        }
        // Grant: pass the incremented version (Alg 3 l.23).
        unsafe {
            (*next)
                .version
                .store(bump_version(my_version), Ordering::Release);
        }
        record(Event::ExHandover);
    }

    /// Upgrade a reader at snapshot `v` to a writer (§6.2, added for ART).
    ///
    /// Succeeds only when the word is completely free and unchanged; on
    /// success the word carries the queue node `id` so later writers still
    /// queue behind us.
    pub fn try_upgrade_with(&self, v: u64, id: u16) -> bool {
        // Never upgrade from an opportunistic-read snapshot: the word's
        // queue-node field belongs to the writer queue and swapping it out
        // would orphan the queued successor.
        let ok = v & crate::word::STATUS_MASK == 0 && {
            let qn = qnode::to_ptr(id);
            qn.reset();
            qn.version.store(bump_version(v), Ordering::Relaxed);
            self.word
                .compare_exchange(v, locked_word(id), Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        };
        record(if ok {
            Event::UpgradeOk
        } else {
            Event::UpgradeFail
        });
        ok
    }
}

impl<const OPPORTUNISTIC: bool, const AOR: bool> ExclusiveLock for OptiQLCore<OPPORTUNISTIC, AOR> {
    const NAME: &'static str = match (OPPORTUNISTIC, AOR) {
        (true, true) => "OptiQL-AOR",
        (true, false) => "OptiQL",
        (false, _) => "OptiQL-NOR",
    };

    #[inline]
    fn x_lock(&self) -> WriteToken {
        let id = qnode::alloc();
        let queued = self.acquire_ex_with(id);
        if queued && OPPORTUNISTIC {
            self.close_opread_window();
        }
        WriteToken::from_qnode(id)
    }

    #[inline]
    fn x_unlock(&self, t: WriteToken) {
        // Tolerate an abandoned AOR window (e.g. the Algorithm 4 "parent
        // changed, release and retry" path): close it before releasing.
        if OPPORTUNISTIC && t.0 & AOR_PENDING != 0 {
            self.close_opread_window();
        }
        let id = t.qnode_id();
        self.release_ex_with(id);
        qnode::free(id);
    }
}

impl<const OPPORTUNISTIC: bool, const AOR: bool> IndexLock for OptiQLCore<OPPORTUNISTIC, AOR> {
    const STRATEGY: WriteStrategy = WriteStrategy::DirectLock;

    #[inline]
    fn r_lock(&self) -> Option<u64> {
        self.acquire_sh()
    }

    #[inline]
    fn r_unlock(&self, v: u64) -> bool {
        self.release_sh(v)
    }

    #[inline]
    fn recheck(&self, v: u64) -> bool {
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
    fn try_upgrade(&self, v: u64) -> Option<WriteToken> {
        let id = qnode::alloc();
        if self.try_upgrade_with(v, id) {
            Some(WriteToken::from_qnode(id))
        } else {
            qnode::free(id);
            None
        }
    }

    #[inline]
    fn is_locked_ex(&self) -> bool {
        is_locked(self.word.load(Ordering::Relaxed))
    }

    #[inline]
    fn x_lock_adjustable(&self) -> WriteToken {
        if OPPORTUNISTIC && AOR {
            let id = qnode::alloc();
            let queued = self.acquire_ex_with(id);
            if queued {
                WriteToken(id as u64 | AOR_PENDING)
            } else {
                WriteToken::from_qnode(id)
            }
        } else {
            self.x_lock()
        }
    }

    #[inline]
    fn x_finish_adjustable(&self, token: WriteToken) -> WriteToken {
        if OPPORTUNISTIC && token.0 & AOR_PENDING != 0 {
            self.close_opread_window();
        }
        WriteToken(token.0 & !AOR_PENDING)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;

    #[test]
    fn uncontended_write_cycle_bumps_version() {
        let l = OptiQL::new();
        let v0 = l.acquire_sh().unwrap();
        assert_eq!(v0, 0);
        let t = l.x_lock();
        assert!(l.is_locked_ex());
        assert!(
            l.acquire_sh().is_none(),
            "no opread while held, pre-release"
        );
        l.x_unlock(t);
        let v1 = l.acquire_sh().unwrap();
        assert_eq!(v1, 1, "version visible on word after release");
        assert!(l.release_sh(v1));
    }

    #[test]
    fn nor_variant_same_single_thread_semantics() {
        let l = OptiQLNor::new();
        let t = l.x_lock();
        assert!(l.acquire_sh().is_none());
        l.x_unlock(t);
        assert_eq!(l.acquire_sh().unwrap(), 1);
    }

    #[test]
    fn stale_reader_fails_validation() {
        let l = OptiQL::new();
        let v = l.acquire_sh().unwrap();
        let t = l.x_lock();
        l.x_unlock(t);
        assert!(!l.release_sh(v));
    }

    #[test]
    fn upgrade_from_free_word() {
        let l = OptiQL::new();
        let v = l.r_lock().unwrap();
        let t = l.try_upgrade(v).expect("upgrade from fresh snapshot");
        assert!(l.is_locked_ex());
        l.x_unlock(t);
        assert_eq!(l.r_lock().unwrap(), v + 1);
        // Stale snapshot cannot upgrade.
        assert!(l.try_upgrade(v).is_none());
    }

    #[test]
    fn upgrade_refused_from_opread_snapshot() {
        // Construct an opread-looking snapshot and ensure try_upgrade_with
        // refuses before even attempting a CAS.
        let l = OptiQL::new();
        let fake = crate::word::LOCKED | OPREAD | 5;
        let id = qnode::alloc();
        assert!(!l.try_upgrade_with(fake, id));
        qnode::free(id);
    }

    #[test]
    fn writers_serialize_and_versions_count_rounds() {
        let l = Arc::new(OptiQL::new());
        let c = Arc::new(Counter::new(0));
        const THREADS: usize = 8;
        const ITERS: u64 = 5_000;
        let hs: Vec<_> = (0..THREADS)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
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
        assert_eq!(c.load(Ordering::Relaxed), THREADS as u64 * ITERS);
        // Every acquire/release round bumped the version exactly once.
        let final_v = l.acquire_sh().unwrap();
        assert_eq!(word_version(final_v), THREADS as u64 * ITERS);
        assert!(!l.is_locked_ex());
    }

    #[test]
    fn fifo_handover_among_writers() {
        let l = Arc::new(OptiQL::new());
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
                std::thread::sleep(std::time::Duration::from_millis(20));
                h
            })
            .collect();
        l.x_unlock(t0);
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(&*order.lock(), &[0, 1, 2, 3], "OptiQL grants writers FIFO");
    }

    #[test]
    fn opportunistic_read_window_admits_readers_between_writers() {
        // T1 holds the lock; T2 queues. When T1 releases, the word must
        // pass through a readable (LOCKED|OPREAD|version) state before T2
        // closes the window. We freeze that state by having T2 *not* be a
        // real thread: we enact the protocol steps manually.
        let l = OptiQL::new();
        let id1 = qnode::alloc();
        let id2 = qnode::alloc();
        let qn2 = qnode::to_ptr(id2);

        // T1 acquires (fast path).
        assert!(!l.acquire_ex_with(id1));
        // T2 swaps itself in manually (first half of acquire_ex_with).
        qn2.reset();
        let prev = l.word.swap(locked_word(id2), Ordering::AcqRel);
        assert!(is_locked(prev));
        assert_eq!(word_id(prev), id1);
        qnode::to_ptr(word_id(prev))
            .next
            .store(qn2 as *const QNode as *mut QNode, Ordering::Release);

        // No reader admitted yet: locked, opread off.
        assert!(l.acquire_sh().is_none());

        // T1 releases: CAS fails (tail is id2), so it publishes the
        // opportunistic read window and grants T2.
        l.release_ex_with(id1);

        // The window is open: readers are admitted and can validate.
        let snap = l.acquire_sh().expect("opportunistic window admits readers");
        assert!(is_locked(snap) && crate::word::is_opread(snap));
        assert_eq!(word_version(snap), 1, "window carries the new version");
        assert!(l.release_sh(snap), "reader inside the window validates");

        // T2 (granted) closes the window — late readers must now fail.
        assert_ne!(qn2.version(), INVALID_VERSION, "T2 was granted");
        l.close_opread_window();
        assert!(l.acquire_sh().is_none(), "window closed");
        assert!(
            !l.release_sh(snap),
            "reader overlapping the new writer fails"
        );

        // T2 releases normally (no successor).
        l.release_ex_with(id2);
        assert_eq!(l.acquire_sh().unwrap(), 2);
        qnode::free(id1);
        qnode::free(id2);
    }

    #[test]
    fn nor_never_admits_readers_during_handover() {
        let l = OptiQLNor::new();
        let id1 = qnode::alloc();
        let id2 = qnode::alloc();
        let qn2 = qnode::to_ptr(id2);
        assert!(!l.acquire_ex_with(id1));
        qn2.reset();
        let prev = l.word.swap(locked_word(id2), Ordering::AcqRel);
        qnode::to_ptr(word_id(prev))
            .next
            .store(qn2 as *const QNode as *mut QNode, Ordering::Release);
        l.release_ex_with(id1); // grants T2 without opening a window
        assert!(l.acquire_sh().is_none(), "NOR starves readers in handover");
        l.release_ex_with(id2);
        assert_eq!(l.acquire_sh().unwrap(), 2);
        qnode::free(id1);
        qnode::free(id2);
    }

    #[test]
    fn plain_optiql_closes_the_window_at_the_grant() {
        // AOR is OptiQL-AOR's alone: on plain OptiQL a queued adjustable
        // acquire is `x_lock`, which closes the handover window before it
        // returns.
        let l = OptiQL::new();
        let id1 = qnode::alloc();
        assert!(!l.acquire_ex_with(id1));
        std::thread::scope(|s| {
            s.spawn(|| {
                let t = l.x_lock_adjustable();
                assert!(l.acquire_sh().is_none(), "window open after the grant");
                l.x_unlock(l.x_finish_adjustable(t));
            });
            // Hand over once the writer has queued behind the hold.
            while word_id(l.raw()) == id1 {
                std::thread::yield_now();
            }
            l.release_ex_with(id1);
        });
        qnode::free(id1);
        assert!(!l.is_locked_ex());
    }

    #[test]
    fn aor_keeps_window_open_until_finish() {
        let l = OptiQLAor::new();
        let id1 = qnode::alloc();
        assert!(!l.acquire_ex_with(id1));

        // A queued AOR acquirer on another thread.
        std::thread::scope(|s| {
            let l2 = &l;
            s.spawn(move || {
                let t = l2.x_lock_adjustable();
                // Window must still be open right after a queued AOR grant.
                let snap = l2.acquire_sh().expect("AOR leaves the window open");
                assert!(l2.release_sh(snap));
                let t = l2.x_finish_adjustable(t);
                assert!(l2.acquire_sh().is_none(), "finish closes the window");
                l2.x_unlock(t);
            });
            // Give the AOR thread time to queue, then hand over.
            std::thread::sleep(std::time::Duration::from_millis(30));
            l.release_ex_with(id1);
            qnode::free(id1);
        });
        assert!(!l.is_locked_ex());
    }

    #[test]
    fn aor_abort_path_unlocks_cleanly() {
        // x_lock_adjustable followed by x_unlock without finish (the Alg 4
        // "parent changed, release before retry" path) must not wedge.
        let l = Arc::new(OptiQLAor::new());
        let t0 = l.x_lock();
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || {
            let t = l2.x_lock_adjustable(); // queued: AOR window will be open
            l2.x_unlock(t); // abort without x_finish_adjustable
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        l.x_unlock(t0);
        h.join().unwrap();
        // Lock must be free and writable again.
        let t = l.x_lock();
        l.x_unlock(t);
        assert!(!l.is_locked_ex());
    }

    #[test]
    fn readers_never_observe_torn_data() {
        // Seqlock-style: a writer keeps two counters equal under the lock;
        // validated readers must always observe them equal.
        let l = Arc::new(OptiQL::new());
        let a = Arc::new(Counter::new(0));
        let b = Arc::new(Counter::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let wl = Arc::clone(&l);
        let (wa, wb) = (Arc::clone(&a), Arc::clone(&b));
        let wstop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            while !wstop.load(Ordering::Relaxed) {
                let t = wl.x_lock();
                let v = wa.load(Ordering::Relaxed);
                wa.store(v + 1, Ordering::Relaxed);
                // A deliberately wide window between the two writes.
                for _ in 0..32 {
                    std::hint::spin_loop();
                }
                wb.store(v + 1, Ordering::Relaxed);
                wl.x_unlock(t);
                // Leave the lock free between rounds so optimistic readers
                // make progress even on a single hardware thread.
                std::thread::yield_now();
            }
        });

        let mut validated = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while validated < 100 && std::time::Instant::now() < deadline {
            if let Some(v) = l.acquire_sh() {
                let x = a.load(Ordering::Relaxed);
                let y = b.load(Ordering::Relaxed);
                if l.release_sh(v) {
                    assert_eq!(x, y, "validated read observed torn state");
                    validated += 1;
                }
            } else {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(validated >= 100, "some reads must validate");
    }
}

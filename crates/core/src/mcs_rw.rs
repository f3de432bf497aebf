//! Fair queue-based reader-writer lock, "MCS-RW" (paper §7.1;
//! Mellor-Crummey & Scott, PPoPP '91 \[39\]).
//!
//! Readers and writers join one FIFO queue; consecutive readers overlap.
//! The original algorithm keeps three lock fields (`tail`, `reader_count`,
//! `next_writer`) in separate words (>16 bytes). Following the paper, we
//! apply the same queue-node-ID encoding as OptiQL (§6.3) to pack all three
//! into a single 8-byte word, which makes the per-field atomic operations
//! CAS loops on the packed word:
//!
//! ```text
//!  bits 0..20   reader_count (active readers)
//!  bits 20..31  tail queue node ID + 1        (0 = nil)
//!  bits 31..42  next_writer queue node ID + 1 (0 = nil)
//! ```
//!
//! Queue nodes come from the shared [`crate::qnode`] pool; their packed
//! `state` field holds `[blocked, successor_class]` so a queuing reader can
//! CAS both at once, as the algorithm requires. This lock is *pessimistic*:
//! readers write shared memory, which is exactly the cost the paper's
//! Figures 9–10 attribute to it.

use std::sync::atomic::Ordering;

use crate::qnode::{self, QNode};
use crate::spin::Spinner;
use crate::stats::{record, Event};
use crate::traits::{ExclusiveLock, IndexLock, WriteStrategy, WriteToken};

// --- packed lock word ---------------------------------------------------

const RC_BITS: u32 = 20;
const FIELD_BITS: u32 = 11; // 10-bit ID + 1 for the nil encoding
const RC_MASK: u64 = (1 << RC_BITS) - 1;
const TAIL_SHIFT: u32 = RC_BITS;
const TAIL_MASK: u64 = ((1 << FIELD_BITS) - 1) << TAIL_SHIFT;
const NW_SHIFT: u32 = RC_BITS + FIELD_BITS;
const NW_MASK: u64 = ((1 << FIELD_BITS) - 1) << NW_SHIFT;

/// Queue node ID + 1; 0 encodes nil.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u16);

const NIL: Slot = Slot(0);

impl Slot {
    #[inline]
    fn of(id: u16) -> Self {
        Slot(id + 1)
    }
    #[inline]
    fn is_nil(self) -> bool {
        self.0 == 0
    }
    #[inline]
    fn id(self) -> u16 {
        debug_assert!(self.0 != 0);
        self.0 - 1
    }
    #[inline]
    fn node(self) -> &'static QNode {
        qnode::to_ptr(self.id())
    }
}

#[inline]
fn get_tail(w: u64) -> Slot {
    Slot(((w & TAIL_MASK) >> TAIL_SHIFT) as u16)
}
#[inline]
fn get_nw(w: u64) -> Slot {
    Slot(((w & NW_MASK) >> NW_SHIFT) as u16)
}
#[inline]
fn get_rc(w: u64) -> u64 {
    w & RC_MASK
}
#[inline]
fn with_tail(w: u64, s: Slot) -> u64 {
    (w & !TAIL_MASK) | ((s.0 as u64) << TAIL_SHIFT)
}
#[inline]
fn with_nw(w: u64, s: Slot) -> u64 {
    (w & !NW_MASK) | ((s.0 as u64) << NW_SHIFT)
}

// --- queue node state field ----------------------------------------------

const BLOCKED: u32 = 1;
const SUCC_SHIFT: u32 = 8;
const SUCC_NONE: u32 = 0;
const SUCC_READER: u32 = 1 << SUCC_SHIFT;
const SUCC_WRITER: u32 = 2 << SUCC_SHIFT;
const SUCC_MASK: u32 = 3 << SUCC_SHIFT;

const CLASS_READER: u32 = 1;
const CLASS_WRITER: u32 = 2;

/// Fair queue-based reader-writer lock in one 8-byte word.
#[derive(Default)]
pub struct McsRwLock {
    word: std::sync::atomic::AtomicU64,
}

impl McsRwLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        McsRwLock {
            word: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of active readers (diagnostic).
    pub fn reader_count(&self) -> u64 {
        get_rc(self.word.load(Ordering::Relaxed))
    }

    /// True iff the queue is non-empty or readers are active (diagnostic).
    pub fn is_busy(&self) -> bool {
        self.word.load(Ordering::Relaxed) != 0
    }

    /// fetch_and_store(tail, me) on the packed word.
    #[inline]
    fn swap_tail(&self, me: Slot) -> Slot {
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            match self.word.compare_exchange_weak(
                w,
                with_tail(w, me),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(old) => return get_tail(old),
                Err(cur) => w = cur,
            }
        }
    }

    /// compare_and_store(tail, expect, nil); false if tail != expect.
    #[inline]
    fn cas_tail_to_nil(&self, expect: Slot) -> bool {
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            if get_tail(w) != expect {
                return false;
            }
            match self.word.compare_exchange_weak(
                w,
                with_tail(w, NIL),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => w = cur,
            }
        }
    }

    /// next_writer := s.
    #[inline]
    fn set_next_writer(&self, s: Slot) {
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            match self.word.compare_exchange_weak(
                w,
                with_nw(w, s),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(cur) => w = cur,
            }
        }
    }

    /// fetch_and_store(next_writer, nil).
    #[inline]
    fn swap_next_writer_nil(&self) -> Slot {
        let mut w = self.word.load(Ordering::Relaxed);
        loop {
            let old_nw = get_nw(w);
            if old_nw.is_nil() {
                // Already nil; the swap is a no-op but must still be atomic
                // w.r.t. our observation — re-verify with a CAS on the same
                // word to linearize.
                match self
                    .word
                    .compare_exchange_weak(w, w, Ordering::SeqCst, Ordering::Relaxed)
                {
                    Ok(_) => return NIL,
                    Err(cur) => {
                        w = cur;
                        continue;
                    }
                }
            }
            match self.word.compare_exchange_weak(
                w,
                with_nw(w, NIL),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return old_nw,
                Err(cur) => w = cur,
            }
        }
    }

    /// reader_count += 1.
    #[inline]
    fn inc_readers(&self) {
        let old = self.word.fetch_add(1, Ordering::SeqCst);
        debug_assert!(get_rc(old) < RC_MASK, "reader count overflow");
    }

    /// reader_count -= 1; returns the *previous* count.
    #[inline]
    fn dec_readers(&self) -> u64 {
        let old = self.word.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(get_rc(old) >= 1, "reader count underflow");
        get_rc(old)
    }

    // --- protocol ---------------------------------------------------

    /// start_write.
    pub fn start_write(&self, id: u16) {
        let me = Slot::of(id);
        let qn = me.node();
        // `reset` leaves `class` and `state` to us; both are stored before
        // `swap_tail` publishes the node, and no other thread reads a node
        // it has not reached through the word or a `next` link.
        qn.reset();
        qn.class.store(CLASS_WRITER, Ordering::Relaxed);
        qn.state.store(BLOCKED | SUCC_NONE, Ordering::Relaxed);

        let pred = self.swap_tail(me);
        if pred.is_nil() {
            self.set_next_writer(me);
            let w = self.word.load(Ordering::SeqCst);
            if get_rc(w) == 0 && self.swap_next_writer_nil() == me {
                // No active readers and we claimed the grant: go.
                qn.state.fetch_and(!BLOCKED, Ordering::SeqCst);
            }
        } else {
            // Tell the predecessor a writer follows, then link.
            let pq = pred.node();
            pq.state.fetch_or(SUCC_WRITER, Ordering::SeqCst);
            pq.next
                .store(qn as *const QNode as *mut QNode, Ordering::Release);
        }
        if qn.state.load(Ordering::Acquire) & BLOCKED != 0 {
            record(Event::ExQueueWait);
            let mut s = Spinner::new();
            while qn.state.load(Ordering::Acquire) & BLOCKED != 0 {
                s.spin();
            }
        }
        record(Event::ExAcquire);
    }

    /// end_write.
    pub fn end_write(&self, id: u16) {
        let me = Slot::of(id);
        let qn = me.node();
        if !qn.next.load(Ordering::Acquire).is_null() || !self.cas_tail_to_nil(me) {
            // A successor exists (or is arriving): wait for the link.
            let mut s = Spinner::new();
            let mut next = qn.next.load(Ordering::Acquire);
            while next.is_null() {
                s.spin();
                next = qn.next.load(Ordering::Acquire);
            }
            let nq = unsafe { &*next };
            if nq.class.load(Ordering::Relaxed) == CLASS_READER {
                self.inc_readers();
            }
            nq.state.fetch_and(!BLOCKED, Ordering::SeqCst);
            record(Event::ExHandover);
        }
    }

    /// start_read.
    pub fn start_read(&self, id: u16) {
        let me = Slot::of(id);
        let qn = me.node();
        // As in `start_write`: `class` and `state` are ours to set.
        qn.reset();
        qn.class.store(CLASS_READER, Ordering::Relaxed);
        qn.state.store(BLOCKED | SUCC_NONE, Ordering::Relaxed);

        let pred = self.swap_tail(me);
        if pred.is_nil() {
            self.inc_readers();
            qn.state.fetch_and(!BLOCKED, Ordering::SeqCst);
        } else {
            let pq = pred.node();
            let pred_is_writer = pq.class.load(Ordering::Relaxed) == CLASS_WRITER;
            let chained = pred_is_writer
                || pq
                    .state
                    .compare_exchange(
                        BLOCKED | SUCC_NONE,
                        BLOCKED | SUCC_READER,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok();
            if chained {
                // Predecessor is a writer or a *blocked* reader: it will
                // increment reader_count and release us when its turn comes.
                pq.next
                    .store(qn as *const QNode as *mut QNode, Ordering::Release);
                let mut s = Spinner::new();
                while qn.state.load(Ordering::Acquire) & BLOCKED != 0 {
                    s.spin();
                }
            } else {
                // Predecessor is an *active* reader: join it directly.
                self.inc_readers();
                pq.next
                    .store(qn as *const QNode as *mut QNode, Ordering::Release);
                qn.state.fetch_and(!BLOCKED, Ordering::SeqCst);
            }
        }
        // If a reader queued behind us while we were blocked, wake it now
        // (reader chaining).
        if qn.state.load(Ordering::SeqCst) & SUCC_MASK == SUCC_READER {
            let mut s = Spinner::new();
            let mut next = qn.next.load(Ordering::Acquire);
            while next.is_null() {
                s.spin();
                next = qn.next.load(Ordering::Acquire);
            }
            self.inc_readers();
            let nq = unsafe { &*next };
            nq.state.fetch_and(!BLOCKED, Ordering::SeqCst);
        }
    }

    /// end_read.
    pub fn end_read(&self, id: u16) {
        let me = Slot::of(id);
        let qn = me.node();
        if !qn.next.load(Ordering::Acquire).is_null() || !self.cas_tail_to_nil(me) {
            // We have a successor: if it is a writer, register it as the
            // next writer before we retire from the queue.
            let mut s = Spinner::new();
            let mut next = qn.next.load(Ordering::Acquire);
            while next.is_null() {
                s.spin();
                next = qn.next.load(Ordering::Acquire);
            }
            if qn.state.load(Ordering::SeqCst) & SUCC_MASK == SUCC_WRITER {
                let nq = unsafe { &*next };
                // Identity: the successor registered in our next field is a
                // pool node, so its index is recoverable.
                let nid = pool_id_of(nq);
                self.set_next_writer(Slot::of(nid));
            }
        }
        if self.dec_readers() == 1 {
            // Last active reader: hand over to the waiting writer, if any.
            let w = self.swap_next_writer_nil();
            if !w.is_nil() {
                w.node().state.fetch_and(!BLOCKED, Ordering::SeqCst);
            }
        }
    }
}

/// Recover the pool index of a queue node reference.
fn pool_id_of(qn: &QNode) -> u16 {
    let base = qnode::to_ptr(0) as *const QNode as usize;
    let addr = qn as *const QNode as usize;
    debug_assert_eq!((addr - base) % std::mem::size_of::<QNode>(), 0);
    ((addr - base) / std::mem::size_of::<QNode>()) as u16
}

impl ExclusiveLock for McsRwLock {
    const NAME: &'static str = "MCS-RW";

    #[inline]
    fn x_lock(&self) -> WriteToken {
        let id = qnode::alloc();
        self.start_write(id);
        WriteToken::from_qnode(id)
    }

    #[inline]
    fn x_unlock(&self, t: WriteToken) {
        let id = t.qnode_id();
        self.end_write(id);
        qnode::free(id);
    }
}

impl IndexLock for McsRwLock {
    const STRATEGY: WriteStrategy = WriteStrategy::Pessimistic;

    /// Blocking shared acquire; the returned "version" smuggles the reader's
    /// queue node ID to `r_unlock` (pessimistic locks have no version).
    #[inline]
    fn r_lock(&self) -> Option<u64> {
        let id = qnode::alloc();
        self.start_read(id);
        record(Event::ReadAdmit);
        Some(id as u64)
    }

    #[inline]
    fn r_unlock(&self, v: u64) -> bool {
        let id = v as u16;
        self.end_read(id);
        qnode::free(id);
        // Pessimistic reads hold the lock for the whole critical section,
        // so "validation" trivially succeeds.
        record(Event::ReadValidateOk);
        true
    }

    #[inline]
    fn recheck(&self, _v: u64) -> bool {
        true // we hold a shared lock; the data cannot have changed
    }

    #[inline]
    fn try_upgrade(&self, _v: u64) -> Option<WriteToken> {
        None // pessimistic coupling never upgrades in place
    }

    #[inline]
    fn is_locked_ex(&self) -> bool {
        // Exclusive ownership is not observable from the word alone
        // (the holder left the packed tail when succeeded); report queue
        // business as the closest diagnostic.
        self.is_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn word_packing_roundtrip() {
        let w = 0u64;
        let w = with_tail(w, Slot::of(1023));
        let w = with_nw(w, Slot::of(7));
        assert_eq!(get_tail(w), Slot::of(1023));
        assert_eq!(get_nw(w), Slot::of(7));
        assert_eq!(get_rc(w), 0);
        let w2 = w + 5; // five readers
        assert_eq!(get_rc(w2), 5);
        assert_eq!(get_tail(w2), Slot::of(1023));
    }

    #[test]
    fn single_writer_cycle() {
        let l = McsRwLock::new();
        let t = l.x_lock();
        l.x_unlock(t);
        assert!(!l.is_busy());
    }

    #[test]
    fn single_reader_cycle() {
        let l = McsRwLock::new();
        let v = l.r_lock().unwrap();
        assert_eq!(l.reader_count(), 1);
        assert!(l.r_unlock(v));
        assert_eq!(l.reader_count(), 0);
        assert!(!l.is_busy());
    }

    #[test]
    fn readers_overlap() {
        let l = McsRwLock::new();
        let a = l.r_lock().unwrap();
        let b = l.r_lock().unwrap();
        assert_eq!(l.reader_count(), 2);
        l.r_unlock(a);
        l.r_unlock(b);
        assert!(!l.is_busy());
    }

    #[test]
    fn writer_excludes_writers() {
        let l = Arc::new(McsRwLock::new());
        let c = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..4)
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
        assert_eq!(c.load(Ordering::Relaxed), 20_000);
        assert!(!l.is_busy());
    }

    #[test]
    fn readers_exclude_writer_mutations() {
        // Writers keep (a, b) equal; readers (holding shared locks) must
        // always observe them equal — unlike optimistic readers, no
        // validation or retry is ever needed.
        let l = Arc::new(McsRwLock::new());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (l, a, b, stop) = (
                Arc::clone(&l),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            hs.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let t = l.x_lock();
                    let v = a.load(Ordering::Relaxed) + 1;
                    a.store(v, Ordering::Relaxed);
                    for _ in 0..16 {
                        std::hint::spin_loop();
                    }
                    b.store(v, Ordering::Relaxed);
                    l.x_unlock(t);
                }
            }));
        }
        for _ in 0..2 {
            let (l, a, b, stop) = (
                Arc::clone(&l),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            hs.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let v = l.r_lock().unwrap();
                    let x = a.load(Ordering::Relaxed);
                    let y = b.load(Ordering::Relaxed);
                    assert_eq!(x, y, "shared lock reader saw a torn write");
                    l.r_unlock(v);
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in hs {
            h.join().unwrap();
        }
        assert!(!l.is_busy());
    }

    #[test]
    fn mixed_random_ops_stress() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let l = Arc::new(McsRwLock::new());
        let c = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..4)
            .map(|seed| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut writes = 0u64;
                    for _ in 0..3_000 {
                        if rng.random_bool(0.3) {
                            let t = l.x_lock();
                            let v = c.load(Ordering::Relaxed);
                            c.store(v + 1, Ordering::Relaxed);
                            l.x_unlock(t);
                            writes += 1;
                        } else {
                            let v = l.r_lock().unwrap();
                            let _ = c.load(Ordering::Relaxed);
                            l.r_unlock(v);
                        }
                    }
                    writes
                })
            })
            .collect();
        let total: u64 = hs.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(c.load(Ordering::Relaxed), total);
        assert!(!l.is_busy());
    }
}

//! Queue node pool with ID ↔ pointer translation (paper §6.3).
//!
//! OptiQL stores a compact queue node *ID* in the lock word instead of a
//! 64-bit pointer, which is what lets the word carry a version number at the
//! same time. The application must therefore provide a globally accessible
//! translation between IDs and addresses. Following the paper (and FOEDUS
//! \[24\]), all queue nodes are pre-allocated in one contiguous static array so
//! an ID is simply the array index; `to_ptr` is a single indexed load.
//!
//! Free IDs live in one global list, a `Mutex<Vec<u16>>`, fronted by a
//! small fixed-size `Cell` cache per thread. The lock is off the fast path:
//! an `alloc` or `free` the cache serves is a branch and a couple of
//! thread-local stores (no lock, no `RefCell` borrow flag, no heap). The
//! list is taken once per `LOCAL_BATCH` IDs, when a cache refills, spills
//! or is torn down at thread exit, so a lock-free list would buy nothing
//! the cache does not. A cache holds at most twice the refill batch;
//! surplus beyond that is spilled back to the list on release, so one
//! thread can never hoard the pool.
//!
//! Database workloads need very few live nodes per thread (at most two for
//! B+-tree merges, see paper §6.1), so the 1024-node pool bounds hundreds of
//! worker threads.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::stats::{record, Event};
use crate::word::{INVALID_VERSION, MAX_QNODES};

/// A writer requester's queue node (paper Figure 3b).
///
/// Compared to an MCS queue node, the `granted` boolean is replaced by a
/// `version` field: the predecessor grants the lock by storing the (already
/// incremented) version number, which the new holder later publishes on
/// release. The two extra packed fields (`state`, `class`) are used only by
/// the fair reader-writer MCS variant (`McsRwLock`), which shares this pool
/// and writes both before it publishes the node.
///
/// Cache-line aligned (two lines on x86 to defeat adjacent-line prefetching)
/// so local spinning on one node never contends with its neighbours.
#[repr(C, align(128))]
pub struct QNode {
    /// Pointer to the successor's queue node, written by the successor.
    pub(crate) next: AtomicPtr<QNode>,
    /// `INVALID_VERSION` while waiting; the granted version afterwards.
    pub(crate) version: AtomicU64,
    /// McsRwLock: bit 0 = blocked, bits 1-2 = successor class.
    pub(crate) state: AtomicU32,
    /// McsRwLock: requester class (reader / writer).
    pub(crate) class: AtomicU32,
}

impl QNode {
    const fn new() -> Self {
        QNode {
            next: AtomicPtr::new(ptr::null_mut()),
            version: AtomicU64::new(INVALID_VERSION),
            state: AtomicU32::new(0),
            class: AtomicU32::new(0),
        }
    }

    /// Re-initialize the fields every queue lock reads before joining a
    /// queue (MCS-RW sets `state` and `class` itself).
    #[inline]
    pub fn reset(&self) {
        self.next.store(ptr::null_mut(), Ordering::Relaxed);
        self.version.store(INVALID_VERSION, Ordering::Relaxed);
    }

    /// Successor pointer (Acquire).
    #[inline]
    pub fn next(&self) -> *mut QNode {
        self.next.load(Ordering::Acquire)
    }

    /// Version field (Acquire) — `INVALID_VERSION` while still waiting.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// The node array and the global free list.
struct Pool {
    nodes: Box<[QNode]>,
    /// IDs in no thread's hands or cache; the next to go out on top.
    free: Mutex<Vec<u16>>,
}

impl Pool {
    fn new() -> Self {
        let mut nodes = Vec::with_capacity(MAX_QNODES);
        nodes.resize_with(MAX_QNODES, QNode::new);
        Pool {
            nodes: nodes.into_boxed_slice(),
            // 0 on top. Handing out low IDs first makes tests deterministic
            // and keeps the hot nodes in a compact region. The capacity is
            // every ID, so no push under the lock reallocates.
            free: Mutex::new((0..MAX_QNODES as u16).rev().collect()),
        }
    }

    fn free_list(&self) -> MutexGuard<'_, Vec<u16>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn pool() -> &'static Pool {
    use std::sync::OnceLock;
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

/// How many IDs a thread grabs from the global free list at a time.
const LOCAL_BATCH: usize = 8;

/// Per-thread cache capacity: twice the refill batch. `free` spills a batch
/// back to the global list when the cache is full, so a thread parks at
/// most `CACHE_CAP` IDs.
const CACHE_CAP: usize = 2 * LOCAL_BATCH;

/// Fixed-size per-thread ID stack. All-`Cell` (no `RefCell` borrow flag, no
/// heap) so the alloc/free fast path is a load, a bounds-free store and a
/// length update.
struct LocalCache {
    len: Cell<usize>,
    ids: [Cell<u16>; CACHE_CAP],
}

impl Drop for LocalCache {
    fn drop(&mut self) {
        give_back(&self.ids[..self.len.get()]);
    }
}

thread_local! {
    static CACHE: LocalCache = const {
        LocalCache {
            len: Cell::new(0),
            ids: [const { Cell::new(0) }; CACHE_CAP],
        }
    };
}

/// Translate a queue node ID to its address (paper's `to_ptr`).
#[inline]
pub fn to_ptr(id: u16) -> &'static QNode {
    &pool().nodes[id as usize]
}

/// Allocate a queue node ID, or `None` if the pool is exhausted.
#[inline]
pub fn try_alloc() -> Option<u16> {
    let got = CACHE
        .try_with(|c| {
            let len = c.len.get();
            if len > 0 {
                c.len.set(len - 1);
                return Some(c.ids[len - 1].get());
            }
            refill(c)
        })
        // TLS already torn down (thread exit path): go straight to global.
        .unwrap_or_else(|_| take_one());
    if got.is_none() {
        record(Event::QnodeExhausted);
    }
    got
}

/// Cache miss: take up to a batch from the global list under one lock,
/// keep one.
#[cold]
fn refill(c: &LocalCache) -> Option<u16> {
    let mut free = pool().free_list();
    let first = free.pop()?;
    let rest = free.len().saturating_sub(LOCAL_BATCH - 1);
    let batch = free.drain(rest..);
    c.len.set(batch.len());
    for (slot, id) in c.ids.iter().zip(batch) {
        slot.set(id);
    }
    Some(first)
}

/// Allocate a queue node ID; panics if all `MAX_QNODES` nodes are live.
///
/// The pool size bounds the number of *concurrent* exclusive lock attempts,
/// not locks: nodes are recycled as soon as `release_ex` returns.
#[inline]
pub fn alloc() -> u16 {
    try_alloc().expect(
        "OptiQL queue node pool exhausted: more than 1024 concurrent writer \
         lock requests. Increase ID_BITS or reduce worker threads.",
    )
}

/// Return a queue node ID to the pool.
#[inline]
pub fn free(id: u16) {
    debug_assert!((id as usize) < MAX_QNODES);
    let returned = CACHE
        .try_with(|c| {
            let len = c.len.get();
            if len == CACHE_CAP {
                // Do not let one thread hoard the pool: spill a batch.
                spill(c);
                c.ids[CACHE_CAP - LOCAL_BATCH].set(id);
                c.len.set(CACHE_CAP - LOCAL_BATCH + 1);
            } else {
                c.ids[len].set(id);
                c.len.set(len + 1);
            }
        })
        .is_ok();
    if !returned {
        give_back(&[Cell::new(id)]);
    }
}

/// Cache overflow: return the oldest `LOCAL_BATCH` IDs to the global list.
#[cold]
fn spill(c: &LocalCache) {
    give_back(&c.ids[..LOCAL_BATCH]);
    for i in LOCAL_BATCH..CACHE_CAP {
        c.ids[i - LOCAL_BATCH].set(c.ids[i].get());
    }
}

/// Return `ids` to the global list under one lock: a cache's spill or
/// thread-exit drop, or one ID freed after its thread's cache is gone.
/// Out of line like [`take_one`], so the lock's code stays off the inlined
/// fast paths.
#[cold]
fn give_back(ids: &[Cell<u16>]) {
    pool().free_list().extend(ids.iter().map(Cell::get));
}

/// One ID from the global list, for a thread whose cache is gone.
#[cold]
fn take_one() -> Option<u16> {
    pool().free_list().pop()
}

/// Number of IDs currently on the global free list (diagnostic; excludes
/// per-thread caches).
pub fn global_free_len() -> usize {
    pool().free_list().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn qnode_is_two_cache_lines() {
        assert_eq!(std::mem::size_of::<QNode>(), 128);
        assert_eq!(std::mem::align_of::<QNode>(), 128);
    }

    #[test]
    fn alloc_free_roundtrip_preserves_ids() {
        let a = alloc();
        let b = alloc();
        assert_ne!(a, b);
        free(a);
        free(b);
    }

    #[test]
    fn translation_is_stable() {
        let id = alloc();
        let p1 = to_ptr(id) as *const QNode;
        let p2 = to_ptr(id) as *const QNode;
        assert_eq!(p1, p2);
        free(id);
    }

    #[test]
    fn distinct_ids_translate_to_distinct_nodes() {
        let ids: Vec<u16> = (0..16).map(|_| alloc()).collect();
        let ptrs: HashSet<usize> = ids
            .iter()
            .map(|&i| to_ptr(i) as *const _ as usize)
            .collect();
        assert_eq!(ptrs.len(), ids.len());
        for id in ids {
            free(id);
        }
    }

    #[test]
    fn reset_clears_all_fields() {
        let id = alloc();
        let n = to_ptr(id);
        n.next.store(n as *const _ as *mut QNode, Ordering::Relaxed);
        n.version.store(7, Ordering::Relaxed);
        n.reset();
        assert!(n.next().is_null());
        assert_eq!(n.version(), INVALID_VERSION);
        free(id);
    }

    #[test]
    fn many_threads_allocate_disjoint_ids() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let ids: Vec<u16> = (0..32).map(|_| alloc()).collect();
                    let set: HashSet<u16> = ids.iter().copied().collect();
                    assert_eq!(set.len(), ids.len());
                    for id in &ids {
                        free(*id);
                    }
                    ids
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Sibling tests run concurrently and hold IDs transiently, so exact
    /// counts race; poll until the condition holds (every holder returns
    /// its IDs on test-thread exit) or time out.
    fn poll_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for: {what} (global_free_len={})",
                global_free_len()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn cache_spill_caps_thread_hoarding() {
        // Allocate and release more IDs than the cache holds; the surplus
        // must land back on the global list, bounded by CACHE_CAP. Run in
        // a dedicated thread so its cache starts empty and is torn down.
        let before = global_free_len();
        std::thread::spawn(|| {
            let ids: Vec<u16> = (0..4 * CACHE_CAP).map(|_| alloc()).collect();
            for id in ids {
                free(id);
            }
            // Everything beyond the cache cap is already back on the
            // global list before this thread exits.
            assert!(global_free_len() + CACHE_CAP + before_slack() >= MAX_QNODES);
        })
        .join()
        .unwrap();
        poll_until("spilled ids return to the global list", || {
            global_free_len() + CACHE_CAP >= before
        });
    }

    /// Upper bound on IDs sibling tests may hold at any instant (their
    /// allocations plus per-thread caches).
    fn before_slack() -> usize {
        512
    }

    #[test]
    fn concurrent_churn_loses_no_ids() {
        // Hammer the locked free list from several threads, then verify the
        // global count recovers once every thread has exited (their cache
        // destructors return all parked IDs).
        let before = global_free_len();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        let a = alloc();
                        let b = alloc();
                        free(a);
                        free(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        poll_until("churn threads return every id", || {
            global_free_len() >= before
        });
    }
}

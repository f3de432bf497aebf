//! What a B+-tree key costs the allocator. A leaf is a 256-byte slot of
//! its tree's slab, and an ascending load leaves every leaf full, so the
//! leaves request 256 / 15 ≈ 17.1 bytes per key, carved as 64 KiB
//! chunks, and the inner nodes above them about 1.4 more: 18.8 in all.
//! A leaf in a `Box` of its own, one entry short of full, requested
//! 264 / 14 ≈ 18.9 bytes per key before its inner nodes were counted,
//! and 20.4 with them. Counted with a
//! `#[global_allocator]` over the whole process; this file holds one
//! test, so the count is its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use optiql_btree::BTreeOptiQL;

struct Counting;

/// Bytes requested and not yet given back.
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes. `realloc` and `alloc_zeroed` keep their default
// bodies, which go through `alloc` and `dealloc`, so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEYS: u64 = 200_000;

#[test]
fn an_ascending_load_requests_under_19_bytes_per_key() {
    // The process-wide state a first write sets up (the lock queue-node
    // pool, this thread's epoch record) is not the tree's.
    let warm: BTreeOptiQL = BTreeOptiQL::new();
    warm.insert(0, 0);
    drop(warm);
    let before = LIVE.load(Ordering::Relaxed);
    let t: BTreeOptiQL = BTreeOptiQL::new();
    for k in 0..KEYS {
        assert_eq!(t.insert(k, k), None);
    }
    let per_key = (LIVE.load(Ordering::Relaxed) - before) as f64 / KEYS as f64;
    assert_eq!(t.check_invariants(), KEYS as usize);
    assert!(
        (256.0 / 15.0..=19.0).contains(&per_key),
        "{per_key:.2} B/key requested for an ascending load of {KEYS}"
    );
}

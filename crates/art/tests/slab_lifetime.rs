//! A removed key's slot is freed by the epoch collector, which may run
//! after the tree is gone: here thread A removes keys and keeps their
//! frees in its own garbage bag, the tree is dropped on thread B, and
//! only then does A collect. The slab's chunks must stay allocated until
//! A's frees have run — a free writes its link into the slot — and be
//! released right after. Chunks are recognised by their 64 KiB size in a
//! counting `#[global_allocator]`; this file holds one test, so the count
//! is this test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use optiql_art::ArtOptiQL;

struct Counting;

static CHUNKS_LIVE: AtomicU64 = AtomicU64::new(0);

/// The slab's chunk size: an allocation this large is a chunk.
const CHUNK_BYTES: usize = 64 << 10;

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes chunk-sized calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == CHUNK_BYTES {
            CHUNKS_LIVE.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == CHUNK_BYTES {
            CHUNKS_LIVE.fetch_sub(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Fewer removes than the collector's per-thread collection threshold
/// (64 deferred objects), so A's frees wait in its bag.
const REMOVED: u64 = 16;

#[test]
fn a_free_that_outlives_its_tree_finds_the_chunks_still_allocated() {
    let t = ArtOptiQL::new();
    for k in 0..1_000u64 {
        t.insert(k, k);
    }
    assert!(CHUNKS_LIVE.load(Ordering::Relaxed) > 0);
    let domain = t.reclaim_handle().expect("the tree has a collector");
    let (removed_tx, removed_rx) = mpsc::channel();
    let (dropped_tx, dropped_rx) = mpsc::channel();
    let a = std::thread::spawn(move || {
        for k in 0..REMOVED {
            assert_eq!(t.remove(k), Some(k));
        }
        removed_tx.send(t).unwrap();
        dropped_rx.recv().unwrap();
        // The tree is gone; A's bag still holds its frees.
        assert!(
            CHUNKS_LIVE.load(Ordering::Relaxed) > 0,
            "the chunks were released while frees were still pending"
        );
        domain.flush();
    });
    let t = removed_rx.recv().unwrap();
    let b = std::thread::spawn(move || drop(t));
    b.join().unwrap();
    dropped_tx.send(()).unwrap();
    a.join().unwrap();
    assert_eq!(
        CHUNKS_LIVE.load(Ordering::Relaxed),
        0,
        "A's frees dropped the last slab handle"
    );
}

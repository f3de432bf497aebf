//! Dropping a tree releases every chunk of its slabs. Every node — KV
//! leaves and the four inner kinds alike — is a slot of one of the tree's
//! slabs, and a node a remove or a growth unlinks goes straight back to
//! its slab, so nothing is left to free once the tree is gone, on
//! whichever thread it drops. A dropped slab's chunks become the
//! process's spares, so the proof that every chunk came back is that the
//! same tree, built again, allocates none. Chunks are recognised by their
//! 64 KiB size in a counting `#[global_allocator]`; this file holds one
//! test, so the count is this test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Grow last-level nodes through every kind (dense keys free a Node4, a
/// Node16 and a Node48 on the way to each Node256), leave Node4s standing
/// on long compressed paths (keys 2^40 apart), and remove keys, which
/// frees KV leaves and collapses Node4s.
fn build() -> ArtOptiQL {
    let t = ArtOptiQL::new();
    for k in 0..20_000u64 {
        assert_eq!(t.insert(k, k), None);
    }
    for i in 1..64u64 {
        assert_eq!(t.insert(i << 40, i), None);
    }
    for k in (0..20_000u64).step_by(3) {
        assert_eq!(t.remove(k), Some(k));
    }
    for i in (1..64u64).step_by(2) {
        assert_eq!(t.remove(i << 40), Some(i));
    }
    t
}

#[test]
fn dropping_the_tree_releases_every_chunk() {
    let t = build();
    let carved = CHUNKS_LIVE.load(Ordering::Relaxed);
    assert!(
        carved >= 5,
        "one chunk at least for each of the five node slabs"
    );
    std::thread::spawn(move || drop(t)).join().unwrap();
    let again = build();
    assert_eq!(
        CHUNKS_LIVE.load(Ordering::Relaxed),
        carved,
        "the same tree built again needed new chunks: a chunk outlived its tree"
    );
    assert_eq!(again.check_invariants(), again.len());
}

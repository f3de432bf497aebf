//! What an ART key costs the allocator: its KV leaf is a 16-byte slot of
//! the tree's slab, so inserting keys makes system allocations only for
//! inner nodes and 64 KiB chunks, and keys re-inserted after a delete
//! reuse the freed slots. Counted with a `#[global_allocator]` over the
//! whole process, so the tests take turns on one mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use optiql_art::ArtOptiQL;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);

/// The slab's chunk size: an allocation this large is a chunk.
const CHUNK_BYTES: usize = 64 << 10;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe that a call happened. `realloc` and `alloc_zeroed` keep
// their default bodies, which go through `alloc`, so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() == CHUNK_BYTES {
            CHUNKS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static TURN: Mutex<()> = Mutex::new(());

const KEYS: u64 = 100_000;

/// `(allocations, chunks)` made while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a, c) = (
        ALLOCS.load(Ordering::Relaxed),
        CHUNKS.load(Ordering::Relaxed),
    );
    f();
    (
        ALLOCS.load(Ordering::Relaxed) - a,
        CHUNKS.load(Ordering::Relaxed) - c,
    )
}

fn insert_all(t: &ArtOptiQL) {
    for k in 0..KEYS {
        assert_eq!(t.insert(k, k), None);
    }
}

/// A leaf in a `Box` of its own would cost one allocation per key;
/// inner nodes and chunks are a few thousand.
#[test]
fn dense_inserts_allocate_inner_nodes_and_chunks_not_leaves() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let t = ArtOptiQL::new();
    let (allocs, chunks) = counted(|| insert_all(&t));
    assert_eq!(t.len(), KEYS as usize);
    assert!(allocs <= 5_000, "{allocs} allocations for {KEYS} inserts");
    let fill = (KEYS as usize * 16).div_ceil(CHUNK_BYTES) as u64;
    assert!(
        (fill..=fill + 1).contains(&chunks),
        "{chunks} chunks for {KEYS} 16-byte leaves"
    );
}

/// Removed keys' slots return to the slab once their epoch has passed,
/// and the same keys inserted again take them back: no new chunk, and
/// the inner nodes a remove leaves in place need no allocation either.
#[test]
fn reinserted_keys_reuse_the_slots_their_removal_freed() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let t = ArtOptiQL::new();
    insert_all(&t);
    for k in 0..KEYS {
        assert_eq!(t.remove(k), Some(k));
    }
    t.flush_reclamation();
    assert!(t.is_empty());
    let (allocs, chunks) = counted(|| insert_all(&t));
    assert_eq!(chunks, 0, "re-inserting carved {chunks} new chunks");
    assert!(
        allocs < 1_000,
        "{allocs} allocations to re-insert {KEYS} keys"
    );
    assert_eq!(t.check_invariants(), KEYS as usize);
}

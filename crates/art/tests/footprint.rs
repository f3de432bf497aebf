//! What an ART key costs the allocator: its KV leaf is a 16-byte slot of
//! the tree's slab and its inner nodes are slots of theirs, so inserting
//! keys makes system allocations only for 64 KiB chunks, and keys
//! re-inserted after a delete reuse the freed slots. Counted with a
//! `#[global_allocator]` on the measuring thread alone, so the test
//! harness's own threads do not show; the tests take turns on one mutex,
//! as chunks a dropped tree leaves are the whole process's spares.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use optiql_art::ArtOptiQL;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread's allocations are counted (`const`, no
    /// destructor: safe to read from inside the allocator).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The slab's chunk size: an allocation this large is a chunk.
const CHUNK_BYTES: usize = 64 << 10;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe that a call happened. `realloc` and `alloc_zeroed` keep
// their default bodies, which go through `alloc`, so growth is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if layout.size() == CHUNK_BYTES {
                CHUNKS.fetch_add(1, Ordering::Relaxed);
            }
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

/// `(allocations, chunks)` this thread makes while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a, c) = (
        ALLOCS.load(Ordering::Relaxed),
        CHUNKS.load(Ordering::Relaxed),
    );
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (
        ALLOCS.load(Ordering::Relaxed) - a,
        CHUNKS.load(Ordering::Relaxed) - c,
    )
}

/// Never drop a measured tree: its chunks would become the process's
/// spares, and the other test's tree would carve them instead of
/// allocating.
fn keep(t: ArtOptiQL) {
    std::mem::forget(t);
}

fn insert_all(t: &ArtOptiQL) {
    for k in 0..KEYS {
        assert_eq!(t.insert(k, k), None);
    }
}

/// A node in a `Box` of its own would cost one allocation per key and
/// per inner node. Every node is a slot of one of the tree's slabs, so
/// the inserts allocate 64 KiB chunks and almost nothing else: as many
/// chunks as the 16-byte
/// KV leaves fill, as many as the Node256s dense keys fill (one per 256
/// keys, 31 to a chunk), and one for each smaller kind the last level
/// grows through.
#[test]
fn dense_inserts_allocate_inner_nodes_and_chunks_not_leaves() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let t = ArtOptiQL::new();
    let (allocs, chunks) = counted(|| insert_all(&t));
    assert_eq!(t.len(), KEYS as usize);
    assert!(
        allocs <= chunks + 16,
        "{allocs} allocations, {chunks} of them chunks, for {KEYS} inserts"
    );
    let kv = (KEYS as usize * 16).div_ceil(CHUNK_BYTES);
    let n256 = (KEYS as usize / 256 + 1).div_ceil(CHUNK_BYTES / 2088);
    let bound = (kv + n256 + 3 + 1) as u64;
    assert!(
        (kv as u64..=bound).contains(&chunks),
        "{chunks} chunks for {KEYS} keys (bound {bound})"
    );
    keep(t);
}

/// Removed keys' slots return to the slab the moment they are unlinked,
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
    assert!(t.is_empty());
    let (allocs, chunks) = counted(|| insert_all(&t));
    assert_eq!(chunks, 0, "re-inserting carved {chunks} new chunks");
    assert!(
        allocs < 1_000,
        "{allocs} allocations to re-insert {KEYS} keys"
    );
    assert_eq!(t.check_invariants(), KEYS as usize);
    keep(t);
}

/// A prefix split moves a compressed path's digits by shifting one word,
/// so a sparse load whose keys keep cutting shared paths shorter
/// allocates nothing but the chunks its nodes and leaves are carved from.
/// Under each root digit, two keys that differ in their last digit hang
/// below a `Node4` whose path is the six digits between; each further key
/// leaves that path one digit earlier than the last, splitting it. (A
/// split that collected the path's digits into a `Vec` made 1 536
/// allocations here.)
#[test]
fn sparse_prefix_splits_allocate_nothing_but_chunks() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let keys: Vec<u64> = (0..256u64)
        .flat_map(|g| {
            let group = g << 56;
            let cuts = (8..56).step_by(8).map(move |s| group | 1 << s);
            [group | 1, group | 2].into_iter().chain(cuts)
        })
        .collect();
    let t = ArtOptiQL::new();
    let (allocs, chunks) = counted(|| {
        for &k in &keys {
            assert_eq!(t.insert(k, k), None);
        }
    });
    assert_eq!(t.stats().prefix_splits, 6 * 256);
    // Besides a chunk, a carve may grow its slab's list of chunks.
    assert!(
        allocs - chunks <= chunks,
        "{allocs} allocations, {chunks} of them chunks, for {} inserts",
        keys.len()
    );
    for &k in &keys {
        assert_eq!(t.lookup(k), Some(k));
    }
    assert_eq!(t.check_invariants(), keys.len());
    keep(t);
}

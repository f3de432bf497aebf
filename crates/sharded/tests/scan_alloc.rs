//! A streaming `range` holds one chunk, whatever its length: a scan that
//! materialised its result would let one small request (a SCAN frame of
//! up to `MAX_SCAN` entries, a YCSB-E scan) allocate 16 bytes per entry
//! it reads. Counted with a `#[global_allocator]`, which is why this is
//! its own test binary with a single test: the counters are
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};

use optiql::{OptLock, OptiQL};
use optiql_art::ArtTree;
use optiql_btree::{BPlusTree, DEFAULT_IC, DEFAULT_LC};
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::ShardedIndex;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEYS: u64 = 200_000;
/// Collecting every entry would hold ≥ 3 MB here.
const BOUND: usize = 64 << 10;

fn count(index: &impl ConcurrentIndex, limit: usize) -> usize {
    index
        .range(Bound::Included(0), Bound::Unbounded)
        .take(limit)
        .count()
}

fn count_holds_one_chunk(name: &str, index: &impl ConcurrentIndex) {
    for k in 0..KEYS {
        index.insert(k, k);
    }
    // First use of a thread's epoch slot and scratch buffers is not the
    // scan's footprint.
    assert_eq!(count(index, 1), 1);
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let n = count(index, usize::MAX);
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert_eq!(n, KEYS as usize, "{name}: every key counted");
    assert!(peak < BOUND, "{name}: counting {n} keys held {peak} bytes");
}

#[test]
fn scan_count_peak_allocation_is_independent_of_the_result() {
    type Tree = BPlusTree<OptLock, OptiQL, DEFAULT_IC, DEFAULT_LC>;
    count_holds_one_chunk("btree", &Tree::new());
    count_holds_one_chunk("art", &ArtTree::<OptiQL>::new());
    // 256-key blocks: every shard owns a share of any run of keys.
    let sharded = ShardedIndex::<Tree>::with_block_bits(4, 8);
    count_holds_one_chunk("sharded4-btree", &sharded);
}

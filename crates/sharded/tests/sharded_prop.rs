//! Differential testing of the sharded facade.
//!
//! Property tests check that `ShardedIndex<I>` over real trees behaves
//! exactly like a `Mutex<BTreeMap>` model under arbitrary single-threaded
//! operation sequences — the facade must be invisible apart from
//! partitioning. A concurrent test then drives disjoint and overlapping
//! key sets through the shards and verifies the final state.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use optiql_art::ArtOptiQL;
use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::ShardedIndex;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Update(u64, u64),
    Remove(u64),
    Lookup(u64),
    Count(u64, usize),
}

/// Entries with keys ≥ `start`, up to `limit`, as one streaming scan.
fn count(index: &impl ConcurrentIndex, start: u64, limit: usize) -> usize {
    index
        .range(Bound::Included(start), Bound::Unbounded)
        .take(limit)
        .count()
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        (0..key_space).prop_map(Op::Remove),
        (0..key_space).prop_map(Op::Lookup),
        (0..key_space, 0..96usize).prop_map(|(k, n)| Op::Count(k, n)),
    ]
}

fn run_model<I: ConcurrentIndex>(sharded: &ShardedIndex<I>, ops: &[Op]) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                assert_eq!(sharded.insert(k, v), model.insert(k, v), "insert {k}");
            }
            Op::Update(k, v) => {
                let expect = model.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                assert_eq!(sharded.update(k, v), expect, "update {k}");
            }
            Op::Remove(k) => {
                assert_eq!(sharded.remove(k), model.remove(&k), "remove {k}");
            }
            Op::Lookup(k) => {
                assert_eq!(sharded.lookup(k), model.get(&k).copied(), "lookup {k}");
            }
            Op::Count(k, n) => {
                // Hash partitioning destroys global order but not counts:
                // the merged stream's count must equal the model's.
                let expect = model.range(k..).take(n).count();
                assert_eq!(count(sharded, k, n), expect, "count {k} {n}");
            }
        }
    }
    assert_eq!(sharded.len(), model.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Small key space + small B+-tree nodes: ops collide across shards
    // and exercise splits/merges inside each shard. Block granularity is
    // sized to the keyspace (16-key blocks) so the 512-key space still
    // stripes over all four shards.
    #[test]
    fn sharded_btree_matches_model(ops in prop::collection::vec(op_strategy(512), 1..600)) {
        let s: ShardedIndex<BTreeOptiQL<4, 4>> = ShardedIndex::with_block_bits(4, 4);
        run_model(&s, &ops);
    }

    #[test]
    fn sharded_art_matches_model(ops in prop::collection::vec(op_strategy(512), 1..600)) {
        let s: ShardedIndex<ArtOptiQL> = ShardedIndex::with_block_bits(4, 4);
        run_model(&s, &ops);
    }

    // Shard count 1 degenerates to the plain index; the facade must be a
    // no-op wrapper there too.
    #[test]
    fn single_shard_matches_model(ops in prop::collection::vec(op_strategy(256), 1..400)) {
        let s: ShardedIndex<BTreeOptiQL<4, 4>> = ShardedIndex::new(1);
        run_model(&s, &ops);
    }

    // Wide keys stress the hash mapping (high bits significant).
    #[test]
    fn wide_keyspace_matches_model(ops in prop::collection::vec(op_strategy(u64::MAX), 1..300)) {
        let s: ShardedIndex<BTreeOptiQL<6, 6>> = ShardedIndex::new(8);
        run_model(&s, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Routing totality and stability as a property over the whole
    // configuration space: any (shards, block_bits, key) routes to
    // exactly one in-range shard, the same one every time and from any
    // equal router, and all keys of a block agree.
    #[test]
    fn every_key_routes_to_exactly_one_stable_shard(
        shards_log in 0u32..7,
        block_bits in 0u32..24,
        keys in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let shards = 1usize << shards_log;
        let a = optiql_sharded::Router::new(shards, block_bits);
        let b = optiql_sharded::Router::new(shards, block_bits);
        for &k in &keys {
            let s = a.route(k);
            prop_assert!(s < shards, "out of range: {s} of {shards}");
            prop_assert_eq!(s, a.route(k), "unstable across calls");
            prop_assert_eq!(s, b.route(k), "unstable across instances");
            // Every key of k's block routes with it (block-aligned
            // neighbours; guard the shifts for block_bits = 0).
            if block_bits > 0 {
                let first = (k >> block_bits) << block_bits;
                prop_assert_eq!(a.route(first), s, "block start strayed");
                let last = first | ((1u64 << block_bits) - 1);
                prop_assert_eq!(a.route(last), s, "block end strayed");
            }
        }
    }
}

/// A counted `range` fan-out vs the model while the trees churn through
/// splits and collapses. Writers alternately grow and shrink their
/// ranges (forcing structure changes in every shard); between phases the
/// threads quiesce and the merged fan-out count must equal a model
/// rebuilt from the ground truth — hash partitioning must never double-
/// or under-count across shard boundaries, whatever shapes the churn
/// left behind.
#[test]
fn scan_count_fanout_matches_model_under_churn() {
    let s: ShardedIndex<BTreeOptiQL<4, 4>> = ShardedIndex::with_block_bits(4, 4);
    let threads = 4u64;
    let per = 4_000u64;
    for phase in 0..3u64 {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = &s;
                scope.spawn(move || {
                    let base = t * per;
                    // Grow: insert everything; shrink: remove a
                    // phase-dependent stripe — splits then collapses.
                    for k in base..base + per {
                        s.insert(k, k + phase);
                    }
                    for k in (base..base + per).filter(|k| k % 3 == phase % 3) {
                        s.remove(k);
                    }
                });
            }
        });
        // Quiescent: rebuild the ground truth and compare counts.
        let model: BTreeMap<u64, u64> = (0..threads * per)
            .filter(|k| k % 3 != phase % 3)
            .map(|k| (k, k + phase))
            .collect();
        assert_eq!(s.len(), model.len(), "phase {phase}: size");
        for (start, limit) in [
            (0u64, 10_000_000usize),
            (0, 7),
            (1_000, 500),
            (threads * per / 2, 1_000),
            (threads * per, 64),
        ] {
            let want = model.range(start..).take(limit).count();
            assert_eq!(
                count(&s, start, limit),
                want,
                "phase {phase}: count({start}, {limit})"
            );
        }
    }
}

/// A counted `range` reads the merged stream: about `limit` / leaf chunks plus one
/// per shard each time the merge is opened — not every shard scanned to
/// `limit`, which is what a per-shard fan-out costs (8 shards × 1 000
/// entries over leaves of ≤ 14 is above 570 chunks even with full
/// leaves, above 1 100 with the half-full ones ascending inserts leave).
/// One chunk is one `ops` count, which is what makes this observable.
#[test]
fn scan_count_does_limit_plus_shards_work() {
    // 1 024-key blocks: each shard owns ~8 blocks of the 64 Ki keys, so
    // every shard holds far more than `limit` keys above the start.
    let s: ShardedIndex<BTreeOptiQL> = ShardedIndex::with_block_bits(8, 10);
    for k in 0..(64u64 << 10) {
        s.insert(k, k);
    }
    let before = s.index_stats().ops;
    assert_eq!(count(&s, 3, 1_000), 1_000);
    let chunks = s.index_stats().ops - before;
    assert!(chunks < 400, "counting 1 000 keys took {chunks} chunks");
}

#[test]
fn concurrent_disjoint_writers_and_readers() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // 256-key blocks: the 80k-key space stripes ~312 blocks over the
    // eight shards, so every shard sees a true concurrent mix.
    let s: ShardedIndex<BTreeOptiQL> = ShardedIndex::with_block_bits(8, 8);
    let per_thread = 20_000u64;
    let threads = 4u64;
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writers own disjoint key ranges; the hash spreads each range
        // over every shard, so shards see true concurrent mixes.
        let writers: Vec<_> = (0..threads)
            .map(|t| {
                let s = &s;
                scope.spawn(move || {
                    let base = t * per_thread;
                    for k in base..base + per_thread {
                        assert_eq!(s.insert(k, k + 1), None);
                    }
                    for k in (base..base + per_thread).step_by(2) {
                        assert_eq!(s.remove(k), Some(k + 1));
                    }
                })
            })
            .collect();
        // A reader hammers lookups/scans concurrently; values must always
        // be consistent (absent, or key + 1).
        let reader = scope.spawn(|| {
            let total = threads * per_thread;
            let mut probes = 0u64;
            while !stop.load(Ordering::Acquire) || probes < 10_000 {
                let k = probes.wrapping_mul(0x9E37_79B9_7F4A_7C15) % total;
                if let Some(v) = s.lookup(k) {
                    assert_eq!(v, k + 1, "reader saw torn value for {k}");
                }
                count(&s, k, 16);
                probes += 1;
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        reader.join().unwrap();
    });

    // Final state: exactly the odd keys survive.
    assert_eq!(s.len() as u64, threads * per_thread / 2);
    for t in 0..threads {
        let base = t * per_thread;
        assert_eq!(s.lookup(base), None, "even keys removed");
        assert_eq!(s.lookup(base + 1), Some(base + 2), "odd keys survive");
    }
    let stats = s.index_stats();
    assert!(
        stats.ops >= threads * per_thread,
        "aggregated ops must cover every write: {stats:?}"
    );
}

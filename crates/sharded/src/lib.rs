//! # optiql-sharded — a partitioned facade over any concurrent index
//!
//! The paper makes a single index robust under contention; a serving
//! system additionally partitions, so that independent key ranges never
//! share lock words or node slabs at all
//! (Larson et al., VLDB 2012, make the case for partitioned concurrency
//! structures in main-memory engines). [`ShardedIndex`] is that
//! partitioning step, expressed as a facade:
//!
//! * keys are spread over `N` shards (a power of two) by a
//!   **cache-conscious block [`Router`]**: keys sharing a
//!   `2^block_bits`-key aligned block route together (clustered working
//!   sets keep their leaf/subtree locality inside one shard) while block
//!   numbers are Fibonacci-spread so dense ranges stripe evenly over all
//!   shards — the original per-key Fibonacci route (still available as
//!   `block_bits = 0`) scattered hot neighbourhoods over every shard and
//!   measurably *lost* throughput to cache dilution;
//! * every shard is its own complete index behind
//!   [`ConcurrentIndex`], wrapped in `CachePadded` so neighbouring
//!   shards never false-share a cache line;
//! * each shard owns its nodes: both trees keep every node in slabs of
//!   their own and free an unlinked node straight into them, so a shard
//!   neither pins an epoch nor waits on another shard's readers to free;
//! * the facade implements [`ConcurrentIndex`] itself, so every
//!   benchmark, workload driver and test runs unmodified over `plain`
//!   and `sharded(N)` variants.
//!
//! [`affinity::pin_thread`] lives here too: the workspace's one
//! thread-placement function, which the server's workers and the
//! harness's drivers call. The facade itself places nothing.
//!
//! Point operations touch exactly one shard. `multi_lookup` /
//! `multi_insert` **partition-then-pipeline**, and the partition is not
//! written here: the key→shard decision — for one key and for a batch —
//! lives in [`Router`], and each batched op is one [`Router::fan_out`]
//! call (one counting pass into flat buffers, batch order preserved
//! within each shard, each touched shard's software-pipelined engine run
//! over a dense sub-batch, results scattered back to their original
//! positions; a batch that routes to one shard goes over as is). The write-ahead log splits its batches with the same
//! function over the same `Router` value. `range` restores the global
//! key order routing destroyed: every shard opens its own streaming
//! iterator over the same bounds and the facade k-way-merges the heads,
//! so consumers see one ascending, shard-transparent stream. That merge
//! is the facade's only range code: `scan_chunk` is a slice of it, and a
//! consumer that stops after `n` entries has done `n` + shards work
//! rather than shards × `n`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
mod route;

pub use route::{Router, DEFAULT_BLOCK_BITS};

use std::ops::Bound;

use crossbeam_utils::CachePadded;
use optiql_index_api::{
    bounds_nonempty, chunk_of, ConcurrentIndex, IndexStats, RangeItem, RangeIter,
};

/// Default shard count: enough to split hot leaves apart without
/// multiplying memory overhead needlessly.
pub const DEFAULT_SHARDS: usize = 8;

/// A partitioned index facade: `N` cache-line-padded shards of `I`,
/// each a fully independent index (locks, stats, node slabs), with a
/// locality-preserving block router deciding ownership.
pub struct ShardedIndex<I> {
    shards: Box<[CachePadded<I>]>,
    router: Router,
}

impl<I: Default> ShardedIndex<I> {
    /// A facade over `shards` default-constructed shards with the
    /// default block granularity. `shards` is rounded up to the next
    /// power of two (minimum 1).
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, DEFAULT_BLOCK_BITS, |_| I::default())
    }

    /// As [`new`](Self::new) with an explicit block granularity
    /// (`block_bits = 0` reproduces the original per-key Fibonacci
    /// scatter).
    pub fn with_block_bits(shards: usize, block_bits: u32) -> Self {
        Self::with_config(shards, block_bits, |_| I::default())
    }
}

impl<I> ShardedIndex<I> {
    /// The fully explicit constructor: shard count (rounded up to a
    /// power of two, minimum 1, so shard selection is a shift, not a
    /// division), block granularity, and a per-shard builder (called
    /// with the shard number).
    pub fn with_config(shards: usize, block_bits: u32, mut make: impl FnMut(usize) -> I) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Box<[CachePadded<I>]> = (0..n).map(|i| CachePadded::new(make(i))).collect();
        ShardedIndex {
            shards,
            router: Router::new(n, block_bits),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router mapping keys to shards.
    pub fn router(&self) -> Router {
        self.router
    }

    /// The shard number `key` maps to.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        self.router.route(key)
    }

    /// The shard owning `key`.
    #[inline]
    fn shard(&self, key: u64) -> &I {
        &self.shards[self.router.route(key)]
    }

    /// Visit every shard (maintenance hooks: reclamation flushes,
    /// per-shard stats, invariant checks).
    pub fn for_each_shard(&self, mut f: impl FnMut(usize, &I)) {
        for (i, s) in self.shards.iter().enumerate() {
            f(i, s);
        }
    }
}

/// The k-way merge behind the facade's [`ConcurrentIndex::range`]: one
/// streaming iterator per shard (all opened over the same bounds), heads
/// compared on demand. Shards partition the key space, so keys are
/// globally unique and no tie-break is needed; each `next` is a linear
/// scan over at most `N` peeked heads — `N` is small (≤ 64) and the
/// per-shard iterators do the heavy (chunked, validated) lifting.
struct MergeRange<'a> {
    heads: Vec<std::iter::Peekable<RangeIter<'a>>>,
}

impl Iterator for MergeRange<'_> {
    type Item = RangeItem;

    fn next(&mut self) -> Option<RangeItem> {
        let mut best: Option<(usize, u64)> = None;
        for (i, head) in self.heads.iter_mut().enumerate() {
            if let Some(&(k, _)) = head.peek() {
                if best.map_or(true, |(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        self.heads[best?.0].next()
    }
}

impl<I: ConcurrentIndex> ConcurrentIndex for ShardedIndex<I> {
    #[inline]
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.shard(k).insert(k, v)
    }
    #[inline]
    fn update(&self, k: u64, v: u64) -> Option<u64> {
        self.shard(k).update(k, v)
    }
    #[inline]
    fn lookup(&self, k: u64) -> Option<u64> {
        self.shard(k).lookup(k)
    }
    #[inline]
    fn remove(&self, k: u64) -> Option<u64> {
        self.shard(k).remove(k)
    }
    /// The next `limit` entries of the merged stream, and the entry after
    /// them as the resume key. Each shard's share is its own validated
    /// chunks; the slice as a whole is as atomic as the merge, i.e. not.
    fn scan_chunk(&self, from: Option<u64>, limit: usize, out: &mut Vec<RangeItem>) -> Option<u64> {
        let start = from.map_or(Bound::Unbounded, Bound::Included);
        chunk_of(self.range(start, Bound::Unbounded), limit, out)
    }
    /// Open one streaming iterator per shard over the same bounds and
    /// k-way-merge the heads, restoring the global ascending key order
    /// that routing scattered. Each per-shard iterator keeps its own
    /// OLC revalidation protocol; the merge holds no locks.
    fn range(&self, start: Bound<u64>, end: Bound<u64>) -> RangeIter<'_> {
        if !bounds_nonempty(&start, &end) {
            return RangeIter::empty();
        }
        let heads = self
            .shards
            .iter()
            .map(|s| s.range(start, end).peekable())
            .collect();
        RangeIter::new(MergeRange { heads })
    }
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
    fn index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for s in self.shards.iter() {
            total.merge(s.index_stats());
        }
        total
    }
    /// One [`Router::fan_out`]: each touched shard's pipelined engine sees
    /// a dense sub-batch, and the answers come back in batch order.
    fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.router
            .fan_out(keys, |&k| k, |s, sub| self.shards[s].multi_lookup(sub))
    }
    /// As [`multi_lookup`](ConcurrentIndex::multi_lookup), for inserts.
    /// Order within each shard's sub-batch follows batch order, and equal
    /// keys always route to the same shard, so the in-order semantics of
    /// duplicate keys are preserved across the split.
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        self.router.fan_out(
            pairs,
            |&(k, _)| k,
            |s, sub| self.shards[s].multi_insert(sub),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql_index_api::model::ModelIndex;

    /// Entries with keys ≥ `start`, up to `limit`, as one streaming scan.
    fn count(index: &impl ConcurrentIndex, start: u64, limit: usize) -> usize {
        index
            .range(Bound::Included(start), Bound::Unbounded)
            .take(limit)
            .count()
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (req, got) in [(0, 1), (1, 1), (2, 2), (3, 4), (8, 8), (9, 16)] {
            let s: ShardedIndex<ModelIndex> = ShardedIndex::new(req);
            assert_eq!(s.shard_count(), got, "requested {req}");
        }
    }

    #[test]
    fn every_key_maps_to_a_valid_stable_shard() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(8);
        for k in (0..10_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
            let sh = s.shard_of(k);
            assert!(sh < 8);
            assert_eq!(sh, s.shard_of(k), "shard mapping must be stable");
        }
    }

    #[test]
    fn dense_keys_spread_over_shards() {
        // Explicit fine granularity: 512k keys = 2000 × 256-key blocks,
        // plenty to stripe. (The coarse default needs a multi-million-key
        // space to balance; route.rs covers that property per block.)
        let s: ShardedIndex<ModelIndex> = ShardedIndex::with_block_bits(8, 8);
        let mut hist = [0usize; 8];
        for k in 0..512_000u64 {
            hist[s.shard_of(k)] += 1;
        }
        for (i, &n) in hist.iter().enumerate() {
            assert!(
                (48_000..=80_000).contains(&n),
                "dense keys skewed: shard {i} got {n}/512000"
            );
        }
    }

    #[test]
    fn blocks_stay_whole() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(8);
        let bits = s.router().block_bits();
        assert_eq!(bits, DEFAULT_BLOCK_BITS);
        let block = 1u64 << bits;
        for b in 0..64u64 {
            let owner = s.shard_of(b * block);
            // Sample within the block: ends, and a coprime stride.
            for k in (b * block..(b + 1) * block).step_by(4099) {
                assert_eq!(s.shard_of(k), owner);
            }
            assert_eq!(s.shard_of((b + 1) * block - 1), owner);
        }
    }

    #[test]
    fn zero_block_bits_reproduces_per_key_scatter() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::with_block_bits(8, 0);
        let first = s.shard_of(0);
        assert!((1..8u64).any(|k| s.shard_of(k) != first));
    }

    #[test]
    fn single_shard_facade_degenerates_to_the_inner_index() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(1);
        s.insert(u64::MAX, 1);
        s.insert(0, 2);
        assert_eq!(s.shard_of(u64::MAX), 0);
        assert_eq!(s.len(), 2);
        assert_eq!(count(&s, 0, 10), 2);
    }

    #[test]
    fn point_ops_round_trip_across_shards() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(4);
        for k in 0..1_000u64 {
            assert_eq!(s.insert(k, k + 1), None);
        }
        assert_eq!(s.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(s.lookup(k), Some(k + 1));
            assert_eq!(s.update(k, k + 2), Some(k + 1));
        }
        assert_eq!(s.update(5_000, 1), None, "update never inserts");
        for k in 0..1_000u64 {
            assert_eq!(s.remove(k), Some(k + 2));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn scan_count_merges_shards_and_respects_limit() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(4);
        for k in 0..100u64 {
            s.insert(k, k);
        }
        assert_eq!(count(&s, 0, 1_000), 100);
        assert_eq!(count(&s, 0, 17), 17, "limit caps the merged count");
        assert_eq!(count(&s, 90, 1_000), 10);
        assert_eq!(count(&s, 100, 1_000), 0);
    }

    #[test]
    fn multi_ops_preserve_batch_order_across_shards() {
        // Wide key spread so the batch actually spans shards under the
        // block router.
        let spread = |i: u64| i << DEFAULT_BLOCK_BITS;
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(4);
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (spread(k), k + 1)).collect();
        assert!(s.multi_insert(&pairs).iter().all(|r| r.is_none()));
        // Overwrite batch with an intra-batch duplicate: the second write
        // to key spread(7) must observe the first one's value.
        let got = s.multi_insert(&[(spread(7), 70), (spread(7), 71), (spread(200), 1)]);
        assert_eq!(got, vec![Some(8), Some(70), None]);
        let keys: Vec<u64> = vec![
            spread(99),
            spread(7),
            spread(200),
            spread(7),
            spread(1_000),
            spread(0),
        ];
        assert_eq!(
            s.multi_lookup(&keys),
            vec![Some(100), Some(71), Some(1), Some(71), None, Some(1)]
        );
        assert_eq!(s.len(), 101);
    }

    #[test]
    fn scan_count_matches_global_order_at_shard_boundaries() {
        // Regression: starts sitting exactly on, one below, and one above
        // a router block edge. The block edge is where a key and its
        // successor route to *different* shards, so an off-by-one in the
        // per-shard `>= start` comparison (e.g. a shard counting from its
        // own smallest key instead of the caller's start) shows up as a
        // merged count that disagrees with an unpartitioned index.
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(4);
        let flat = ModelIndex::new();
        let block = 1u64 << s.router().block_bits();
        // Populate a band straddling three block edges.
        for k in (block - 20)..(4 * block + 20) {
            s.insert(k, k);
            flat.insert(k, k);
        }
        for edge in 1..=4u64 {
            let e = edge * block;
            for start in [e - 1, e, e + 1] {
                for limit in [1usize, 2, 7, 10_000] {
                    assert_eq!(
                        count(&s, start, limit),
                        count(&flat, start, limit),
                        "start={start} limit={limit} (block edge {e})"
                    );
                }
            }
        }
    }

    #[test]
    fn range_merges_shards_in_global_key_order() {
        let s: ShardedIndex<ModelIndex> = ShardedIndex::with_block_bits(8, 2);
        // Fine blocks (4 keys) so consecutive keys genuinely interleave
        // across shards and the merge has to reorder them.
        for k in 0..1_000u64 {
            s.insert(k, k + 1);
        }
        let got: Vec<(u64, u64)> = s.range(Bound::Included(37), Bound::Excluded(911)).collect();
        let want: Vec<(u64, u64)> = (37..911).map(|k| (k, k + 1)).collect();
        assert_eq!(got, want);
        // Degenerate and empty bounds.
        assert_eq!(s.range(Bound::Excluded(5), Bound::Included(5)).count(), 0);
        assert_eq!(s.range(Bound::Included(2_000), Bound::Unbounded).count(), 0);
    }

    #[test]
    fn index_stats_aggregate_over_shards() {
        // ModelIndex reports default stats; the aggregate must stay
        // default (and not, say, panic on merge).
        let s: ShardedIndex<ModelIndex> = ShardedIndex::new(4);
        s.insert(1, 1);
        assert_eq!(s.index_stats(), IndexStats::default());
        let mut visited = 0;
        s.for_each_shard(|_, _| visited += 1);
        assert_eq!(visited, 4);
    }
}

//! Shard routing: which shard owns a key, and how a batch is split
//! over shards ([`Router::fan_out`]) — the one place either is decided.
//!
//! The first facade routed every key through a Fibonacci multiplicative
//! hash, which *maximally* scatters adjacent keys — key `k` and `k+1`
//! land on unrelated shards. That is exactly wrong for a cache-conscious
//! partitioning of a tree index: the benchmarks (and any clustered real
//! workload) touch key neighbourhoods, and scattering a hot
//! neighbourhood over `N` shards multiplies the hot working set by `N` —
//! `N` roots, `N` sets of upper-level nodes, `N` partially-filled hot
//! leaves, where one shard would have served the whole cluster from a
//! handful of cache lines. `results/BENCH_sharded.json` recorded that
//! loss: ART YCSB-C dropped ~33% going 1 → 8 shards on the old route.
//!
//! [`Router`] keeps the balance property of the hash but hashes *blocks*
//! instead of keys: keys sharing their top `64 - block_bits` bits (a
//! `2^block_bits`-key aligned block) route together, so a clustered
//! working set stays within one shard's trees and leaves, while block
//! numbers are still Fibonacci-spread so dense key ranges stripe evenly
//! over all shards. `block_bits = 0` degenerates to the old per-key
//! hash (every key is its own block).

/// Fibonacci multiplicative-hash constant (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Default block granularity: 64Ki-key aligned blocks.
///
/// The block size is chosen to align with *index node spans*, so that
/// partitioning never splits an interior node's key range across shards:
///
/// * ART: a 64Ki-key aligned range is exactly the span of a two-level
///   radix subtree (one byte-6 node and its byte-7 children). Smaller
///   blocks give each shard a *sparse subset* of every byte-6 node's
///   children, degrading what would be a fully-populated `Node256` into
///   a `Node48` — one extra dependent load on every lookup. Measured on
///   YCSB-C this was most of the sharding loss.
/// * B+-tree: 64Ki keys ≈ several hundred contiguous leaves, so each
///   shard's leaf runs are long and its interior fan-out dense.
///
/// The cost is granularity: a keyspace smaller than `shards × 2^16`
/// cannot stripe evenly (and below `2^16` collapses into one shard).
/// Small-keyspace users — tests, chaos harnesses — should pass an
/// explicit `block_bits` sized to their keyspace; multiples of 8 keep
/// ART radix nodes whole.
pub const DEFAULT_BLOCK_BITS: u32 = 16;

/// Maps keys to shards: locality-preserving within a block, hash-spread
/// across blocks. Cheap to copy; the facade embeds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Router {
    /// log2 of the block size in keys (0 = per-key hashing).
    block_bits: u32,
    /// `64 - log2(shards)`: the block hash selects a shard by its top
    /// bits. 64 exactly when there is a single shard.
    shift: u32,
    /// Shard count (power of two).
    shards: usize,
}

impl Router {
    /// A router over `shards` shards (must be a power of two) with the
    /// given block granularity.
    pub fn new(shards: usize, block_bits: u32) -> Router {
        assert!(shards.is_power_of_two(), "shard count must be 2^k");
        assert!(block_bits < 64, "block_bits must leave block number bits");
        Router {
            block_bits,
            shift: 64 - shards.trailing_zeros(),
            shards,
        }
    }

    /// Shard count this router spreads over.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Block granularity (log2 keys per block).
    #[inline]
    pub fn block_bits(&self) -> u32 {
        self.block_bits
    }

    /// The block `key` belongs to: its routing unit.
    #[inline]
    pub fn block_of(&self, key: u64) -> u64 {
        key >> self.block_bits
    }

    /// The shard `key` routes to. Total: every key maps to exactly one
    /// shard, and the map is a pure function of `(key, shards,
    /// block_bits)` — stable across calls, instances and threads.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        if self.shards == 1 {
            0
        } else {
            (self.block_of(key).wrapping_mul(FIB) >> self.shift) as usize
        }
    }

    /// Split a batch over the shards its items route to, run every
    /// touched shard's sub-batch, and hand the answers back in batch
    /// order. `key` is an item's key; `run(s, sub)` executes the items
    /// owned by shard `s` and returns one answer per item of `sub`.
    ///
    /// One counting pass buckets the batch into flat buffers (count →
    /// prefix sum → ordered scatter), so batch order is preserved inside
    /// each sub-batch — equal keys share a shard, which keeps the
    /// in-order semantics of in-batch duplicates intact across the
    /// split. Untouched shards are skipped. A batch that needs no
    /// splitting (one shard, or every item routing where the first does:
    /// one item, or an ascending run inside one block) goes to `run` as
    /// the caller's own slice: the buffers would cost more than the
    /// operation.
    pub fn fan_out<T: Clone, R: Clone + Default>(
        &self,
        items: &[T],
        key: impl Fn(&T) -> u64,
        mut run: impl FnMut(usize, &[T]) -> Vec<R>,
    ) -> Vec<R> {
        if self.shards == 1 {
            return run(0, items);
        }
        if let Some((first, rest)) = items.split_first() {
            let s = self.route(key(first));
            if rest.iter().all(|t| self.route(key(t)) == s) {
                return run(s, items);
            }
        }
        let mut offsets = vec![0usize; self.shards + 1];
        for t in items {
            offsets[self.route(key(t)) + 1] += 1;
        }
        for s in 0..self.shards {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets.clone();
        let mut positions = vec![0usize; items.len()];
        for (i, t) in items.iter().enumerate() {
            let c = &mut cursor[self.route(key(t))];
            positions[*c] = i;
            *c += 1;
        }
        let mut out = vec![R::default(); items.len()];
        let mut sub: Vec<T> = Vec::new();
        for s in 0..self.shards {
            let owned = &positions[offsets[s]..offsets[s + 1]];
            if owned.is_empty() {
                continue;
            }
            sub.clear();
            sub.extend(owned.iter().map(|&i| items[i].clone()));
            for (&i, r) in owned.iter().zip(run(s, &sub)) {
                out[i] = r;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // `fan_out` against its contract, for every router shape the
        // stack builds: each sub-batch holds only keys of its shard, in
        // batch order, and the answers come back in batch order. Keys
        // are drawn from 48 values, so batches carry duplicates.
        #[test]
        fn fan_out_splits_by_route_and_keeps_batch_order(
            draws in prop::collection::vec(0u64..48, 0..96),
        ) {
            // (key, position): the position tells equal keys apart.
            let items: Vec<(u64, usize)> = draws
                .iter()
                .enumerate()
                .map(|(i, k)| (k.wrapping_mul(FIB), i))
                .collect();
            for shards in [1usize, 2, 4, 8] {
                for block_bits in [0u32, 2, 16] {
                    let r = Router::new(shards, block_bits);
                    let mut seen = Vec::new();
                    let out = r.fan_out(&items, |t| t.0, |s, sub| {
                        seen.push(s);
                        assert!(sub.iter().all(|t| r.route(t.0) == s), "stray key in shard {s}");
                        assert!(sub.windows(2).all(|w| w[0].1 < w[1].1), "batch order lost");
                        sub.iter().map(|t| (s, *t)).collect()
                    });
                    let want: Vec<_> = items.iter().map(|t| (r.route(t.0), *t)).collect();
                    prop_assert_eq!(out, want, "shards={} block_bits={}", shards, block_bits);
                    let mut touched: Vec<usize> = items.iter().map(|t| r.route(t.0)).collect();
                    touched.sort_unstable();
                    touched.dedup();
                    if shards == 1 {
                        touched = vec![0]; // one shard is handed even an empty batch
                    }
                    prop_assert_eq!(seen, touched, "one `run` per touched shard, in shard order");
                }
            }
        }
    }

    #[test]
    fn fan_out_hands_an_unsplit_batch_over_as_is() {
        // Returns how often `run` was called, and whether every call saw
        // the caller's own slice rather than a gathered copy.
        fn calls(r: Router, items: &[u64]) -> (usize, bool) {
            let (mut n, mut own) = (0, true);
            let out = r.fan_out(
                items,
                |&k| k,
                |s, sub| {
                    n += 1;
                    own &= std::ptr::eq(sub, items);
                    sub.iter().map(|&k| (s, k)).collect()
                },
            );
            assert_eq!(out.len(), items.len());
            (n, own)
        }
        let wide: Vec<u64> = (0..32u64).map(|k| k.wrapping_mul(FIB)).collect();
        assert_eq!(calls(Router::new(8, 0), &[]), (0, true), "empty batch");
        assert_eq!(calls(Router::new(8, 0), &wide[..1]), (1, true), "one item");
        assert_eq!(calls(Router::new(1, 0), &wide), (1, true), "one shard");
        assert_eq!(calls(Router::new(1, 0), &[]), (1, true), "one shard, empty");
        let block: Vec<u64> = (0..256u64).map(|k| (7 << DEFAULT_BLOCK_BITS) + k).collect();
        let one_block = Router::new(8, DEFAULT_BLOCK_BITS);
        assert_eq!(calls(one_block, &block), (1, true), "one block");
        let (n, own) = calls(Router::new(8, 0), &wide);
        assert!(n > 1 && !own, "32 scattered keys must split: {n} calls");
    }

    #[test]
    fn route_is_stable_and_in_range() {
        for shards in [1usize, 2, 8, 64] {
            let r = Router::new(shards, DEFAULT_BLOCK_BITS);
            for k in (0..50_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
                let s = r.route(k);
                assert!(s < shards);
                assert_eq!(s, r.route(k));
            }
        }
    }

    #[test]
    fn blocks_route_as_units() {
        let r = Router::new(8, 8);
        for block in 0..500u64 {
            let first = r.route(block << 8);
            for k in (block << 8)..(block << 8) + 256 {
                assert_eq!(r.route(k), first, "key {k} left its block");
            }
        }
    }

    #[test]
    fn zero_block_bits_is_per_key_hashing() {
        let r = Router::new(8, 0);
        // Adjacent keys scatter: the eight keys 0..8 should not all map
        // to one shard under the per-key Fibonacci hash.
        let first = r.route(0);
        assert!((1..8u64).any(|k| r.route(k) != first));
    }

    #[test]
    fn dense_blocks_stripe_evenly() {
        // Granularity-independent striping property: sample one key per
        // block over a few thousand consecutive blocks and require every
        // shard's block share within ±25% of even, for both a fine and
        // the default (coarse) granularity.
        let shards = 8;
        for bits in [8u32, DEFAULT_BLOCK_BITS] {
            let r = Router::new(shards, bits);
            let blocks = 4096u64;
            let mut hist = vec![0u64; shards];
            for b in 0..blocks {
                hist[r.route(b << bits)] += 1;
            }
            let expect = blocks / shards as u64;
            for (s, &n) in hist.iter().enumerate() {
                assert!(
                    n > expect * 3 / 4 && n < expect * 5 / 4,
                    "bits={bits}: shard {s} holds {n} of ~{expect} blocks"
                );
            }
        }
    }
}

//! Differential testing of batched (`multi_*`) index operations.
//!
//! The pipelined engines in both trees reorder the *schedule* of descents
//! (round-robin groups with prefetch between turns) but must not reorder
//! the *semantics*: a `multi_insert` is equivalent to applying the pairs
//! in batch order, and `multi_lookup` returns results positionally.
//! These properties are checked against `ModelIndex` (a `Mutex<BTreeMap>`)
//! for both trees, plain and behind the sharded facade — with duplicate
//! keys inside one batch and batch lengths well beyond the pipeline group
//! size of 8, so group boundaries, the intra-group duplicate deferral path
//! and the shard partition/scatter path are all exercised.

use proptest::prelude::*;

use optiql_art::ArtOptiQL;
use optiql_btree::BTreeOptiQL;
use optiql_index_api::model::ModelIndex;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::ShardedIndex;

/// One round of the differential driver: an insert batch and a lookup batch.
type Round = (Vec<(u64, u64)>, Vec<u64>);

/// Apply interleaved insert/lookup batches to `idx` and to the model,
/// comparing every result element-wise.
fn check_batches<I: ConcurrentIndex>(idx: &I, batches: &[Round]) {
    let model = ModelIndex::new();
    for (round, (pairs, keys)) in batches.iter().enumerate() {
        let got = idx.multi_insert(pairs);
        let want = model.multi_insert(pairs);
        assert_eq!(got, want, "multi_insert results, round {round}");
        let got = idx.multi_lookup(keys);
        let want = model.multi_lookup(keys);
        assert_eq!(got, want, "multi_lookup results, round {round}");
    }
    assert_eq!(idx.len(), model.len(), "final size");
}

/// Small key space so batches collide with themselves (duplicate keys in
/// one batch) and with earlier rounds (overwrites returning Some).
fn batch_strategy() -> impl Strategy<Value = Vec<Round>> {
    let pairs = prop::collection::vec((0..192u64, any::<u64>()), 0..40);
    let keys = prop::collection::vec(0..256u64, 0..40);
    prop::collection::vec((pairs, keys), 1..6)
}

/// The same rounds with every key moved to a last-level node of its own
/// (`k << 8`): an ART batch of 0..192 keys is dense, and takes the scalar
/// driver, where these keep the pipeline.
fn spread(batches: &[Round]) -> Vec<Round> {
    batches
        .iter()
        .map(|(pairs, keys)| {
            let pairs = pairs.iter().map(|&(k, v)| (k << 8, v)).collect();
            (pairs, keys.iter().map(|&k| k << 8).collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Small B+-tree nodes force splits within tiny keyspaces, so the
    // pipelined insert's SMO fallback path runs, not just the happy path.
    #[test]
    fn btree_multi_matches_model(batches in batch_strategy()) {
        let t: BTreeOptiQL<4, 4> = BTreeOptiQL::new();
        check_batches(&t, &batches);
    }

    #[test]
    fn art_multi_matches_model(batches in batch_strategy()) {
        check_batches(&ArtOptiQL::new(), &batches);
        check_batches(&ArtOptiQL::new(), &spread(&batches));
    }

    // The sharded facade partitions each batch by shard and scatters the
    // results back; order (including duplicate-key order) must survive.
    // 4-key blocks keep the 256-key space striping over all four shards.
    #[test]
    fn sharded_btree_multi_matches_model(batches in batch_strategy()) {
        let s: ShardedIndex<BTreeOptiQL<4, 4>> = ShardedIndex::with_block_bits(4, 2);
        check_batches(&s, &batches);
    }

    #[test]
    fn sharded_art_multi_matches_model(batches in batch_strategy()) {
        let s: ShardedIndex<ArtOptiQL> = ShardedIndex::with_block_bits(4, 2);
        check_batches(&s, &batches);
        let s: ShardedIndex<ArtOptiQL> = ShardedIndex::with_block_bits(4, 10);
        check_batches(&s, &spread(&batches));
    }
}

/// Deterministic smoke: a batch much larger than the pipeline group, with
/// duplicates straddling group boundaries, against full-size trees.
#[test]
fn large_batch_with_cross_group_duplicates() {
    fn drive<I: ConcurrentIndex>(idx: &I) {
        // 100 inserts; key k repeated at positions k and k + 50 for k < 50.
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 50, i)).collect();
        let res = idx.multi_insert(&pairs);
        for (i, r) in res.iter().enumerate() {
            if i < 50 {
                assert_eq!(*r, None, "first write of key {i}");
            } else {
                assert_eq!(*r, Some(i as u64 - 50), "second write sees the first");
            }
        }
        assert_eq!(idx.len(), 50);
        let keys: Vec<u64> = (0..60u64).rev().collect();
        let got = idx.multi_lookup(&keys);
        for (&k, r) in keys.iter().zip(&got) {
            let want = (k < 50).then_some(k + 50);
            assert_eq!(*r, want, "lookup {k}");
        }
    }
    let bt: BTreeOptiQL = BTreeOptiQL::new();
    drive(&bt);
    drive(&ArtOptiQL::new());
    drive(&ShardedIndex::<BTreeOptiQL>::with_block_bits(4, 2));
    drive(&ShardedIndex::<ArtOptiQL>::with_block_bits(4, 2));
}

/// Regression: dense keys crossing a byte boundary force an ART prefix
/// split *while sibling ops of the same pipeline group hold state below
/// the split point*. A stale in-flight op must restart, not descend with
/// an out-of-date depth (this once drove the lazy-expansion divergence
/// scan past the end of the key).
#[test]
fn art_batched_inserts_across_prefix_splits() {
    let art = ArtOptiQL::new();
    let pairs: Vec<(u64, u64)> = (65_000..67_000u64).map(|k| (k, k + 1)).collect();
    for chunk in pairs.chunks(4) {
        let r = art.multi_insert(chunk);
        assert!(r.iter().all(|x| x.is_none()), "fresh keys: {r:?}");
    }
    assert_eq!(art.len(), 2_000);
    let keys: Vec<u64> = (64_900..67_100u64).collect();
    for (got, &k) in art.multi_lookup(&keys).iter().zip(&keys) {
        let want = (65_000..67_000).contains(&k).then(|| k + 1);
        assert_eq!(*got, want, "key {k}");
    }
}

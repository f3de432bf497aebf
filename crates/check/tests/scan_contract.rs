//! The `scan_chunk` contract, checked differentially against
//! [`ModelIndex`] over every implementor in the workspace: both trees,
//! tiny-node and S4K B+-trees, the sharded facade, both register arrays
//! — every cell of the chaos matrix ([`targets`]) plus the wide-leaf
//! instances built here — and the wrappers that forward it.
//!
//! For each `limit` ∈ {1, 2, 7, 64, `usize::MAX`} a hand-written chunk
//! loop must see: every chunk ascending, at most `limit` long and at or
//! above its `from`; every resume key above everything delivered so far;
//! and the concatenation equal to the model's range — no entry lost or
//! repeated across any cursor. `limit = 1` on an S4K leaf is the cut-leaf
//! case: a resume key naming the leaf's upper separator would skip the
//! other 250 entries. `range`, the one provided driver of the primitive,
//! must then agree with that loop, whole and cut short by `take`.

use std::ops::Bound;

use proptest::prelude::*;

use optiql::{OptLock, OptiQL};
use optiql_btree::node_size::S4K;
use optiql_btree::BPlusTree;
use optiql_check::{targets, ChaosIndex, Recorder, ThreadRecorder};
use optiql_index_api::model::ModelIndex;
use optiql_index_api::{ConcurrentIndex, RangeItem};
use optiql_sharded::ShardedIndex;

const LIMITS: [usize; 5] = [1, 2, 7, 64, usize::MAX];

fn contract_holds(
    name: &str,
    index: &dyn ConcurrentIndex,
    entries: &[RangeItem],
    from: Option<u64>,
) {
    let model = ModelIndex::new();
    for &(k, v) in entries {
        index.insert(k, v);
        model.insert(k, v);
    }
    let lower = from.map_or(Bound::Unbounded, Bound::Included);
    let want = model.scan_bounds(lower, Bound::Unbounded);
    for limit in LIMITS {
        let mut got: Vec<RangeItem> = Vec::new();
        // Garbage on entry: a chunk replaces `out`, it does not append.
        let mut chunk = want.clone();
        let mut cursor = from;
        loop {
            let resume = index.scan_chunk(cursor, limit, &mut chunk);
            assert!(chunk.len() <= limit, "{name}: chunk over limit {limit}");
            assert!(
                chunk.windows(2).all(|w| w[0].0 < w[1].0),
                "{name}: chunk not ascending (limit {limit})"
            );
            if let (Some(first), Some(c)) = (chunk.first(), cursor) {
                assert!(first.0 >= c, "{name}: chunk starts below its cursor");
            }
            got.append(&mut chunk);
            let Some(resume) = resume else { break };
            if let Some(last) = got.last() {
                assert!(
                    resume > last.0,
                    "{name}: resume key {resume:?} names a delivered key (limit {limit})"
                );
            }
            if let Some(c) = cursor {
                assert!(resume >= c, "{name}: resume key went backwards");
            }
            cursor = Some(resume);
        }
        assert_eq!(got, want, "{name}: chunks at limit {limit} vs model");
    }
    let streamed: Vec<RangeItem> = index.range(lower, Bound::Unbounded).collect();
    assert_eq!(streamed, want, "{name}: range vs chunk loop");
    if let Some(k) = from {
        for limit in [0, 1, 7, 300, usize::MAX] {
            assert_eq!(
                index
                    .range(Bound::Included(k), Bound::Unbounded)
                    .take(limit)
                    .count(),
                want.len().min(limit),
                "{name}: range cut at {limit}"
            );
        }
    }
}

type Wide = BPlusTree<OptLock, OptiQL, { S4K.0 }, { S4K.1 }>;
type Tiny = BPlusTree<OptLock, OptiQL, 4, 4>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every cell of the chaos matrix — all seven index locks on both
    /// trees, both register arrays, the sharded facades — plus the
    /// wrappers the sweep stacks on top of them.
    #[test]
    fn every_chaos_target_meets_the_contract(
        kvs in proptest::collection::vec((0..200u64, any::<u64>()), 0..150),
        from in prop_oneof![1 => Just(None), 4 => (0..220u64).prop_map(Some)],
    ) {
        for t in targets() {
            contract_holds(t.name, &*t.build(), &kvs, from);
        }
        let chaosed = ChaosIndex::new(optiql_art::ArtOptiQL::new());
        contract_holds("chaos(art)", &chaosed, &kvs, from);
        let recorded = ThreadRecorder::new(
            ShardedIndex::<Tiny>::with_block_bits(4, 2),
            Recorder::new(),
            0,
        );
        contract_holds("recorder(sharded)", &recorded, &kvs, from);
    }

    /// Leaves wider than any chunk (S4K holds 255 entries: every finite
    /// `limit` cuts them), alone and behind the sharded facade.
    #[test]
    fn wide_leaves_meet_the_contract(
        ks in proptest::collection::vec(0..1_000u64, 0..700),
        from in prop_oneof![1 => Just(None), 4 => (0..1_050u64).prop_map(Some)],
    ) {
        let kvs: Vec<RangeItem> = ks.iter().map(|&k| (k, k + 1)).collect();
        contract_holds("btree-s4k", &Wide::new(), &kvs, from);
        contract_holds(
            "sharded-btree-s4k",
            &ShardedIndex::<Wide>::with_block_bits(4, 5),
            &kvs,
            from,
        );
    }
}

//! Property-based model checking: the concurrent B+-tree must behave
//! exactly like `std::collections::BTreeMap` under arbitrary single-threaded
//! operation sequences (the concurrency tests cover interleavings; this
//! covers the structural state space — splits, merges, root collapse).

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use optiql_btree::{BTreeMcsRw, BTreeOptLock, BTreeOptiQL, BTreeOptiQLAor, BTreeOptiQLNor};
use optiql_index_api::ConcurrentIndex;

/// The first `n` entries at or above `from`.
fn scan(tree: &impl ConcurrentIndex, from: u64, n: usize) -> Vec<(u64, u64)> {
    tree.range(Bound::Included(from), Bound::Unbounded)
        .take(n)
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Update(u64, u64),
    Remove(u64),
    Lookup(u64),
    Scan(u64, usize),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        (0..key_space).prop_map(Op::Remove),
        (0..key_space).prop_map(Op::Lookup),
        (0..key_space, 0..64usize).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

fn run_model<IL, LL, const IC: usize, const LC: usize>(
    tree: &optiql_btree::BPlusTree<IL, LL, IC, LC>,
    ops: &[Op],
) where
    IL: optiql::IndexLock,
    LL: optiql::IndexLock,
{
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                assert_eq!(tree.insert(k, v), model.insert(k, v), "insert {k}");
            }
            Op::Update(k, v) => {
                let expect = model.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                assert_eq!(tree.update(k, v), expect, "update {k}");
            }
            Op::Remove(k) => {
                assert_eq!(tree.remove(k), model.remove(&k), "remove {k}");
            }
            Op::Lookup(k) => {
                assert_eq!(tree.lookup(k), model.get(&k).copied(), "lookup {k}");
            }
            Op::Scan(k, n) => {
                let got = scan(tree, k, n);
                let expect: Vec<(u64, u64)> =
                    model.range(k..).take(n).map(|(a, b)| (*a, *b)).collect();
                assert_eq!(got, expect, "scan from {k} limit {n}");
            }
        }
    }
    assert_eq!(tree.len(), model.len());
    assert_eq!(tree.check_invariants(), model.len());
}

/// One step of the sorted-batch model run.
#[derive(Debug, Clone)]
enum BatchOp {
    /// `multi_insert` of these pairs, sorted and deduplicated by key.
    Sorted(Vec<(u64, u64)>),
    /// `multi_insert` of `len` keys from `lo` on, `stride` apart: a dense
    /// run (stride 1) or one with gaps an earlier batch may fill.
    Stride { lo: u64, len: u64, stride: u64 },
    /// A remove, whose merge or unlink moves the fences later runs meet.
    Remove(u64),
}

/// Key space of the sorted-batch runs: the prefill covers its middle
/// half, so batches land below, inside and above the existing range.
const BATCH_SPACE: u64 = 1024;

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        prop::collection::vec((0..BATCH_SPACE, any::<u64>()), 0..80).prop_map(BatchOp::Sorted),
        (0..BATCH_SPACE, 1..120u64, 1..4u64).prop_map(|(lo, len, stride)| BatchOp::Stride {
            lo,
            len,
            stride
        }),
        (0..BATCH_SPACE).prop_map(BatchOp::Remove),
    ]
}

/// Prefill the middle half of [`BATCH_SPACE`] (`prefill` picks which
/// keys), then apply `ops`, checking every answer against the model.
fn run_sorted_batches<IL, LL, const IC: usize, const LC: usize>(
    tree: &optiql_btree::BPlusTree<IL, LL, IC, LC>,
    prefill: &[u64],
    ops: &[BatchOp],
) where
    IL: optiql::IndexLock,
    LL: optiql::IndexLock,
{
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for &k in prefill {
        let k = BATCH_SPACE / 4 + k % (BATCH_SPACE / 2);
        assert_eq!(tree.insert(k, k), model.insert(k, k));
    }
    for (step, op) in ops.iter().enumerate() {
        let batch: Vec<(u64, u64)> = match op {
            BatchOp::Sorted(pairs) => {
                let sorted: BTreeMap<u64, u64> = pairs.iter().copied().collect();
                sorted.into_iter().collect()
            }
            &BatchOp::Stride { lo, len, stride } => {
                (0..len).map(|i| (lo + i * stride, step as u64)).collect()
            }
            &BatchOp::Remove(k) => {
                assert_eq!(tree.remove(k), model.remove(&k), "remove {k}");
                continue;
            }
        };
        let want: Vec<Option<u64>> = batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
        assert_eq!(tree.multi_insert(&batch), want, "step {step}: {batch:?}");
    }
    assert_eq!(tree.len(), model.len());
    assert_eq!(tree.check_invariants(), model.len());
    let all: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(scan(tree, 0, usize::MAX), all);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Sorted batches take the run driver (one descent per leaf): each
    // write strategy's arm of `lock_for_write`, on tiny nodes so runs cross many
    // separators, overwrite, split and meet merged leaves.
    #[test]
    fn sorted_batches_match_model_upgrade(
        prefill in prop::collection::vec(any::<u64>(), 0..400),
        ops in prop::collection::vec(batch_op_strategy(), 1..60),
    ) {
        run_sorted_batches(&BTreeOptLock::<4, 4>::new(), &prefill, &ops);
    }

    #[test]
    fn sorted_batches_match_model_direct(
        prefill in prop::collection::vec(any::<u64>(), 0..400),
        ops in prop::collection::vec(batch_op_strategy(), 1..60),
    ) {
        run_sorted_batches(&BTreeOptiQL::<4, 4>::new(), &prefill, &ops);
    }

    #[test]
    fn sorted_batches_match_model_aor(
        prefill in prop::collection::vec(any::<u64>(), 0..400),
        ops in prop::collection::vec(batch_op_strategy(), 1..60),
    ) {
        run_sorted_batches(&BTreeOptiQLAor::<4, 4>::new(), &prefill, &ops);
    }

    #[test]
    fn sorted_batches_match_model_pessimistic(
        prefill in prop::collection::vec(any::<u64>(), 0..400),
        ops in prop::collection::vec(batch_op_strategy(), 1..60),
    ) {
        run_sorted_batches(&BTreeMcsRw::<4, 4>::new(), &prefill, &ops);
    }

    #[test]
    fn sorted_batches_match_model_default_nodes(
        prefill in prop::collection::vec(any::<u64>(), 0..400),
        ops in prop::collection::vec(batch_op_strategy(), 1..60),
    ) {
        run_sorted_batches(&BTreeOptiQL::<16, 15>::new(), &prefill, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Small nodes + small key space maximize SMO coverage.
    #[test]
    fn optlock_matches_model(ops in prop::collection::vec(op_strategy(256), 1..800)) {
        run_model(&BTreeOptLock::<4, 4>::new(), &ops);
    }

    #[test]
    fn optiql_matches_model(ops in prop::collection::vec(op_strategy(256), 1..800)) {
        run_model(&BTreeOptiQL::<4, 4>::new(), &ops);
    }

    #[test]
    fn optiql_nor_matches_model(ops in prop::collection::vec(op_strategy(256), 1..800)) {
        run_model(&BTreeOptiQLNor::<4, 4>::new(), &ops);
    }

    #[test]
    fn wide_keyspace_matches_model(ops in prop::collection::vec(op_strategy(u64::MAX), 1..400)) {
        run_model(&BTreeOptiQL::<6, 6>::new(), &ops);
    }
}

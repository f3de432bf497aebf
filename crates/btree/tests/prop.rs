//! Property-based model checking: the concurrent B+-tree must behave
//! exactly like `std::collections::BTreeMap` under arbitrary single-threaded
//! operation sequences (the concurrency tests cover interleavings; this
//! covers the structural state space — splits, merges, root collapse).

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use optiql_btree::{BTreeOptLock, BTreeOptiQL, BTreeOptiQLNor};
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

//! Differential tests for the streaming `range` iterator: against the
//! `BTreeMap` model when quiescent (property-based, every bound shape),
//! and against invariants — ascending, in-bounds, no stable key lost or
//! duplicated — under concurrent split/collapse churn.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use optiql::{IndexLock, OptLock, OptiQL};
use optiql_btree::BPlusTree;
use optiql_index_api::{key_above_start, key_below_end, ConcurrentIndex};

/// Tiny nodes: every handful of inserts splits, every handful of removes
/// collapses — the structural cases dominate instead of hiding.
type TinyTree = BPlusTree<OptLock, OptiQL, 4, 4>;

fn bound_strategy(key_space: u64) -> impl Strategy<Value = Bound<u64>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        4 => (0..key_space).prop_map(Bound::Included),
        4 => (0..key_space).prop_map(Bound::Excluded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quiescent differential: after an arbitrary population, `range`
    /// must yield exactly what `BTreeMap::range` yields, for every bound
    /// shape including degenerate ones.
    #[test]
    fn range_matches_model_when_quiescent(
        kvs in proptest::collection::vec((0..2_000u64, any::<u64>()), 0..300),
        start in bound_strategy(2_000),
        end in bound_strategy(2_000),
    ) {
        let entries: BTreeMap<u64, u64> = kvs.into_iter().collect();
        let tree = TinyTree::new();
        for (&k, &v) in &entries {
            tree.insert(k, v);
        }
        let got: Vec<(u64, u64)> = tree.range(start, end).collect();
        let want: Vec<(u64, u64)> = entries
            .iter()
            .map(|(&k, &v)| (k, v))
            .filter(|(k, _)| key_above_start(k, &start) && key_below_end(k, &end))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// `range` cut by `take`, its count and a hand-written chunk loop are
    /// three readings of the one primitive: they must agree, whatever
    /// size the loop asks its chunks in.
    #[test]
    fn range_count_and_chunk_loop_agree(
        keys in proptest::collection::vec(0..500u64, 0..120),
        from in 0..500u64,
        limit in 0..64usize,
        chunk_len in 1..9usize,
    ) {
        let tree = TinyTree::new();
        for &k in &keys {
            tree.insert(k, k + 1);
        }
        let streamed: Vec<(u64, u64)> = tree
            .range(Bound::Included(from), Bound::Unbounded)
            .take(limit)
            .collect();
        let mut by_hand = Vec::new();
        let mut chunk = Vec::new();
        let mut cursor = from;
        while by_hand.len() < limit {
            let want = chunk_len.min(limit - by_hand.len());
            let resume = tree.scan_chunk(Some(cursor), want, &mut chunk);
            by_hand.append(&mut chunk);
            match resume {
                Some(k) => cursor = k,
                None => break,
            }
        }
        prop_assert_eq!(&by_hand, &streamed);
        let counted = tree
            .range(Bound::Included(from), Bound::Unbounded)
            .take(limit)
            .count();
        prop_assert_eq!(counted, streamed.len());
    }
}

/// Concurrent churn: writers continuously insert/remove "churn" keys —
/// with 4-wide nodes every cycle splits and collapses leaves — while
/// readers stream ranges. Stable keys must always be yielded exactly
/// once, in order, within bounds.
fn churn_harness<IL: IndexLock, LL: IndexLock>(tree: Arc<BPlusTree<IL, LL, 4, 4>>) {
    const STABLE: u64 = 400;
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    for s in 0..STABLE {
        tree.insert(s * 4, s); // stable keys: multiples of 4
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let t = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0xC0FFEE ^ w as u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let churn = (x % (STABLE * 4)) | 2; // never a multiple of 4
                    if x & 1 << 63 == 0 {
                        t.insert(churn, x);
                    } else {
                        t.remove(churn);
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut x = 0xDECADE ^ r as u64;
                for _ in 0..300 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let lo = x % (STABLE * 4);
                    let hi = lo + x % 512;
                    let got: Vec<(u64, u64)> =
                        t.range(Bound::Included(lo), Bound::Excluded(hi)).collect();
                    for w in got.windows(2) {
                        assert!(w[0].0 < w[1].0, "stream must ascend strictly");
                    }
                    assert!(
                        got.iter().all(|&(k, _)| k >= lo && k < hi),
                        "stream must respect bounds"
                    );
                    let stable: Vec<u64> =
                        got.iter().map(|&(k, _)| k).filter(|k| k % 4 == 0).collect();
                    let want: Vec<u64> = (lo..hi.min(STABLE * 4)).filter(|k| k % 4 == 0).collect();
                    assert_eq!(stable, want, "every stable key in [{lo},{hi}) exactly once");
                }
            })
        })
        .collect();
    for h in readers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    tree.check_invariants();
}

#[test]
fn range_survives_split_collapse_churn_optiql() {
    churn_harness(Arc::new(TinyTree::new()));
}

#[test]
fn range_survives_split_collapse_churn_optlock() {
    churn_harness(Arc::new(BPlusTree::<OptLock, OptLock, 4, 4>::new()));
}

#[test]
fn range_survives_split_collapse_churn_pessimistic() {
    churn_harness(Arc::new(BPlusTree::<
        optiql::McsRwLock,
        optiql::McsRwLock,
        4,
        4,
    >::new()));
}

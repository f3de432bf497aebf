//! Structural-event counter tests: the counters must reflect exactly the
//! SMOs a deterministic single-threaded history triggers.

use optiql::{IndexLock, McsRwLock, OptLock, OptiQL, OptiQLAor};
use optiql_btree::{BPlusTree, BTreeOptLock, BTreeOptiQL, DEFAULT_IC, DEFAULT_LC};

#[test]
fn fresh_tree_has_zero_stats() {
    let t: BTreeOptiQL = BTreeOptiQL::new();
    assert_eq!(t.stats(), Default::default());
}

#[test]
fn single_threaded_restarts_are_exactly_smo_retries() {
    // The restart counter includes the *by-design* restarts after eager
    // inner/root splits (BTreeOLC restarts the descent after an SMO);
    // without contention those are the only restarts possible.
    let t: BTreeOptiQL = BTreeOptiQL::new();
    for k in 0..20_000u64 {
        t.insert(k, k);
    }
    let after_insert = t.stats();
    // Every inner/root split restarts the descent, except the very first
    // root-leaf split which completes its insert in place.
    assert_eq!(
        after_insert.index.restarts,
        after_insert.inner_splits + after_insert.root_splits - 1,
        "uncontended restarts must equal SMO retries: {after_insert:?}"
    );
    assert_eq!(
        after_insert.index.ops, 20_000,
        "one recorded op per public insert"
    );
    // Lookups and updates perform no SMOs: the counter must not move.
    for k in 0..20_000u64 {
        t.lookup(k);
        t.update(k, k + 1);
    }
    assert_eq!(t.stats().index.restarts, after_insert.index.restarts);
    assert_eq!(t.stats().index.ops, 60_000);
}

#[test]
fn splits_are_counted_exactly() {
    // Tiny nodes make the arithmetic easy to pin down: filling one leaf of
    // capacity 4 and inserting once more must split exactly once, growing
    // a root.
    let t: BTreeOptiQL<4, 4> = BTreeOptiQL::new();
    for k in 0..4u64 {
        t.insert(k, k);
    }
    assert_eq!(t.stats().root_splits + t.stats().leaf_splits, 0);
    t.insert(4, 4); // first split: the root leaf
    let s = t.stats();
    assert_eq!(s.root_splits, 1, "root leaf split grows the tree");
    assert_eq!(s.leaf_splits, 0);

    // Keep going: more inserts must produce ordinary leaf splits.
    for k in 5..200u64 {
        t.insert(k, k);
    }
    let s = t.stats();
    assert!(s.leaf_splits > 0, "leaf splits expected");
    assert!(s.inner_splits > 0, "inner splits expected for 200 keys");
    assert_eq!(t.check_invariants(), 200);
}

#[test]
fn deletes_count_unlinks_merges_and_collapses() {
    let t: BTreeOptiQL<4, 4> = BTreeOptiQL::new();
    for k in 0..500u64 {
        t.insert(k, k);
    }
    for k in 0..500u64 {
        t.remove(k);
    }
    let s = t.stats();
    assert!(
        s.leaf_merges + s.leaf_unlinks > 0,
        "draining the tree must shrink it: {s:?}"
    );
    t.check_invariants();
}

#[test]
fn contended_upgrades_restart_on_optlock() {
    // Two threads updating one hot key through the upgrade path must
    // produce at least one restart eventually (CAS failures), while the
    // total op count stays exact.
    use std::sync::Arc;
    let t: Arc<BTreeOptLock> = Arc::new(BTreeOptLock::new());
    t.insert(0, 0);
    let hs: Vec<_> = (0..4)
        .map(|_| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    t.update(0, i);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    // Restart counts are probabilistic: on a many-core host the CAS race
    // guarantees failures; on a single-CPU host conflicts only arise at
    // preemption points and may round to zero. Assert consistency rather
    // than a lower bound, plus exact end-state correctness.
    let s = t.stats();
    assert_eq!(
        s.leaf_splits + s.inner_splits + s.root_splits,
        0,
        "updates never split"
    );
    assert!(t.lookup(0).is_some());
    assert_eq!(t.len(), 1);
}

/// An insert of a key that is already there is an update: it must not
/// split the full leaf it finds (at the parent of PR 24 it did, before
/// asking whether the key existed — a parent x-lock, an allocation and a
/// half-empty sibling per overwrite, and dense leaves would have drifted
/// back to half-full under pure SETs).
fn overwrites_split_nothing<IL: IndexLock, LL: IndexLock>() {
    // One full root leaf, then a loaded tree: an ascending load leaves
    // every leaf full, the last one too when `n` is a multiple of the
    // leaf capacity.
    for n in [DEFAULT_LC as u64, 2_000 * DEFAULT_LC as u64] {
        let t: BPlusTree<IL, LL, DEFAULT_IC, DEFAULT_LC> = BPlusTree::new();
        for k in 0..n {
            t.insert(2 * k, k);
        }
        let (loaded, len) = (t.stats(), t.len());
        let leaves = loaded.leaf_splits as usize + 1 + loaded.root_splits.min(1) as usize;
        assert_eq!(len, leaves * DEFAULT_LC, "leaves not full");
        for k in 0..n {
            assert_eq!(t.insert(2 * k, k + 1), Some(k), "insert over {k}");
        }
        let pairs: Vec<(u64, u64)> = (0..n).map(|k| (2 * k, k + 2)).collect();
        for batch in pairs.chunks(64) {
            let old = t.multi_insert(batch);
            let want: Vec<_> = batch.iter().map(|&(_, v)| Some(v - 1)).collect();
            assert_eq!(old, want, "multi_insert over {:?}", batch[0]);
        }
        let s = t.stats();
        assert_eq!(
            (s.leaf_splits, s.inner_splits, s.root_splits),
            (loaded.leaf_splits, loaded.inner_splits, loaded.root_splits),
            "{n} keys: an overwrite split a node"
        );
        assert_eq!(t.len(), len);
        assert_eq!(t.check_invariants(), len);
    }
}

#[test]
fn overwriting_every_key_of_a_full_tree_splits_nothing() {
    overwrites_split_nothing::<OptLock, OptiQL>(); // lock, then search
    overwrites_split_nothing::<OptLock, OptLock>(); // search, then upgrade
    overwrites_split_nothing::<OptLock, OptiQLAor>(); // search while admitting readers
    overwrites_split_nothing::<McsRwLock, McsRwLock>(); // lock coupling
}

mod replay {
    //! The counters under real concurrency: four threads run mixed scalar
    //! and batched operations, then every count must equal what the same
    //! operations leave behind when the threads run one after another.
    //!
    //! That is only well defined if the SMOs do not depend on the
    //! interleaving, so each thread does its inserts, updates and removes
    //! on a tree of its own (a tree's structural history is then one
    //! thread's program order) while its reads go to any of the four —
    //! every tree's `ops` lane takes adds from all threads. In `shared`
    //! all four insert and remove keys of their own residue class, which
    //! puts the `size` lane's +1s and −1s on different stripes; there the
    //! final entry count and `ops` are order-independent, the SMOs are not.

    use optiql_btree::{BTreeOptiQL, TreeStats};
    use std::sync::Barrier;

    const THREADS: usize = 4;
    const OPS: u64 = 50_000;
    const KEYS: u64 = 4096;
    type Tree = BTreeOptiQL<8, 8>;

    fn mix(t: usize, i: u64) -> u64 {
        let mut z = ((t as u64) << 32 | i).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Operation `i` of thread `t`. The first half of a stream grows the
    /// thread's tree, the second half drains it, so splits, merges and
    /// unlinks all happen.
    fn apply(own: &[Tree], shared: &Tree, t: usize, i: u64) {
        let r = mix(t, i);
        let (k, v) = ((r >> 8) % KEYS, r >> 24);
        let any = &own[(r >> 40) as usize % THREADS];
        let grow = i < OPS / 2;
        let batch: [u64; 4] = std::array::from_fn(|j| (k + 97 * j as u64) % KEYS);
        match (r % 8, grow) {
            (0 | 1, true) | (2, false) => {
                own[t].insert(k, v);
            }
            (0 | 1, false) | (2, true) => {
                own[t].remove(k);
            }
            (3, _) => {
                own[t].update(k, v);
            }
            (4, _) => {
                any.lookup(k);
            }
            (5, _) => {
                any.multi_lookup(&batch);
            }
            (6, true) => {
                own[t].multi_insert(&batch.map(|k| (k, v)));
            }
            (6, false) => {
                for k in batch {
                    own[t].remove(k);
                }
            }
            _ => {
                let mine = k * THREADS as u64 + t as u64;
                if r & (1 << 50) == 0 {
                    shared.insert(mine, v);
                } else {
                    shared.remove(mine);
                }
            }
        }
    }

    fn run(parallel: bool) -> (Vec<Tree>, Tree) {
        let own: Vec<Tree> = (0..THREADS).map(|_| Tree::new()).collect();
        let shared = Tree::new();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (own, shared, start) = (&own, &shared, &start);
                let h = s.spawn(move || {
                    if parallel {
                        start.wait();
                    }
                    (0..OPS).for_each(|i| apply(own, shared, t, i));
                });
                if !parallel {
                    h.join().expect("replay thread");
                }
            }
        });
        (own, shared)
    }

    /// Restarts and escalations are what contention adds; everything else
    /// must not depend on it.
    fn settled(mut s: TreeStats) -> TreeStats {
        s.index.restarts = 0;
        s.index.escalations = 0;
        s
    }

    #[test]
    fn four_threads_count_exactly_what_their_replay_counts() {
        let (own, shared) = run(true);
        let (own_replay, shared_replay) = run(false);
        for (t, (a, b)) in own.iter().zip(&own_replay).enumerate() {
            let s = settled(a.stats());
            assert_eq!(s, settled(b.stats()), "tree {t}");
            assert_eq!(a.len(), b.len(), "tree {t}");
            assert_eq!(a.check_invariants(), a.len(), "tree {t}");
            assert!(
                s.inner_splits > 0 && s.leaf_merges > 0 && s.leaf_unlinks > 0,
                "tree {t} saw too little to compare: {s:?}"
            );
        }
        assert_eq!(shared.index_stats().ops, shared_replay.index_stats().ops);
        assert_eq!(shared.len(), shared_replay.len());
        assert_eq!(shared.check_invariants(), shared.len());
        assert!(!shared.is_empty());
    }
}

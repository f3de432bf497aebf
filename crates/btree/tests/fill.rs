//! Shape tests: how full the nodes are that a load leaves behind. A full
//! node splits where the pending insert landed (DESIGN §5.1, *Split
//! point*), so an ascending stream fills its leaves; nothing else in the
//! suite notices when that stops being true — a half-empty tree answers
//! every query correctly.
//!
//! Fill is read off what the tree already reports: a tree that never
//! removed has one leaf per leaf split, plus the one it started with,
//! plus the root leaf's own split (counted as the first root split), so
//! `fill = len / (leaves × LC)`. The bounds were written down before the
//! split changed (ISSUE 24); the parent commit's value is beside each.

use optiql::{IndexLock, OptLock, OptiQL};
use optiql_btree::{BPlusTree, BTreeOptiQL, DEFAULT_IC, DEFAULT_LC};

const N: u64 = 200_000;

/// `(leaves, inner nodes)` of a tree that only ever grew. A root split
/// makes a new root, and — except the first, which split the root
/// *leaf* — an inner sibling beside the old one.
fn nodes<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
    t: &BPlusTree<IL, LL, IC, LC>,
) -> (u64, u64) {
    let s = t.stats();
    assert_eq!(s.leaf_merges + s.leaf_unlinks, 0, "load-only trees only");
    assert!(s.root_splits > 0, "the load must outgrow one leaf");
    (s.leaf_splits + 2, s.inner_splits + 2 * s.root_splits - 1)
}

/// Entries per leaf slot.
fn fill<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
    t: &BPlusTree<IL, LL, IC, LC>,
) -> f64 {
    let (leaves, _) = nodes(t);
    t.len() as f64 / (leaves * LC as u64) as f64
}

/// Entries of every leaf, left to right: one `scan_chunk` per leaf, each
/// resuming at the separator the one before returned, which a load-only
/// tree keeps equal to the next leaf's smallest key.
fn leaf_sizes<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
    t: &BPlusTree<IL, LL, IC, LC>,
) -> Vec<usize> {
    let (mut sizes, mut out, mut from) = (Vec::new(), Vec::new(), None);
    loop {
        let next = t.scan_chunk(from, usize::MAX, &mut out);
        sizes.push(out.len());
        match next {
            Some(k) => from = Some(k),
            None => return sizes,
        }
    }
}

/// Every leaf but the last holds exactly `LC` entries.
fn assert_full_but_the_last<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
    t: &BPlusTree<IL, LL, IC, LC>,
) {
    let sizes = leaf_sizes(t);
    assert_eq!(sizes.iter().sum::<usize>(), t.len());
    let (last, rest) = sizes.split_last().expect("a tree has a leaf");
    assert!((1..=LC).contains(last), "last leaf {last}");
    if let Some(i) = rest.iter().position(|&n| n != LC) {
        panic!("leaf {i} of {} holds {} of {LC}", sizes.len(), rest[i]);
    }
}

/// Children per inner child slot (every node but the root is a child).
fn inner_fill<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
    t: &BPlusTree<IL, LL, IC, LC>,
) -> f64 {
    let (leaves, inner) = nodes(t);
    (leaves + inner - 1) as f64 / (inner * IC as u64) as f64
}

/// A bijection on `u64` (splitmix64's finalizer): distinct inputs give
/// distinct, uniformly spread keys, the same on every run.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn ascending_load_leaves_full_leaves() {
    // Every leaf 15 of 15: a key behind a full leaf's last entry starts an
    // empty right leaf (fill 0.93 when the split moved the last entry
    // along, 0.47 when it cut in half).
    let t: BTreeOptiQL = BTreeOptiQL::new();
    for k in 0..N {
        assert_eq!(t.insert(k, k), None);
    }
    assert_eq!(t.check_invariants(), N as usize);
    assert_full_but_the_last(&t);
    let f = fill(&t);
    assert!(f >= 0.99, "ascending fill {f:.3}");
    // Inner nodes keep 14 of 16 children (parent: 8 — fill 0.50, six
    // levels): the same keys now sit under five.
    let fi = inner_fill(&t);
    assert!(fi >= 0.85, "ascending inner fill {fi:.3}");
    assert_eq!(t.stats().root_splits, 4, "{:?}", t.stats());
}

#[test]
fn ascending_load_through_multi_insert_leaves_full_leaves() {
    // The batched driver hands every full inner node to the scalar one and
    // splits leaves through the same `split_leaf_insert`: same shape.
    let t: BTreeOptiQL = BTreeOptiQL::new();
    let keys: Vec<(u64, u64)> = (0..N).map(|k| (k, k)).collect();
    for batch in keys.chunks(64) {
        assert!(t.multi_insert(batch).iter().all(Option::is_none));
    }
    assert_eq!(t.check_invariants(), N as usize);
    assert_full_but_the_last(&t);
    let f = fill(&t);
    assert!(f >= 0.99, "batched ascending fill {f:.3}");
}

/// Load `0..n` ascending into a fresh tree, through the scalar loop or
/// through `multi_insert` in chunks of `batch`; the tree's split counters
/// `(leaf, inner, root)`.
fn ascending_splits<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
    n: u64,
    batch: Option<usize>,
) -> (u64, u64, u64) {
    let t = BPlusTree::<IL, LL, IC, LC>::new();
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k, k + 1)).collect();
    match batch {
        None => pairs
            .iter()
            .for_each(|&(k, v)| assert_eq!(t.insert(k, v), None)),
        Some(b) => pairs
            .chunks(b)
            .for_each(|c| assert!(t.multi_insert(c).iter().all(Option::is_none))),
    }
    assert_eq!(t.check_invariants(), n as usize);
    assert_eq!(t.len(), n as usize);
    for k in [0, n / 2, n.saturating_sub(1), n] {
        assert_eq!(t.lookup(k), (k < n).then_some(k + 1), "key {k}");
    }
    let s = t.stats();
    (s.leaf_splits, s.inner_splits, s.root_splits)
}

/// Every load size at the edges of one leaf, and a large one, leaves the
/// same splits through `multi_insert` (one descent per leaf) as through
/// the scalar loop (one descent per key).
fn runs_split_like_the_loop<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>() {
    let lc = LC as u64;
    for n in [1, lc - 1, lc, lc + 1, N] {
        let scalar = ascending_splits::<IL, LL, IC, LC>(n, None);
        for batch in [2, 64, 256] {
            let runs = ascending_splits::<IL, LL, IC, LC>(n, Some(batch));
            assert_eq!(
                runs, scalar,
                "n={n} batch={batch}: (leaf, inner, root) splits"
            );
        }
    }
}

#[test]
fn ascending_multi_insert_splits_exactly_like_the_insert_loop() {
    runs_split_like_the_loop::<OptLock, OptiQL, DEFAULT_IC, DEFAULT_LC>();
    runs_split_like_the_loop::<OptLock, OptiQL, 4, 4>();
}

#[test]
fn interleaved_ascending_streams_are_no_worse_than_split_in_half() {
    // The shape of the harness's insert traffic (`workload.rs`: each
    // thread appends to its own ascending stream somewhere in the key
    // space). ISSUE 24 named 0.85 here; the rule it specifies cannot reach
    // it. Only the topmost stream ever lands behind a leaf's last entry:
    // the leaf holding any other stream's tail also holds the first keys
    // of the stream above it (they started in one leaf), a split in half
    // hands those to the right leaf together with the tail, and the
    // number of tail keys in that leaf is the same after every split. So
    // three streams keep the parent's 7 of 15 and one gets 15 of 15
    // (parent: 0.467 overall). Cutting at the insert position anywhere in
    // the upper half would free them (0.93 here) and costs random loads a
    // seventh of their fill (0.70 -> 0.60); EXPERIMENTS *Dense nodes* has
    // both measurements, DESIGN *Split point* the decision.
    let t: BTreeOptiQL = BTreeOptiQL::new();
    let streams = 4;
    for i in 0..N / streams {
        for s in 0..streams {
            t.insert(s * (u64::MAX / 1024) + i, i);
        }
    }
    assert_eq!(t.check_invariants(), N as usize);
    let f = fill(&t);
    assert!(f >= 0.53, "interleaved ascending fill {f:.3}");
}

#[test]
fn descending_load_is_no_worse_than_split_in_half() {
    // No mirror rule is needed: a descending key lands at position 0,
    // which only ever happens in the leftmost leaf; it splits in half and
    // leaves 8 of 15 behind on its right, as the parent did (0.533).
    let t: BTreeOptiQL = BTreeOptiQL::new();
    for k in (0..N).rev() {
        t.insert(k, k);
    }
    assert_eq!(t.check_invariants(), N as usize);
    let f = fill(&t);
    assert!(f >= 0.53, "descending fill {f:.3}");
}

#[test]
fn uniform_random_load_pays_at_most_a_few_points_of_fill() {
    // The price of the general rule, pinned: one random insert in 16
    // lands behind a full leaf's last entry and splits it lopsidedly.
    // Parent: 0.70 on these seeds.
    for seed in [1u64, 2, 3] {
        let t: BTreeOptiQL = BTreeOptiQL::new();
        for i in 0..N {
            t.insert(mix(i ^ (seed << 48)), i);
        }
        assert_eq!(t.check_invariants(), N as usize);
        let f = fill(&t);
        assert!(f >= 0.66, "seed {seed}: random fill {f:.3}");
    }
}

#[test]
fn tiny_nodes_walk_the_edges_of_both_cuts() {
    // Capacity 4: a full leaf has 4 entries (keeps all 4, the right leaf
    // starts with the pending key), a full inner node 3 separators (`n -
    // 2` and `n / 2` coincide at 1: the right node still gets a
    // separator and two children).
    type Tiny = BPlusTree<OptLock, OptiQL, 4, 4>;
    let asc = Tiny::new();
    for k in 0..5_000u64 {
        asc.insert(k, k + 1);
    }
    assert_eq!(asc.check_invariants(), 5_000);
    assert_full_but_the_last(&asc);
    let rnd = Tiny::new();
    for i in 0..5_000u64 {
        rnd.insert(mix(i), i + 1);
    }
    assert_eq!(rnd.check_invariants(), 5_000);
    for i in 0..5_000u64 {
        assert_eq!(asc.lookup(i), Some(i + 1));
        assert_eq!(rnd.lookup(mix(i)), Some(i + 1));
    }
    // The smallest legal capacities: the inner cut degenerates to "in
    // half", and a leaf keeps both its entries.
    let min: BPlusTree<OptLock, OptLock, 4, 2> = BPlusTree::new();
    for k in 0..2_000u64 {
        min.insert(k, k);
    }
    assert_eq!(min.check_invariants(), 2_000);
    assert_full_but_the_last(&min);
}

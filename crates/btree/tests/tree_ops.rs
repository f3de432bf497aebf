//! Functional tests for every B+-tree lock configuration.

use std::ops::Bound;

use optiql_btree::{
    BTreeMcsRw, BTreeOptLock, BTreeOptiQL, BTreeOptiQLAor, BTreeOptiQLNor, BTreePthread,
};

macro_rules! for_each_config {
    ($name:ident, $body:expr) => {
        mod $name {
            use super::*;
            #[test]
            fn optlock() {
                $body(&BTreeOptLock::<15, 15>::new());
            }
            #[test]
            fn optiql() {
                $body(&BTreeOptiQL::<15, 15>::new());
            }
            #[test]
            fn optiql_nor() {
                $body(&BTreeOptiQLNor::<15, 15>::new());
            }
            #[test]
            fn optiql_aor() {
                $body(&BTreeOptiQLAor::<15, 15>::new());
            }
            #[test]
            fn mcs_rw() {
                $body(&BTreeMcsRw::<15, 15>::new());
            }
            #[test]
            fn pthread() {
                $body(&BTreePthread::<15, 15>::new());
            }
        }
    };
}

fn basic_crud<T: TreeOps>(t: &T) {
    assert!(t.is_empty());
    assert_eq!(t.lookup(1), None);
    assert_eq!(t.insert(1, 10), None);
    assert_eq!(t.insert(2, 20), None);
    assert_eq!(t.lookup(1), Some(10));
    assert_eq!(t.lookup(2), Some(20));
    assert_eq!(t.lookup(3), None);
    assert_eq!(t.update(1, 11), Some(10));
    assert_eq!(t.update(3, 30), None);
    assert_eq!(t.lookup(1), Some(11));
    assert_eq!(t.insert(2, 21), Some(20), "insert overwrites");
    assert_eq!(t.remove(2), Some(21));
    assert_eq!(t.remove(2), None);
    assert_eq!(t.len(), 1);
    t.check();
}

fn bulk_ascending<T: TreeOps>(t: &T) {
    const N: u64 = 20_000;
    for k in 0..N {
        assert_eq!(t.insert(k, k * 2), None);
    }
    assert_eq!(t.len(), N as usize);
    assert_eq!(t.check(), N as usize);
    for k in 0..N {
        assert_eq!(t.lookup(k), Some(k * 2), "key {k}");
    }
    assert_eq!(t.lookup(N), None);
}

fn bulk_descending_and_random<T: TreeOps>(t: &T) {
    use rand::seq::SliceRandom;
    const N: u64 = 10_000;
    for k in (0..N).rev() {
        t.insert(k, k);
    }
    assert_eq!(t.check(), N as usize);
    let mut keys: Vec<u64> = (0..N).collect();
    keys.shuffle(&mut rand::rng());
    for k in keys.iter().take(5_000) {
        assert_eq!(t.remove(*k), Some(*k));
    }
    assert_eq!(t.len(), (N as usize) - 5_000);
    t.check();
    for k in keys.iter().take(5_000) {
        assert_eq!(t.lookup(*k), None);
    }
    for k in keys.iter().skip(5_000) {
        assert_eq!(t.lookup(*k), Some(*k));
    }
}

fn delete_everything<T: TreeOps>(t: &T) {
    const N: u64 = 5_000;
    for k in 0..N {
        t.insert(k, k);
    }
    for k in 0..N {
        assert_eq!(t.remove(k), Some(k), "key {k}");
    }
    assert_eq!(t.len(), 0);
    for k in 0..N {
        assert_eq!(t.lookup(k), None);
    }
    t.check();
    // Tree must be fully reusable after total deletion.
    for k in 0..100 {
        assert_eq!(t.insert(k, k + 1), None);
    }
    assert_eq!(t.check(), 100);
}

fn scan_ranges<T: TreeOps>(t: &T) {
    for k in (0..1000u64).map(|i| i * 2) {
        t.insert(k, k + 1);
    }
    // Full scan.
    let all = t.scan(0, usize::MAX);
    assert_eq!(all.len(), 1000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending order");
    // Mid-range scan starting between keys.
    let part = t.scan(501, 10);
    assert_eq!(part.len(), 10);
    assert_eq!(part[0].0, 502);
    assert_eq!(part[9].0, 520);
    assert!(part.iter().all(|&(k, v)| v == k + 1));
    // Scan past the end.
    assert!(t.scan(5_000, 10).is_empty());
    // Limit zero.
    assert!(t.scan(0, 0).is_empty());
}

fn sparse_keys<T: TreeOps>(t: &T) {
    // Large gaps + extremes exercise separator logic.
    let keys = [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 1];
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.insert(*k, i as u64), None);
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.lookup(*k), Some(i as u64));
    }
    t.check();
}

for_each_config!(crud, basic_crud);
for_each_config!(ascending, bulk_ascending);
for_each_config!(mixed, bulk_descending_and_random);
for_each_config!(drain, delete_everything);
for_each_config!(scans, scan_ranges);
for_each_config!(sparse, sparse_keys);

/// Object-safe-ish adapter so the test bodies stay generic.
trait TreeOps {
    fn insert(&self, k: u64, v: u64) -> Option<u64>;
    fn update(&self, k: u64, v: u64) -> Option<u64>;
    fn lookup(&self, k: u64) -> Option<u64>;
    fn remove(&self, k: u64) -> Option<u64>;
    fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool;
    fn check(&self) -> usize;
}

impl<IL, LL, const IC: usize, const LC: usize> TreeOps for optiql_btree::BPlusTree<IL, LL, IC, LC>
where
    IL: optiql::IndexLock,
    LL: optiql::IndexLock,
{
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        optiql_btree::BPlusTree::insert(self, k, v)
    }
    fn update(&self, k: u64, v: u64) -> Option<u64> {
        optiql_btree::BPlusTree::update(self, k, v)
    }
    fn lookup(&self, k: u64) -> Option<u64> {
        optiql_btree::BPlusTree::lookup(self, k)
    }
    fn remove(&self, k: u64) -> Option<u64> {
        optiql_btree::BPlusTree::remove(self, k)
    }
    fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)> {
        use optiql_index_api::ConcurrentIndex;
        self.range(Bound::Included(from), Bound::Unbounded)
            .take(limit)
            .collect()
    }
    fn len(&self) -> usize {
        optiql_btree::BPlusTree::len(self)
    }
    fn is_empty(&self) -> bool {
        optiql_btree::BPlusTree::is_empty(self)
    }
    fn check(&self) -> usize {
        self.check_invariants()
    }
}

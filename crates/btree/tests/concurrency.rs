//! Multi-threaded stress tests: these run the actual paper scenarios
//! (contended updates, mixed read/write, inserts with SMOs) and verify
//! exact post-conditions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optiql_btree::{BTreeMcsRw, BTreeOptLock, BTreeOptiQL, BTreeOptiQLAor, BTreeOptiQLNor};

const THREADS: usize = 4;

/// Concurrent disjoint inserts: every thread owns a key stripe; the final
/// tree must contain exactly the union.
fn disjoint_inserts<T>(tree: Arc<T>)
where
    T: Tree + Send + Sync + 'static,
{
    const PER: u64 = 4_000;
    let hs: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                for i in 0..PER {
                    let k = i * THREADS as u64 + tid;
                    assert_eq!(t.insert(k, k + 1), None);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(tree.len(), THREADS * PER as usize);
    assert_eq!(tree.check(), THREADS * PER as usize);
    for k in 0..(THREADS as u64 * PER) {
        assert_eq!(tree.lookup(k), Some(k + 1), "key {k}");
    }
}

/// Contended updates on a tiny hot set: sum of observed old values must
/// telescope (every update sees the previous one).
fn contended_update_chain<T>(tree: Arc<T>)
where
    T: Tree + Send + Sync + 'static,
{
    const HOT: u64 = 4;
    const PER: u64 = 3_000;
    for k in 0..HOT {
        tree.insert(k, 0);
    }
    let hs: Vec<_> = (0..THREADS)
        .map(|_| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                for i in 0..PER {
                    let k = i % HOT;
                    // Atomic read-modify-write through the index API is not
                    // provided; instead every thread overwrites with a
                    // unique stamp and we only require updates never lose
                    // the key.
                    assert!(t.update(k, i).is_some(), "update lost key {k}");
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(tree.len(), HOT as usize);
    for k in 0..HOT {
        assert!(tree.lookup(k).is_some());
    }
    // Includes: no update left a node locked.
    assert_eq!(tree.check(), HOT as usize);
}

/// Readers run against concurrent inserts and must only ever observe
/// fully-inserted entries (value == key + 1, never torn).
fn read_while_inserting<T>(tree: Arc<T>)
where
    T: Tree + Send + Sync + 'static,
{
    const N: u64 = 8_000;
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let t = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for k in 0..N {
                t.insert(k, k + 1);
            }
            stop.store(true, Ordering::Release);
        })
    };
    let readers: Vec<_> = (0..THREADS - 1)
        .map(|seed| {
            let t = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = seed as u64 + 1;
                let mut seen = 0u64;
                let mut probes = 0u64;
                // Probe a minimum amount even if the writer wins the race
                // outright (single-CPU hosts serialize the threads).
                while !stop.load(Ordering::Acquire) || probes < 4_000 {
                    probes += 1;
                    // xorshift for cheap pseudo-random probing
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % N;
                    if let Some(v) = t.lookup(k) {
                        assert_eq!(v, k + 1, "torn or misplaced value for {k}");
                        seen += 1;
                    }
                }
                seen
            })
        })
        .collect();
    writer.join().unwrap();
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "readers made no progress");
    assert_eq!(tree.check(), N as usize);
}

/// Mixed insert/remove churn with per-thread key ownership; exact final
/// membership is verified.
fn insert_remove_churn<T>(tree: Arc<T>)
where
    T: Tree + Send + Sync + 'static,
{
    const PER: u64 = 2_000;
    let hs: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                // Each thread inserts its stripe, removes the even half,
                // reinserts a quarter.
                let key = |i: u64| i * THREADS as u64 + tid;
                for i in 0..PER {
                    assert_eq!(t.insert(key(i), i), None);
                }
                for i in (0..PER).step_by(2) {
                    assert_eq!(t.remove(key(i)), Some(i));
                }
                for i in (0..PER).step_by(4) {
                    assert_eq!(t.insert(key(i), i + 100), None);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let expected_per_thread = PER / 2 + PER / 4;
    assert_eq!(tree.len(), (expected_per_thread * THREADS as u64) as usize);
    tree.check();
    for tid in 0..THREADS as u64 {
        let key = |i: u64| i * THREADS as u64 + tid;
        for i in 0..PER {
            let expect = match i % 4 {
                0 => Some(i + 100),
                2 => None,
                _ => Some(i),
            };
            assert_eq!(tree.lookup(key(i)), expect, "thread {tid} key index {i}");
        }
    }
}

/// Sorted `multi_insert` runs (one descent per leaf) race removes, whose
/// merges and unlinks move the fences a run carries, plus updates and
/// scans. Keys by `k % 4`, one thread each: classes 0 (batches
/// bottom-up) and 1 (top-down) are loaded by runs and removed again,
/// class 2 is removed and re-inserted one key at a time, for `ROUNDS`
/// rounds, each ending loaded; class 3 lives in the lower half only, so
/// upper leaves empty out, and is updated and scanned. Exact contents at
/// the end.
fn sorted_runs_race_removes<T>(tree: Arc<T>)
where
    T: Tree + Send + Sync + 'static,
{
    const N: u64 = 8_000;
    const ROUNDS: u64 = 4;
    let class = |c: u64| (0..N).filter(move |k| k % 4 == c);
    for k in class(2).chain(class(3).filter(|&k| k < N / 2)) {
        assert_eq!(tree.insert(k, k), None);
    }
    let runs: Vec<_> = (0..2u64)
        .map(|c| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                let keys: Vec<u64> = class(c).collect();
                let mut batches: Vec<&[u64]> = keys.chunks(64).collect();
                if c == 1 {
                    batches.reverse();
                }
                for round in 0..ROUNDS {
                    for b in &batches {
                        let pairs: Vec<(u64, u64)> = b.iter().map(|&k| (k, k + 1)).collect();
                        assert!(t.multi_insert(&pairs).iter().all(Option::is_none));
                    }
                    if round + 1 < ROUNDS {
                        for &k in &keys {
                            assert_eq!(t.remove(k), Some(k + 1), "remove {k}");
                        }
                    }
                }
            })
        })
        .collect();
    let churn = {
        let t = Arc::clone(&tree);
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                for k in class(2) {
                    assert_eq!(t.remove(k), Some(k), "remove {k}");
                }
                for k in class(2) {
                    assert_eq!(t.insert(k, k), None, "insert {k}");
                }
            }
        })
    };
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (t, stop) = (Arc::clone(&tree), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Acquire) || rounds == 0 {
                for k in (3..N / 2).step_by(4 * 13) {
                    let old = t.update(k, k + 2);
                    assert!(old == Some(k) || old == Some(k + 2), "update {k}: {old:?}");
                }
                let from = (rounds * 997) % N;
                let got = t.scan(from, 200);
                assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "scan from {from}");
                for (k, v) in got {
                    let ok = match k % 4 {
                        0 | 1 => v == k + 1,
                        2 => v == k,
                        _ => k < N / 2 && (v == k || v == k + 2),
                    };
                    assert!(ok && k >= from, "scan from {from}: ({k}, {v})");
                }
                rounds += 1;
            }
        })
    };
    for h in runs.into_iter().chain([churn]) {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    reader.join().unwrap();
    let live = 3 * (N / 4) + N / 8;
    assert_eq!(tree.len(), live as usize);
    assert_eq!(tree.check(), live as usize);
    for k in 0..N {
        let got = tree.lookup(k);
        let ok = match k % 4 {
            0 | 1 => got == Some(k + 1),
            2 => got == Some(k),
            _ if k >= N / 2 => got.is_none(),
            _ => got == Some(k) || got == Some(k + 2),
        };
        assert!(ok, "key {k}: {got:?}");
    }
}

macro_rules! stress {
    ($name:ident, $body:ident) => {
        mod $name {
            use super::*;
            #[test]
            fn optlock() {
                $body(Arc::new(BTreeOptLock::<15, 15>::new()));
            }
            #[test]
            fn optiql() {
                $body(Arc::new(BTreeOptiQL::<15, 15>::new()));
            }
            #[test]
            fn optiql_nor() {
                $body(Arc::new(BTreeOptiQLNor::<15, 15>::new()));
            }
            #[test]
            fn optiql_aor() {
                $body(Arc::new(BTreeOptiQLAor::<15, 15>::new()));
            }
            #[test]
            fn mcs_rw() {
                $body(Arc::new(BTreeMcsRw::<15, 15>::new()));
            }
        }
    };
}

stress!(disjoint, disjoint_inserts);
stress!(hotset, contended_update_chain);
stress!(read_write, read_while_inserting);
stress!(churn, insert_remove_churn);
stress!(sorted_runs, sorted_runs_race_removes);

trait Tree {
    fn insert(&self, k: u64, v: u64) -> Option<u64>;
    fn update(&self, k: u64, v: u64) -> Option<u64>;
    fn lookup(&self, k: u64) -> Option<u64>;
    fn remove(&self, k: u64) -> Option<u64>;
    fn len(&self) -> usize;
    fn check(&self) -> usize;
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>>;
    fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)>;
}

impl<IL, LL, const IC: usize, const LC: usize> Tree for optiql_btree::BPlusTree<IL, LL, IC, LC>
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
    fn len(&self) -> usize {
        optiql_btree::BPlusTree::len(self)
    }
    fn check(&self) -> usize {
        self.check_invariants()
    }
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        optiql_btree::BPlusTree::multi_insert(self, pairs)
    }
    fn scan(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
        use optiql_index_api::ConcurrentIndex;
        self.range(std::ops::Bound::Included(from), std::ops::Bound::Unbounded)
            .take(n)
            .collect()
    }
}

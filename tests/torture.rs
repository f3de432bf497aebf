//! Torture tests: tiny nodes + concurrent writers maximize the frequency of
//! structural modifications racing with traversals — split cascades, root
//! growth, merges and collapses all fire constantly. Post-conditions are
//! exact.

use std::ops::Bound;
use std::sync::Arc;

use optiql_btree::BPlusTree;
use optiql_index_api::ConcurrentIndex;

type TinyOptiQL = BPlusTree<optiql::OptLock, optiql::OptiQL, 4, 4>;
type TinyOptLock = BPlusTree<optiql::OptLock, optiql::OptLock, 4, 4>;
type TinyMcsRw = BPlusTree<optiql::McsRwLock, optiql::McsRwLock, 4, 4>;

/// Scale writer counts with the machine, bounded both ways: at least 4
/// so single-core CI still forces real interleaving through preemption,
/// at most 16 so wide boxes don't turn exact post-condition sweeps into
/// a minutes-long run.
fn torture_threads() -> u64 {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get() as u64)
        .clamp(4, 16)
}

fn smo_storm<IL, LL>(tree: Arc<BPlusTree<IL, LL, 4, 4>>)
where
    IL: optiql::IndexLock,
    LL: optiql::IndexLock,
{
    let threads: u64 = torture_threads();
    const PER: u64 = 3_000;
    let hs: Vec<_> = (0..threads)
        .map(|tid| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                // Interleaved key stripes force adjacent-leaf contention.
                let key = |i: u64| i * threads + tid;
                for i in 0..PER {
                    assert_eq!(t.insert(key(i), i), None);
                    // Immediately read back through a fresh traversal.
                    assert_eq!(t.lookup(key(i)), Some(i));
                }
                // Delete the lower half (drives merges/unlinks), then
                // reinsert a quarter (drives fresh splits into merged
                // space).
                for i in 0..PER / 2 {
                    assert_eq!(t.remove(key(i)), Some(i));
                }
                for i in 0..PER / 4 {
                    assert_eq!(t.insert(key(i), i + 1), None);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let expected = (PER / 2 + PER / 4) * threads;
    assert_eq!(tree.len(), expected as usize);
    assert_eq!(tree.check_invariants(), expected as usize);
    // Exact membership.
    for tid in 0..threads {
        let key = |i: u64| i * threads + tid;
        for i in 0..PER {
            let expect = if i < PER / 4 {
                Some(i + 1)
            } else if i < PER / 2 {
                None
            } else {
                Some(i)
            };
            assert_eq!(tree.lookup(key(i)), expect, "tid {tid} i {i}");
        }
    }
    // SMOs must actually have happened for this to be a torture test.
    let stats = tree.stats();
    assert!(stats.leaf_splits > 100, "{stats:?}");
}

#[test]
fn btree_optiql_smo_storm() {
    smo_storm(Arc::new(TinyOptiQL::new()));
}

#[test]
fn btree_optlock_smo_storm() {
    smo_storm(Arc::new(TinyOptLock::new()));
}

#[test]
fn btree_mcs_rw_smo_storm() {
    smo_storm(Arc::new(TinyMcsRw::new()));
}

#[test]
fn art_mixed_prefix_storm() {
    // Keys engineered so inserts constantly split prefixes and grow nodes
    // at every level while lookups race.
    let art: Arc<optiql_art::ArtOptiQL> = Arc::new(optiql_art::ArtOptiQL::new());
    let threads: u64 = torture_threads();
    const PER: u64 = 2_500;
    let hs: Vec<_> = (0..threads)
        .map(|tid| {
            let t = Arc::clone(&art);
            std::thread::spawn(move || {
                for i in 0..PER {
                    let base = i * threads + tid;
                    // Three families: dense low, byte-6 pairs, sparse high.
                    let k = match i % 3 {
                        0 => base,
                        1 => (base << 8) | 0xA5,
                        _ => base.wrapping_mul(0x9E3779B97F4A7C15) | (1 << 63),
                    };
                    t.insert(k, base);
                    assert_eq!(t.lookup(k), Some(base), "read-own-write {k:#x}");
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let n = art.check_invariants();
    assert_eq!(n, art.len());
    let stats = art.stats();
    assert!(stats.lazy_expansions > 0 && stats.grows > 0, "{stats:?}");
}

#[test]
fn btree_scan_during_smo_storm_stays_ordered() {
    let tree: Arc<TinyOptiQL> = Arc::new(TinyOptiQL::new());
    for k in 0..2_000u64 {
        tree.insert(k * 2, k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Writers churn odd-striped keys above the stable range; half the
    // torture width is plenty since each writer is a tight insert/remove
    // loop.
    let writer_n = (torture_threads() / 2).clamp(2, 8);
    let writers: Vec<_> = (0..writer_n)
        .map(|tid| {
            let t = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = 4_001 + (i * writer_n + tid) * 2;
                    t.insert(k, i);
                    t.remove(k);
                    i += 1;
                }
            })
        })
        .collect();
    for _ in 0..300 {
        let got: Vec<(u64, u64)> = tree
            .range(Bound::Included(500), Bound::Unbounded)
            .take(40)
            .collect();
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "ordered");
        // Stable keys (evens ≤ 3998) in range must be complete.
        let evens: Vec<u64> = got
            .iter()
            .map(|p| p.0)
            .filter(|k| *k <= 3_998 && k % 2 == 0)
            .collect();
        for w in evens.windows(2) {
            assert_eq!(
                w[1],
                w[0] + 2,
                "stable key missed between {} and {}",
                w[0],
                w[1]
            );
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    tree.check_invariants();
}

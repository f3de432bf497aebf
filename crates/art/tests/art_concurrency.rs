//! Multi-threaded ART stress tests with exact post-condition checks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optiql_art::{ArtMcsRw, ArtOptLock, ArtOptiQL, ArtOptiQLNor, ArtTree};

const THREADS: usize = 4;

fn disjoint_inserts<L: optiql::IndexLock>(tree: Arc<ArtTree<L>>) {
    const PER: u64 = 3_000;
    let hs: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                for i in 0..PER {
                    // Mix of dense and sparse stripes per thread.
                    let k = if i % 2 == 0 {
                        i * THREADS as u64 + tid
                    } else {
                        (i * THREADS as u64 + tid).wrapping_mul(0x9E3779B97F4A7C15)
                    };
                    t.insert(k, k ^ 0xABCD);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let n = tree.check_invariants();
    assert_eq!(n, tree.len());
    for tid in 0..THREADS as u64 {
        for i in 0..PER {
            let k = if i % 2 == 0 {
                i * THREADS as u64 + tid
            } else {
                (i * THREADS as u64 + tid).wrapping_mul(0x9E3779B97F4A7C15)
            };
            assert_eq!(tree.lookup(k), Some(k ^ 0xABCD), "key {k:#x}");
        }
    }
}

fn read_while_inserting<L: optiql::IndexLock>(tree: Arc<ArtTree<L>>) {
    const N: u64 = 6_000;
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
                let mut x = seed as u64 + 7;
                let mut seen = 0u64;
                let mut probes = 0u64;
                // Keep probing for a minimum amount even if the writer
                // finishes first (single-CPU hosts serialize the threads).
                while !stop.load(Ordering::Acquire) || probes < 4_000 {
                    probes += 1;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % N;
                    if let Some(v) = t.lookup(k) {
                        assert_eq!(v, k + 1, "torn read at {k}");
                        seen += 1;
                    }
                }
                seen
            })
        })
        .collect();
    writer.join().unwrap();
    let seen: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(seen > 0);
    assert_eq!(tree.check_invariants(), N as usize);
}

fn hot_key_updates<L: optiql::IndexLock>(tree: Arc<ArtTree<L>>) {
    // All threads update the same small key set; values must never be lost
    // and lookups must never observe a foreign key's value.
    const HOT: u64 = 8;
    const PER: u64 = 4_000;
    for k in 0..HOT {
        tree.insert(k, k << 32);
    }
    let hs: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                for i in 0..PER {
                    let k = (i + tid) % HOT;
                    let stamp = (k << 32) | (tid << 16) | (i & 0xFFFF);
                    assert!(t.update(k, stamp).is_some(), "lost key {k}");
                    let got = t.lookup(k).expect("hot key vanished");
                    assert_eq!(got >> 32, k, "value of wrong key observed");
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(tree.len(), HOT as usize);
    // Includes: no update left a node locked.
    assert_eq!(tree.check_invariants(), HOT as usize);
}

fn churn<L: optiql::IndexLock>(tree: Arc<ArtTree<L>>) {
    const PER: u64 = 1_500;
    let hs: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let t = Arc::clone(&tree);
            std::thread::spawn(move || {
                let key = |i: u64| (i * THREADS as u64 + tid).wrapping_mul(0x2545F4914F6CDD1D);
                for i in 0..PER {
                    assert_eq!(t.insert(key(i), i), None);
                }
                for i in (0..PER).step_by(2) {
                    assert_eq!(t.remove(key(i)), Some(i), "thread {tid} i {i}");
                }
                for i in (0..PER).step_by(4) {
                    assert_eq!(t.insert(key(i), i + 9), None);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    tree.check_invariants();
    for tid in 0..THREADS as u64 {
        let key = |i: u64| (i * THREADS as u64 + tid).wrapping_mul(0x2545F4914F6CDD1D);
        for i in 0..PER {
            let expect = match i % 4 {
                0 => Some(i + 9),
                2 => None,
                _ => Some(i),
            };
            assert_eq!(tree.lookup(key(i)), expect);
        }
    }
}

macro_rules! stress {
    ($name:ident, $body:ident) => {
        mod $name {
            use super::*;
            #[test]
            fn optlock() {
                $body(Arc::new(ArtOptLock::new()));
            }
            #[test]
            fn optiql() {
                $body(Arc::new(ArtOptiQL::new()));
            }
            #[test]
            fn optiql_nor() {
                $body(Arc::new(ArtOptiQLNor::new()));
            }
            #[test]
            fn mcs_rw() {
                $body(Arc::new(ArtMcsRw::new()));
            }
        }
    };
}

stress!(disjoint, disjoint_inserts);
stress!(read_write, read_while_inserting);
stress!(hotset, hot_key_updates);
stress!(churning, churn);

#[test]
fn concurrent_updates_with_forced_expansion() {
    // Aggressive contention-expansion settings under concurrency.
    let tree: Arc<ArtTree<optiql::OptiQL>> = Arc::new(ArtTree::with_expansion(8, 1));
    let sparse: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    for k in &sparse {
        tree.insert(*k, 0);
    }
    let hs: Vec<_> = (0..THREADS)
        .map(|tid| {
            let t = Arc::clone(&tree);
            let keys = sparse.clone();
            std::thread::spawn(move || {
                for round in 0..2_000u64 {
                    let k = keys[(round as usize + tid) % keys.len()];
                    assert!(t.update(k, round).is_some());
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(tree.check_invariants(), sparse.len());
    for k in &sparse {
        assert!(tree.lookup(*k).is_some());
    }
}

//! Counted range scans under concurrent structural modification.
//!
//! Scans here are not serializable snapshots ("every returned pair
//! existed at some point during the scan"), but they still owe hard
//! bounds. With a *stable* key set that no writer ever touches and a
//! disjoint *volatile* set that writers continuously insert and remove
//! — every volatile flip forcing splits, collapses and merges through
//! the tiny-node trees — any `count(start, limit)`, the number of
//! entries `range(start..)` yields before `take(limit)` stops it, must
//! satisfy,
//! against a [`ModelIndex`] holding exactly the stable keys:
//!
//! * **lower**: at least `min(stable >= start, limit)` — stable keys can
//!   never be missed, because a key's position in key-order is fixed and
//!   both scans visit key ranges monotonically (B+-tree) or restart
//!   wholesale on validation failure (ART);
//! * **upper**: at most `min(stable + |volatile|, limit)` — nothing is
//!   ever double-counted and only those keys ever exist.

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optiql_index_api::model::ModelIndex;
use optiql_index_api::ConcurrentIndex;

/// Even keys in `0..2*STABLE` are stable; odd keys are volatile.
const STABLE: u64 = 60;
const VOLATILE: u64 = 60;
const SCAN_ROUNDS: usize = 400;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Entries with keys ≥ `start`, up to `limit`, as one streaming scan.
fn count(index: &impl ConcurrentIndex, start: u64, limit: usize) -> usize {
    index
        .range(Bound::Included(start), Bound::Unbounded)
        .take(limit)
        .count()
}

fn scan_bounds_hold<I: ConcurrentIndex + Send + Sync + 'static>(index: I, label: &str) {
    optiql_check::chaos::configure(11);
    let index = Arc::new(index);
    let model = ModelIndex::new();
    for i in 0..STABLE {
        index.insert(2 * i, i);
        model.insert(2 * i, i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                optiql_check::chaos::register_thread(w + 1);
                let mut s = 0x1234_5678u64 ^ w;
                while !stop.load(Ordering::Relaxed) {
                    let r = splitmix(&mut s);
                    let k = 2 * (r % VOLATILE) + 1;
                    if r & (1 << 40) == 0 {
                        index.insert(k, r);
                    } else {
                        index.remove(k);
                    }
                }
            })
        })
        .collect();

    optiql_check::chaos::register_thread(0);
    let mut s = 0xFACEu64;
    for round in 0..SCAN_ROUNDS {
        let r = splitmix(&mut s);
        let start = r % (2 * STABLE + 2);
        let limit = if r & 1 == 0 {
            1000
        } else {
            1 + (r >> 8) as usize % 20
        };
        let got = count(&index, start, limit);
        let stable_ge = count(&model, start, usize::MAX);
        let lower = stable_ge.min(limit);
        let upper = (stable_ge + VOLATILE as usize).min(limit);
        assert!(
            got >= lower && got <= upper,
            "{label} round {round}: count({start}, {limit}) = {got}, \
             expected within [{lower}, {upper}] (stable>={stable_ge})"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    optiql_check::chaos::disable();

    // Quiesced double-check: volatile churn stopped, so the scan must
    // count every stable key exactly (bounded only by live volatiles).
    let total = count(&index, 0, usize::MAX);
    assert!(total >= STABLE as usize && total <= (STABLE + VOLATILE) as usize);
}

// Tiny nodes so the volatile churn splits and collapses constantly.
type TinyBTreeOptiQL = optiql_btree::BPlusTree<optiql::OptLock, optiql::OptiQL, 4, 4>;
type TinyBTreeMcsRw = optiql_btree::BPlusTree<optiql::McsRwLock, optiql::McsRwLock, 4, 4>;

#[test]
fn btree_optiql_scan_bounds_under_splits() {
    scan_bounds_hold(TinyBTreeOptiQL::new(), "btree-optiql");
}

#[test]
fn btree_pessimistic_scan_bounds_under_splits() {
    scan_bounds_hold(TinyBTreeMcsRw::new(), "btree-mcs-rw");
}

#[test]
fn art_optiql_scan_bounds_under_splits() {
    scan_bounds_hold(optiql_art::ArtTree::<optiql::OptiQL>::new(), "art-optiql");
}

#[test]
fn art_pessimistic_scan_bounds_under_splits() {
    scan_bounds_hold(
        optiql_art::ArtTree::<optiql::McsRwLock>::new(),
        "art-mcs-rw",
    );
}

/// Regression: the pessimistic ART scan used to take `r_lock` on every
/// visited node and never release it (harmless for optimistic locks,
/// which hold nothing — a leaked shared hold plus a leaked queue node
/// for MCS-RW/pthread). The very next writer then blocked forever. Run
/// scan-then-remove on a worker and require it to finish.
#[test]
fn pessimistic_art_scan_releases_its_locks() {
    fn scan_then_write<L: optiql::IndexLock>(name: &str) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let t = optiql_art::ArtTree::<L>::new();
            for k in 0u64..128 {
                t.insert(k, k);
            }
            for k in 0u64..128 {
                count(&t, k, 8);
            }
            for k in 0u64..128 {
                t.remove(k);
            }
            let _ = tx.send(t.len());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(len) => assert_eq!(len, 0),
            Err(_) => panic!("{name}: writer blocked after scans — scan leaked a lock"),
        }
    }
    scan_then_write::<optiql::McsRwLock>("mcs-rw");
    scan_then_write::<optiql::PthreadRwLock>("pthread");
}

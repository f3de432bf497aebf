//! Quickstart: the OptiQL lock API and both paper indexes in two minutes.
//!
//! Run with: `cargo run --release --example quickstart`

use std::ops::Bound;

use optiql::{ExclusiveLock, IndexLock, OptiQL};
use optiql_art::ArtOptiQL;
use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;

fn main() {
    // --- 1. The lock itself -------------------------------------------------
    let lock = OptiQL::new();

    // Optimistic read: no shared-memory write, validate afterwards.
    let v = lock.r_lock().expect("lock is free");
    // ... read data protected by the lock ...
    assert!(lock.r_unlock(v), "nothing changed: validation passes");

    // Exclusive write: writers queue FIFO and spin locally.
    let token = lock.x_lock();
    // ... modify protected data ...
    lock.x_unlock(token);

    // The version moved, so the earlier snapshot no longer validates.
    assert!(!lock.r_unlock(v));
    println!("lock: optimistic read + queued write OK");

    // Upgrade: promote a validated read to a write (used by ART, §6.2).
    let v = lock.r_lock().unwrap();
    let token = lock.try_upgrade(v).expect("no concurrent writer");
    lock.x_unlock(token);
    println!("lock: upgrade OK");

    // Adjustable opportunistic read (§5.3): keep admitting readers until
    // the writer locates its target, then close the window.
    let token = lock.x_lock_adjustable();
    // ... search for the write target while readers sneak in ...
    let token = lock.x_finish_adjustable(token);
    // ... modify ...
    lock.x_unlock(token);
    println!("lock: adjustable opportunistic read OK");

    // --- 2. The B+-tree ------------------------------------------------------
    let tree: BTreeOptiQL = BTreeOptiQL::new();
    for k in 0..1_000u64 {
        tree.insert(k, k * 2);
    }
    assert_eq!(tree.lookup(721), Some(1442));
    assert_eq!(tree.update(721, 7), Some(1442));
    let scanned = tree.range(Bound::Included(990), Bound::Unbounded).take(5);
    assert_eq!(scanned.count(), 5);
    assert_eq!(tree.remove(721), Some(7));
    println!("b+-tree: {} keys after CRUD", tree.len());

    // --- 3. The ART ----------------------------------------------------------
    let art: ArtOptiQL = ArtOptiQL::new();
    for k in [1u64, 1 << 20, 1 << 40, u64::MAX] {
        art.insert(k, !k);
    }
    assert_eq!(art.lookup(1 << 40), Some(!(1u64 << 40)));
    println!("art: {} sparse keys indexed", art.len());

    // --- 4. Concurrency ------------------------------------------------------
    let shared: std::sync::Arc<BTreeOptiQL> = std::sync::Arc::new(BTreeOptiQL::new());
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = std::sync::Arc::clone(&shared);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    t.insert(i * 4 + tid, tid);
                }
            });
        }
    });
    assert_eq!(shared.len(), 40_000);
    println!("concurrent inserts: {} keys, tree consistent", shared.len());
}

//! Checkpoint-under-churn differential test: checkpoint-by-scan runs
//! while concurrent writers mutate a real OptiQL B+-tree through the
//! wal; recovery into a fresh tree must reproduce exactly the state the
//! writers' own mirrors agree on.
//!
//! Each writer owns a disjoint key stripe (`key % WRITERS == tid`) and
//! mirrors every acked mutation into a private `BTreeMap`; stripes are
//! disjoint, so the union of the mirrors is the exact expected final
//! state — a `ModelIndex`-style oracle without cross-thread ordering
//! ambiguity. The checkpoint fires once the writers are provably
//! mid-stream (a progress counter passes the halfway mark), so the scan
//! races real splits, merges and removes, plus ongoing log appends.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::Router;
use optiql_wal::{DurableIndex, FsyncPolicy, Wal, WalConfig};

const WRITERS: u64 = 4;
const OPS_PER_WRITER: u64 = 6_000;
const KEY_SPACE: u64 = 4_096;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn checkpoint_under_churn_recovers_exactly() {
    let dir = std::env::temp_dir().join(format!("optiql-wal-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let wal = Arc::new(
        Wal::open(WalConfig {
            // Per-key scatter: small keys must still spread over all
            // four logs, or the test only exercises one shard.
            router: Router::new(4, 0),
            policy: FsyncPolicy::Group,
            ..WalConfig::new(&dir)
        })
        .unwrap(),
    );
    let tree: BTreeOptiQL = BTreeOptiQL::new();
    let ix = Arc::new(DurableIndex::new(tree, Arc::clone(&wal)));
    let progress = Arc::new(AtomicU64::new(0));

    let mut mirrors: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|tid| {
                let ix = Arc::clone(&ix);
                let progress = Arc::clone(&progress);
                s.spawn(move || {
                    let mut mirror = BTreeMap::new();
                    let mut rng = 0xC0DE ^ (tid << 32);
                    for _ in 0..OPS_PER_WRITER {
                        let r = splitmix(&mut rng);
                        // Stay on this writer's stripe: disjoint keys
                        // make the mirrors a well-defined oracle.
                        let k = (r % (KEY_SPACE / WRITERS)) * WRITERS + tid;
                        match (r >> 40) % 4 {
                            0 | 1 => {
                                let v = splitmix(&mut rng);
                                ix.insert(k, v);
                                mirror.insert(k, v);
                            }
                            2 => {
                                let v = splitmix(&mut rng);
                                if ix.update(k, v).is_some() {
                                    mirror.insert(k, v);
                                }
                            }
                            _ => {
                                ix.remove(k);
                                mirror.remove(&k);
                            }
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    mirror
                })
            })
            .collect();

        // Fire the checkpoint mid-churn (and again near the end, so a
        // second pass overwrites the first against ongoing appends).
        let total = WRITERS * OPS_PER_WRITER;
        for threshold in [total / 2, total * 9 / 10] {
            while progress.load(Ordering::Relaxed) < threshold {
                std::thread::yield_now();
            }
            let report = ix.checkpoint().expect("checkpoint under churn");
            assert_eq!(report.shards.len(), 4);
        }

        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    ix.commit();
    drop(ix);
    drop(wal);

    // Recover into a fresh tree and diff against the merged mirrors.
    let wal2 = Wal::open(WalConfig {
        router: Router::new(4, 0),
        policy: FsyncPolicy::Group,
        ..WalConfig::new(&dir)
    })
    .unwrap();
    let fresh: BTreeOptiQL = BTreeOptiQL::new();
    let report = wal2.recover_into(&fresh).expect("recover");
    assert!(
        report.shards.iter().all(|s| s.checkpoint_entries > 0),
        "every shard should have loaded its checkpoint: {report}"
    );
    assert!(
        report.shards.iter().any(|s| s.skipped > 0),
        "checkpoints taken mid-churn must bound some replay"
    );

    let mut expected = BTreeMap::new();
    for m in mirrors.drain(..) {
        expected.extend(m);
    }
    let got: BTreeMap<u64, u64> = fresh.range(Bound::Unbounded, Bound::Unbounded).collect();
    assert_eq!(
        got.len(),
        expected.len(),
        "recovered {} keys, writers acked {}",
        got.len(),
        expected.len()
    );
    assert_eq!(got, expected, "recovered state diverges from the oracle");
    let _ = std::fs::remove_dir_all(&dir);
}

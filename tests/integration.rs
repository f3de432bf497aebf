//! Cross-crate integration tests: the harness driving both indexes under
//! every lock configuration, with structural verification after each run.

use std::time::Duration;

use optiql_art::{ArtMcsRw, ArtOptLock, ArtOptiQL, ArtOptiQLNor};
use optiql_bench::{preload, run, KeyDist, KeySpace, Mix, WorkloadConfig};
use optiql_btree::{BTreeMcsRw, BTreeOptLock, BTreeOptiQL, BTreeOptiQLAor, BTreeOptiQLNor};
use optiql_index_api::ConcurrentIndex;

fn quick(mix: Mix, dist: KeyDist, keys: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::new(3, mix, dist, keys);
    cfg.duration = Duration::from_millis(200);
    cfg.sample_every = 32;
    cfg
}

fn drive<I: ConcurrentIndex>(index: &I, check: impl Fn() -> usize) {
    let keys = 20_000;
    for (mix, dist) in [
        (Mix::READ_ONLY, KeyDist::Uniform),
        (Mix::BALANCED, KeyDist::self_similar_02()),
        (Mix::UPDATE_ONLY, KeyDist::self_similar_02()),
        (Mix::INSERT_HEAVY, KeyDist::Uniform),
    ] {
        let cfg = quick(mix, dist, keys);
        let (r, hist) = run(index, &cfg);
        assert!(r.ops() > 0, "no progress for mix {mix:?}");
        assert!(r.throughput() > 0.0);
        if cfg.sample_every > 0 {
            assert!(hist.count() > 0, "latency sampling produced nothing");
        }
        // Structural invariants must hold after every workload phase.
        check();
    }
}

#[test]
fn btree_all_configs_survive_workload_suite() {
    macro_rules! case {
        ($ty:ty) => {{
            let tree: $ty = <$ty>::new();
            let cfg = quick(Mix::READ_ONLY, KeyDist::Uniform, 20_000);
            preload(&tree, cfg.preload, cfg.keyspace);
            drive(&tree, || tree.check_invariants());
        }};
    }
    case!(BTreeOptLock);
    case!(BTreeOptiQL);
    case!(BTreeOptiQLNor);
    case!(BTreeOptiQLAor);
    case!(BTreeMcsRw);
}

#[test]
fn art_all_configs_survive_workload_suite() {
    macro_rules! case {
        ($ty:ty) => {{
            let art: $ty = <$ty>::new();
            let cfg = quick(Mix::READ_ONLY, KeyDist::Uniform, 20_000);
            preload(&art, cfg.preload, cfg.keyspace);
            drive(&art, || art.check_invariants());
        }};
    }
    case!(ArtOptLock);
    case!(ArtOptiQL);
    case!(ArtOptiQLNor);
    case!(ArtMcsRw);
}

#[test]
fn art_sparse_keyspace_with_contention_expansion() {
    // The Figure 13 scenario end-to-end: sparse keys, skewed write-heavy
    // workload, aggressive contention expansion.
    let art: optiql_art::ArtTree<optiql::OptiQL> = optiql_art::ArtTree::with_expansion(16, 1);
    let mut cfg = quick(Mix::WRITE_HEAVY, KeyDist::self_similar_02(), 10_000);
    cfg.keyspace = KeySpace::Sparse;
    preload(&art, cfg.preload, cfg.keyspace);
    let before = art.check_invariants();
    assert_eq!(before, 10_000);
    let (r, _) = run(&art, &cfg);
    assert!(r.updates > 0);
    // Every preloaded key must still be present with *some* value.
    for i in 0..10_000u64 {
        let k = KeySpace::Sparse.key(i);
        assert!(art.lookup(k).is_some(), "lost key index {i}");
    }
    art.check_invariants();
}

#[test]
fn btree_and_art_agree_under_identical_history() {
    // Apply one deterministic op sequence to both indexes; they must end
    // in the same logical state.
    let tree: BTreeOptiQL = BTreeOptiQL::new();
    let art: ArtOptiQL = ArtOptiQL::new();
    let mut x = 88172645463325252u64;
    for _ in 0..50_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 5_000;
        match x % 4 {
            0 => {
                assert_eq!(tree.insert(k, x), art.insert(k, x), "insert {k}");
            }
            1 => {
                assert_eq!(tree.update(k, x), art.update(k, x), "update {k}");
            }
            2 => {
                assert_eq!(tree.remove(k), art.remove(k), "remove {k}");
            }
            _ => {
                assert_eq!(tree.lookup(k), art.lookup(k), "lookup {k}");
            }
        }
    }
    assert_eq!(tree.len(), art.len());
    assert_eq!(tree.check_invariants(), art.check_invariants());
}

#[test]
fn reclamation_keeps_memory_bounded_under_churn() {
    // Insert/remove cycles unlink leaves, which go straight back to the
    // tree's slab for the next round's splits (no deferred queue to drain).
    let tree: BTreeOptiQL = BTreeOptiQL::new();
    for round in 0..5u64 {
        for k in 0..5_000u64 {
            tree.insert(k * 7 + round, k);
        }
        for k in 0..5_000u64 {
            tree.remove(k * 7 + round);
        }
    }
    assert_eq!(tree.len(), 0);
    tree.check_invariants();
}

//! ART structural-event counter tests.

use optiql_art::{ArtOptiQL, ArtTree};

#[test]
fn fresh_art_has_zero_stats() {
    let t: ArtOptiQL = ArtOptiQL::new();
    assert_eq!(t.stats(), Default::default());
}

#[test]
fn dense_inserts_grow_nodes() {
    let t: ArtOptiQL = ArtOptiQL::new();
    // 300 keys under one byte-prefix force N4→N16→N48→N256 growth at the
    // last level.
    for k in 0..300u64 {
        t.insert(k, k);
    }
    let s = t.stats();
    assert!(
        s.grows >= 3,
        "expected at least one full growth chain: {s:?}"
    );
    assert!(s.lazy_expansions > 0, "dense keys split lazy leaves: {s:?}");
    assert_eq!(s.index.restarts, 0, "single-threaded: no restarts");
    assert_eq!(s.index.ops, 300, "one recorded op per public insert");
}

#[test]
fn sparse_then_overlapping_keys_split_prefixes() {
    let t: ArtOptiQL = ArtOptiQL::new();
    // First key compresses the whole path; the second shares only the top
    // 4 bytes, forcing a prefix split.
    t.insert(0xAABBCCDD_00000001, 1);
    t.insert(0xAABBCCDD_11110001, 2); // diverges at byte 4
    t.insert(0xAABBFFFF_00000001, 3); // diverges at byte 2 → prefix split
    let s = t.stats();
    assert!(s.prefix_splits >= 1, "{s:?}");
    assert_eq!(t.check_invariants(), 3);
    assert_eq!(t.lookup(0xAABBCCDD_00000001), Some(1));
    assert_eq!(t.lookup(0xAABBCCDD_11110001), Some(2));
    assert_eq!(t.lookup(0xAABBFFFF_00000001), Some(3));
}

#[test]
fn contention_expansion_counter_fires() {
    let t: ArtTree<optiql::OptiQL> = ArtTree::with_expansion(4, 1);
    let key = 0xCC00_0000_0000_0007u64;
    t.insert(key, 0);
    for i in 0..32 {
        t.update(key, i);
    }
    let s = t.stats();
    assert!(
        s.contention_expansions >= 1,
        "hot lazily-expanded leaf must be materialized: {s:?}"
    );
    assert_eq!(t.lookup(key), Some(31));
}

#[test]
fn deletes_collapse_paths() {
    // Key pairs sharing the first 7 bytes create Node4s whose two children
    // are KV leaves; removing one of each pair must collapse the Node4
    // back into a lazily-expanded leaf.
    let t: ArtOptiQL = ArtOptiQL::new();
    let mut keys = Vec::new();
    for g in 0..100u64 {
        keys.push(g << 8);
        keys.push((g << 8) | 1);
    }
    for k in &keys {
        t.insert(*k, 1);
    }
    assert_eq!(t.check_invariants(), keys.len());
    for k in keys.iter().step_by(2) {
        t.remove(*k);
    }
    let s = t.stats();
    assert!(s.collapses > 0, "path collapses expected: {s:?}");
    assert_eq!(t.len(), keys.len() / 2);
    t.check_invariants();
    // The survivors are all still reachable.
    for k in keys.iter().skip(1).step_by(2) {
        assert_eq!(t.lookup(*k), Some(1));
    }
}

#[test]
fn n16_drain_does_not_collapse_but_stays_correct() {
    // Type downsizing (N16→N4 etc.) is deliberately not implemented
    // (documented simplification); draining an N16 to one child must stay
    // semantically correct regardless.
    let t: ArtOptiQL = ArtOptiQL::new();
    let keys: Vec<u64> = (0..2_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    for k in &keys {
        t.insert(*k, 1);
    }
    for k in &keys {
        assert_eq!(t.remove(*k), Some(1));
    }
    assert_eq!(t.len(), 0);
    t.check_invariants();
}

mod replay {
    //! The counters under real concurrency: four threads run mixed scalar
    //! and batched operations, then every count must equal what the same
    //! operations leave behind when the threads run one after another.
    //!
    //! That is only well defined if the SMOs do not depend on the
    //! interleaving, so each thread writes a tree of its own (a tree's
    //! structural history is then one thread's program order — an update
    //! from outside could hold the very node a collapse wants to upgrade)
    //! while its reads go to any of the four: every tree's `ops` lane takes
    //! adds from all threads. In `shared` all four insert and remove keys
    //! of their own residue class, which puts the `size` lane's +1s and −1s
    //! on different stripes; there the final entry count and `ops` are
    //! order-independent, the SMOs are not.

    use optiql_art::{ArtOptiQL, ArtStats};
    use std::sync::Barrier;

    const THREADS: usize = 4;
    const OPS: u64 = 50_000;
    const KEYS: u64 = 4096;

    fn mix(t: usize, i: u64) -> u64 {
        let mut z = ((t as u64) << 32 | i).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Even indices become dense keys (nodes grow), odd ones spread two
    /// bits per byte (compressed paths split and collapse).
    fn key(k: u64) -> u64 {
        let k = k % KEYS;
        if k & 1 == 0 {
            return 0xD0 << 56 | k >> 1;
        }
        (0..8).fold(0, |key, byte| {
            key | ((k >> (2 * byte + 1)) & 0x3) << (8 * byte)
        })
    }

    /// Operation `i` of thread `t`. The first half of a stream grows the
    /// thread's tree, the second half drains it.
    fn apply(own: &[ArtOptiQL], shared: &ArtOptiQL, t: usize, i: u64) {
        let r = mix(t, i);
        let (k, v) = (r >> 8, r >> 24);
        let any = &own[(r >> 40) as usize % THREADS];
        let grow = i < OPS / 2;
        let batch: [u64; 4] = std::array::from_fn(|j| key(k + 97 * j as u64));
        match (r % 8, grow) {
            (0 | 1, true) | (2, false) => {
                own[t].insert(key(k), v);
            }
            (0 | 1, false) | (2, true) => {
                own[t].remove(key(k));
            }
            (3, _) => {
                own[t].update(key(k), v);
            }
            (4, _) => {
                any.lookup(key(k));
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
                let mine = (k % KEYS) * THREADS as u64 + t as u64;
                if r & (1 << 50) == 0 {
                    shared.insert(mine, v);
                } else {
                    shared.remove(mine);
                }
            }
        }
    }

    /// Every stream runs on a thread of its own in both modes: contention
    /// expansion samples a thread-local generator.
    fn run(parallel: bool) -> (Vec<ArtOptiQL>, ArtOptiQL) {
        let own: Vec<ArtOptiQL> = (0..THREADS).map(|_| ArtOptiQL::new()).collect();
        let shared = ArtOptiQL::new();
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
    fn settled(mut s: ArtStats) -> ArtStats {
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
                s.grows > 0 && s.prefix_splits > 0 && s.lazy_expansions > 0 && s.collapses > 0,
                "tree {t} saw too little to compare: {s:?}"
            );
        }
        assert_eq!(shared.index_stats().ops, shared_replay.index_stats().ops);
        assert_eq!(shared.len(), shared_replay.len());
        assert_eq!(shared.check_invariants(), shared.len());
        assert!(!shared.is_empty());
    }
}

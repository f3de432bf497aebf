//! ART ordered range scan tests (including concurrent-mutation safety).

use std::ops::Bound;

use optiql_art::{ArtOptLock, ArtOptiQL};
use optiql_index_api::ConcurrentIndex;

/// The first `n` entries at or above `from`.
fn scan(tree: &impl ConcurrentIndex, from: u64, n: usize) -> Vec<(u64, u64)> {
    tree.range(Bound::Included(from), Bound::Unbounded)
        .take(n)
        .collect()
}

#[test]
fn scan_empty_tree() {
    let t: ArtOptiQL = ArtOptiQL::new();
    assert!(scan(&t, 0, 10).is_empty());
    assert!(scan(&t, u64::MAX, 10).is_empty());
}

#[test]
fn scan_returns_sorted_entries_from_start() {
    let t: ArtOptiQL = ArtOptiQL::new();
    for k in (0..1_000u64).map(|i| i * 3) {
        t.insert(k, k + 1);
    }
    let all = scan(&t, 0, usize::MAX);
    assert_eq!(all.len(), 1_000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
    assert!(all.iter().all(|&(k, v)| v == k + 1));

    // Start between keys.
    let part = scan(&t, 301, 5);
    assert_eq!(part.len(), 5);
    assert_eq!(part[0].0, 303);
    assert_eq!(part[4].0, 315);

    // Start exactly on a key.
    let part = scan(&t, 300, 2);
    assert_eq!(part[0].0, 300);

    // Past the end.
    assert!(scan(&t, 3_000, 5).is_empty());
    // Limit zero.
    assert!(scan(&t, 0, 0).is_empty());
}

#[test]
fn scan_spans_sparse_structure() {
    let t: ArtOptLock = ArtOptLock::new();
    let mut keys: Vec<u64> = (0..3_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    for k in &keys {
        t.insert(*k, !*k);
    }
    keys.sort_unstable();
    let mid = keys[1_500];
    let got = scan(&t, mid, 100);
    let expect: Vec<(u64, u64)> = keys[1_500..1_600].iter().map(|&k| (k, !k)).collect();
    assert_eq!(got, expect);
}

#[test]
fn scan_agrees_with_model_across_boundaries() {
    use std::collections::BTreeMap;
    let t: ArtOptiQL = ArtOptiQL::new();
    let mut model = BTreeMap::new();
    // Mixed dense + boundary keys.
    let keys: Vec<u64> = (0..500)
        .chain([u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) + 7])
        .collect();
    for k in keys {
        t.insert(k, k ^ 0xAA);
        model.insert(k, k ^ 0xAA);
    }
    for start in [0u64, 1, 100, 499, 500, (1 << 63) - 1, 1 << 63, u64::MAX] {
        for limit in [1usize, 7, 100] {
            let got = scan(&t, start, limit);
            let expect: Vec<(u64, u64)> = model
                .range(start..)
                .take(limit)
                .map(|(a, b)| (*a, *b))
                .collect();
            assert_eq!(got, expect, "start={start:#x} limit={limit}");
        }
    }
}

#[test]
fn scan_survives_concurrent_inserts() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let t: Arc<ArtOptiQL> = Arc::new(ArtOptiQL::new());
    for k in 0..2_000u64 {
        t.insert(k * 2, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (t, stop) = (Arc::clone(&t), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut k = 4_001u64;
            while !stop.load(Ordering::Relaxed) {
                t.insert(k, k);
                k += 2;
            }
        })
    };
    for _ in 0..200 {
        let got = scan(&t, 1_000, 50);
        assert!(got.len() <= 50);
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "sorted under churn"
        );
        assert!(got.iter().all(|&(k, _)| k >= 1_000));
        // Stable (even) keys in range must appear gap-free: the writer
        // only ever adds odd keys above the scanned window.
        let evens: Vec<u64> = got.iter().map(|p| p.0).filter(|k| k % 2 == 0).collect();
        for w in evens.windows(2) {
            assert_eq!(
                w[1],
                w[0] + 2,
                "missed stable key between {} and {}",
                w[0],
                w[1]
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    t.check_invariants();
}

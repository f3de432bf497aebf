//! Differential tests for the ART's streaming `range` iterator: against
//! the `BTreeMap` model when quiescent (property-based, every bound
//! shape), and against invariants under concurrent expansion/collapse
//! churn.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use optiql::IndexLock;
use optiql_art::{ArtMcsRw, ArtOptLock, ArtOptiQL, ArtTree};
use optiql_index_api::{key_above_start, key_below_end, ConcurrentIndex};

fn bound_strategy(key_space: u64) -> impl Strategy<Value = Bound<u64>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        4 => (0..key_space).prop_map(Bound::Included),
        4 => (0..key_space).prop_map(Bound::Excluded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quiescent u64 differential over every bound shape.
    #[test]
    fn range_matches_model_when_quiescent(
        kvs in proptest::collection::vec((0..5_000u64, any::<u64>()), 0..300),
        start in bound_strategy(5_000),
        end in bound_strategy(5_000),
    ) {
        let entries: BTreeMap<u64, u64> = kvs.into_iter().collect();
        let art: ArtOptiQL = ArtOptiQL::new();
        for (&k, &v) in &entries {
            art.insert(k, v);
        }
        let got: Vec<(u64, u64)> = art.range(start, end).collect();
        let want: Vec<(u64, u64)> = entries
            .iter()
            .map(|(&k, &v)| (k, v))
            .filter(|(k, _)| key_above_start(k, &start) && key_below_end(k, &end))
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// Concurrent churn: writers cycle keys through insert/remove (driving
/// lazy expansion, prefix splits, and collapse) while readers stream
/// ranges. Stable keys must always be yielded exactly once, in order,
/// within bounds.
fn churn_harness<L: IndexLock>(art: Arc<ArtTree<L>>) {
    const STABLE: u64 = 400;
    for s in 0..STABLE {
        art.insert(s * 4, s);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let t = Arc::clone(&art);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0xC0FFEE ^ w;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let churn = (x % (STABLE * 4)) | 2;
                    if x & 1 << 63 == 0 {
                        t.insert(churn, x);
                    } else {
                        t.remove(churn);
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let t = Arc::clone(&art);
            std::thread::spawn(move || {
                let mut x = 0xDECADE ^ r;
                for _ in 0..200 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let lo = x % (STABLE * 4);
                    let hi = lo + x % 512;
                    let got: Vec<(u64, u64)> =
                        t.range(Bound::Included(lo), Bound::Excluded(hi)).collect();
                    for w in got.windows(2) {
                        assert!(w[0].0 < w[1].0, "stream must ascend strictly");
                    }
                    assert!(
                        got.iter().all(|&(k, _)| k >= lo && k < hi),
                        "stream must respect bounds"
                    );
                    let stable: Vec<u64> =
                        got.iter().map(|&(k, _)| k).filter(|k| k % 4 == 0).collect();
                    let want: Vec<u64> = (lo..hi.min(STABLE * 4)).filter(|k| k % 4 == 0).collect();
                    assert_eq!(stable, want, "every stable key in [{lo},{hi}) exactly once");
                }
            })
        })
        .collect();
    for h in readers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    art.check_invariants();
}

#[test]
fn range_survives_expansion_collapse_churn_optiql() {
    churn_harness(Arc::new(ArtOptiQL::new()));
}

#[test]
fn range_survives_expansion_collapse_churn_optlock() {
    churn_harness(Arc::new(ArtOptLock::new()));
}

#[test]
fn range_survives_expansion_collapse_churn_pessimistic() {
    churn_harness(Arc::new(ArtMcsRw::new()));
}

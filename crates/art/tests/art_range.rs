//! Differential tests for the ART's byte-string keys and streaming
//! `range` iterator: against the `BTreeMap` model when quiescent
//! (property-based, arbitrary byte keys exercising the escape encoding
//! and >7-byte prefix chains), and against invariants under concurrent
//! expansion/collapse churn.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use optiql::IndexLock;
use optiql_art::{ArtMcsRw, ArtOptLock, ArtOptiQL, ArtTree};
use optiql_index_api::{key_above_start, key_below_end, Bytes, ConcurrentIndex};

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

    /// Byte-string keys against the model: arbitrary blobs (embedded NUL
    /// and escape bytes included) must round-trip every point op and
    /// stream back in raw lexicographic order. This is the end-to-end
    /// proof that the prefix-free encoding, the digit descent, the chain
    /// allocation, and the decode on yield agree.
    #[test]
    fn byte_keys_match_model(
        raw_list in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24), 0..120),
        probe in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let raws: std::collections::BTreeSet<Vec<u8>> = raw_list.into_iter().collect();
        let art: ArtTree<optiql::OptiQL, Bytes> = ArtTree::new();
        let mut model: BTreeMap<Bytes, u64> = BTreeMap::new();
        for (i, r) in raws.iter().enumerate() {
            let k = Bytes::from(&r[..]);
            prop_assert_eq!(art.insert(k.clone(), i as u64), model.insert(k, i as u64));
        }
        prop_assert_eq!(art.check_invariants(), model.len());
        prop_assert_eq!(art.len(), model.len());
        let probe = Bytes::from(&probe[..]);
        prop_assert_eq!(art.lookup(probe.clone()), model.get(&probe).copied());
        let got: Vec<(Bytes, u64)> = art.range(Bound::Unbounded, Bound::Unbounded).collect();
        let want: Vec<(Bytes, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(got, want);
        let got: Vec<(Bytes, u64)> =
            art.range(Bound::Excluded(probe.clone()), Bound::Unbounded).collect();
        let want: Vec<(Bytes, u64)> = model
            .range((Bound::Excluded(probe.clone()), Bound::Unbounded))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        prop_assert_eq!(got, want);
        // Remove half, re-check.
        for (i, r) in raws.iter().enumerate() {
            if i % 2 == 0 {
                let k = Bytes::from(&r[..]);
                prop_assert_eq!(art.remove(k.clone()), model.remove(&k));
            }
        }
        prop_assert_eq!(art.check_invariants(), model.len());
        let got: Vec<(Bytes, u64)> = art.range(Bound::Unbounded, Bound::Unbounded).collect();
        let want: Vec<(Bytes, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(got, want);
    }
}

/// Key strategy pinning the inline/pointer slot boundary: lengths
/// clustered at 6/7/8 bytes, escape bytes `0x00`/`0x01` overweighted,
/// and the empty key.
fn boundary_key() -> impl Strategy<Value = Vec<u8>> {
    fn escape_byte() -> impl Strategy<Value = u8> {
        prop_oneof![
            2 => Just(0x00u8),
            2 => Just(0x01u8),
            1 => Just(0xFFu8),
            3 => any::<u8>(),
        ]
    }
    prop_oneof![
        1 => Just(Vec::new()),
        6 => proptest::collection::vec(escape_byte(), 6..9),
        3 => proptest::collection::vec(escape_byte(), 0..13),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential over the inline/pointer boundary on the ART: a key
    /// set dense in 6/7/8-byte keys (inline `Bytes` words on one side,
    /// heap blobs on the other — identical digits either way) must match
    /// the `BTreeMap` model.
    #[test]
    fn inline_and_pointer_representations_agree(
        raw_list in proptest::collection::vec(boundary_key(), 0..100),
    ) {
        let fast: ArtTree<optiql::OptiQL, Bytes> = ArtTree::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (i, r) in raw_list.iter().enumerate() {
            let v = i as u64;
            prop_assert_eq!(fast.insert(Bytes::from(&r[..]), v), model.insert(r.clone(), v));
        }
        for r in &raw_list {
            prop_assert_eq!(fast.lookup(Bytes::from(&r[..])), model.get(r).copied());
        }
        let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let got_fast: Vec<(Vec<u8>, u64)> = fast
            .range(Bound::Unbounded, Bound::Unbounded)
            .map(|(k, v)| (k.as_bytes().to_vec(), v))
            .collect();
        prop_assert_eq!(&got_fast, &want, "stream order");
        for r in raw_list.iter().step_by(2) {
            prop_assert_eq!(fast.remove(Bytes::from(&r[..])), model.remove(r));
        }
        prop_assert_eq!(fast.check_invariants(), model.len());
    }
}

/// Deep shared prefixes: 20+ common bytes force multi-link `Node4`
/// chains (a node header packs at most 7 path bytes), and the divergence
/// sits past the old fixed `KEY_LEN`.
#[test]
fn long_shared_prefixes_build_chains() {
    let art: ArtTree<optiql::OptiQL, Bytes> = ArtTree::new();
    let base = b"tenant/0000000042/table/orders/row/";
    let keys: Vec<Bytes> = (0..200u32)
        .map(|i| {
            let mut k = base.to_vec();
            k.extend_from_slice(format!("{i:08}").as_bytes());
            Bytes::from(&k[..])
        })
        .collect();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(art.insert(k.clone(), i as u64), None, "insert {i}");
    }
    assert_eq!(art.check_invariants(), 200);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(art.lookup(k.clone()), Some(i as u64), "lookup {i}");
    }
    // A sibling family diverging inside the long prefix.
    art.insert(Bytes::from("tenant/0000000043/x"), 999);
    assert_eq!(art.lookup(Bytes::from("tenant/0000000043/x")), Some(999));
    assert_eq!(art.check_invariants(), 201);
    // Ordered stream spans the chain transparently.
    let got: Vec<Bytes> = art
        .range(Bound::Unbounded, Bound::Unbounded)
        .map(|(k, _)| k)
        .collect();
    let mut want = keys.clone();
    want.push(Bytes::from("tenant/0000000043/x"));
    want.sort();
    assert_eq!(got, want);
    for k in &keys {
        assert!(art.remove(k.clone()).is_some());
    }
    assert_eq!(art.check_invariants(), 1);
}

/// Byte-string YCSB-C shape: a read-only key space of formatted user
/// keys served concurrently, updates racing on a disjoint stripe.
#[test]
fn byte_key_ycsb_c_style_reads() {
    const USERS: u32 = 2_000;
    let art: Arc<ArtTree<optiql::OptiQL, Bytes>> = Arc::new(ArtTree::new());
    for i in 0..USERS {
        art.insert(Bytes::from(format!("user{i:08}").as_bytes()), i as u64);
    }
    let hs: Vec<_> = (0..4u64)
        .map(|t| {
            let art = Arc::clone(&art);
            std::thread::spawn(move || {
                let mut x = 0x1234_5678 ^ t;
                for _ in 0..20_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let i = (x >> 33) as u32 % USERS;
                    let k = Bytes::from(format!("user{i:08}").as_bytes());
                    if t == 3 && x & 7 == 0 {
                        art.update(k, i as u64); // same value: reads stay exact
                    } else {
                        assert_eq!(art.lookup(k), Some(i as u64), "user {i}");
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(art.check_invariants(), USERS as usize);
}

/// Concurrent churn: writers cycle keys through insert/remove (driving
/// lazy expansion, chain splits, and collapse) while readers stream
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

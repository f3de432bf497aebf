//! Property tests for the measurement substrates: distribution samplers
//! and the latency histogram must satisfy their mathematical contracts for
//! arbitrary parameters, or every benchmark number built on them is noise.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use optiql_bench::latency::Histogram;
use optiql_bench::{KeyDist, KeySpace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn samplers_always_stay_in_range(
        n in 1u64..1_000_000,
        seed in any::<u64>(),
        skew in 0.05f64..0.45,
        theta in 0.1f64..0.95,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for dist in [
            KeyDist::Uniform,
            KeyDist::SelfSimilar { skew },
            KeyDist::Zipfian { theta },
        ] {
            let s = dist.sampler(n);
            for _ in 0..256 {
                let x = s.sample(&mut rng);
                prop_assert!(x < n, "{dist:?} produced {x} for n={n}");
            }
        }
    }

    #[test]
    fn self_similar_hot_fraction_tracks_skew(
        skew in 0.1f64..0.4,
        seed in any::<u64>(),
    ) {
        // By construction, a fraction (1 - skew) of draws lands in the
        // first skew*n keys.
        let n = 100_000u64;
        let s = KeyDist::SelfSimilar { skew }.sampler(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let draws = 60_000;
        let hot_bound = (skew * n as f64) as u64;
        let hits = (0..draws).filter(|_| s.sample(&mut rng) < hot_bound).count();
        let frac = hits as f64 / draws as f64;
        let expect = 1.0 - skew;
        prop_assert!(
            (frac - expect).abs() < 0.04,
            "skew={skew}: hot fraction {frac} vs expected {expect}"
        );
    }

    #[test]
    fn histogram_quantiles_bounded_by_min_max(values in prop::collection::vec(1u64..u64::MAX / 2, 1..2_000)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo, hi) = (h.min(), h.max());
        prop_assert_eq!(h.count(), values.len() as u64);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let x = h.quantile(q);
            prop_assert!(x <= hi, "q={q}: {x} > max {hi}");
            prop_assert!(x >= lo.min(x), "q={q}");
        }
        // Quantiles are monotone in q.
        let ladder: Vec<u64> = [0.1, 0.5, 0.9, 0.99].iter().map(|&q| h.quantile(q)).collect();
        prop_assert!(ladder.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn histogram_quantile_relative_error_is_bounded(
        values in prop::collection::vec(1u64..1_000_000_000, 64..2_000),
    ) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
            let approx = h.quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(err < 0.10, "q={q}: approx {approx} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn histogram_merge_is_commutative_on_quantiles(
        a in prop::collection::vec(1u64..1_000_000, 1..500),
        b in prop::collection::vec(1u64..1_000_000, 1..500),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab.count(), ba.count());
        for q in [0.1, 0.5, 0.9, 0.999] {
            prop_assert_eq!(ab.quantile(q), ba.quantile(q));
        }
    }

    #[test]
    fn sparse_keyspace_is_injective(indices in prop::collection::hash_set(0u64..10_000_000, 2..500)) {
        let keys: std::collections::HashSet<u64> =
            indices.iter().map(|&i| KeySpace::Sparse.key(i)).collect();
        prop_assert_eq!(keys.len(), indices.len());
    }
}

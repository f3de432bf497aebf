//! Statistical sanity checks for the workload key distributions.
//!
//! The figure benches are only as meaningful as the key generators behind
//! them, so this suite pins down the distributional properties the paper
//! relies on: the self-similar(0.2) generator really concentrates ~80% of
//! accesses on the first 20% of a dense key space, the Zipfian generator
//! stays in range and skews harder as theta grows, and the uniform
//! generator passes a chi-square smoke test. Fixed seeds keep every check
//! deterministic.

use optiql_bench::dist::KeyDist;
use rand::{rngs::SmallRng, SeedableRng};

fn draw_histogram(dist: &KeyDist, n: u64, draws: usize, seed: u64) -> Vec<u64> {
    let s = dist.sampler(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = vec![0u64; n as usize];
    for _ in 0..draws {
        h[s.sample(&mut rng) as usize] += 1;
    }
    h
}

#[test]
fn self_similar_02_concentrates_80_percent_on_20_percent() {
    for n in [1_000u64, 50_000] {
        let h = draw_histogram(&KeyDist::self_similar_02(), n, 400_000, 0xD15);
        let total: u64 = h.iter().sum();
        let hot: u64 = h.iter().take((n / 5) as usize).sum();
        let frac = hot as f64 / total as f64;
        assert!(
            (0.78..=0.82).contains(&frac),
            "n={n}: hottest 20% drew {frac:.3} of accesses, expected ≈0.80"
        );
    }
}

#[test]
fn self_similar_is_recursively_skewed() {
    // Self-similarity: the 80/20 rule applies again inside the hot set,
    // i.e. 64% of accesses land on the hottest 4%.
    let n = 50_000u64;
    let h = draw_histogram(&KeyDist::self_similar_02(), n, 400_000, 0xD16);
    let total: u64 = h.iter().sum();
    let hotter: u64 = h.iter().take((n / 25) as usize).sum();
    let frac = hotter as f64 / total as f64;
    assert!(
        (0.61..=0.67).contains(&frac),
        "hottest 4% drew {frac:.3} of accesses, expected ≈0.64"
    );
}

#[test]
fn zipfian_samples_stay_in_range_for_all_theta() {
    for theta in [0.1, 0.5, 0.9, 0.99] {
        for n in [1u64, 2, 10, 10_000] {
            let s = KeyDist::Zipfian { theta }.sampler(n);
            let mut rng = SmallRng::seed_from_u64(0x21F);
            for _ in 0..20_000 {
                let x = s.sample(&mut rng);
                assert!(x < n, "theta={theta} n={n}: sample {x} out of range");
            }
        }
    }
}

#[test]
fn zipfian_skew_is_monotone_in_theta() {
    // A higher theta must concentrate more mass on the hottest ranks.
    let n = 10_000u64;
    let draws = 300_000;
    let mut prev_top = 0.0f64;
    for theta in [0.2, 0.5, 0.8, 0.99] {
        let h = draw_histogram(&KeyDist::Zipfian { theta }, n, draws, 0x21E);
        let total: u64 = h.iter().sum();
        let top100: u64 = h.iter().take(100).sum();
        let frac = top100 as f64 / total as f64;
        assert!(
            frac > prev_top,
            "theta={theta}: top-100 mass {frac:.4} not above previous {prev_top:.4}"
        );
        prev_top = frac;
    }
    // At YCSB's default the skew is substantial.
    assert!(prev_top > 0.4, "theta=0.99 top-100 mass only {prev_top:.4}");
}

#[test]
fn uniform_passes_chi_square_smoke() {
    // Chi-square goodness-of-fit against the flat distribution. With
    // k-1 = 99 degrees of freedom the 99.9th percentile is ≈148.2; a
    // correct generator with a fixed seed sits far below, a misweighted
    // one (e.g. modulo bias over a non-power-of-two space) far above.
    let k = 100u64;
    let draws = 500_000usize;
    let h = draw_histogram(&KeyDist::Uniform, k, draws, 0xC41);
    let expect = draws as f64 / k as f64;
    let chi2: f64 = h
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum();
    assert!(chi2 < 148.2, "chi-square statistic {chi2:.1} too large");
    // Guard against a degenerate "too perfect" histogram as well (e.g. a
    // round-robin generator masquerading as random): P(chi2 < 57.3) ≈ 0.01%.
    assert!(
        chi2 > 57.3,
        "chi-square statistic {chi2:.1} suspiciously low"
    );
}

#[test]
fn uniform_covers_the_whole_space() {
    let n = 256u64;
    let h = draw_histogram(&KeyDist::Uniform, n, 100_000, 0xC42);
    assert!(
        h.iter().all(|&c| c > 0),
        "some bucket never drawn in 100k samples"
    );
}

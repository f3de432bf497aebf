//! The benchmark's own random source and key samplers.
//!
//! Nothing here comes from `optiql-harness` or the `rand` shim: a change
//! to either must not be able to move the inputs this benchmark feeds
//! the program. Every sampler is a pure function of the `--seed`.

/// xoshiro256++ seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for stream `salt` of run `seed`. Distinct salts give
    /// independent streams, so connection 1's keys do not depend on how
    /// many keys connection 0 drew.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut st = seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix(&mut st);
        }
        Rng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (multiply-shift reduction).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Odd multiplier of the rank → key permutation of [`Sampler::ScrambledZipf`]
/// (Knuth's 2^32 / φ, a prime).
const SCRAMBLE: u64 = 2_654_435_761;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A key distribution over `0..n`.
#[derive(Debug, Clone)]
pub enum Sampler {
    Uniform {
        n: u64,
    },
    /// Gray et al.'s self-similar distribution: a share `1 - skew` of the
    /// draws lands on the first `skew` of the keys, recursively. Rank is
    /// the key, so hot keys are neighbours and share leaves — the paper's
    /// high-contention setting.
    SelfSimilar {
        n: u64,
        exp: f64,
    },
    /// YCSB-style Zipfian ranks mapped to keys by the fixed permutation
    /// `rank * SCRAMBLE mod n`, so hot keys spread over radix subtrees
    /// and shards instead of clustering at key 0.
    ScrambledZipf {
        n: u64,
        theta: f64,
        zetan: f64,
        alpha: f64,
        eta: f64,
    },
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| (i as f64).powf(-theta)).sum()
}

impl Sampler {
    pub fn uniform(n: u64) -> Sampler {
        assert!(n > 0);
        Sampler::Uniform { n }
    }

    pub fn self_similar(n: u64, skew: f64) -> Sampler {
        assert!(n > 0 && skew > 0.0 && skew < 1.0);
        Sampler::SelfSimilar {
            n,
            exp: skew.ln() / (1.0 - skew).ln(),
        }
    }

    pub fn scrambled_zipf(n: u64, theta: f64) -> Sampler {
        assert!(n > 2 && theta > 0.0 && theta < 1.0);
        assert!(n < 1 << 31, "rank * SCRAMBLE must fit in u64");
        assert_eq!(gcd(SCRAMBLE, n), 1, "scramble must permute 0..n");
        let zetan = zeta(n, theta);
        Sampler::ScrambledZipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan),
        }
    }

    /// The key that rank `rank` maps to (identity except for the
    /// scrambled Zipfian).
    pub fn key_of_rank(&self, rank: u64) -> u64 {
        match *self {
            Sampler::ScrambledZipf { n, .. } => rank * SCRAMBLE % n,
            _ => rank,
        }
    }

    #[inline]
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        match *self {
            Sampler::Uniform { n } => rng.below(n),
            Sampler::SelfSimilar { n, exp } => {
                ((n as f64 * rng.unit().powf(exp)) as u64).min(n - 1)
            }
            Sampler::ScrambledZipf {
                n,
                theta,
                zetan,
                alpha,
                eta,
            } => {
                let u = rng.unit();
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    ((n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
                }
            }
        }
    }

    #[inline]
    pub fn key(&self, rng: &mut Rng) -> u64 {
        let r = self.rank(rng);
        self.key_of_rank(r)
    }
}

/// Poisson arrival times in nanoseconds from the start of a phase: a pure
/// function of `(seed, salt, rate, duration)`. Exponential gaps with mean
/// `1 / rate`; the schedule ends at the first arrival past `duration_ns`.
pub fn poisson_schedule(seed: u64, salt: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0);
    let mut rng = Rng::new(seed, salt);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.05) as usize + 16);
    loop {
        t += -(1.0 - rng.unit()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_seed_and_rate() {
        let a = poisson_schedule(3, 9, 50_000.0, 200_000_000);
        assert_eq!(a, poisson_schedule(3, 9, 50_000.0, 200_000_000));
        assert_ne!(a, poisson_schedule(4, 9, 50_000.0, 200_000_000));
        assert_ne!(a, poisson_schedule(3, 9, 60_000.0, 200_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        // 10 000 expected arrivals; Poisson sd is 100.
        assert!((9_500..=10_500).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: about 1 - 1/e of them are shorter than the mean.
        let short = a.windows(2).filter(|w| w[1] - w[0] < 20_000).count();
        let frac = short as f64 / (a.len() - 1) as f64;
        assert!((0.60..=0.66).contains(&frac), "short-gap share {frac}");
    }

    #[test]
    fn scrambled_zipf_hits_its_head_mass() {
        let n = 1_000_000u64;
        let s = Sampler::scrambled_zipf(n, 0.99);
        let Sampler::ScrambledZipf { zetan, .. } = s else {
            unreachable!()
        };
        let mut rng = Rng::new(11, 0);
        let draws = 400_000;
        let (hot0, hot1) = (s.key_of_rank(0), s.key_of_rank(1));
        let (mut c0, mut c1, mut top100) = (0u64, 0u64, 0u64);
        let top: std::collections::HashSet<u64> = (0..100).map(|r| s.key_of_rank(r)).collect();
        for _ in 0..draws {
            let k = s.key(&mut rng);
            assert!(k < n);
            c0 += u64::from(k == hot0);
            c1 += u64::from(k == hot1);
            top100 += u64::from(top.contains(&k));
        }
        let p0 = 1.0 / zetan;
        let got0 = c0 as f64 / draws as f64;
        assert!((got0 / p0 - 1.0).abs() < 0.05, "rank 0: {got0} vs {p0}");
        let p1 = 0.5f64.powf(0.99) / zetan;
        let got1 = c1 as f64 / draws as f64;
        assert!((got1 / p1 - 1.0).abs() < 0.08, "rank 1: {got1} vs {p1}");
        let want100 = zeta(100, 0.99) / zetan;
        let got100 = top100 as f64 / draws as f64;
        assert!(
            (got100 / want100 - 1.0).abs() < 0.05,
            "top 100: {got100} vs {want100}"
        );
        // The scramble spreads the head: the two hottest keys are far apart
        // and in different residue classes of the block router.
        assert!(hot0.abs_diff(hot1) > 1 << 16);
    }

    #[test]
    fn scramble_is_a_permutation() {
        let n = 10_007u64;
        let s = Sampler::scrambled_zipf(n, 0.5);
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let k = s.key_of_rank(r) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn self_similar_obeys_80_20_recursively() {
        let n = 1_000_000u64;
        let s = Sampler::self_similar(n, 0.2);
        let mut rng = Rng::new(5, 0);
        let draws = 400_000;
        let (mut hot, mut hotter) = (0u64, 0u64);
        for _ in 0..draws {
            let k = s.key(&mut rng);
            assert!(k < n);
            hot += u64::from(k < n / 5);
            hotter += u64::from(k < n / 25);
        }
        let f = hot as f64 / draws as f64;
        let g = hotter as f64 / draws as f64;
        assert!((0.79..=0.81).contains(&f), "first fifth got {f}");
        assert!((0.63..=0.65).contains(&g), "first 4 % got {g}");
    }
}

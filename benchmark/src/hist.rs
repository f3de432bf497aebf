//! The benchmark's own latency histogram: log-linear buckets over
//! nanoseconds, exact below 128 ns and within 1/128 (0.8 %) above.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) keep their resolution; larger ones
/// land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// Lowest value of bucket `b` and the width of the bucket.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, 1);
    }
    let e = (b / SUB) as u32 + SUB_BITS - 1;
    let sub = (b % SUB) as u64;
    let width = 1u64 << (e - SUB_BITS);
    ((1u64 << e) + sub * width, width)
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Record `n` samples of the same value (the requests of one burst
    /// complete together).
    #[inline]
    pub fn record_n(&mut self, ns: u64, n: u64) {
        self.counts[bucket_of(ns)] += n;
        self.total += n;
        self.max = self.max.max(ns);
    }

    /// All of `parts` as one histogram.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Hist>) -> Hist {
        let mut whole = Hist::default();
        for p in parts {
            whole.merge(p);
        }
        whole
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket.
    /// 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_range(b);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return (lo as f64 + frac * width as f64).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// Samples strictly above the `q`-quantile's bucket: the guide asks
    /// for at least ten beyond the highest percentile reported.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - (q * self.total as f64).ceil() as u64
    }
}

/// Median of a slice (mean of the middle two when even). Panics on an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let delta = pos - j as f64;
        if n < 2 {
            return v[0];
        }
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_hi = 0u64;
        for b in 0..BUCKETS - 1 {
            let (lo, w) = bucket_range(b);
            assert_eq!(lo, prev_hi, "bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + w - 1), b);
            prev_hi = lo + w;
        }
    }

    #[test]
    fn quantiles_are_close_and_ordered() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got / want - 1.0).abs() < 0.01, "q{q}: {got} vs {want}");
        }
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.99));
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.samples_beyond(0.99), 1_000);
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn weighted_records_and_merge() {
        let mut a = Hist::default();
        a.record_n(1_000, 32);
        let mut b = Hist::default();
        b.record_n(9_000, 32);
        a.merge(&b);
        assert_eq!(a.count(), 64);
        assert!(a.quantile_ns(0.25) < 1_100.0);
        assert!(a.quantile_ns(0.75) > 8_900.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }
}

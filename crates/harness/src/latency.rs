//! Log-bucketed latency histogram (HdrHistogram-style), accurate to ~3%
//! relative error, supporting the paper's tail percentiles up to p99.999
//! (Figure 12).

/// Sub-buckets per power-of-two bucket (2^5 ⇒ ≤ ~3.1% relative error).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Covers values up to 2^40 ns ≈ 18 minutes.
const BUCKETS: usize = 40;

/// Latency histogram over `u64` values (nanoseconds by convention).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl std::fmt::Debug for Histogram {
    /// Summary form (bucket contents elided: 1280 counters).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS * SUB],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    #[inline]
    fn index(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUB_BITS {
            // Values below SUB fall in the first linear region.
            return (v as usize).min(SUB - 1);
        }
        let bucket = (msb - SUB_BITS + 1) as usize;
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
        (bucket * SUB + sub).min(BUCKETS * SUB - 1)
    }

    /// Largest value that lands in bucket `idx`, so a reported quantile
    /// is never below a sample that was recorded at that rank.
    fn value_of(idx: usize) -> u64 {
        let bucket = idx / SUB;
        let sub = (idx % SUB) as u64;
        if bucket == 0 {
            return sub;
        }
        let shift = bucket as u32 - 1;
        (((SUB as u64) + sub + 1) << shift) - 1
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.sum += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q ∈ \[0, 1\]` (within bucket resolution).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.sum += other.sum;
    }

    /// The paper's Figure 12 percentile ladder:
    /// min, p50, p90, p99, p99.9, p99.99, p99.999.
    pub fn paper_percentiles(&self) -> [(String, u64); 7] {
        [
            ("min".into(), self.min()),
            ("50%".into(), self.quantile(0.50)),
            ("90%".into(), self.quantile(0.90)),
            ("99%".into(), self.quantile(0.99)),
            ("99.9%".into(), self.quantile(0.999)),
            ("99.99%".into(), self.quantile(0.9999)),
            ("99.999%".into(), self.quantile(0.99999)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB as u64 - 1);
        assert_eq!(h.quantile(1.0), SUB as u64 - 1);
    }

    #[test]
    fn quantiles_track_sorted_data_within_resolution() {
        let mut h = Histogram::new();
        let data: Vec<u64> = (1..=100_000u64).collect();
        for &v in &data {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
            let exact = data[((q * data.len() as f64) as usize).min(data.len() - 1)];
            let approx = h.quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.05, "q={q}: approx {approx} vs exact {exact}");
            assert!(approx >= exact, "q={q}: {approx} under-reports {exact}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 1..5_000u64 {
            a.record(v);
            c.record(v);
        }
        for v in 5_000..50_000u64 {
            b.record(v * 3);
            c.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.min(), c.min());
        for q in [0.1, 0.5, 0.9, 0.999] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn huge_values_saturate_without_panicking() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(0.5) > 0);
    }

    #[test]
    fn paper_percentile_ladder_is_monotone() {
        let mut h = Histogram::new();
        let mut x = 12345u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        let ladder = h.paper_percentiles();
        for w in ladder.windows(2) {
            assert!(w[0].1 <= w[1].1, "{} > {}", w[0].0, w[1].0);
        }
    }
}

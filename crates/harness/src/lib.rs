//! # optiql-harness — benchmark harness for the OptiQL reproduction
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`dist`] — uniform, self-similar (Gray et al.) and Zipfian key
//!   distributions plus dense/sparse key-space mappings;
//! * [`latency`] — log-bucketed histograms up to p99.999 (Figure 12);
//! * [`micro`] — the §7.1 lock microbenchmark framework (Figures 6–8,
//!   Table 1);
//! * [`workload`] — a PiBench-style index workload driver (Figures 1,
//!   9–13);
//! * [`affine`] — a thread-per-core driver for the sharded facade
//!   (workers own shards, pin to cores, and amortize reclaim pins over
//!   operation groups; extension, not in the paper);
//! * [`pin`] — best-effort thread pinning;
//! * [`report`] — machine-readable `BENCH_<name>.json` reports shared by
//!   every bench target, so PRs can diff performance mechanically;
//! * [`mod@env`] — environment-variable knobs that let the bench binaries
//!   scale to the host (`OPTIQL_BENCH_THREADS`, `OPTIQL_BENCH_SECS`,
//!   `OPTIQL_BENCH_KEYS`, `OPTIQL_BENCH_FULL`);
//! * [`stats`] — re-export of the lock-event counters
//!   (`optiql::stats`): bench binaries bracket a run with
//!   [`stats::reset`] … [`stats::snapshot`] and derive e.g. Table 1's
//!   reader-success rates from real counters. Counters only record when
//!   the workspace is built with `--features stats`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affine;
pub mod dist;
pub mod latency;
pub mod micro;
pub mod pin;
pub mod report;
pub mod workload;

pub use affine::{run_affine, AffineReport};
pub use dist::{KeyDist, KeySpace, Sampler};
pub use latency::Histogram;
pub use micro::{cs_work, run_exclusive, run_mixed, Contention, MicroConfig, MicroResult};
pub use optiql::stats;
pub use report::{BenchJson, JsonValue, LatencySummary};
pub use workload::{preload, run, ConcurrentIndex, Mix, ScanMode, WorkloadConfig, WorkloadResult};

/// Environment-variable knobs for the bench binaries.
pub mod env {
    use std::time::Duration;

    fn var_u64(name: &str) -> Option<u64> {
        std::env::var(name).ok()?.trim().parse().ok()
    }

    /// True when `OPTIQL_BENCH_FULL=1`: longer runs, more thread points.
    pub fn full() -> bool {
        var_u64("OPTIQL_BENCH_FULL") == Some(1)
    }

    /// Thread counts to sweep. Default: powers of two up to
    /// `max(4, 2 × cores)` (the paper sweeps 1..80 on its 40-core box);
    /// override with `OPTIQL_BENCH_THREADS="1,2,4,8"`.
    pub fn thread_counts() -> Vec<usize> {
        if let Ok(s) = std::env::var("OPTIQL_BENCH_THREADS") {
            let v: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect();
            if !v.is_empty() {
                return v;
            }
        }
        let cap = (2 * crate::pin::num_cpus()).max(4);
        let mut v = vec![1];
        let mut t = 2;
        while t <= cap {
            v.push(t);
            t *= 2;
        }
        v
    }

    /// Per-point measurement duration. Default 300 ms (paper: 10 s × 20
    /// runs); override with `OPTIQL_BENCH_SECS` (fractional allowed via
    /// milliseconds in `OPTIQL_BENCH_MILLIS`).
    pub fn duration() -> Duration {
        if let Some(ms) = var_u64("OPTIQL_BENCH_MILLIS") {
            return Duration::from_millis(ms.max(10));
        }
        if let Some(s) = var_u64("OPTIQL_BENCH_SECS") {
            return Duration::from_secs(s.max(1));
        }
        if full() {
            Duration::from_secs(2)
        } else {
            Duration::from_millis(300)
        }
    }

    /// Preloaded record count for index benches. Default 1M (paper: 100M);
    /// override with `OPTIQL_BENCH_KEYS`.
    pub fn preload_keys() -> u64 {
        var_u64("OPTIQL_BENCH_KEYS").unwrap_or(if full() { 10_000_000 } else { 1_000_000 })
    }

    /// Lookups per batched call for the YCSB workload benches. Default 1
    /// (scalar); override with `OPTIQL_BENCH_BATCH` to route the lookup
    /// share of the mix through `multi_lookup`.
    pub fn batch_size() -> usize {
        var_u64("OPTIQL_BENCH_BATCH").unwrap_or(1).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_counts_start_at_one() {
        let v = super::env::thread_counts();
        assert_eq!(v[0], 1);
        assert!(v.iter().all(|&n| n >= 1));
    }

    #[test]
    fn duration_is_positive() {
        assert!(super::env::duration().as_millis() > 0);
    }
}

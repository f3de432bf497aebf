//! Lock microbenchmark framework (paper §7.1–7.2).
//!
//! Each thread repeatedly picks a lock uniformly at random from a
//! pre-allocated pool and acquires/releases it; the pool size sets the
//! contention level (1 = extreme, 5 = high, 30 000 = medium, 1 000 000 =
//! low, one-per-thread = none). Inside the critical section the thread
//! increments a volatile stack variable `cs_len` times (paper default 50).
//!
//! Mixed workloads draw read vs. write per operation; reads use the
//! optimistic (or pessimistic-shared) protocol and count successes and
//! failures separately, which is exactly the data behind the paper's
//! Table 1 reader-success-rate comparison.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use optiql::{ExclusiveLock, IndexLock};

use optiql_sharded::affinity::pin_thread;

/// Contention levels used throughout the paper's Figures 6–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contention {
    /// 1 shared lock.
    Extreme,
    /// 5 shared locks.
    High,
    /// 30 000 shared locks.
    Medium,
    /// 1 000 000 shared locks.
    Low,
    /// One private lock per thread.
    None,
}

impl Contention {
    /// Number of locks in the pool (`None` ⇒ one per thread).
    pub fn lock_count(&self, threads: usize) -> usize {
        match self {
            Contention::Extreme => 1,
            Contention::High => 5,
            Contention::Medium => 30_000,
            Contention::Low => 1_000_000,
            Contention::None => threads,
        }
    }

    /// Paper label.
    pub fn label(&self) -> &'static str {
        match self {
            Contention::Extreme => "Extreme",
            Contention::High => "High",
            Contention::Medium => "Medium",
            Contention::Low => "Low",
            Contention::None => "No Contention",
        }
    }

    /// All five levels, most contended first (Figure 6 panel order).
    pub fn all() -> [Contention; 5] {
        [
            Contention::Extreme,
            Contention::High,
            Contention::Medium,
            Contention::Low,
            Contention::None,
        ]
    }
}

/// Microbenchmark configuration.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Worker threads.
    pub threads: usize,
    /// Contention level (lock pool size).
    pub contention: Contention,
    /// Percentage of read operations (0 = pure write).
    pub read_pct: u32,
    /// Critical-section length: volatile increments (paper default 50).
    pub cs_len: u32,
    /// Measured run time.
    pub duration: Duration,
}

impl MicroConfig {
    /// Paper-default configuration: pure writes, CS length 50.
    pub fn new(threads: usize, contention: Contention, duration: Duration) -> Self {
        MicroConfig {
            threads,
            contention,
            read_pct: 0,
            cs_len: 50,
            duration,
        }
    }
}

/// Aggregated result of a microbenchmark run.
#[derive(Debug, Clone, Default)]
pub struct MicroResult {
    /// Completed exclusive acquire/release pairs.
    pub writes: u64,
    /// Reads that passed validation.
    pub reads_ok: u64,
    /// Reads that failed admission or validation (retried).
    pub reads_failed: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Completed operations per worker thread (fairness diagnostics).
    pub per_thread_ops: Vec<u64>,
}

impl MicroResult {
    /// Completed operations (successful reads + writes).
    pub fn ops(&self) -> u64 {
        self.writes + self.reads_ok
    }

    /// Completed operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of read attempts that succeeded (paper Table 1).
    pub fn read_success_rate(&self) -> f64 {
        let attempts = self.reads_ok + self.reads_failed;
        if attempts == 0 {
            0.0
        } else {
            self.reads_ok as f64 / attempts as f64
        }
    }

    /// Max/min completed-ops ratio across threads (fairness; 1.0 = fair).
    pub fn fairness_ratio(&self) -> f64 {
        let max = self.per_thread_ops.iter().copied().max().unwrap_or(0);
        let min = self.per_thread_ops.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// The paper's critical section: increment a volatile stack variable
/// `n` times.
#[inline(never)]
pub fn cs_work(n: u32) {
    let mut x: u64 = 0;
    for _ in 0..n {
        // Volatile keeps the loop from being optimized away.
        unsafe {
            let v = std::ptr::read_volatile(&x);
            std::ptr::write_volatile(&mut x, v + 1);
        }
    }
}

struct ThreadOut {
    writes: u64,
    reads_ok: u64,
    reads_failed: u64,
}

fn drive<L, F>(cfg: &MicroConfig, body: F) -> MicroResult
where
    L: ExclusiveLock,
    F: Fn(&[CachePadded<L>], &MicroConfig, usize, &AtomicBool) -> ThreadOut + Sync,
{
    let nlocks = cfg.contention.lock_count(cfg.threads);
    let locks: Arc<Vec<CachePadded<L>>> = Arc::new(
        (0..nlocks)
            .map(|_| CachePadded::new(L::default()))
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));

    let result = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let locks = Arc::clone(&locks);
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                let body = &body;
                let cfg = cfg.clone();
                s.spawn(move || {
                    pin_thread(tid);
                    barrier.wait();
                    body(&locks, &cfg, tid, &stop)
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Release);
        let outs: Vec<ThreadOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let elapsed = start.elapsed();

        let mut r = MicroResult {
            elapsed,
            ..Default::default()
        };
        for o in &outs {
            r.writes += o.writes;
            r.reads_ok += o.reads_ok;
            r.reads_failed += o.reads_failed;
            r.per_thread_ops.push(o.writes + o.reads_ok);
        }
        r
    });
    result
}

/// Pure-write microbenchmark (Figure 6): every operation is an exclusive
/// acquire + CS + release.
pub fn run_exclusive<L: ExclusiveLock>(cfg: &MicroConfig) -> MicroResult {
    drive::<L, _>(cfg, |locks, cfg, tid, stop| {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ tid as u64);
        let n = locks.len() as u64;
        let mut writes = 0u64;
        let private = matches!(cfg.contention, Contention::None);
        while !stop.load(Ordering::Relaxed) {
            let idx = if private {
                tid as u64
            } else if n == 1 {
                0
            } else {
                rng.random_range(0..n)
            };
            let lock = &locks[idx as usize];
            let t = lock.x_lock();
            cs_work(cfg.cs_len);
            lock.x_unlock(t);
            writes += 1;
        }
        ThreadOut {
            writes,
            reads_ok: 0,
            reads_failed: 0,
        }
    })
}

/// Mixed read/write microbenchmark (Figures 7–8, Table 1). Reads use the
/// optimistic (or pessimistic-shared) protocol; a failed admission or
/// validation counts as a failed read and the operation is *not* retried
/// in place — matching the index behaviour where the caller restarts.
pub fn run_mixed<L: IndexLock>(cfg: &MicroConfig) -> MicroResult {
    drive::<L, _>(cfg, |locks, cfg, tid, stop| {
        let mut rng = SmallRng::seed_from_u64(0xFACADE ^ tid as u64);
        let n = locks.len() as u64;
        let mut out = ThreadOut {
            writes: 0,
            reads_ok: 0,
            reads_failed: 0,
        };
        let private = matches!(cfg.contention, Contention::None);
        while !stop.load(Ordering::Relaxed) {
            let idx = if private {
                tid as u64
            } else if n == 1 {
                0
            } else {
                rng.random_range(0..n)
            };
            let lock = &locks[idx as usize];
            if rng.random_range(0..100) < cfg.read_pct {
                match lock.r_lock() {
                    Some(v) => {
                        cs_work(cfg.cs_len);
                        if lock.r_unlock(v) {
                            out.reads_ok += 1;
                        } else {
                            out.reads_failed += 1;
                        }
                    }
                    None => out.reads_failed += 1,
                }
            } else {
                let t = lock.x_lock();
                cs_work(cfg.cs_len);
                lock.x_unlock(t);
                out.writes += 1;
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql::{McsLock, OptLock, OptiQL, OptiQLNor, TtsLock};

    fn quick(contention: Contention, read_pct: u32) -> MicroConfig {
        MicroConfig {
            threads: 4,
            contention,
            read_pct,
            cs_len: 10,
            duration: Duration::from_millis(120),
        }
    }

    #[test]
    fn exclusive_counts_only_writes() {
        let r = run_exclusive::<TtsLock>(&quick(Contention::High, 0));
        assert!(r.writes > 0);
        assert_eq!(r.reads_ok + r.reads_failed, 0);
        assert_eq!(r.per_thread_ops.len(), 4);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn exclusive_works_for_queue_locks() {
        let r = run_exclusive::<McsLock>(&quick(Contention::Extreme, 0));
        assert!(r.writes > 0);
        let r = run_exclusive::<OptiQL>(&quick(Contention::Extreme, 0));
        assert!(r.writes > 0);
    }

    #[test]
    fn mixed_reads_mostly_succeed_without_writers() {
        let r = run_mixed::<OptLock>(&quick(Contention::Medium, 100));
        assert!(r.reads_ok > 0);
        assert_eq!(r.writes, 0);
        assert!(r.read_success_rate() > 0.99, "{}", r.read_success_rate());
    }

    #[test]
    fn optiql_admits_more_readers_than_nor_under_write_pressure() {
        // Table 1's qualitative claim: with opportunistic read, reader
        // success rates under heavy writes are much higher than NOR's.
        let cfg = quick(Contention::Extreme, 50);
        let with = run_mixed::<OptiQL>(&cfg);
        let without = run_mixed::<OptiQLNor>(&cfg);
        // Both complete writes; OptiQL must validate clearly more reads.
        assert!(with.writes > 0 && without.writes > 0);
        assert!(
            with.read_success_rate() >= without.read_success_rate(),
            "OptiQL {} vs NOR {}",
            with.read_success_rate(),
            without.read_success_rate()
        );
    }

    #[test]
    fn none_contention_uses_private_locks() {
        let r = run_exclusive::<OptLock>(&quick(Contention::None, 0));
        assert!(r.writes > 0);
        // Private locks: every thread makes progress.
        assert!(r.per_thread_ops.iter().all(|&c| c > 0));
    }

    #[test]
    fn contention_levels_map_to_pool_sizes() {
        assert_eq!(Contention::Extreme.lock_count(8), 1);
        assert_eq!(Contention::High.lock_count(8), 5);
        assert_eq!(Contention::Medium.lock_count(8), 30_000);
        assert_eq!(Contention::Low.lock_count(8), 1_000_000);
        assert_eq!(Contention::None.lock_count(8), 8);
    }
}

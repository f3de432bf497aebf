//! Opt-in shard → core affinity for thread-per-core serving.
//!
//! A sharded index scales best when each worker thread owns a subset of
//! the shards and stays on one core: the owned shards' hot nodes live in
//! that core's cache, the owned reclamation domains are the only ones the
//! thread pins, and the OS never migrates the working set. This module
//! provides the topology half of that contract:
//!
//! * [`ShardAffinity::probe`] asks the host how many logical CPUs this
//!   process may use (`available_parallelism`, which respects cpusets and
//!   container quotas) and lays shards out round-robin over them. When
//!   the probe fails or reports a single CPU, everything degrades to a
//!   deliberate no-op — single-core CI and non-Linux hosts run the same
//!   code paths, just unpinned.
//! * [`ShardAffinity::pin_to_shard`] pins the calling thread to the core
//!   a shard was placed on (Linux `sched_setaffinity`; best-effort).
//! * [`ShardAffinity::shards_of_worker`] deals shards out to a worker
//!   group round-robin, so worker `t` of `T` owns shards `{s : s ≡ t
//!   (mod T)}` — the layout the harness's affine workload mode and the
//!   planned network server both use.

/// Shard-to-core placement for one sharded index.
#[derive(Debug, Clone)]
pub struct ShardAffinity {
    /// Logical CPUs available to this process (≥ 1).
    cores: usize,
    /// Shard → core, round-robin over `cores`.
    map: Vec<usize>,
}

impl ShardAffinity {
    /// Probe the host topology and place `shards` shards round-robin
    /// over the available cores. Never fails: a failed or degenerate
    /// probe yields a single-core placement whose pinning calls are
    /// no-ops.
    pub fn probe(shards: usize) -> ShardAffinity {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ShardAffinity {
            cores,
            map: (0..shards.max(1)).map(|s| s % cores).collect(),
        }
    }

    /// Logical CPUs the probe found (≥ 1).
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of shards placed.
    pub fn shards(&self) -> usize {
        self.map.len()
    }

    /// The core shard `shard` is placed on.
    pub fn core_of(&self, shard: usize) -> usize {
        self.map[shard % self.map.len()]
    }

    /// True when pinning can do anything at all on this host: more than
    /// one core, and a platform with an affinity syscall.
    pub fn can_pin(&self) -> bool {
        cfg!(target_os = "linux") && self.cores > 1
    }

    /// Pin the calling thread to the core shard `shard` is placed on.
    /// Best-effort: returns `false` (and changes nothing) on single-core
    /// hosts, non-Linux platforms, or if the affinity call is refused —
    /// callers proceed unpinned.
    pub fn pin_to_shard(&self, shard: usize) -> bool {
        if !self.can_pin() {
            return false;
        }
        pin_to_core(self.core_of(shard))
    }

    /// The shards worker `worker` of a `workers`-thread group owns:
    /// round-robin, `{s : s ≡ worker (mod workers)}`. Every shard is
    /// owned by exactly one worker; with more workers than shards the
    /// excess workers share ownership by wrapping around.
    pub fn shards_of_worker(&self, worker: usize, workers: usize) -> Vec<usize> {
        let workers = workers.max(1);
        let n = self.map.len();
        if workers > n {
            return vec![worker % n];
        }
        (0..n).filter(|s| s % workers == worker % workers).collect()
    }
}

/// Pin the calling thread to logical CPU `core`; `false` if the call is
/// refused, and always on a platform without an affinity syscall.
#[cfg(target_os = "linux")]
pub fn pin_to_core(core: usize) -> bool {
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(core, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

/// Pin the calling thread to logical CPU `core`: not on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_core(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_never_fails() {
        let a = ShardAffinity::probe(8);
        assert!(a.cores() >= 1);
        assert_eq!(a.shards(), 8);
        for s in 0..8 {
            assert!(a.core_of(s) < a.cores());
        }
    }

    #[test]
    fn zero_shards_degrades_to_one() {
        let a = ShardAffinity::probe(0);
        assert_eq!(a.shards(), 1);
        assert_eq!(a.core_of(0), 0);
    }

    #[test]
    fn workers_partition_the_shards() {
        let a = ShardAffinity::probe(8);
        for workers in [1usize, 2, 3, 4, 8] {
            let mut owned: Vec<usize> = (0..workers)
                .flat_map(|w| a.shards_of_worker(w, workers))
                .collect();
            owned.sort_unstable();
            assert_eq!(owned, (0..8).collect::<Vec<_>>(), "workers={workers}");
        }
        // More workers than shards: wrap around, stay in range.
        for w in 0..16 {
            let s = a.shards_of_worker(w, 16);
            assert_eq!(s.len(), 1);
            assert!(s[0] < 8);
        }
    }

    #[test]
    fn pinning_is_best_effort() {
        let a = ShardAffinity::probe(4);
        // Must not crash whatever the host; success implies pinnability.
        let pinned = a.pin_to_shard(0);
        assert!(!pinned || a.can_pin());
    }
}

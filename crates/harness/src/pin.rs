//! Thread pinning (paper §7.1: "threads are pinned to hardware
//! hyperthreads to avoid migrations by the OS scheduler").
//!
//! The affinity call itself is `optiql_sharded::affinity::pin_to_core`
//! (Linux only; a no-op elsewhere, and here when the host has a single
//! CPU). Benchmarks call it best-effort.

/// Number of logical CPUs visible to this process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the calling thread to `core % num_cpus()`. Returns `true` when the
/// affinity call succeeded.
pub fn pin_thread(core: usize) -> bool {
    let ncpu = num_cpus();
    ncpu > 1 && optiql_sharded::affinity::pin_to_core(core % ncpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_cpus_is_positive() {
        assert!(num_cpus() >= 1);
    }

    #[test]
    fn pin_does_not_crash() {
        // Result depends on the host; only the call's safety is asserted.
        let _ = pin_thread(0);
        let _ = pin_thread(1_000);
    }
}

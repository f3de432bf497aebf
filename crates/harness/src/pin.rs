//! Thread pinning (paper §7.1: "threads are pinned to hardware
//! hyperthreads to avoid migrations by the OS scheduler").
//!
//! [`pin_thread`] is `optiql_sharded::affinity::pin_thread`, the one
//! placement function of the workspace: thread `i` goes to the
//! `(i % num_cpus())`-th CPU of its affinity mask (Linux only; a no-op
//! elsewhere, and here when the host has a single CPU). Benchmarks call
//! it best-effort.

pub use optiql_sharded::affinity::pin_thread;

/// Number of logical CPUs visible to this process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

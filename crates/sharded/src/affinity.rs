//! Thread placement: the one `sched_setaffinity` call in the workspace
//! (paper §7.1: "threads are pinned to hardware hyperthreads to avoid
//! migrations by the OS scheduler").
//!
//! [`pin_thread`] places thread `i` on the `(i % n)`-th CPU this thread
//! may run on, where `n` is `available_parallelism` (which respects
//! cpusets and container quotas). Under a cpuset such as `{2, 3}` that is
//! CPU 2 or 3, not CPU *index* 0 or 1. With one CPU, or off Linux, it is
//! a deliberate no-op, so single-core hosts run the same code unpinned.

/// Pin the calling thread to the `(i % n)`-th CPU of its own affinity
/// mask, `n` being `available_parallelism`. Best-effort: `false` (and
/// nothing changed) with one CPU, off Linux, or if a call is refused —
/// callers proceed unpinned.
#[cfg(target_os = "linux")]
pub fn pin_thread(i: usize) -> bool {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    if n <= 1 {
        return false;
    }
    let size = std::mem::size_of::<libc::cpu_set_t>();
    // SAFETY: both sets are zeroed, correctly sized `cpu_set_t`s that
    // live for the whole call; pid 0 addresses the calling thread.
    unsafe {
        let mut allowed: libc::cpu_set_t = std::mem::zeroed();
        if libc::sched_getaffinity(0, size, &mut allowed) != 0 {
            return false;
        }
        let Some(cpu) = cpu_of(&allowed, i, n) else {
            return false;
        };
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(cpu, &mut set);
        libc::sched_setaffinity(0, size, &set) == 0
    }
}

/// Pin the calling thread: not on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_i: usize) -> bool {
    false
}

/// The CPU thread `i` is placed on: the `(i % n)`-th CPU set in
/// `allowed`, or `None` if `allowed` holds fewer than `n` CPUs.
#[cfg(target_os = "linux")]
fn cpu_of(allowed: &libc::cpu_set_t, i: usize, n: usize) -> Option<usize> {
    (0..libc::CPU_SETSIZE as usize)
        // SAFETY: `CPU_ISSET` only reads the set; `unsafe` is the libc
        // crate's signature, not a precondition.
        .filter(|&cpu| unsafe { libc::CPU_ISSET(cpu, allowed) })
        .nth(i % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn threads_land_on_the_allowed_cpus_in_order() {
        let mask = |cpus: &[usize]| {
            // SAFETY: a zeroed `cpu_set_t` is the empty set, and
            // `CPU_SET` only sets one bit of it.
            unsafe {
                let mut set: libc::cpu_set_t = std::mem::zeroed();
                for &c in cpus {
                    libc::CPU_SET(c, &mut set);
                }
                set
            }
        };
        // (allowed CPUs, where threads 0..4 land). Under `{2, 3}`, CPU
        // *index* `i % n` would be 0 or 1, which the kernel refuses.
        let cases: [(&[usize], [usize; 4]); 4] = [
            (&[0, 1], [0, 1, 0, 1]),
            (&[2, 3], [2, 3, 2, 3]),
            (&[0, 2], [0, 2, 0, 2]),
            (&[5], [5, 5, 5, 5]),
        ];
        let wrong: Vec<_> = cases
            .iter()
            .filter_map(|&(cpus, want)| {
                let allowed = mask(cpus);
                let got: Vec<_> = (0..4).map(|i| cpu_of(&allowed, i, cpus.len())).collect();
                (got != want.map(Some)).then_some((cpus, got))
            })
            .collect();
        assert!(
            wrong.is_empty(),
            "(allowed, placed) off the mask: {wrong:?}"
        );
        // `available_parallelism` can be below the mask's size (a CPU
        // quota), never above it; above, there is nothing to pin to.
        assert_eq!(cpu_of(&mask(&[0, 1, 2, 3]), 3, 2), Some(1));
        assert_eq!(cpu_of(&mask(&[4]), 0, 2), Some(4));
        assert_eq!(cpu_of(&mask(&[4]), 1, 2), None);
    }

    #[test]
    fn pinning_is_best_effort() {
        // Must not crash whatever the host; one CPU never pins. (`n` is
        // read first: a pinned thread's own mask has one CPU.)
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned = pin_thread(0);
        assert!(!pinned || (cfg!(target_os = "linux") && n > 1));
    }
}

//! Offline shim for `libc`: just enough for `sched_getaffinity` /
//! `sched_setaffinity` thread pinning on Linux/glibc. Layout of
//! `cpu_set_t` matches glibc's 1024-bit fixed-size set.

#![allow(non_camel_case_types, non_snake_case)]

/// CPUs a `cpu_set_t` can name.
pub const CPU_SETSIZE: i32 = 1024;

/// glibc `cpu_set_t`: 1024 CPU bits as 16 × 64-bit masks.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct cpu_set_t {
    bits: [u64; 16],
}

/// Set CPU `cpu` in `set` (no-op when out of range, like `CPU_SET`).
///
/// # Safety
/// Mirrors the libc macro's signature; safe in practice, `unsafe` kept
/// for drop-in source compatibility with the real crate.
#[allow(clippy::missing_safety_doc)]
pub unsafe fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    if cpu < 1024 {
        set.bits[cpu / 64] |= 1u64 << (cpu % 64);
    }
}

/// Whether CPU `cpu` is in `set` (`false` when out of range, like
/// `CPU_ISSET`).
///
/// # Safety
/// As [`CPU_SET`]: `unsafe` only for source compatibility.
pub unsafe fn CPU_ISSET(cpu: usize, set: &cpu_set_t) -> bool {
    cpu < 1024 && set.bits[cpu / 64] & (1u64 << (cpu % 64)) != 0
}

extern "C" {
    #[link_name = "sched_setaffinity"]
    fn sched_setaffinity_sys(pid: i32, cpusetsize: usize, mask: *const cpu_set_t) -> i32;
    #[link_name = "sched_getaffinity"]
    fn sched_getaffinity_sys(pid: i32, cpusetsize: usize, mask: *mut cpu_set_t) -> i32;
}

/// Pin the calling thread (pid 0) or process to the CPUs in `mask`.
///
/// # Safety
/// `mask` must point to a valid `cpu_set_t` of `cpusetsize` bytes.
pub unsafe fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const cpu_set_t) -> i32 {
    sched_setaffinity_sys(pid, cpusetsize, mask)
}

/// Read the CPUs the calling thread (pid 0) or process may run on into
/// `mask`.
///
/// # Safety
/// `mask` must point to a writable `cpu_set_t` of `cpusetsize` bytes.
pub unsafe fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut cpu_set_t) -> i32 {
    sched_getaffinity_sys(pid, cpusetsize, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_set_layout_matches_glibc() {
        assert_eq!(std::mem::size_of::<cpu_set_t>(), 128);
        let mut set: cpu_set_t = unsafe { std::mem::zeroed() };
        unsafe { CPU_SET(3, &mut set) };
        unsafe { CPU_SET(64, &mut set) };
        assert_eq!(set.bits[0], 1 << 3);
        assert_eq!(set.bits[1], 1);
        assert!(unsafe { CPU_ISSET(3, &set) && CPU_ISSET(64, &set) });
        assert!(unsafe { !CPU_ISSET(4, &set) && !CPU_ISSET(5000, &set) });
    }
}

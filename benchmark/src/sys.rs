//! Host facts and thread placement.

use std::path::Path;

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the calling thread to `core % nproc`. Best effort; a no-op with
/// one CPU or off Linux.
#[cfg(target_os = "linux")]
pub fn pin_thread(core: usize) -> bool {
    let n = nproc();
    if n <= 1 {
        return false;
    }
    // SAFETY: `set` is a zeroed, correctly sized `cpu_set_t` that lives
    // for the whole call; pid 0 addresses the calling thread.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(core % n, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_core: usize) -> bool {
    false
}

/// The core generator thread `i` runs on. The server's only worker pins
/// itself to core 0, so generators stay off it whenever there is a
/// second core.
pub fn generator_core(i: usize) -> usize {
    let n = nproc();
    if n <= 1 {
        0
    } else {
        1 + i % (n - 1)
    }
}

/// Resident set size in bytes (`VmRSS`), 0 where `/proc` is missing.
pub fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`), `"unknown"` when it cannot be told.
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(ty)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), ty.to_string());
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_avoid_core_zero_when_they_can() {
        for i in 0..4 {
            let c = generator_core(i);
            assert!(c < nproc());
            if nproc() > 1 {
                assert_ne!(c, 0);
            }
        }
    }

    #[test]
    fn rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(rss_bytes() > 0);
            assert_ne!(fs_type(Path::new(".")), "");
        }
    }
}

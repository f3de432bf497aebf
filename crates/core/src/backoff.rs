//! Truncated exponential backoff (Anderson \[2\]).
//!
//! Centralized locks can optionally back off between CAS retries to ease
//! contention on the lock word. The paper notes (§1.1) that backoff trades
//! fairness for throughput — "lucky" threads can be ~3× more likely to
//! acquire the lock — which is why OptiQL prefers a queue. We implement it
//! anyway as an ablation baseline (`OptLockBackoff`, `TtsBackoff`).

use std::hint;
use std::thread;

/// Exponential backoff with a truncation cap, counted in `spin_loop` hints.
#[derive(Debug, Clone)]
pub struct Backoff {
    current: u32,
    max: u32,
}

/// Initial backoff window (spin-loop hints).
pub const DEFAULT_MIN: u32 = 4;
/// Truncation cap. Chosen empirically; large enough to drain contention,
/// small enough not to idle a whole quantum.
pub const DEFAULT_MAX: u32 = 1024;

impl Default for Backoff {
    fn default() -> Self {
        Self::new(DEFAULT_MIN, DEFAULT_MAX)
    }
}

impl Backoff {
    /// Create a backoff helper with the given initial window and cap.
    pub const fn new(min: u32, max: u32) -> Self {
        Backoff { current: min, max }
    }

    /// Wait for the current window, then double it (up to the cap).
    #[inline]
    pub fn wait(&mut self) {
        for _ in 0..self.current {
            hint::spin_loop();
        }
        if self.current >= self.max {
            // At the cap: also give the scheduler a chance, which matters
            // on oversubscribed hosts.
            thread::yield_now();
        }
        self.current = (self.current.saturating_mul(2)).min(self.max);
    }

    /// Current window size (for tests / diagnostics).
    #[inline]
    pub fn window(&self) -> u32 {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_doubles_until_cap() {
        let mut b = Backoff::new(4, 64);
        let mut seen = vec![b.window()];
        for _ in 0..8 {
            b.wait();
            seen.push(b.window());
        }
        assert_eq!(seen, vec![4, 8, 16, 32, 64, 64, 64, 64, 64]);
    }
}

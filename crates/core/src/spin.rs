//! Spin-wait helper.
//!
//! The paper's environment never oversubscribes cores, so waiters spin
//! locally forever. On machines with fewer hardware threads than workers
//! (including the single-core CI hosts this crate is tested on), pure
//! spinning can stall progress for an entire scheduler quantum while the
//! thread that must act is descheduled. `Spinner` therefore spins with a
//! CPU-relax hint for a bounded number of iterations and then yields to the
//! OS scheduler — the algorithmic behaviour is unchanged, only the waiting
//! primitive degrades gracefully.

use std::hint;
use std::thread;

/// Number of `spin_loop` hints issued before each `yield_now`.
const SPINS_BEFORE_YIELD: u32 = 128;

/// Bounded spinner: relax the CPU first, involve the scheduler afterwards.
#[derive(Debug, Default)]
pub struct Spinner {
    spins: u32,
}

impl Spinner {
    /// Create a fresh spinner.
    #[inline]
    pub const fn new() -> Self {
        Spinner { spins: 0 }
    }

    /// Perform one wait step.
    #[inline]
    pub fn spin(&mut self) {
        if self.spins < SPINS_BEFORE_YIELD {
            self.spins += 1;
            hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

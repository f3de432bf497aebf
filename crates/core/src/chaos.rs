//! Seeded chaos-schedule injection at the lock-event sites.
//!
//! The latent OLC races this workspace has hit so far (the ART
//! `is_full`-after-recheck panic, the missing parent re-validation after
//! a child `r_lock`) all live in windows a few instructions wide between
//! two lock-protocol steps. Stress tests only trip them when the
//! scheduler happens to preempt inside such a window; this module makes
//! that happen on purpose. Every [`stats::record`](crate::stats::record)
//! call site — lock acquire, handover, opportunistic-read admission,
//! validation failure, OLC restart, AOR window close, batch pipeline
//! round — doubles as an **injection point** where a deterministic,
//! seed-replayable perturbation (a scheduler yield or a bounded spin
//! burst) can be inserted to stretch exactly those windows.
//!
//! Design constraints:
//!
//! * **Zero cost when off.** Everything is gated behind the `chaos`
//!   cargo feature; without it [`perturb`] compiles to nothing, so
//!   production and benchmark builds are untouched. A bench binary
//!   refuses to run when the feature was unified on ([`COMPILED`]).
//! * **Deterministic per thread.** Each thread owns a SplitMix64 stream
//!   seeded from `(global seed, thread slot)`; the decision sequence a
//!   thread observes is a pure function of the seed, its slot, and its
//!   own event count. Re-running the same seed replays the same
//!   perturbation pattern, which in practice reproduces the same
//!   interleaving class — that is what makes a failing chaos seed a
//!   *regression test* instead of an anecdote.
//! * **Re-entrancy safe.** Perturbation never takes locks and never
//!   records events itself.
//!
//! The checker crate (`optiql-check`) owns configuration: it calls
//! [`configure`] before a run, [`register_thread`] from each worker, and
//! [`disable`] afterwards. Threads that never register (e.g. the main
//! thread) derive a slot from a global counter, so they are perturbed
//! too, just without a driver-pinned identity.

use crate::stats::Event;

#[cfg(feature = "chaos")]
mod imp {
    use super::Event;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Global chaos configuration. `GENERATION` bumps on every
    /// (re)configuration so thread-local streams reseed lazily.
    static ENABLED: AtomicBool = AtomicBool::new(false);
    static SEED: AtomicU64 = AtomicU64::new(0);
    static GENERATION: AtomicU64 = AtomicU64::new(0);
    /// Slot source for threads that never called `register_thread`.
    static ANON_SLOTS: AtomicU64 = AtomicU64::new(1 << 32);

    thread_local! {
        /// (generation this stream was seeded for, rng state).
        static STREAM: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        /// Driver-assigned slot; `u64::MAX` means "not registered".
        static SLOT: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    #[inline]
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(super) fn configure(seed: u64) {
        SEED.store(seed, Ordering::Relaxed);
        GENERATION.fetch_add(1, Ordering::Release);
        ENABLED.store(true, Ordering::Release);
    }

    pub(super) fn disable() {
        ENABLED.store(false, Ordering::Release);
        GENERATION.fetch_add(1, Ordering::Release);
    }

    pub(super) fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn register_thread(slot: u64) {
        SLOT.with(|s| s.set(slot));
        // Force a reseed on the next perturbation.
        STREAM.with(|s| s.set((0, 0)));
    }

    /// Draw the next value of this thread's deterministic stream,
    /// reseeding if the global configuration changed.
    #[inline]
    fn draw() -> u64 {
        STREAM.with(|cell| {
            let generation = GENERATION.load(Ordering::Acquire);
            let (mut stream_gen, mut state) = cell.get();
            if stream_gen != generation {
                let slot = SLOT.with(|s| {
                    let v = s.get();
                    if v != u64::MAX {
                        v
                    } else {
                        let anon = ANON_SLOTS.fetch_add(1, Ordering::Relaxed);
                        s.set(anon);
                        anon
                    }
                });
                // Seed the stream from (seed, slot): SplitMix over the
                // xor keeps nearby slots decorrelated.
                let mut seeder =
                    SEED.load(Ordering::Relaxed) ^ slot.wrapping_mul(0xA24B_AED4_963E_E407);
                state = splitmix(&mut seeder);
                stream_gen = generation;
            }
            let v = splitmix(&mut state);
            cell.set((stream_gen, state));
            v
        })
    }

    /// Inverse perturbation probability per event class: lower is more
    /// aggressive. The "juicy" sites — where the known races lived — get
    /// perturbed every few occurrences; steady-state sites only rarely,
    /// so throughput stays high enough to generate real contention.
    #[inline]
    fn inv_freq(e: Event) -> u64 {
        match e {
            // Handover / opportunistic-read windows (§5.3) and the
            // coupling-validation failure paths.
            Event::ExHandover
            | Event::OpReadAdmit
            | Event::OpReadWindowClose
            | Event::ReadValidateFail
            | Event::UpgradeFail
            | Event::IndexRestart
            | Event::BatchPrefetchRound
            | Event::BatchOpRestart => 4,
            // Acquisition / admission steady state.
            Event::ExAcquire
            | Event::ExQueueWait
            | Event::ReadAdmit
            | Event::ReadReject
            | Event::UpgradeOk
            | Event::ReadValidateOk => 24,
            Event::QnodeExhausted | Event::BatchIssued => 16,
        }
    }

    #[inline]
    pub(super) fn perturb(e: Event) {
        if !enabled() {
            return;
        }
        let r = draw();
        if r % inv_freq(e) != 0 {
            return;
        }
        apply(r >> 8);
    }

    pub(super) fn jitter(class: u64) {
        if !enabled() {
            return;
        }
        let r = draw() ^ class.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        if r % 3 == 0 {
            return;
        }
        apply(r >> 8);
    }

    /// Execute one perturbation: mostly scheduler yields (the strongest
    /// reordering primitive available from user space), otherwise a
    /// bounded spin burst that stretches the current window without
    /// giving up the CPU.
    #[inline]
    fn apply(r: u64) {
        if r & 1 == 0 {
            std::thread::yield_now();
        } else {
            let spins = (r >> 1) % 96 + 4;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
    }
}

/// True when this build has the `chaos` feature: every injection site then
/// loads the enabled flag, even while injection is off. Cargo unifies the
/// feature on for every crate a command builds next to `optiql-check`
/// (`cargo bench --workspace`), so a measuring binary checks it.
pub const COMPILED: bool = cfg!(feature = "chaos");

/// Enable chaos injection with the given schedule seed. Bumps the
/// configuration generation so every thread's decision stream reseeds.
///
/// No-op without the `chaos` feature.
pub fn configure(seed: u64) {
    #[cfg(feature = "chaos")]
    imp::configure(seed);
    #[cfg(not(feature = "chaos"))]
    let _ = seed;
}

/// Disable chaos injection (perturbation sites return immediately).
pub fn disable() {
    #[cfg(feature = "chaos")]
    imp::disable();
}

/// True when chaos injection is currently enabled.
pub fn enabled() -> bool {
    #[cfg(feature = "chaos")]
    {
        imp::enabled()
    }
    #[cfg(not(feature = "chaos"))]
    {
        false
    }
}

/// Pin the calling thread's deterministic stream to `slot`. Drivers call
/// this once per worker (with the worker index) so a seed replays the
/// same per-thread decision sequences run over run.
pub fn register_thread(slot: u64) {
    #[cfg(feature = "chaos")]
    imp::register_thread(slot);
    #[cfg(not(feature = "chaos"))]
    let _ = slot;
}

/// Perturbation hook wired into [`stats::record`](crate::stats::record):
/// with probability depending on the event class, insert a deterministic
/// yield or spin burst. Compiles to nothing without the `chaos` feature.
#[inline(always)]
pub fn perturb(e: Event) {
    #[cfg(feature = "chaos")]
    imp::perturb(e);
    #[cfg(not(feature = "chaos"))]
    let _ = e;
}

/// Extra injection point for wrappers outside the lock layer (e.g. the
/// checker's `ChaosIndex` perturbs around whole index operations).
/// `class` decorrelates call sites sharing a thread stream. Compiles to
/// nothing without the `chaos` feature.
#[inline(always)]
pub fn jitter(class: u64) {
    #[cfg(feature = "chaos")]
    imp::jitter(class);
    #[cfg(not(feature = "chaos"))]
    let _ = class;
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;

    #[test]
    fn configure_enable_disable_cycle() {
        assert!(!enabled());
        configure(42);
        assert!(enabled());
        register_thread(0);
        for i in 0..1_000 {
            perturb(Event::ExHandover);
            jitter(i);
        }
        disable();
        assert!(!enabled());
        // Disabled: must be a no-op (nothing to assert beyond "returns").
        perturb(Event::ExHandover);
    }
}

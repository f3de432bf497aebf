//! Shared optimistic-lock-coupling (OLC) restart protocol.
//!
//! Every index built on the lock family traverses optimistically and
//! restarts from the root when validation fails (paper §6). The restart
//! *pacing* — how long to wait before retrying, and when to hand the CPU
//! back to the scheduler — is index-independent policy, so it lives here
//! instead of being re-implemented per tree:
//!
//! * [`RestartLoop`] — a four-rung escalation ladder: a free first
//!   attempt, two short spin bursts ([`SPIN_HINTS`]), and then
//!   `thread::yield_now` on every later attempt so oversubscribed hosts
//!   make progress. Each counted restart feeds the owning index's
//!   [`Counters`] block and is an [`Event::IndexRestart`] chaos site.
//! * [`OptimisticGuard`] — an RAII-free (plain-value) read guard pairing
//!   an [`IndexLock`] with the version snapshot taken at `r_lock`,
//!   encapsulating the validate / recheck / abandon discipline that the
//!   lock-coupling protocols repeat at every node.
//! * [`OPS`] / [`RESTARTS`] / [`ESCALATIONS`] and [`IndexStats`] — the
//!   unified per-index accounting: the first [`INDEX_LANES`] lanes of every
//!   index's [`Counters`] block mean the same thing, so benchmarks print
//!   one consistent restart column no matter which structure is
//!   underneath. The lanes after them are the index's own.
//! * [`Step`] and its two drivers. Each tree writes its descent once, as
//!   a resumable step function that moves one level and reports where it
//!   stands; *who calls it* decides the schedule. A scalar entry point
//!   is the batch of one: a [`RestartLoop`] around a loop that re-enters
//!   the step at once. [`run_grouped`] is the batched driver: it parks the
//!   step's state between turns so a group keeps [`GROUP`] cache misses in
//!   flight.

use crate::counters::Counters;
use crate::stats::Event;
use crate::traits::{IndexLock, WriteStrategy, WriteToken};

/// Operations interleaved per pipeline group of [`run_grouped`]. Eight
/// in-flight misses is in the range today's cores can keep outstanding
/// (10+ line fill buffers); larger groups mostly add register/stack
/// pressure.
pub const GROUP: usize = 8;
/// Pipelined restarts per operation before [`run_grouped`] completes it
/// on the scalar path (which has the full free→spin→yield ladder).
pub const PIPELINE_ATTEMPTS: u32 = 3;

/// Spin-loop hints the second and third attempts of a [`RestartLoop`]
/// wait before they start; the first attempt is free and every later
/// one yields.
pub const SPIN_HINTS: [u32; 2] = [4, 8];

/// Lane of an index's [`Counters`] block: completed operations (all
/// kinds), one add per public entry point, one per batch for `multi_*`.
pub const OPS: usize = 0;
/// Lane: traversal restarts, counted by [`RestartLoop::pause`] and, for a
/// pipelined batch, once when the batch drains.
pub const RESTARTS: usize = 1;
/// Lane: restart pauses that escalated to a scheduler yield.
pub const ESCALATIONS: usize = 2;
/// Lanes this protocol owns; an index's own lanes start here.
pub const INDEX_LANES: usize = 3;

/// Snapshot of the unified index accounting: one struct for every index
/// type, replacing per-tree restart counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Traversal restarts (failed validation / upgrade / admission),
    /// excluding each operation's free first attempt.
    pub restarts: u64,
    /// Completed operations (all kinds).
    pub ops: u64,
    /// Restart pauses that escalated past spinning to a scheduler yield.
    pub escalations: u64,
}

impl IndexStats {
    /// The view of an index's summed [`Counters`] block.
    pub fn of(lanes: &[u64]) -> IndexStats {
        IndexStats {
            restarts: lanes[RESTARTS],
            ops: lanes[OPS],
            escalations: lanes[ESCALATIONS],
        }
    }

    /// Accumulate another snapshot (e.g. summing shards of a partitioned
    /// index).
    pub fn merge(&mut self, other: IndexStats) {
        self.restarts += other.restarts;
        self.ops += other.ops;
        self.escalations += other.escalations;
    }

    /// Per-field difference `self - earlier` (saturating), for interval
    /// accounting between two snapshots.
    pub fn since(&self, earlier: &IndexStats) -> IndexStats {
        IndexStats {
            restarts: self.restarts.saturating_sub(earlier.restarts),
            ops: self.ops.saturating_sub(earlier.ops),
            escalations: self.escalations.saturating_sub(earlier.escalations),
        }
    }

    /// Restarts per completed operation (0 when no operation ran).
    pub fn restarts_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.restarts as f64 / self.ops as f64
        }
    }
}

/// Restart pacing for one index operation.
///
/// Create one per operation, call [`pause`](RestartLoop::pause) at the
/// top of the `'restart:` loop, and the ladder takes care of the rest:
/// the first pause is free, the next two spin [`SPIN_HINTS`] hints, and
/// every later one yields, while feeding the owning index's
/// [`Counters`] block.
pub struct RestartLoop<'a, const N: usize> {
    attempts: u32,
    stats: &'a Counters<N>,
}

impl<'a, const N: usize> RestartLoop<'a, N> {
    /// A fresh loop reporting restarts to the [`RESTARTS`] and
    /// [`ESCALATIONS`] lanes of `stats`.
    pub fn new(stats: &'a Counters<N>) -> Self {
        const { assert!(N >= INDEX_LANES) };
        RestartLoop { attempts: 0, stats }
    }

    /// Wait according to the escalation ladder; counts a restart on every
    /// pause after the first, and an escalation on every yield.
    #[inline]
    pub fn pause(&mut self) {
        self.attempts = self.attempts.saturating_add(1);
        let hints = match self.attempts {
            1 => return,
            2 => SPIN_HINTS[0],
            3 => SPIN_HINTS[1],
            _ => {
                self.count_restart();
                self.stats.add(ESCALATIONS, 1);
                std::thread::yield_now();
                return;
            }
        };
        self.count_restart();
        for _ in 0..hints {
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn count_restart(&self) {
        self.stats.add(RESTARTS, 1);
        crate::stats::record(Event::IndexRestart);
    }
}

/// Outcome of one resumable descent step.
pub enum Step<S, R> {
    /// Moved one level; `S` is where the descent now stands. A scalar
    /// driver re-enters at once, the batched driver parks `S` until the
    /// operation's next turn.
    Next(S),
    /// The operation finished with this result.
    Done(R),
    /// Validation failed: begin again from the root.
    Restart,
}

/// Where one operation of a group stands between turns.
enum Slot<S, R> {
    /// In the pipeline: parked at `at` (`None`: about to start from the
    /// root) after `attempts` pipelined restarts.
    Run {
        at: Option<S>,
        attempts: u32,
    },
    /// Repeats the key of an earlier operation in its group: runs scalar,
    /// in order, once the group has drained.
    Deferred,
    Done(R),
}

/// `L`'s reads hold real shared locks: its strategy, the one place a lock
/// says so, is pessimistic coupling.
const fn pessimistic<L: IndexLock>() -> bool {
    matches!(L::STRATEGY, WriteStrategy::Pessimistic)
}

/// The batched driver: run operations `0..n` as groups of [`GROUP`]
/// in-flight descents advanced round-robin, and return their results in
/// input order.
///
/// `turn(i, at)` advances operation `i` from its parked state (`None`: from
/// the root) and reports a [`Step`]; it should end a turn by prefetching
/// what the next one touches and returning [`Step::Next`], so that by the
/// time the round-robin comes back (≈`GROUP - 1` other turns later) the
/// line has landed. `scalar(i)` completes operation `i` on the scalar
/// driver without accounting it; it serves operations that restarted
/// [`PIPELINE_ATTEMPTS`] times and operations for which `same_key(e, i)`
/// holds for an earlier `e` of their group (they must observe `e`'s write,
/// so they run after the group drains — groups are sequential, so only
/// intra-group repeats can race). Batches of one and pessimistic locks
/// (whose reads hold real shared locks, which must not be parked across
/// turns) run `scalar` throughout.
///
/// Accounts the batch on `stats` once: `n` operations plus the pipelined
/// restarts (scalar completions count their own restarts).
pub fn run_grouped<L: IndexLock, S, R, const N: usize>(
    stats: &Counters<N>,
    n: usize,
    same_key: impl Fn(usize, usize) -> bool,
    mut turn: impl FnMut(usize, Option<S>) -> Step<S, R>,
    mut scalar: impl FnMut(usize) -> R,
) -> Vec<R> {
    crate::stats::record(Event::BatchIssued);
    stats.add(OPS, n as u64);
    if pessimistic::<L>() || n < 2 {
        return (0..n).map(scalar).collect();
    }
    let mut out = Vec::with_capacity(n);
    let mut restarts = 0u64;
    for base in (0..n).step_by(GROUP) {
        let len = GROUP.min(n - base);
        let mut slots: [Slot<S, R>; GROUP] = std::array::from_fn(|j| {
            if j < len && (base..base + j).any(|e| same_key(e, base + j)) {
                Slot::Deferred
            } else {
                Slot::Run {
                    at: None,
                    attempts: 0,
                }
            }
        });
        let in_flight = |s: &&Slot<S, R>| matches!(s, Slot::Run { .. });
        let mut pending = slots[..len].iter().filter(in_flight).count();
        while pending > 0 {
            crate::stats::record(Event::BatchPrefetchRound);
            for (j, slot) in slots[..len].iter_mut().enumerate() {
                let Slot::Run { at, attempts } = slot else {
                    continue;
                };
                let step = match at.take() {
                    None if *attempts >= PIPELINE_ATTEMPTS => Step::Done(scalar(base + j)),
                    parked => turn(base + j, parked),
                };
                match step {
                    Step::Next(next) => *at = Some(next),
                    Step::Done(r) => {
                        *slot = Slot::Done(r);
                        pending -= 1;
                    }
                    Step::Restart => {
                        *attempts += 1;
                        restarts += 1;
                        crate::stats::record(Event::BatchOpRestart);
                    }
                }
            }
        }
        for (j, slot) in slots.into_iter().take(len).enumerate() {
            out.push(match slot {
                Slot::Done(r) => r,
                Slot::Deferred => scalar(base + j),
                Slot::Run { .. } => unreachable!("group drained with an operation in flight"),
            });
        }
    }
    stats.add(RESTARTS, restarts);
    out
}

/// A hold on one [`IndexLock`], of whichever kind the lock family and the
/// caller's intent make it, carrying the one word that kind needs:
///
/// * an **optimistic snapshot** — the version read at `r_lock`; holds
///   nothing, validated at the end;
/// * a **pessimistic shared** hold — a real shared lock (the word is the
///   reader's queue node);
/// * a **pessimistic exclusive** hold — taken by
///   [`read_for_write`](OptimisticGuard::read_for_write) when the descent
///   means to write: the word is the [`WriteToken`], tagged [`HELD_EX`].
///   This is what turns an index's one write descent into exclusive lock
///   coupling under MCS-RW / pthread.
///
/// The guard is deliberately a plain value, not RAII: optimistic reads
/// have no cleanup on the happy path, and the lock-coupling protocols
/// need precise control over *when* validation happens. The consuming
/// methods make the state machine explicit, and each releases whatever
/// kind of hold the guard is:
///
/// * [`validate`](OptimisticGuard::validate) — end the hold and report
///   whether the data read under it is consistent;
/// * [`abandon`](OptimisticGuard::abandon) — drop the hold on a path that
///   does not need that answer (free for optimistic locks);
/// * [`try_upgrade`](OptimisticGuard::try_upgrade) — convert the hold
///   into exclusive ownership; on failure it is abandoned.
#[must_use = "a hold must be validated, abandoned or upgraded"]
pub struct OptimisticGuard<'a, L: IndexLock> {
    lock: &'a L,
    version: u64,
}

/// Tag on the guard's word: it is a pessimistic exclusive hold and the
/// remaining bits are its [`WriteToken`] (queue node ids are 16 bits).
const HELD_EX: u64 = 1 << 63;

impl<'a, L: IndexLock> OptimisticGuard<'a, L> {
    /// Begin a read (`acquire_sh`). `None` tells the caller to restart;
    /// pessimistic locks block and always succeed.
    #[inline]
    pub fn read(lock: &'a L) -> Option<Self> {
        let version = lock.r_lock()?;
        Some(OptimisticGuard { lock, version })
    }

    /// Enter a node on a descent that will write below it. With
    /// `exclusive` intent a pessimistic lock is taken exclusively
    /// (blocking); for every optimistic lock, and without the intent, this
    /// is [`read`](OptimisticGuard::read).
    #[inline]
    pub fn read_for_write(lock: &'a L, exclusive: bool) -> Option<Self> {
        if pessimistic::<L>() && exclusive {
            let WriteToken(token) = lock.x_lock();
            debug_assert_eq!(token & HELD_EX, 0);
            let version = token | HELD_EX;
            return Some(OptimisticGuard { lock, version });
        }
        Self::read(lock)
    }

    /// The token of a pessimistic exclusive hold, if this is one.
    #[inline]
    fn held_ex(&self) -> Option<WriteToken> {
        (pessimistic::<L>() && self.version & HELD_EX != 0)
            .then_some(WriteToken(self.version & !HELD_EX))
    }

    /// Re-validate mid-read without ending it (Algorithm 4 line 13).
    /// Trivially true for a pessimistic hold of either kind.
    #[inline]
    pub fn recheck(&self) -> bool {
        self.lock.recheck(self.version)
    }

    /// End the hold: validate the snapshot (optimistic) or release the
    /// lock (pessimistic, always `true`).
    #[inline]
    pub fn validate(self) -> bool {
        match self.held_ex() {
            Some(token) => {
                self.lock.x_unlock(token);
                true
            }
            None => self.lock.r_unlock(self.version),
        }
    }

    /// End the hold with the operation's answer: [`Step::Done`] if the
    /// data it was computed from validates, [`Step::Restart`] otherwise.
    #[inline]
    pub fn done<S, R>(self, res: R) -> Step<S, R> {
        if self.validate() {
            Step::Done(res)
        } else {
            Step::Restart
        }
    }

    /// Drop the hold without asking whether it validated. Free for
    /// optimistic locks; releases the lock for pessimistic ones.
    #[inline]
    pub fn abandon(self) {
        if pessimistic::<L>() {
            self.validate();
        }
    }

    /// Convert the hold into exclusive ownership (§6.2): an exclusive
    /// hold hands back the token it already has, a snapshot is upgraded.
    /// On failure the hold is abandoned and the caller restarts.
    #[inline]
    pub fn try_upgrade(self) -> Option<WriteToken> {
        if let Some(token) = self.held_ex() {
            return Some(token);
        }
        match self.lock.try_upgrade(self.version) {
            Some(t) => Some(t),
            None => {
                self.abandon();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optlock::OptLock;
    use crate::pthread::PthreadRwLock;
    use crate::{ExclusiveLock, McsRwLock, OptiQL};

    #[test]
    fn ladder_escalates_free_spin_backoff_yield() {
        let stats = Counters::<INDEX_LANES>::new();
        let mut rs = RestartLoop::new(&stats);
        let lanes = || {
            let s = IndexStats::of(&stats.sum());
            (s.restarts, s.escalations)
        };
        rs.pause();
        assert_eq!(lanes(), (0, 0), "first attempt is free");
        rs.pause();
        assert_eq!(lanes(), (1, 0), "second attempt spins");
        rs.pause();
        assert_eq!(lanes(), (2, 0), "third attempt spins longer");
        rs.pause();
        assert_eq!(lanes(), (3, 1), "fourth attempt yields");
        rs.pause();
        assert_eq!(lanes(), (4, 2), "yield is terminal");
    }

    #[test]
    fn restart_budget_constants_are_ordered() {
        // Each spin rung waits at least as long as the one below it.
        const { assert!(0 < SPIN_HINTS[0] && SPIN_HINTS[0] <= SPIN_HINTS[1]) }
    }

    #[test]
    fn a_restart_loop_is_an_attempt_count_and_a_reference() {
        assert_eq!(
            std::mem::size_of::<RestartLoop<'_, INDEX_LANES>>(),
            std::mem::size_of::<(u32, &Counters<INDEX_LANES>)>()
        );
    }

    #[test]
    fn index_stats_merge_and_since() {
        let a = IndexStats {
            restarts: 5,
            ops: 100,
            escalations: 1,
        };
        let b = IndexStats {
            restarts: 2,
            ops: 50,
            escalations: 0,
        };
        let mut sum = a;
        sum.merge(b);
        assert_eq!(sum.restarts, 7);
        assert_eq!(sum.ops, 150);
        assert_eq!(sum.escalations, 1);
        let d = sum.since(&b);
        assert_eq!(d.ops, 100);
        assert_eq!(d.restarts, 5);
        // since() saturates instead of underflowing.
        assert_eq!(b.since(&sum).ops, 0);
        assert!((a.restarts_per_op() - 0.05).abs() < 1e-12);
        assert_eq!(IndexStats::default().restarts_per_op(), 0.0);
    }

    /// A fake step over a map: op `i` inserts `(key, i)` and answers the
    /// key's previous value. It takes `key % 4` parked turns to get there
    /// (so a group finishes out of order); key 13 never passes validation.
    #[test]
    fn run_grouped_orders_defers_and_falls_back() {
        use std::cell::RefCell;
        use std::collections::HashMap;
        const CURSED: u64 = 13;
        let keys: Vec<u64> = vec![7, 2, 7, 13, 5, 2, 9, 4, 7, 13, 1];
        let map = RefCell::new(HashMap::new());
        let scalar_calls = RefCell::new(vec![0u32; keys.len()]);
        let turns_on_cursed = RefCell::new(0u32);
        let stats = Counters::<INDEX_LANES>::new();
        let out = run_grouped::<OptLock, u64, Option<usize>, INDEX_LANES>(
            &stats,
            keys.len(),
            |e, i| keys[e] == keys[i],
            |i, parked| match parked.unwrap_or(keys[i] % 4) {
                _ if keys[i] == CURSED => {
                    *turns_on_cursed.borrow_mut() += 1;
                    Step::Restart
                }
                0 => Step::Done(map.borrow_mut().insert(keys[i], i)),
                levels => Step::Next(levels - 1),
            },
            |i| {
                scalar_calls.borrow_mut()[i] += 1;
                map.borrow_mut().insert(keys[i], i)
            },
        );
        // Results are those of applying the ops in input order: each
        // answers the index of the previous op on its key. In particular
        // the repeats inside the first group of eight (ops 2 and 5) waited
        // for, and observed, the earlier write.
        let expect = [
            None,
            None,
            Some(0),
            None,
            None,
            Some(1),
            None,
            None,
            Some(2),
            Some(3),
            None,
        ];
        assert_eq!(out, expect);
        // Deferred repeats and the cursed key went scalar, exactly once
        // each; nothing else did. (Op 8 repeats a key of the *previous*
        // group, which had drained: no deferral needed.)
        assert_eq!(*scalar_calls.borrow(), [0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0]);
        assert_eq!(*turns_on_cursed.borrow(), 2 * PIPELINE_ATTEMPTS);
        let s = IndexStats::of(&stats.sum());
        assert_eq!(s.ops, keys.len() as u64);
        assert_eq!(s.restarts, 2 * PIPELINE_ATTEMPTS as u64);
    }

    /// Pessimistic locks and batches of one never enter the pipeline.
    #[test]
    fn run_grouped_bypasses_the_pipeline_when_it_cannot_help() {
        let stats = Counters::<INDEX_LANES>::new();
        let no_turn = |_, _: Option<()>| -> Step<(), usize> { panic!("pipelined") };
        let out = run_grouped::<PthreadRwLock, _, _, INDEX_LANES>(
            &stats,
            3,
            |_, _| false,
            no_turn,
            |i| i,
        );
        assert_eq!(out, [0, 1, 2]);
        let out =
            run_grouped::<OptLock, _, _, INDEX_LANES>(&stats, 1, |_, _| false, no_turn, |i| i);
        assert_eq!(out, [0]);
        assert_eq!(IndexStats::of(&stats.sum()).ops, 4);
    }

    #[test]
    fn guard_validates_unchanged_data() {
        let lock = OptLock::default();
        let g = OptimisticGuard::read(&lock).expect("free lock admits readers");
        assert!(g.recheck());
        assert!(g.validate());
    }

    #[test]
    fn guard_detects_concurrent_writer() {
        let lock = OptLock::default();
        let g = OptimisticGuard::read(&lock).expect("free lock admits readers");
        let t = lock.x_lock();
        lock.x_unlock(t);
        assert!(!g.recheck());
        assert!(!g.validate());
    }

    #[test]
    fn guard_upgrade_transfers_the_read() {
        let lock = OptLock::default();
        let g = OptimisticGuard::read(&lock).expect("free lock");
        let t = g.try_upgrade().expect("unchanged: upgrade succeeds");
        assert!(lock.is_locked_ex());
        lock.x_unlock(t);
        // A stale guard can no longer upgrade.
        let g1 = OptimisticGuard::read(&lock).expect("free lock");
        let t2 = lock.x_lock();
        lock.x_unlock(t2);
        assert!(g1.try_upgrade().is_none());
    }

    #[test]
    fn guard_abandon_releases_pessimistic_readers() {
        let lock = PthreadRwLock::default();
        let g = OptimisticGuard::read(&lock).expect("shared grant");
        g.abandon();
        // If abandon leaked the shared lock this x_lock would deadlock.
        let t = lock.x_lock();
        lock.x_unlock(t);
    }

    /// One of the four ways a guard ends.
    fn end<L: IndexLock>(way: usize, g: OptimisticGuard<'_, L>, lock: &L) {
        match way {
            0 => g.abandon(),
            1 => assert!(g.validate()),
            2 => assert!(matches!(g.done::<(), u8>(7), Step::Done(7))),
            _ => {
                let t = g.try_upgrade().expect("nothing intervened");
                assert!(lock.is_locked_ex());
                lock.x_unlock(t);
            }
        }
    }

    /// A write-intent guard is an exclusive hold on a pessimistic lock and
    /// a plain read — no store — on an optimistic one; either way every
    /// exit leaves the lock free.
    fn write_intent_holds_are_released<L: IndexLock>() {
        for way in 0..4 {
            let lock = L::default();
            let before = lock.r_lock().expect("free lock");
            lock.r_unlock(before);
            let g = OptimisticGuard::read_for_write(&lock, true).expect("free lock");
            assert!(g.recheck());
            assert_eq!(lock.is_locked_ex(), pessimistic::<L>());
            end(way, g, &lock);
            assert!(!lock.is_locked_ex(), "exit {way} leaked its hold");
            if !pessimistic::<L>() && way < 3 {
                assert_eq!(lock.r_lock(), Some(before), "exit {way} stored");
            }
            // Would deadlock on a leaked hold of either kind.
            let t = lock.x_lock();
            lock.x_unlock(t);
            // Without the intent the entry is `read` for every family: a
            // pessimistic hold is then shared, refuses to upgrade, and is
            // released by the refusal.
            let g = OptimisticGuard::read_for_write(&lock, false).expect("free lock");
            match g.try_upgrade() {
                Some(t) => lock.x_unlock(t),
                None => assert!(pessimistic::<L>()),
            }
            assert!(!lock.is_locked_ex());
        }
    }

    #[test]
    fn write_intent_guard_releases_on_every_exit() {
        write_intent_holds_are_released::<PthreadRwLock>();
        write_intent_holds_are_released::<McsRwLock>();
        write_intent_holds_are_released::<OptLock>();
        write_intent_holds_are_released::<OptiQL>();
    }

    /// The guard is what the batched driver parks: it must stay two words
    /// whatever it learns to hold.
    #[test]
    fn guard_is_two_words() {
        assert_eq!(std::mem::size_of::<OptimisticGuard<'_, OptiQL>>(), 16);
        assert_eq!(std::mem::size_of::<OptimisticGuard<'_, McsRwLock>>(), 16);
    }
}

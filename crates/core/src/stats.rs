//! Lock-event observability: the slow path counts, always.
//!
//! The paper's evaluation (§7, Table 1) explains throughput differences
//! through *event* rates — how often readers are rejected, how often
//! validation fails, how often writers queue and hand over — not through
//! throughput alone. Every lock calls [`record`] at each protocol step;
//! what that costs depends on where the step sits:
//!
//! * A **slow-path** event (a queue wait, a handover, an `OPREAD`
//!   admission, a rejection, a failed validation or upgrade, a window
//!   close) is one relaxed add on the calling thread's stripe of one
//!   static [`Counters`](crate::counters::Counters) block of seven
//!   lanes. The add sits out of line in a `#[cold]` function, on a branch
//!   the lock has already taken.
//! * A **fast-path** event (an uncontended acquire, an admission on a free
//!   word, a validation or upgrade that succeeds) is not counted: it would
//!   put a shared write on the path optimistic reads exist to keep clean,
//!   and an index's always-on op count already bounds it.
//! * Per-call and per-round events of the batched driver are not counted
//!   either, and neither is [`Event::IndexRestart`], which each index's
//!   own `RESTARTS` lane counts, nor [`Event::QnodeExhausted`], after which
//!   `qnode::alloc` panics.
//!
//! The lane map is a `const fn` on [`Event`], so `record(CONST)` folds to
//! the add or to nothing. With the `chaos` feature every event, counted
//! or not, doubles as a schedule-perturbation point (see
//! [`chaos`](crate::chaos)).
//!
//! [`snapshot`] sums the stripes (what exited threads recorded stays in
//! them) into a named-field [`Snapshot`]. The lanes are process-wide and
//! only grow, so harness code brackets a run with `snapshot()` …
//! `snapshot().since(&before)`.

use crate::counters::Counters;

/// Lock / index protocol steps: every [`record`] site.
///
/// The taxonomy follows the paper's discussion of where time goes under
/// contention: writer queueing (§4), handover (§5.3), opportunistic-read
/// admission (§5.3), validation failure (§3), upgrade failure (§6.2) and
/// index traversal restarts (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An exclusive acquisition completed (fast path or queued).
    ExAcquire,
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
    /// An index traversal restarted (validation failure or SMO race).
    IndexRestart,
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

/// Counted lanes: one per slow-path [`Event`].
const LANES: usize = 7;
const QUEUE_WAITS: usize = 0;
const HANDOVERS: usize = 1;
const WINDOW_CLOSES: usize = 2;
const UPGRADE_FAILS: usize = 3;
const OPREAD_ADMITS: usize = 4;
const READ_REJECTS: usize = 5;
const VALIDATE_FAILS: usize = 6;

impl Event {
    /// Short stable label (used in snapshot displays).
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
            Event::IndexRestart => "index_restart",
            Event::QnodeExhausted => "qnode_exhausted",
            Event::BatchIssued => "batch_issued",
            Event::BatchOpRestart => "batch_op_restart",
            Event::BatchPrefetchRound => "batch_prefetch_round",
        }
    }

    /// The lane counting this event, `None` for an event that is only a
    /// chaos site.
    const fn lane(self) -> Option<usize> {
        match self {
            Event::ExQueueWait => Some(QUEUE_WAITS),
            Event::ExHandover => Some(HANDOVERS),
            Event::OpReadWindowClose => Some(WINDOW_CLOSES),
            Event::UpgradeFail => Some(UPGRADE_FAILS),
            Event::OpReadAdmit => Some(OPREAD_ADMITS),
            Event::ReadReject => Some(READ_REJECTS),
            Event::ReadValidateFail => Some(VALIDATE_FAILS),
            Event::ExAcquire
            | Event::ReadAdmit
            | Event::ReadValidateOk
            | Event::UpgradeOk
            | Event::IndexRestart
            | Event::QnodeExhausted
            | Event::BatchIssued
            | Event::BatchOpRestart
            | Event::BatchPrefetchRound => None,
        }
    }
}

/// The counted lanes summed at one point in time, by name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Exclusive acquisitions that waited behind a holder.
    pub queue_waits: u64,
    /// Releases that handed the lock to a queued successor.
    pub handovers: u64,
    /// Opportunistic-read windows closed.
    pub window_closes: u64,
    /// Upgrades refused or lost.
    pub upgrade_fails: u64,
    /// Readers admitted inside a handover window.
    pub opread_admits: u64,
    /// Readers refused admission.
    pub read_rejects: u64,
    /// Optimistic reads (or rechecks) that failed validation.
    pub validate_fails: u64,
}

impl Snapshot {
    fn of(lanes: &[u64; LANES]) -> Snapshot {
        Snapshot {
            queue_waits: lanes[QUEUE_WAITS],
            handovers: lanes[HANDOVERS],
            window_closes: lanes[WINDOW_CLOSES],
            upgrade_fails: lanes[UPGRADE_FAILS],
            opread_admits: lanes[OPREAD_ADMITS],
            read_rejects: lanes[READ_REJECTS],
            validate_fails: lanes[VALIDATE_FAILS],
        }
    }

    /// Each field with the event it counts, in lane order.
    fn fields(&self) -> [(Event, u64); LANES] {
        [
            (Event::ExQueueWait, self.queue_waits),
            (Event::ExHandover, self.handovers),
            (Event::OpReadWindowClose, self.window_closes),
            (Event::UpgradeFail, self.upgrade_fails),
            (Event::OpReadAdmit, self.opread_admits),
            (Event::ReadReject, self.read_rejects),
            (Event::ReadValidateFail, self.validate_fails),
        ]
    }

    /// Table 1's reader success rate: the share of the caller's
    /// `read_attempts` that were neither rejected nor failed validation
    /// (0 when there were none). A rejected admission counts as a failure,
    /// matching the index behaviour where the caller restarts.
    pub fn reader_success(&self, read_attempts: u64) -> f64 {
        if read_attempts == 0 {
            return 0.0;
        }
        let failures = self.read_rejects + self.validate_fails;
        1.0 - failures as f64 / read_attempts as f64
    }

    /// Per-field difference `self - earlier` (saturating), for deriving
    /// interval counts from two absolute snapshots.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let (now, then) = (self.fields(), earlier.fields());
        Snapshot::of(&std::array::from_fn(|i| now[i].1.saturating_sub(then[i].1)))
    }
}

impl std::fmt::Display for Snapshot {
    /// `name=count` per lane, space-separated, named by the event counted.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (e, c)) in self.fields().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}={c}", e.name())?;
        }
        Ok(())
    }
}

static EVENTS: Counters<LANES> = Counters::new();

/// Record one event: one add on the calling thread's stripe when the
/// event is counted, nothing when it is not; a perturbation point either
/// way under the `chaos` feature.
#[inline(always)]
pub fn record(e: Event) {
    if let Some(lane) = e.lane() {
        count(lane);
    }
    #[cfg(feature = "chaos")]
    crate::chaos::perturb(e);
}

#[cold]
#[inline(never)]
fn count(lane: usize) {
    EVENTS.add(lane, 1);
}

/// Sum the stripes into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    Snapshot::of(&EVENTS.sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_EVENTS: [Event; 16] = [
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
        Event::IndexRestart,
        Event::QnodeExhausted,
        Event::BatchIssued,
        Event::BatchOpRestart,
        Event::BatchPrefetchRound,
    ];

    #[test]
    fn snapshot_default_is_all_zero() {
        let s = Snapshot::default();
        assert_eq!(s, Snapshot::of(&[0; LANES]));
        assert_eq!(s.reader_success(0), 0.0);
        assert_eq!(
            format!("{s}"),
            "ex_queue_wait=0 ex_handover=0 opread_window_close=0 upgrade_fail=0 \
             opread_admit=0 read_reject=0 read_validate_fail=0"
        );
    }

    #[test]
    fn event_names_are_unique() {
        let names: std::collections::HashSet<_> = ALL_EVENTS.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), ALL_EVENTS.len());
    }

    /// Every lane counts exactly one event, and the view reads each lane
    /// into the field named after that event.
    #[test]
    fn lane_map_is_one_to_one_and_the_view_follows_it() {
        let mut seen = [false; LANES];
        for e in ALL_EVENTS {
            if let Some(lane) = e.lane() {
                assert!(!seen[lane], "lane {lane} counts two events");
                seen[lane] = true;
                let mut lanes = [0; LANES];
                lanes[lane] = 1;
                let one = Snapshot::of(&lanes).fields();
                assert_eq!(one.iter().filter(|(_, c)| *c == 1).count(), 1);
                assert!(one.contains(&(e, 1)), "{e:?} reads into another field");
            }
        }
        assert!(seen.iter().all(|&s| s), "a lane no event counts");
    }

    #[test]
    fn since_subtracts_saturating() {
        let a = Snapshot {
            queue_waits: 10,
            ..Snapshot::default()
        };
        let b = Snapshot {
            queue_waits: 3,
            handovers: 5, // only in `earlier`: saturates to 0
            ..Snapshot::default()
        };
        let d = a.since(&b);
        assert_eq!(d.queue_waits, 7);
        assert_eq!(d.handovers, 0);
    }

    #[test]
    fn success_rate_formula_matches_table1_semantics() {
        let s = Snapshot {
            validate_fails: 10,
            read_rejects: 10,
            ..Snapshot::default()
        };
        assert!((s.reader_success(100) - 0.8).abs() < 1e-12);
    }
}

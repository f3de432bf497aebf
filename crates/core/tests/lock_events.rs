//! The always-on lock-event lanes count exactly: a single thread moves
//! only the reader and upgrade lanes, and two threads that take turns on
//! one queue lock move the queue, handover and window lanes by one per
//! queued acquisition.
//!
//! The lanes are process-wide, so the tests in this binary run one at a
//! time under `SERIAL` and compare snapshots taken before and after.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use optiql::stats::{self, Snapshot};
use optiql::word::word_id;
use optiql::{ExclusiveLock, IndexLock, OptLock, OptiQL, OptiQLCore, OptiQLNor};

static SERIAL: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 10;

#[test]
fn one_thread_moves_only_reader_and_upgrade_lanes() {
    let _serial = SERIAL.lock().unwrap();
    let ql = OptiQL::new();
    let nor = OptiQLNor::new();
    let ol = OptLock::new();
    let before = stats::snapshot();
    for _ in 0..ROUNDS {
        // Free-word admissions and validations: fast path, not counted.
        let v = ql.r_lock().unwrap();
        assert!(ql.r_unlock(v));
        let v = ol.r_lock().unwrap();
        assert!(ol.r_unlock(v));

        // One rejection while held, then one stale validation.
        let stale = nor.r_lock().unwrap();
        let t = nor.x_lock();
        assert!(nor.r_lock().is_none());
        nor.x_unlock(t);
        assert!(!nor.r_unlock(stale));

        // One upgrade that succeeds (not counted) and one that fails.
        let v = ol.r_lock().unwrap();
        let t = ol.try_upgrade(v).unwrap();
        ol.x_unlock(t);
        assert!(ol.try_upgrade(v).is_none());
    }
    let d = stats::snapshot().since(&before);
    assert_eq!(
        d,
        Snapshot {
            read_rejects: ROUNDS,
            validate_fails: ROUNDS,
            upgrade_fails: ROUNDS,
            ..Snapshot::default()
        },
        "{d}"
    );
}

/// Two threads take `ROUNDS` turns each on one lock. A holder releases
/// only once the other thread has queued behind it (the word names the
/// other's queue node), so every acquisition after the first queues and
/// every release but the last hands over. Each acquisition is the
/// adjustable one, finished at once: on OptiQL-AOR the finish closes the
/// window, on the others the grant already did. Returns the lanes'
/// movement.
fn take_turns<const OPPORTUNISTIC: bool, const AOR: bool>() -> Snapshot {
    let l = OptiQLCore::<OPPORTUNISTIC, AOR>::new();
    let held = AtomicU64::new(0);
    let first = Barrier::new(2);
    let before = stats::snapshot();
    std::thread::scope(|s| {
        for me in 0..2 {
            let (l, held, first) = (&l, &held, &first);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    if me == 1 && round == 0 {
                        first.wait(); // thread 0 holds the lock
                    }
                    let t = l.x_finish_adjustable(l.x_lock_adjustable());
                    if me == 0 && round == 0 {
                        first.wait();
                    }
                    if held.fetch_add(1, Ordering::Relaxed) + 1 < 2 * ROUNDS {
                        while word_id(l.raw()) == t.qnode_id() {
                            std::thread::yield_now();
                        }
                    }
                    l.x_unlock(t);
                }
            });
        }
    });
    assert!(!l.is_locked_ex());
    stats::snapshot().since(&before)
}

#[test]
fn every_queued_acquire_is_one_wait_one_handover_one_close() {
    let _serial = SERIAL.lock().unwrap();
    let queued = 2 * ROUNDS - 1;
    for (name, d) in [
        ("OptiQL", take_turns::<true, false>()),
        ("OptiQL-AOR", take_turns::<true, true>()),
    ] {
        assert_eq!(d.queue_waits, queued, "{name}: {d}");
        assert_eq!(d.handovers, queued, "{name}: {d}");
        assert_eq!(d.window_closes, queued, "{name}: {d}");
    }
    let d = take_turns::<false, false>();
    assert_eq!(d.queue_waits, queued, "OptiQL-NOR: {d}");
    assert_eq!(d.handovers, queued, "OptiQL-NOR: {d}");
    assert_eq!(d.window_closes, 0, "OptiQL-NOR opens no window: {d}");
    // Nobody read: the reader lanes stay still.
    assert_eq!(
        (d.read_rejects, d.validate_fails, d.opread_admits),
        (0, 0, 0)
    );
}

//! The adjustable-opportunistic-read (AOR) window lifecycle of
//! `OptiQLAor` (§5.3, §7.4), driven deterministically with barriers: the
//! window stays open until `x_finish_adjustable` — including the abort
//! path where a writer unlocks without ever finishing — and the
//! uncontended fast path opens none.

use std::sync::{Arc, Barrier, Mutex};

use optiql::stats;
use optiql::word::{is_locked, is_opread};
use optiql::{ExclusiveLock, IndexLock, OptiQLAor};

/// Every test here counts window closes in the process-wide lock-event
/// lanes, so they must not overlap.
static QUEUED: Mutex<()> = Mutex::new(());

/// The test's window closes since `before`.
fn closes_since(before: u64) -> u64 {
    stats::snapshot().window_closes - before
}

#[test]
fn aor_fast_path_token_needs_no_window_close() {
    // Uncontended x_lock_adjustable takes the fast path: no handover
    // happened, so there is no window and x_finish_adjustable is a no-op.
    let _serial = QUEUED.lock().unwrap();
    let closes = stats::snapshot().window_closes;
    let l = OptiQLAor::new();
    let t = l.x_lock_adjustable();
    assert!(l.is_locked_ex());
    assert!(
        l.r_lock().is_none(),
        "fast-path AOR write admits no readers"
    );
    let t = l.x_finish_adjustable(t);
    assert!(l.r_lock().is_none(), "finish changes nothing on fast path");
    l.x_unlock(t);
    assert!(!l.is_locked_ex());
    assert_eq!(l.r_lock().unwrap(), 1);
    assert_eq!(closes_since(closes), 0, "no handover, no window to close");
}

/// A queued AOR acquisition closes its window exactly once — at finish,
/// or at unlock when it never finished — never at both.
fn assert_one_window_close(before: u64) {
    assert_eq!(
        closes_since(before),
        1,
        "one queued write, one window close"
    );
}

/// Queued AOR path, barrier-sequenced: the granted writer's window must
/// stay open across the grant until it calls `x_finish_adjustable`, and
/// close at exactly that point.
#[test]
fn aor_window_stays_open_until_finish() {
    let _serial = QUEUED.lock().unwrap();
    let closes = stats::snapshot().window_closes;
    let l = Arc::new(OptiQLAor::new());
    let id1 = optiql::qnode::alloc();
    assert!(!l.acquire_ex_with(id1));

    let granted = Arc::new(Barrier::new(2));
    let observed = Arc::new(Barrier::new(2));
    let finished = Arc::new(Barrier::new(2));
    let drained = Arc::new(Barrier::new(2));
    let t2 = {
        let l = Arc::clone(&l);
        let (granted, observed, finished, drained) = (
            Arc::clone(&granted),
            Arc::clone(&observed),
            Arc::clone(&finished),
            Arc::clone(&drained),
        );
        std::thread::spawn(move || {
            let t = l.x_lock_adjustable(); // queues behind main, grant opens window
            granted.wait();
            observed.wait(); // main sampled the open window
            let t = l.x_finish_adjustable(t); // AOR search done: close the window
            finished.wait();
            drained.wait(); // main confirmed the closed state
            l.x_unlock(t);
        })
    };

    // Wait on protocol state until T2 is queued, then hand over.
    loop {
        let w = l.raw();
        if is_locked(w) && optiql::word::word_id(w) != id1 {
            break;
        }
        std::thread::yield_now();
    }
    l.release_ex_with(id1);
    optiql::qnode::free(id1);

    granted.wait();
    // T2 owns the lock, parked at the barrier, window open: deterministic.
    let snap = l.acquire_sh().expect("AOR window admits readers");
    assert!(is_locked(snap) && is_opread(snap));
    assert!(l.release_sh(snap), "reader inside the AOR window validates");
    observed.wait();
    finished.wait();
    // Window closed by x_finish_adjustable; T2 still holds the lock.
    assert!(
        l.acquire_sh().is_none(),
        "closed AOR window rejects readers"
    );
    assert!(!l.release_sh(snap), "window snapshot is dead after close");
    drained.wait();
    t2.join().unwrap();
    assert_eq!(l.acquire_sh().unwrap(), 2, "two completed write rounds");
    assert_one_window_close(closes);
}

#[test]
fn aor_abort_path_unlock_without_finish_closes_window() {
    // A writer that aborts its AOR search calls x_unlock directly;
    // the abandoned window must be closed before release so later readers
    // cannot validate against the stale handover state. Single-threaded
    // fast path cannot open a window, so enact the queued state manually.
    let _serial = QUEUED.lock().unwrap();
    let closes = stats::snapshot().window_closes;
    let l = Arc::new(OptiQLAor::new());
    let id1 = optiql::qnode::alloc();
    assert!(!l.acquire_ex_with(id1));

    let granted = Arc::new(Barrier::new(2));
    let t2 = {
        let l = Arc::clone(&l);
        let granted = Arc::clone(&granted);
        std::thread::spawn(move || {
            let t = l.x_lock_adjustable();
            granted.wait();
            // Abort: never call x_finish_adjustable.
            l.x_unlock(t);
        })
    };
    loop {
        let w = l.raw();
        if is_locked(w) && optiql::word::word_id(w) != id1 {
            break;
        }
        std::thread::yield_now();
    }
    l.release_ex_with(id1);
    optiql::qnode::free(id1);
    granted.wait();
    t2.join().unwrap();
    // Fully released: free word, version 2, readers validate.
    assert!(!l.is_locked_ex());
    let v = l.acquire_sh().expect("free after aborted AOR unlock");
    assert_eq!(v, 2);
    assert!(l.release_sh(v));
    assert_one_window_close(closes);
}

//! Cross-lock semantic tests: every lock claiming `IndexLock` must satisfy
//! the same observable contract, and the queue-based ones must satisfy the
//! MCS-RW reader-chaining and fairness scenarios the paper relies on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use optiql::{
    ExclusiveLock, IndexLock, McsRwLock, OptLock, OptLockBackoff, OptiQL, OptiQLAor, OptiQLNor,
    PthreadRwLock, WriteStrategy,
};

/// The common contract every IndexLock must satisfy single-threadedly.
fn contract<L: IndexLock>() {
    let l = L::default();
    // Fresh lock: a read begins and validates.
    let v = l.r_lock().expect("fresh lock admits readers");
    assert!(l.recheck(v));
    assert!(l.r_unlock(v));
    // Write cycle.
    let t = l.x_lock();
    l.x_unlock(t);
    // Reads validate again afterwards.
    let v2 = l.r_lock().unwrap();
    assert!(l.r_unlock(v2));
    // For optimistic locks the old snapshot must now fail; pessimistic
    // locks "validate" trivially (they re-acquire) — both are conforming.
    if !matches!(L::STRATEGY, WriteStrategy::Pessimistic) {
        assert!(!l.recheck(v), "stale snapshot must not recheck");
    }
}

#[test]
fn all_index_locks_satisfy_the_contract() {
    contract::<OptLock>();
    contract::<OptLockBackoff>();
    contract::<OptiQL>();
    contract::<OptiQLNor>();
    contract::<OptiQLAor>();
    contract::<McsRwLock>();
    contract::<PthreadRwLock>();
}

/// Exclusive exclusion holds for every lock (split increments would tear).
fn exclusion<L: ExclusiveLock>() {
    let l = Arc::new(L::default());
    let c = Arc::new(AtomicU64::new(0));
    let hs: Vec<_> = (0..4)
        .map(|_| {
            let l = Arc::clone(&l);
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let t = l.x_lock();
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                    l.x_unlock(t);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(c.load(Ordering::Relaxed), 20_000, "{}", L::NAME);
}

#[test]
fn all_locks_provide_mutual_exclusion() {
    exclusion::<OptLock>();
    exclusion::<OptLockBackoff>();
    exclusion::<OptiQL>();
    exclusion::<OptiQLNor>();
    exclusion::<OptiQLAor>();
    exclusion::<McsRwLock>();
    exclusion::<PthreadRwLock>();
    exclusion::<optiql::McsLock>();
    exclusion::<optiql::TtsLock>();
    exclusion::<optiql::TtsBackoff>();
}

/// Every lock's name is the series key of its rows in the committed
/// `BENCH_fig06/07/08/ablation/hotpath` reports: a lock written as a const
/// parameter of a shared core must keep the name it had as a type.
#[test]
fn every_lock_keeps_its_series_name() {
    let names = [
        optiql::TtsLock::NAME,
        optiql::TtsBackoff::NAME,
        OptLock::NAME,
        OptLockBackoff::NAME,
        OptiQL::NAME,
        OptiQLNor::NAME,
        OptiQLAor::NAME,
        optiql::McsLock::NAME,
        McsRwLock::NAME,
        PthreadRwLock::NAME,
    ];
    assert_eq!(
        names,
        [
            "TTS",
            "TTS-Backoff",
            "OptLock",
            "OptLock-Backoff",
            "OptiQL",
            "OptiQL-NOR",
            "OptiQL-AOR",
            "MCS",
            "MCS-RW",
            "pthread",
        ]
    );
}

#[test]
fn mcs_rw_readers_chain_behind_a_blocked_reader() {
    // Scenario from the M&S fair-RW algorithm: W holds; R1 queues (blocked);
    // R2 queues behind R1 and must be chained awake when R1 is granted —
    // both readers end up active simultaneously.
    let l = Arc::new(McsRwLock::new());
    let active_readers = Arc::new(AtomicU64::new(0));
    let both_seen = Arc::new(AtomicBool::new(false));

    let w = l.x_lock();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let l = Arc::clone(&l);
            let active = Arc::clone(&active_readers);
            let both = Arc::clone(&both_seen);
            let h = std::thread::spawn(move || {
                let v = l.r_lock().unwrap();
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                if now == 2 {
                    both.store(true, Ordering::SeqCst);
                }
                // Hold the shared lock until both readers overlapped (or a
                // generous timeout on slow hosts).
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while !both.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                active.fetch_sub(1, Ordering::SeqCst);
                l.r_unlock(v);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            h
        })
        .collect();
    // Both readers are queued behind the writer now; release it.
    l.x_unlock(w);
    for h in readers {
        h.join().unwrap();
    }
    assert!(
        both_seen.load(Ordering::SeqCst),
        "chained readers must overlap after the writer releases"
    );
    assert!(!l.is_busy());
}

#[test]
fn mcs_rw_writer_waits_for_all_active_readers() {
    let l = Arc::new(McsRwLock::new());
    let r1 = l.r_lock().unwrap();
    let r2 = l.r_lock().unwrap();
    let write_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let l = Arc::clone(&l);
        let d = Arc::clone(&write_done);
        std::thread::spawn(move || {
            let t = l.x_lock();
            d.store(true, Ordering::SeqCst);
            l.x_unlock(t);
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        !write_done.load(Ordering::SeqCst),
        "writer must block while readers are active"
    );
    l.r_unlock(r1);
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        !write_done.load(Ordering::SeqCst),
        "one reader still active: writer must keep waiting"
    );
    l.r_unlock(r2);
    writer.join().unwrap();
    assert!(write_done.load(Ordering::SeqCst));
}

#[test]
fn queue_locks_grant_fifo_under_staggered_arrival() {
    fn fifo<L: ExclusiveLock>() {
        let l = Arc::new(L::default());
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t0 = l.x_lock();
        let hs: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                let order = Arc::clone(&order);
                let h = std::thread::spawn(move || {
                    let t = l.x_lock();
                    order.lock().push(i);
                    l.x_unlock(t);
                });
                std::thread::sleep(std::time::Duration::from_millis(25));
                h
            })
            .collect();
        l.x_unlock(t0);
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(&*order.lock(), &[0, 1, 2, 3], "{} must be FIFO", L::NAME);
    }
    fifo::<optiql::McsLock>();
    fifo::<OptiQL>();
    fifo::<OptiQLNor>();
}

/// Drive one writer handover deterministically with barriers: T2 queues
/// behind the main thread, main releases into the handover, and every
/// window observation happens at a barrier-pinned protocol step — no
/// sleeps, no timing assumptions.
///
/// Returns (snapshot taken during the handover, whether a reader was
/// admitted during the handover, whether that snapshot validated before
/// the granted writer closed the window / released).
fn run_handover<const OPPORTUNISTIC: bool>(
    l: &Arc<optiql::OptiQLCore<OPPORTUNISTIC>>,
) -> (Option<u64>, bool) {
    use optiql::word::{is_locked, word_id};
    use std::sync::Barrier;

    let id1 = optiql::qnode::alloc();
    // Step 0: main acquires on the fast path.
    assert!(!l.acquire_ex_with(id1), "fast path while free");

    // granted: T2 owns the lock. checked: main inspected the window.
    let granted = Arc::new(Barrier::new(2));
    let checked = Arc::new(Barrier::new(2));
    let t2 = {
        let (l, granted, checked) = (Arc::clone(l), Arc::clone(&granted), Arc::clone(&checked));
        std::thread::spawn(move || {
            let id2 = optiql::qnode::alloc();
            // Step 1: queue behind main; blocks until main releases.
            assert!(l.acquire_ex_with(id2), "must queue behind holder");
            granted.wait(); // step 3 reached: we own the lock, window still open
            checked.wait(); // step 4 done: main has sampled the open window
            l.close_opread_window();
            l.release_ex_with(id2);
            optiql::qnode::free(id2);
        })
    };

    // Step 2: wait (on the protocol state itself, not on time) until T2
    // has swapped into the tail, then release into the handover.
    loop {
        let w = l.raw();
        if is_locked(w) && word_id(w) != id1 {
            break; // T2 is the tail: enqueued
        }
        std::thread::yield_now();
    }
    // While T2 is queued (pre-handover) no reader may enter.
    assert!(l.acquire_sh().is_none(), "locked, window closed: reject");
    l.release_ex_with(id1);
    optiql::qnode::free(id1);

    granted.wait();
    // Deterministic window observation: T2 holds the lock and is parked at
    // the barrier, so the word cannot change under us.
    let snap = l.acquire_sh();
    let validated = snap.is_some_and(|v| l.release_sh(v));
    checked.wait();
    t2.join().unwrap();
    (snap, validated)
}

#[test]
fn optiql_admits_readers_during_handover_window_deterministic() {
    use optiql::word::{is_locked, is_opread};
    let l = Arc::new(optiql::OptiQLCore::<true>::new());
    let (snap, validated) = run_handover(&l);
    let snap = snap.expect("OptiQL handover window must admit readers");
    assert!(
        is_locked(snap) && is_opread(snap),
        "window state is LOCKED|OPREAD"
    );
    assert!(validated, "reader fully inside the window validates");
    // After the protocol finished (two exclusive rounds), reads see v=2.
    assert_eq!(l.acquire_sh().unwrap(), 2);
}

#[test]
fn optiql_nor_rejects_readers_during_handover_deterministic() {
    let l = Arc::new(optiql::OptiQLCore::<false>::new());
    let (snap, _) = run_handover(&l);
    assert!(
        snap.is_none(),
        "OptiQL-NOR must keep readers out through the whole handover"
    );
    assert_eq!(l.acquire_sh().unwrap(), 2);
}

#[test]
fn reader_overlapping_writer_modification_fails_release_sh() {
    // Barrier-sequenced torn-read scenario: the reader snapshots, the
    // writer then runs a full critical section, and only afterwards does
    // the reader validate — release_sh must fail, for both admission
    // paths (free word and opportunistic window).
    use std::sync::Barrier;
    let l = Arc::new(OptiQL::new());
    let snapped = Arc::new(Barrier::new(2));
    let wrote = Arc::new(Barrier::new(2));
    let writer = {
        let (l, snapped, wrote) = (Arc::clone(&l), Arc::clone(&snapped), Arc::clone(&wrote));
        std::thread::spawn(move || {
            snapped.wait(); // reader holds its snapshot
            let t = l.x_lock();
            l.x_unlock(t);
            wrote.wait(); // modification round complete
        })
    };
    let v = l.acquire_sh().expect("free lock admits");
    snapped.wait();
    wrote.wait();
    assert!(
        !l.release_sh(v),
        "snapshot spanning a writer's critical section must not validate"
    );
    assert!(!l.recheck(v), "recheck agrees with release_sh");
    writer.join().unwrap();
}

#[test]
fn opportunistic_read_never_validates_across_two_critical_sections() {
    // The §5.3 ABA scenario: a writer repeatedly increments a counter; a
    // reader that snapshots during one handover window must never validate
    // after a *different* critical section completed.
    let l = Arc::new(OptiQL::new());
    let c = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for _ in 0..2 {
        let (l, c, stop) = (Arc::clone(&l), Arc::clone(&c), Arc::clone(&stop));
        writers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let t = l.x_lock();
                c.fetch_add(1, Ordering::Relaxed);
                l.x_unlock(t);
            }
        }));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(400);
    while std::time::Instant::now() < deadline {
        if let Some(v) = l.r_lock() {
            let before = c.load(Ordering::Relaxed);
            std::thread::yield_now(); // give writers room to run CSes
            let after = c.load(Ordering::Relaxed);
            if l.r_unlock(v) {
                assert_eq!(
                    before, after,
                    "validated read overlapped a critical section (ABA)"
                );
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

//! Pool-exhaustion behaviour (§6.3). This test drains the process-global
//! queue-node pool, so it lives in its own integration-test binary —
//! cargo runs each test file in a separate process, keeping the drained
//! pool away from every other test.

use optiql::qnode;

/// Serialize the tests in this binary: they all drain or count the one
/// process-global pool and would corrupt each other's invariants if cargo
/// ran them on parallel test threads.
static POOL_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn exhaustion_is_detected_not_corrupted() {
    let _serial = POOL_TESTS.lock().unwrap();
    // try_alloc must return None (not panic / not hand out duplicates)
    // when the pool runs dry, and recover fully afterwards.
    let mut held = Vec::new();
    while let Some(id) = qnode::try_alloc() {
        held.push(id);
        if held.len() > optiql::word::MAX_QNODES {
            panic!("allocated more IDs than the pool holds");
        }
    }
    let unique: std::collections::HashSet<u16> = held.iter().copied().collect();
    assert_eq!(unique.len(), held.len(), "duplicate IDs handed out");
    assert!(qnode::try_alloc().is_none());
    for id in held.drain(..) {
        qnode::free(id);
    }
    // Pool must be usable again.
    let id = qnode::try_alloc().expect("pool recovered");
    qnode::free(id);
}

#[test]
fn ids_are_recycled_under_the_1024_cap_across_threads() {
    // Far more lock acquisitions than pool slots: 8 threads × 4 locks ×
    // thousands of rounds all run inside a 1024-ID budget. Every ID handed
    // out must stay below the cap, at most `threads × live-per-thread`
    // nodes may be live at once, and the pool must end where it began.
    let _serial = POOL_TESTS.lock().unwrap();
    use optiql::{ExclusiveLock, OptiQL};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const THREADS: usize = 8;
    const ROUNDS: usize = 2_000;

    // Drain TLS caches into the global list for an accurate baseline:
    // run the counting from fresh threads below instead of this one.
    let locks: Arc<Vec<OptiQL>> = Arc::new((0..4).map(|_| OptiQL::new()).collect());
    let live_peak = Arc::new(AtomicUsize::new(0));
    let live_now = Arc::new(AtomicUsize::new(0));
    let hs: Vec<_> = (0..THREADS)
        .map(|t| {
            let locks = Arc::clone(&locks);
            let live_peak = Arc::clone(&live_peak);
            let live_now = Arc::clone(&live_now);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let l = &locks[(t + i) % locks.len()];
                    let tok = l.x_lock();
                    assert!(
                        (tok.qnode_id() as usize) < optiql::word::MAX_QNODES,
                        "ID beyond the pool cap"
                    );
                    let now = live_now.fetch_add(1, Ordering::SeqCst) + 1;
                    live_peak.fetch_max(now, Ordering::SeqCst);
                    live_now.fetch_sub(1, Ordering::SeqCst);
                    l.x_unlock(tok);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    // One node per in-flight exclusive attempt: the peak cannot exceed the
    // thread count (each thread holds at most one here), far below 1024.
    assert!(live_peak.load(Ordering::SeqCst) <= THREADS);
    // Total work vastly exceeded the cap, so recycling must have happened;
    // afterwards the whole pool is allocatable again from this thread.
    let mut all = Vec::new();
    while let Some(id) = qnode::try_alloc() {
        all.push(id);
    }
    let unique: std::collections::HashSet<u16> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "recycling produced duplicates");
    // Worker-thread TLS caches returned their IDs on thread exit, so only
    // this test's own (still-running) thread cache can hold any back.
    assert!(
        all.len() >= optiql::word::MAX_QNODES - 2 * 8,
        "pool shrank: {} of {} IDs reachable",
        all.len(),
        optiql::word::MAX_QNODES
    );
    // Free from a joined thread so none stay in this thread's cache (see
    // the racing-drain test).
    std::thread::spawn(move || all.into_iter().for_each(qnode::free))
        .join()
        .unwrap();
}

#[test]
fn a_racing_drain_hands_out_every_id_once_and_recovers() {
    // Eight fresh threads empty the pool at once, each through its own
    // cache and the one locked free list. Every ID must come out exactly
    // once; with the pool dry `alloc` panics with the pool message, and a
    // freed pool serves another thread again.
    let _serial = POOL_TESTS.lock().unwrap();
    use optiql::word::MAX_QNODES;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

    const THREADS: usize = 8;
    let start = Arc::new(Barrier::new(THREADS));
    let hs: Vec<_> = (0..THREADS)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut ids = Vec::new();
                while let Some(id) = qnode::try_alloc() {
                    ids.push(id);
                }
                ids
            })
        })
        .collect();
    let mut held: Vec<u16> = hs.into_iter().flat_map(|h| h.join().unwrap()).collect();
    // This thread's own cache, and IDs an exited sibling test's thread is
    // still returning from its cache destructor.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while held.len() < MAX_QNODES && std::time::Instant::now() < deadline {
        match qnode::try_alloc() {
            Some(id) => held.push(id),
            None => std::thread::yield_now(),
        }
    }
    let unique: HashSet<u16> = held.iter().copied().collect();
    assert_eq!(unique.len(), held.len(), "an ID was handed out twice");
    assert_eq!(held.len(), MAX_QNODES, "IDs missing after the drain");

    for id in held.drain(..) {
        qnode::free(id);
    }
    while let Some(id) = qnode::try_alloc() {
        held.push(id);
    }
    assert_eq!(held.len(), MAX_QNODES, "freed IDs did not all come back");
    let dry = std::panic::catch_unwind(qnode::alloc).expect_err("alloc on a dry pool");
    let msg = dry
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| dry.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert!(
        msg.contains("queue node pool exhausted"),
        "unexpected panic: {msg}"
    );
    // Free from a joined thread, whose cache destructor has run by the
    // time `join` returns: this thread's cache stays empty, so the next
    // test here cannot see IDs come back after it has drained the pool.
    std::thread::spawn(move || held.into_iter().for_each(qnode::free))
        .join()
        .unwrap();
    std::thread::spawn(|| qnode::free(qnode::alloc()))
        .join()
        .expect("a freed pool serves another thread");
}

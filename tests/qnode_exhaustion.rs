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
    for id in all {
        qnode::free(id);
    }
}

//! Regression: a pin held across a group of operations and dropped at
//! the group's end must keep garbage bounded.
//!
//! A caller may pin a domain once around a group of operations, so that
//! the pins inside are nested depth increments, and re-pin at the next
//! group. Two collector properties make that pattern safe, and this test
//! pins both down with the reclaim stats:
//!
//! 1. Between groups the thread holds *no* pin, so even if it parks
//!    indefinitely between groups its slot is idle and every other
//!    participant can advance the epoch and reclaim freely. A
//!    registered-but-idle thread must never hold reclamation back —
//!    only a *pinned* one may.
//! 2. Because the pin is refreshed at every group boundary, the epoch
//!    keeps moving past the thread's own bags, so its backlog stays
//!    bounded by the refresh cadence — it must not grow with the number
//!    of groups. Holding one pin across groups (the pattern the refresh
//!    replaces) strands every retirement for as long as the pin lives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use optiql_reclaim::Collector;

/// Retirements made under one group pin. It only sets the scale: every
/// bound below is a multiple of it.
const RETIRES_PER_GROUP: usize = 32;

/// Drain a domain from a quiescent thread. A few rounds are legitimate
/// (bags seal one epoch behind the frontier); more means something is
/// pinning the epoch.
fn drain(collector: &Collector, what: &str) {
    let mut rounds = 0;
    while collector.deferred() > 0 {
        collector.flush();
        rounds += 1;
        assert!(
            rounds <= 8,
            "{what}: {} deferred items survived {rounds} flushes",
            collector.deferred()
        );
    }
}

/// Property 1: a worker that drops its group pin and parks between
/// batches does not block reclamation of anyone else's garbage. The
/// bystander (this thread) retires and fully drains its own garbage
/// while the worker is parked — with a pin still held across the park,
/// the epoch could never pass it and the bystander's drain would stall.
#[test]
fn parked_unpinned_worker_does_not_block_reclamation() {
    const GROUPS: usize = 12;
    const BYSTANDER_RETIRES: usize = 48;

    let collector = Arc::new(Collector::new());
    let (tx, rx) = mpsc::channel::<usize>();

    let worker = {
        let handle = collector.handle();
        std::thread::spawn(move || {
            for group in 0..GROUPS {
                // One group: a held pin amortized over the batch, then
                // released at the boundary.
                let guard = handle.pin();
                for _ in 0..RETIRES_PER_GROUP {
                    guard.defer(|| ());
                }
                drop(guard);
                tx.send(group).unwrap();
                std::thread::park(); // "between batches"
            }
        })
    };

    let handle = collector.handle();
    let freed = Arc::new(AtomicUsize::new(0));
    for group in rx {
        // Worker parked, unpinned. Our own retirements must become
        // reclaimable within a bounded number of flushes: the parked
        // worker's slot is idle, so nothing stops the epoch.
        let guard = handle.pin();
        for _ in 0..BYSTANDER_RETIRES {
            let freed = Arc::clone(&freed);
            guard.defer(move || {
                freed.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(guard);
        let want = (group + 1) * BYSTANDER_RETIRES;
        let mut rounds = 0;
        while freed.load(Ordering::Relaxed) < want {
            collector.flush();
            rounds += 1;
            assert!(
                rounds <= 8,
                "group {group}: bystander garbage stuck at {}/{want} after \
                 {rounds} flushes — the parked worker is pinning the epoch",
                freed.load(Ordering::Relaxed)
            );
        }
        worker.thread().unpark();
        if group + 1 == GROUPS {
            break;
        }
    }
    worker.join().unwrap();
    // Thread exit orphans the worker's remaining bags; everything drains.
    drain(&collector, "after worker exit");
}

/// Property 2: with the pin refreshed every group, the worker's own
/// backlog is bounded by the epoch-refresh cadence — independent of how
/// many groups run. The complementary fact (what the refresh buys):
/// holding one pin across the same workload strands *every* retirement.
#[test]
fn group_pin_refresh_bounds_backlog() {
    const GROUPS: usize = 256;
    let total = GROUPS * RETIRES_PER_GROUP;
    // The collector re-reads the global epoch every EPOCH_REFRESH = 16
    // top-level pins and a bag becomes freeable two epochs later, so the
    // steady-state backlog is ~2 * 16 groups' worth. Twice that is a
    // generous ceiling; the regression it guards against is the backlog
    // tracking `total` (8192 here).
    let bound = 4 * 16 * RETIRES_PER_GROUP;

    let collector = Collector::new();
    let handle = collector.handle();
    let mut max_backlog = 0;
    for _ in 0..GROUPS {
        let guard = handle.pin();
        for _ in 0..RETIRES_PER_GROUP {
            guard.defer(|| ());
        }
        drop(guard);
        max_backlog = max_backlog.max(collector.deferred());
    }
    assert!(
        max_backlog <= bound,
        "backlog {max_backlog} exceeded refresh-cadence bound {bound} \
         (total retired: {total})"
    );
    assert!(max_backlog > 0, "stat must observe the in-flight garbage");
    drain(&collector, "refreshed-pin workload");

    // Control: same retirements under one never-refreshed pin. The epoch
    // cannot pass the pinned slot, so nothing is reclaimed until the pin
    // finally drops — the backlog is the whole workload.
    let collector = Collector::new();
    let handle = collector.handle();
    let guard = handle.pin();
    for _ in 0..total {
        guard.defer(|| ());
    }
    assert_eq!(
        collector.deferred(),
        total,
        "a held pin must strand every retirement made under it"
    );
    drop(guard);
    drain(&collector, "after dropping the held pin");
}

//! Figure 1: update-only B+-tree throughput, centralized optimistic lock
//! vs OptiQL, under (a) low contention (uniform keys) and (b) high
//! contention (self-similar, skew 0.2).
//!
//! Expected shape (paper): both locks scale identically under low
//! contention; under high contention OptLock's throughput collapses as
//! threads are added while OptiQL plateaus.

use optiql_bench::{banner, env, header, mops, only, r2, row, KeyDist, Mix, Sweep, BTREE_LOCKS};

fn main() {
    banner(
        "fig01",
        "B+-tree update-only throughput: OptLock vs OptiQL, low vs high contention",
    );
    header(&["figure", "panel/lock", "threads", "Mops/s"]);
    let threads = env::thread_counts();
    let keys = env::preload_keys();
    let row = |p: &optiql_bench::Point<'_>| {
        let series = format!("{}/{}", p.mix, p.lock);
        row("fig01", &series, p.threads, r2(mops(p.result.throughput())));
    };
    // The panel is the mix's label: both panels are update-only.
    let low = Sweep::new(
        &[("low", Mix::UPDATE_ONLY)],
        KeyDist::Uniform,
        keys,
        &threads,
        row,
    );
    let high = Sweep::new(
        &[("high", Mix::UPDATE_ONLY)],
        KeyDist::self_similar_02(),
        keys,
        &threads,
        row,
    );
    let locks = only(&BTREE_LOCKS, &["OptLock", "OptiQL"]);
    low.over("B+-tree", &locks);
    high.over("B+-tree", &locks);
}

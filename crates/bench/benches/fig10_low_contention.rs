//! Figure 10: index throughput under low contention (uniform keys) and
//! the balanced (50/50 lookup/update) workload.
//!
//! Expected shape (paper): all optimistic variants — OptLock, OptiQL,
//! OptiQL-NOR — perform the same (queueing adds nothing when uncontended);
//! the pessimistic locks trail because readers pay atomic writes.

use optiql_bench::{
    banner, env, header, mops, r2, row, KeyDist, Mix, Point, Sweep, ART_LOCKS, BTREE_LOCKS,
};

fn main() {
    banner("fig10", "Balanced workload, uniform keys (low contention)");
    header(&["figure", "index/lock", "threads", "Mops/s"]);
    let threads = env::thread_counts();
    let s = Sweep::new(
        &[("Balanced", Mix::BALANCED)],
        KeyDist::Uniform,
        env::preload_keys(),
        &threads,
        |p: &Point<'_>| {
            let series = format!("{}/{}", p.index, p.lock);
            row("fig10", &series, p.threads, r2(mops(p.result.throughput())));
        },
    );
    s.over("B+-tree", &BTREE_LOCKS);
    s.over("ART", &ART_LOCKS);
}

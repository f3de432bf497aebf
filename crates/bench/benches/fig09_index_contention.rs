//! Figure 9: B+-tree (top) and ART (bottom) throughput under the skewed
//! workload (self-similar, skew 0.2, dense keys) for the five §7.3
//! workload mixes, sweeping the thread count across all five lock
//! configurations.
//!
//! Expected shape (paper): read-only — all optimistic variants equal,
//! pessimistic locks trail; with more writers OptLock collapses with
//! thread count while OptiQL holds; opportunistic read keeps OptiQL ahead
//! of OptiQL-NOR whenever reads are present; the two-atomic overhead shows
//! only marginally in update-only.

use optiql_bench::{
    banner, env, header, mops, r2, row_extra, KeyDist, Mix, Point, Sweep, ART_LOCKS, BTREE_LOCKS,
};

/// Throughput, then the restarts/op of the shared OLC protocol: the same
/// column for both index structures.
fn row(p: &Point<'_>) {
    row_extra(
        "fig09",
        &format!("{}/{}/{}", p.index, p.mix, p.lock),
        p.threads,
        r2(mops(p.result.throughput())),
        format!("{:.4}", p.stats.restarts_per_op()),
    );
}

fn main() {
    banner(
        "fig09",
        "Index throughput, skewed workload (self-similar 0.2, dense keys)",
    );
    header(&[
        "figure",
        "index/workload/lock",
        "threads",
        "Mops/s",
        "restarts/op",
    ]);
    let threads = env::thread_counts();
    let mixes = Mix::paper_suite();
    let s = Sweep::new(
        &mixes,
        KeyDist::self_similar_02(),
        env::preload_keys(),
        &threads,
        row,
    );
    s.over("B+-tree", &BTREE_LOCKS);
    s.over("ART", &ART_LOCKS);
}

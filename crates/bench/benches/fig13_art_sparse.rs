//! Figure 13: ART throughput with *sparse* integer keys (forcing lazy
//! expansion) under the self-similar distribution, read-heavy and
//! write-heavy mixes, sweeping threads.
//!
//! Expected shape (paper): OptLock-based ART collapses beyond one socket
//! (excessive upgrade retries on lazily-expanded leaves), while OptiQL and
//! OptiQL-NOR use contention expansion (§6.2) to materialize hot
//! last-level nodes and local-spin, avoiding the collapse.

use optiql_bench::{
    banner, env, header, mops, r2, row, KeyDist, KeySpace, Mix, Point, Sweep, ART_LOCKS,
};

fn main() {
    banner(
        "fig13",
        "ART with sparse keys (lazy expansion + contention expansion)",
    );
    header(&["figure", "workload/lock", "threads", "Mops/s"]);
    let threads = env::thread_counts();
    let mixes = [
        ("Read-heavy", Mix::READ_HEAVY),
        ("Write-heavy", Mix::WRITE_HEAVY),
    ];
    let mut s = Sweep::new(
        &mixes,
        KeyDist::self_similar_02(),
        env::preload_keys(),
        &threads,
        |p: &Point<'_>| {
            let series = format!("{}/{}", p.mix, p.lock);
            row("fig13", &series, p.threads, r2(mops(p.result.throughput())));
        },
    );
    s.keyspace = KeySpace::Sparse;
    s.over("ART", &ART_LOCKS);
}

//! Extension: YCSB core workloads (A–F) on both indexes across the lock
//! matrix. Not a paper figure, but the de-facto standard way downstream
//! users will evaluate these indexes; YCSB-E additionally exercises the
//! range-scan paths (B+-tree leaf scans, ART ordered DFS).
//!
//! The six mixes run in order on one tree per configuration, so YCSB-E's
//! inserts land past the keys YCSB-D inserted.

use optiql_bench::{
    banner, env, header, mops, only, preload, r2, row_extra, KeyDist, Mix, Point, Sweep, ART_LOCKS,
    BTREE_LOCKS,
};
use optiql_btree::BTreeOptiQL;
use optiql_sharded::{ShardedIndex, DEFAULT_SHARDS};

fn main() {
    banner("ycsb", "YCSB A-F, Zipfian(0.99), max threads");
    header(&[
        "figure",
        "index/lock",
        "workload",
        "Mops/s",
        "scanned_entries",
    ]);
    let threads = [*env::thread_counts().last().unwrap()];
    let mixes = Mix::ycsb_suite();
    let mut s = Sweep::new(
        &mixes,
        KeyDist::Zipfian { theta: 0.99 },
        env::preload_keys().min(2_000_000),
        &threads,
        |p: &Point<'_>| {
            row_extra(
                "ycsb",
                &format!("{}/{}", p.index, p.lock),
                p.mix,
                r2(mops(p.result.throughput())),
                p.result.scanned_entries,
            );
        },
    );
    // OPTIQL_BENCH_BATCH > 1 routes the lookup share of every mix through
    // the pipelined multi_lookup path.
    s.batch = env::batch_size();

    let locks = ["OptLock", "OptiQL"];
    s.over("B+-tree", &only(&BTREE_LOCKS, &locks));
    s.over("ART", &only(&ART_LOCKS, &locks));

    // The same OptiQL trees behind the hash-partitioned facade: every
    // workload (including YCSB-E's fan-out scans) runs unmodified.
    let lock = format!("OptiQL/sharded{DEFAULT_SHARDS}");
    let tree: ShardedIndex<BTreeOptiQL> = ShardedIndex::new(DEFAULT_SHARDS);
    preload(&tree, s.keys, s.keyspace);
    s.points(&tree, "B+-tree", &lock);
    drop(tree);
    let art: ShardedIndex<optiql_art::ArtOptiQL> = ShardedIndex::new(DEFAULT_SHARDS);
    preload(&art, s.keys, s.keyspace);
    s.points(&art, "ART", &lock);
}

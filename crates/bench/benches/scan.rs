//! Streaming-scan bench (YCSB-E shape): 95% range scans of uniform
//! length 1..=100 starting at Zipfian(0.99)-sampled keys, 5% inserts.
//!
//! One axis lands in `BENCH_scan.json`: the **index** — B+-tree, ART,
//! and both behind the sharded facade (the facade's k-way merge iterator
//! is what YCSB-E actually measures). Each scan streams the lazy `range`
//! iterator (the `stream` row).
//!
//! A `YCSB-C/u64` point row per index anchors cross-revision
//! comparability: point-lookup throughput must not regress because the
//! index grew a range API.

use optiql_bench::{
    banner, env, header, mops, preload, r2, row_extra, run, KeyDist, KeySpace, Mix, WorkloadConfig,
};
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::ShardedIndex;

const SCAN_MAX: u32 = 100;

fn ycsb_e_cfg(keys: u64) -> WorkloadConfig {
    let threads = *env::thread_counts().last().unwrap();
    let mut cfg = WorkloadConfig::new(threads, Mix::YCSB_E, KeyDist::Zipfian { theta: 0.99 }, keys);
    cfg.duration = env::duration();
    cfg.sample_every = 0;
    cfg.scan_max = SCAN_MAX;
    cfg
}

/// Preload `index`, then YCSB-E plus the YCSB-C anchor row, `u64` keys.
fn sweep_u64<I: ConcurrentIndex>(index: &I, name: &str, keys: u64) {
    preload(index, keys, KeySpace::Dense);
    let (r, _) = run(index, &ycsb_e_cfg(keys));
    row_extra(
        "scan",
        &format!("{name}/stream"),
        "YCSB-E/u64",
        r2(mops(r.throughput())),
        r.scanned_entries,
    );
    let mut cfg = ycsb_e_cfg(keys);
    cfg.mix = Mix::YCSB_C;
    let (r, _) = run(index, &cfg);
    row_extra(
        "scan",
        &format!("{name}/point"),
        "YCSB-C/u64",
        r2(mops(r.throughput())),
        r.lookup_hits,
    );
}

fn main() {
    banner(
        "scan",
        "YCSB-E scans 1..=100, Zipfian(0.99) starts, streamed",
    );
    header(&["figure", "index/mode", "workload/keys", "Mops/s", "extra"]);
    let keys = env::preload_keys().min(2_000_000);

    let tree: optiql_btree::BTreeOptiQL = optiql_btree::BTreeOptiQL::new();
    sweep_u64(&tree, "B+-tree", keys);

    let art: optiql_art::ArtOptiQL = optiql_art::ArtOptiQL::new();
    sweep_u64(&art, "ART", keys);

    let shards = optiql_sharded::DEFAULT_SHARDS;
    let sharded_tree: ShardedIndex<optiql_btree::BTreeOptiQL> = ShardedIndex::new(shards);
    sweep_u64(&sharded_tree, &format!("sharded{shards}-B+-tree"), keys);

    let sharded_art: ShardedIndex<optiql_art::ArtOptiQL> = ShardedIndex::new(shards);
    sweep_u64(&sharded_art, &format!("sharded{shards}-ART"), keys);
}

//! Streaming-scan bench (YCSB-E shape): 95% range scans of uniform
//! length 1..=100 starting at Zipfian(0.99)-sampled keys, 5% inserts.
//!
//! Two axes, both landing in `BENCH_scan.json`:
//!
//! * **index** — B+-tree, ART, and both behind the sharded facade (the
//!   facade's k-way merge iterator is what YCSB-E actually measures);
//! * **scan mode** — the two drivers of `scan_chunk`: `stream` (the lazy
//!   `range` iterator) and `count` (`scan_count`).
//!
//! A `YCSB-C/u64` point row per index anchors cross-revision
//! comparability: point-lookup throughput must not regress because the
//! index grew a range API.

use optiql_bench::{banner, header, mops, r2, row_extra};
use optiql_harness::{env, preload, run, ConcurrentIndex, KeyDist, Mix, ScanMode, WorkloadConfig};
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

/// YCSB-E in both scan modes plus the YCSB-C anchor row, `u64` keys.
fn sweep_u64<I: ConcurrentIndex>(index: &I, name: &str, keys: u64) {
    for (mode_name, mode) in [("stream", ScanMode::Stream), ("count", ScanMode::Count)] {
        let mut cfg = ycsb_e_cfg(keys);
        cfg.scan_mode = mode;
        let (r, _) = run(index, &cfg);
        row_extra(
            "scan",
            &format!("{name}/{mode_name}"),
            "YCSB-E/u64",
            r2(mops(r.throughput())),
            r.scanned_entries,
        );
    }
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
        "YCSB-E scans 1..=100, Zipfian(0.99) starts, stream vs count",
    );
    header(&["figure", "index/mode", "workload/keys", "Mops/s", "extra"]);
    let keys = env::preload_keys().min(2_000_000);
    let load = WorkloadConfig::new(1, Mix::BALANCED, KeyDist::Uniform, keys);

    let tree: optiql_btree::BTreeOptiQL = optiql_btree::BTreeOptiQL::new();
    preload(&tree, &load);
    sweep_u64(&tree, "B+-tree", keys);

    let art: optiql_art::ArtOptiQL = optiql_art::ArtOptiQL::new();
    preload(&art, &load);
    sweep_u64(&art, "ART", keys);

    let shards = optiql_sharded::DEFAULT_SHARDS;
    let sharded_tree: ShardedIndex<optiql_btree::BTreeOptiQL> = ShardedIndex::new(shards);
    preload(&sharded_tree, &load);
    sweep_u64(&sharded_tree, &format!("sharded{shards}-B+-tree"), keys);

    let sharded_art: ShardedIndex<optiql_art::ArtOptiQL> = ShardedIndex::new(shards);
    preload(&sharded_art, &load);
    sweep_u64(&sharded_art, &format!("sharded{shards}-ART"), keys);
}

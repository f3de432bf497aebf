//! Byte-key fast-path bench: YCSB-C point lookups and YCSB-E streaming
//! scans over the YCSB `user################` string keyspace.
//!
//! Three index shapes (B+-tree, ART, and the B+-tree behind the
//! 8-shard facade) run each workload at batch 1 (scalar descents) and
//! batch 8 (software-pipelined `multi_lookup`) over [`Bytes`] keys:
//! short suffixes inlined into slot words, per-node prefix truncation in
//! the B+-tree, payload prefetch in the batched engines.
//!
//! A `YCSB-C/u64` anchor row per index pins integer-key point throughput
//! so the byte path cannot regress it unnoticed. Everything lands in
//! `results/BENCH_keyed.json`; the checked-in copy also keeps the rows of
//! the boxed-slot representation this one replaced (PR 8, measured in the
//! same run at the time), which is what the fast path's speedup is quoted
//! against.

use optiql_bench::{banner, header, mops, r2, row_extra};
use optiql_harness::{
    env, preload, preload_keyed, run, run_keyed, user_key, ConcurrentIndex, KeyDist, Mix, ScanMode,
    WorkloadConfig,
};
use optiql_index_api::Bytes;
use optiql_sharded::ShardedIndex;

const SCAN_MAX: u32 = 100;
const SHARDS: usize = 8;
const BATCHES: [usize; 2] = [1, 8];

type BTreeK<K> = optiql_btree::BPlusTree<
    optiql::OptLock,
    optiql::OptiQL,
    { optiql_btree::DEFAULT_IC },
    { optiql_btree::DEFAULT_LC },
    K,
>;
type ArtK<K> = optiql_art::ArtTree<optiql::OptiQL, K>;

fn cfg(mix: Mix, keys: u64, batch: usize) -> WorkloadConfig {
    let threads = *env::thread_counts().last().unwrap();
    // Uniform sampling (as in the batched bench): the point of the fast
    // path is avoiding cache misses, and a Zipfian hot set small enough
    // to stay cache-resident would hide exactly the misses it removes.
    let mut c = WorkloadConfig::new(threads, mix, KeyDist::Uniform, keys);
    c.duration = env::duration();
    c.sample_every = 0;
    c.scan_max = SCAN_MAX;
    c.scan_mode = ScanMode::Stream;
    c.batch = batch;
    c
}

/// YCSB-C at each batch size plus a YCSB-E streaming row over `Bytes`
/// keys.
fn sweep<I: ConcurrentIndex<Bytes>>(index: &I, name: &str, keys: u64) {
    for batch in BATCHES {
        let (r, _) = run_keyed(index, &cfg(Mix::YCSB_C, keys, batch), user_key);
        row_extra(
            "keyed",
            &format!("{name}/b{batch}"),
            "YCSB-C/bytes",
            r2(mops(r.throughput())),
            r.lookup_hits,
        );
    }
    let (r, _) = run_keyed(index, &cfg(Mix::YCSB_E, keys, 1), user_key);
    row_extra(
        "keyed",
        &format!("{name}/stream"),
        "YCSB-E/bytes",
        r2(mops(r.throughput())),
        r.scanned_entries,
    );
}

/// Integer-key anchor: YCSB-C batch 1 on the same index shape over
/// `u64`, guarding the default key type against byte-path regressions.
fn anchor_u64<I: ConcurrentIndex>(index: &I, name: &str, keys: u64) {
    let (r, _) = run(index, &cfg(Mix::YCSB_C, keys, 1));
    row_extra(
        "keyed",
        &format!("{name}/b1"),
        "YCSB-C/u64",
        r2(mops(r.throughput())),
        r.lookup_hits,
    );
}

fn main() {
    banner(
        "keyed",
        "YCSB-C/E over user### byte keys (inline + truncated slots), with u64 anchors",
    );
    header(&["figure", "index/batch", "workload/keys", "Mops/s", "extra"]);
    let keys = env::preload_keys().min(1_000_000);
    let load = WorkloadConfig::new(1, Mix::BALANCED, KeyDist::Uniform, keys);

    let btree_b: BTreeK<Bytes> = optiql_btree::BPlusTree::new();
    preload_keyed(&btree_b, &load, user_key);
    sweep(&btree_b, "B+-tree", keys);

    let art_b: ArtK<Bytes> = optiql_art::ArtTree::new();
    preload_keyed(&art_b, &load, user_key);
    sweep(&art_b, "ART", keys);

    let shard_b: ShardedIndex<BTreeK<Bytes>> = ShardedIndex::new(SHARDS);
    preload_keyed(&shard_b, &load, user_key);
    sweep(&shard_b, &format!("sharded{SHARDS}-B+-tree"), keys);

    // u64 anchors on the same shapes.
    let tree: optiql_btree::BTreeOptiQL = optiql_btree::BTreeOptiQL::new();
    preload(&tree, &load);
    anchor_u64(&tree, "B+-tree", keys);

    let art: optiql_art::ArtOptiQL = optiql_art::ArtOptiQL::new();
    preload(&art, &load);
    anchor_u64(&art, "ART", keys);

    let sharded: ShardedIndex<optiql_btree::BTreeOptiQL> = ShardedIndex::new(SHARDS);
    preload(&sharded, &load);
    anchor_u64(&sharded, &format!("sharded{SHARDS}-B+-tree"), keys);
}

//! Sharded facade demo: one trait, many compositions.
//!
//! `ShardedIndex<I>` hash-partitions any `ConcurrentIndex` over
//! cache-line-padded shards, each with its own locks, stats and epoch
//! reclamation domain — and is itself a `ConcurrentIndex`, so generic
//! code runs unmodified over plain trees, sharded trees, or even a
//! sharded model index.
//!
//! Run with: `cargo run --release --example sharded_demo`

use std::ops::Bound;

use optiql_art::ArtOptiQL;
use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::ShardedIndex;

/// Generic over the trait: fills, probes and scans any index.
fn exercise<I: ConcurrentIndex>(index: &I, label: &str) {
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            s.spawn(move || {
                for i in 0..25_000u64 {
                    index.insert(i * 4 + tid, tid);
                }
            });
        }
    });
    assert_eq!(index.len(), 100_000);
    assert_eq!(index.lookup(42 * 4 + 1), Some(1));
    let scanned = index.range(Bound::Unbounded, Bound::Unbounded).take(500);
    assert_eq!(scanned.count(), 500);
    let stats = index.index_stats();
    println!(
        "{label:<28} {} keys, {} ops, {} restarts",
        index.len(),
        stats.ops,
        stats.restarts
    );
}

fn main() {
    // Plain trees implement the trait directly...
    let tree: BTreeOptiQL = BTreeOptiQL::new();
    exercise(&tree, "B+-tree (plain)");

    // ...and so does the facade, over any shard count. Block granularity
    // is a knob: 256-key blocks suit this demo's 100k-key space (the
    // coarser default targets multi-million-key serving workloads).
    let sharded_tree: ShardedIndex<BTreeOptiQL> = ShardedIndex::with_block_bits(8, 8);
    exercise(&sharded_tree, "B+-tree (8 shards)");

    let sharded_art: ShardedIndex<ArtOptiQL> = ShardedIndex::with_block_bits(4, 8);
    exercise(&sharded_art, "ART (4 shards)");

    // Per-shard introspection: blocks spread dense keys evenly.
    print!("shard fill:");
    sharded_tree.for_each_shard(|i, shard| print!(" [{i}]={}", shard.len()));
    println!();

    // Composition is free: shards can be anything implementing the trait,
    // including the mutex-protected model index used by the tests.
    let model: ShardedIndex<optiql_index_api::model::ModelIndex> = ShardedIndex::new(2);
    exercise(&model, "Mutex<BTreeMap> (2 shards)");
}

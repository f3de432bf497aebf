//! Extension: batched lookups with software-pipelined group prefetch.
//!
//! A pointer-chasing descent stalls on one cache miss per level; the
//! batched engines interleave up to 8 in-flight descents per group,
//! prefetching each op's next node before yielding the core to the next
//! op, so the misses overlap (memory-level parallelism). This target
//! sweeps the batch size on uniform YCSB-C over both trees, plain and
//! behind the sharded facade, and reports each point's speedup over the
//! scalar `lookup` loop (`batch = 1`). The gain is per *thread* — it does
//! not need concurrency to show up — and grows with the working set,
//! since it only hides misses that actually occur; run with a large
//! `OPTIQL_BENCH_KEYS` to push the tree past the last-level cache.
//!
//! Two more series time `multi_insert` bulk-loading a fresh tree:
//! `insert` feeds dense ascending keys, which a B+-tree takes one descent
//! per leaf (DESIGN §5.1); `insert-sorted-sparse` feeds uniform keys with
//! each batch sorted, whose leaf runs end after one pair, so the batch
//! keeps the pipeline that overlaps the descent misses ahead of each
//! leaf write.
//!
//! Every point runs [`RUNS`] times; a row gives the median throughput,
//! its speedup over the median scalar point, and the runs' min–max, so
//! two revisions' rows can be told apart from run-to-run spread.

use std::time::Instant;

use optiql_bench::{
    banner, env, header, mops, preload, r2, row_extra, run, KeyDist, KeySpace, Mix, WorkloadConfig,
};
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::ShardedIndex;

const BATCHES: [usize; 5] = [1, 4, 8, 16, 32];

/// Runs per point. One 0.3 s run of a pipelined point moves by up to
/// ±30 % between runs on a shared host, so a row gives the median of
/// several with their range.
const RUNS: usize = 5;

/// One row from a point's [`RUNS`] runs (Mops/s): their median, its
/// speedup over the scalar point's median `base` (the scalar point is its
/// own base), any `tail`, and the runs' min–max.
fn batch_row(series: &str, batch: usize, mut runs: Vec<f64>, base: &mut f64, tail: &str) {
    runs.sort_by(f64::total_cmp);
    let median = runs[RUNS / 2];
    if batch == 1 {
        *base = median;
    }
    let speedup = if *base > 0.0 { median / *base } else { 0.0 };
    row_extra(
        "batched",
        series,
        batch,
        r2(median),
        format!(
            "{}x{tail} ({:.2}-{:.2})",
            r2(speedup),
            runs[0],
            runs[RUNS - 1]
        ),
    );
}

/// Uniform YCSB-C through the workload driver at each batch size, each
/// point [`RUNS`] times over the same preloaded index.
fn lookup_sweep<I: ConcurrentIndex>(index: &I, series: &str, keys: u64) {
    let threads = *env::thread_counts().last().unwrap();
    preload(index, keys, KeySpace::Dense);
    let mut base = 0.0f64;
    for batch in BATCHES {
        let mut cfg = WorkloadConfig::new(threads, Mix::YCSB_C, KeyDist::Uniform, keys);
        cfg.duration = env::duration();
        cfg.sample_every = 0;
        cfg.batch = batch;
        let before = index.index_stats();
        let runs = (0..RUNS)
            .map(|_| mops(run(index, &cfg).0.throughput()))
            .collect();
        let d = index.index_stats().since(&before);
        let tail = format!(" r/op={:.4}", d.restarts_per_op());
        batch_row(&format!("{series}/lookup"), batch, runs, &mut base, &tail);
    }
}

/// Bulk-load `keys` fresh pairs through `multi_insert` in chunks of
/// `batch` (`1` = the scalar `insert` loop) into a tree built by `make`,
/// [`RUNS`] fresh trees per point:
/// keys `0..keys` ascending (`Dense`), or their `Sparse` images with each
/// chunk sorted before the clock starts.
fn insert_sweep<I: ConcurrentIndex>(
    make: impl Fn() -> I,
    series: &str,
    keys: u64,
    space: KeySpace,
) {
    let pairs: Vec<(u64, u64)> = (0..keys)
        .map(|k| (space.key(k), k.wrapping_add(1)))
        .collect();
    let op = match space {
        KeySpace::Dense => "insert",
        KeySpace::Sparse => "insert-sorted-sparse",
    };
    let mut base = 0.0f64;
    for batch in BATCHES {
        let mut load = pairs.clone();
        for chunk in load.chunks_mut(batch) {
            chunk.sort_unstable();
        }
        let runs = (0..RUNS)
            .map(|_| {
                let index = make();
                let t0 = Instant::now();
                if batch == 1 {
                    for &(k, v) in &load {
                        index.insert(k, v);
                    }
                } else {
                    for chunk in load.chunks(batch) {
                        index.multi_insert(chunk);
                    }
                }
                let secs = t0.elapsed().as_secs_f64();
                assert_eq!(index.len() as u64, keys, "bulk load must insert every key");
                mops(keys as f64 / secs)
            })
            .collect();
        batch_row(&format!("{series}/{op}"), batch, runs, &mut base, "");
    }
}

fn main() {
    banner(
        "batched",
        "Batched multi_lookup/multi_insert vs scalar, uniform YCSB-C, group prefetch",
    );
    header(&[
        "figure",
        "index/variant/op",
        "batch",
        "Mops/s",
        "speedup restarts/op (min-max)",
    ]);
    let keys = env::preload_keys();
    let shards = optiql_sharded::DEFAULT_SHARDS;

    let tree: optiql_btree::BTreeOptiQL = optiql_btree::BTreeOptiQL::new();
    lookup_sweep(&tree, "B+-tree/OptiQL/plain", keys);
    drop(tree);
    let tree: ShardedIndex<optiql_btree::BTreeOptiQL> = ShardedIndex::new(shards);
    lookup_sweep(&tree, &format!("B+-tree/OptiQL/sharded{shards}"), keys);
    drop(tree);

    let art: optiql_art::ArtOptiQL = optiql_art::ArtOptiQL::new();
    lookup_sweep(&art, "ART/OptiQL/plain", keys);
    drop(art);
    let art: ShardedIndex<optiql_art::ArtOptiQL> = ShardedIndex::new(shards);
    lookup_sweep(&art, &format!("ART/OptiQL/sharded{shards}"), keys);
    drop(art);

    // Bulk-load series: smaller key count (each point rebuilds the tree).
    let load_keys = keys.min(2_000_000);
    for space in [KeySpace::Dense, KeySpace::Sparse] {
        insert_sweep(
            || -> optiql_btree::BTreeOptiQL { optiql_btree::BTreeOptiQL::new() },
            "B+-tree/OptiQL/plain",
            load_keys,
            space,
        );
        insert_sweep(
            optiql_art::ArtOptiQL::new,
            "ART/OptiQL/plain",
            load_keys,
            space,
        );
    }
}

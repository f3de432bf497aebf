//! PiBench-style index workload driver (paper §7.1).
//!
//! Pre-loads an index with `preload` records of 8-byte keys and 8-byte
//! values, then spawns pinned worker threads that issue an operation mix
//! (lookup / update / insert / remove / scan) with keys drawn from a
//! configurable distribution, reporting throughput and sampled
//! per-operation latency.
//!
//! [`Sweep`] is the one index sweep the figure targets share: a figure
//! states its mixes, key distribution, key space, key count, thread
//! points and the row each point prints, and runs it over the lock
//! configurations of [`BTREE_LOCKS`] and [`ART_LOCKS`].

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use optiql::{McsRwLock, OptLock, OptiQL, OptiQLNor, PthreadRwLock};
use optiql_art::ArtTree;
use optiql_btree::{BPlusTree, DEFAULT_IC, DEFAULT_LC};
use optiql_index_api::{ConcurrentIndex, IndexStats};
use optiql_sharded::affinity::pin_thread;

use crate::dist::{KeyDist, KeySpace};
use crate::env;
use crate::latency::Histogram;

/// How the scan share of a mix executes: the index's two range drivers,
/// which the server exposes as SCAN (0x07) and SCAN_COUNT (0x05).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Consume the streaming `range` iterator entry by entry without
    /// materializing — the scan path YCSB-E measures.
    #[default]
    Stream,
    /// `scan_count` only — touches the same leaves but returns a count.
    Count,
}

impl ScanMode {
    /// Run one scan of up to `len` entries from `start`; returns the
    /// number of entries it saw.
    pub fn scan<I: ConcurrentIndex + ?Sized>(self, index: &I, start: u64, len: usize) -> u64 {
        match self {
            ScanMode::Stream => {
                // Lazy consumption: entries are folded as they stream,
                // nothing is collected.
                let mut n = 0u64;
                let mut acc = 0u64;
                for (_, v) in index
                    .range(Bound::Included(start), Bound::Unbounded)
                    .take(len)
                {
                    n += 1;
                    acc ^= v;
                }
                std::hint::black_box(acc);
                n
            }
            ScanMode::Count => index.scan_count(start, len) as u64,
        }
    }
}

/// Operation mix in percent (sums to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Lookup percentage.
    pub lookup: u32,
    /// Update percentage.
    pub update: u32,
    /// Insert percentage.
    pub insert: u32,
    /// Remove percentage.
    pub remove: u32,
    /// Range-scan percentage (YCSB-E style, up to 100 entries per scan).
    pub scan: u32,
}

impl Mix {
    /// 100% lookups (paper "Read-only").
    pub const READ_ONLY: Mix = Mix::new(100, 0, 0, 0);
    /// 80% lookups / 20% updates (paper "Read-heavy").
    pub const READ_HEAVY: Mix = Mix::new(80, 20, 0, 0);
    /// 50/50 (paper "Balanced").
    pub const BALANCED: Mix = Mix::new(50, 50, 0, 0);
    /// 20% lookups / 80% updates (paper "Write-heavy").
    pub const WRITE_HEAVY: Mix = Mix::new(20, 80, 0, 0);
    /// 100% updates (paper "Update-only").
    pub const UPDATE_ONLY: Mix = Mix::new(0, 100, 0, 0);
    /// Insert-heavy extension mix.
    pub const INSERT_HEAVY: Mix = Mix::new(40, 0, 50, 10);

    /// YCSB-A: 50% reads / 50% updates.
    pub const YCSB_A: Mix = Mix::new(50, 50, 0, 0);
    /// YCSB-B: 95% reads / 5% updates.
    pub const YCSB_B: Mix = Mix::new(95, 5, 0, 0);
    /// YCSB-C: read-only.
    pub const YCSB_C: Mix = Mix::new(100, 0, 0, 0);
    /// YCSB-D: 95% reads / 5% inserts.
    pub const YCSB_D: Mix = Mix::new(95, 0, 5, 0);
    /// YCSB-E: 95% range scans / 5% inserts.
    pub const YCSB_E: Mix = Mix::with_scan(0, 0, 5, 0, 95);
    /// YCSB-F: 50% reads / 50% read-modify-writes (modeled as updates).
    pub const YCSB_F: Mix = Mix::new(50, 50, 0, 0);

    /// Construct a point-op mix (must sum to 100).
    pub const fn new(lookup: u32, update: u32, insert: u32, remove: u32) -> Mix {
        Mix::with_scan(lookup, update, insert, remove, 0)
    }

    /// Construct a mix including range scans (must sum to 100).
    pub const fn with_scan(lookup: u32, update: u32, insert: u32, remove: u32, scan: u32) -> Mix {
        let m = Mix {
            lookup,
            update,
            insert,
            remove,
            scan,
        };
        assert!(lookup + update + insert + remove + scan == 100);
        m
    }

    /// The YCSB core workload suite (A–F).
    pub fn ycsb_suite() -> [(&'static str, Mix); 6] {
        [
            ("YCSB-A", Mix::YCSB_A),
            ("YCSB-B", Mix::YCSB_B),
            ("YCSB-C", Mix::YCSB_C),
            ("YCSB-D", Mix::YCSB_D),
            ("YCSB-E", Mix::YCSB_E),
            ("YCSB-F", Mix::YCSB_F),
        ]
    }

    /// The paper's five §7.3 workloads with their labels.
    pub fn paper_suite() -> [(&'static str, Mix); 5] {
        [
            ("Read-only", Mix::READ_ONLY),
            ("Read-heavy", Mix::READ_HEAVY),
            ("Balanced", Mix::BALANCED),
            ("Write-heavy", Mix::WRITE_HEAVY),
            ("Update-only", Mix::UPDATE_ONLY),
        ]
    }
}

/// Index workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Worker threads.
    pub threads: usize,
    /// Measured run time.
    pub duration: Duration,
    /// Operation mix.
    pub mix: Mix,
    /// Key distribution over the preloaded key indices.
    pub dist: KeyDist,
    /// Dense or sparse key encoding.
    pub keyspace: KeySpace,
    /// Records preloaded before the measured phase.
    pub preload: u64,
    /// Record one latency sample every `n` operations (0 disables).
    pub sample_every: u32,
    /// Lookups per batched call. `1` (the default) issues scalar
    /// `lookup`s; larger values collect `batch` sampled keys and issue
    /// one `multi_lookup`, exercising the pipelined descent engines.
    /// Only the lookup share of the mix is batched — write ops stay
    /// scalar.
    pub batch: usize,
    /// How the scan share executes (streaming by default).
    pub scan_mode: ScanMode,
    /// Scan lengths are drawn uniformly from `1..=scan_max` per scan
    /// (YCSB-E's short-scan shape).
    pub scan_max: u32,
}

impl WorkloadConfig {
    /// Reasonable defaults for the paper's index experiments, scaled by
    /// the caller via the public fields.
    pub fn new(threads: usize, mix: Mix, dist: KeyDist, preload: u64) -> Self {
        WorkloadConfig {
            threads,
            duration: Duration::from_millis(500),
            mix,
            dist,
            keyspace: KeySpace::Dense,
            preload,
            sample_every: 64,
            batch: 1,
            scan_mode: ScanMode::Stream,
            scan_max: 100,
        }
    }
}

/// Result of a workload run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Completed lookups.
    pub lookups: u64,
    /// Lookups that found their key.
    pub lookup_hits: u64,
    /// Completed updates.
    pub updates: u64,
    /// Completed inserts.
    pub inserts: u64,
    /// Completed removes.
    pub removes: u64,
    /// Completed range scans.
    pub scans: u64,
    /// Entries returned across all scans.
    pub scanned_entries: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
    /// Per-thread completed operations (fairness diagnostics).
    pub per_thread_ops: Vec<u64>,
}

impl WorkloadResult {
    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.lookups + self.updates + self.inserts + self.removes + self.scans
    }

    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Pre-load `keys` records: key indices `0..keys` through `keyspace`,
/// value = key + 1.
pub fn preload<I: ConcurrentIndex>(index: &I, keys: u64, keyspace: KeySpace) {
    for i in 0..keys {
        let k = keyspace.key(i);
        index.insert(k, k.wrapping_add(1));
    }
}

/// Run the measured phase. Returns aggregate counts and, when sampling is
/// enabled, a latency histogram (nanoseconds) per run. Sampled key
/// indices go through the key-space mapping; an inserted key's value is
/// its index + 1.
///
/// Inserts take fresh key indices, disjoint per thread, starting at the
/// index's `len()` when the run begins: right after a preload that is
/// `preload`, and a second run on the same index inserts past the first
/// one's keys instead of overwriting them. (Removes draw from
/// `0..preload`, so after a run that removed keys the start falls short
/// by that many and the first inserts overwrite.)
pub fn run<I: ConcurrentIndex>(index: &I, cfg: &WorkloadConfig) -> (WorkloadResult, Histogram) {
    let first_insert = index.len() as u64;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                let cfg = cfg.clone();
                s.spawn(move || {
                    pin_thread(tid);
                    let sampler = cfg.dist.sampler(cfg.preload.max(1));
                    let mut rng = SmallRng::seed_from_u64(0xBEEF ^ (tid as u64) << 8);
                    let mut hist = Histogram::new();
                    let mut out = WorkloadResult::default();
                    // Fresh keys for inserts: disjoint per thread, beyond
                    // every key the index holds.
                    let mut next_insert =
                        first_insert + tid as u64 * (u64::MAX / 1024 / cfg.threads as u64);
                    let mut op_counter = 0u32;
                    let mut batch_buf: Vec<u64> = Vec::with_capacity(cfg.batch.max(1));
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let die = rng.random_range(0..100);
                        let sample_this = cfg.sample_every > 0 && {
                            op_counter = op_counter.wrapping_add(1);
                            op_counter % cfg.sample_every == 0
                        };
                        let t0 = sample_this.then(Instant::now);
                        if die < cfg.mix.lookup {
                            if cfg.batch > 1 {
                                batch_buf.clear();
                                for _ in 0..cfg.batch {
                                    batch_buf.push(cfg.keyspace.key(sampler.sample(&mut rng)));
                                }
                                let res = index.multi_lookup(&batch_buf);
                                out.lookup_hits +=
                                    res.iter().filter(|r| r.is_some()).count() as u64;
                                out.lookups += cfg.batch as u64;
                            } else {
                                let k = cfg.keyspace.key(sampler.sample(&mut rng));
                                if index.lookup(k).is_some() {
                                    out.lookup_hits += 1;
                                }
                                out.lookups += 1;
                            }
                        } else if die < cfg.mix.lookup + cfg.mix.update {
                            let k = cfg.keyspace.key(sampler.sample(&mut rng));
                            index.update(k, rng.random());
                            out.updates += 1;
                        } else if die < cfg.mix.lookup + cfg.mix.update + cfg.mix.insert {
                            let i = next_insert;
                            next_insert += 1;
                            index.insert(cfg.keyspace.key(i), i.wrapping_add(1));
                            out.inserts += 1;
                        } else if die
                            < cfg.mix.lookup + cfg.mix.update + cfg.mix.insert + cfg.mix.remove
                        {
                            let k = cfg.keyspace.key(sampler.sample(&mut rng));
                            index.remove(k);
                            out.removes += 1;
                        } else {
                            let k = cfg.keyspace.key(sampler.sample(&mut rng));
                            let len = rng.random_range(0..cfg.scan_max.max(1)) as usize + 1;
                            out.scanned_entries += cfg.scan_mode.scan(index, k, len);
                            out.scans += 1;
                        }
                        if let Some(t0) = t0 {
                            hist.record(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    (out, hist)
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Release);

        let mut total = WorkloadResult::default();
        let mut hist = Histogram::new();
        for h in handles {
            let (out, th) = h.join().unwrap();
            total.lookups += out.lookups;
            total.lookup_hits += out.lookup_hits;
            total.updates += out.updates;
            total.inserts += out.inserts;
            total.removes += out.removes;
            total.scans += out.scans;
            total.scanned_entries += out.scanned_entries;
            total
                .per_thread_ops
                .push(out.lookups + out.updates + out.inserts + out.removes + out.scans);
            hist.merge(&th);
        }
        total.elapsed = start.elapsed();
        (total, hist)
    })
}

/// One point of a [`Sweep`]: everything its row may print.
pub struct Point<'a> {
    /// The index label the sweep ran under (`"B+-tree"`, `"ART"`, a
    /// node size, …).
    pub index: &'a str,
    /// The lock configuration's label.
    pub lock: &'a str,
    /// The mix's label.
    pub mix: &'a str,
    /// Worker threads.
    pub threads: usize,
    /// Counts and throughput of the run.
    pub result: WorkloadResult,
    /// Sampled latency (empty unless the sweep samples).
    pub hist: Histogram,
    /// The index's restart accounting over the run.
    pub stats: IndexStats,
    /// The lock layer's slow-path event counts over the run.
    pub events: optiql::stats::Snapshot,
}

/// One figure's index sweep: what the figure varies, and the row each
/// point prints. Every point runs for `env::duration()`; the mixes are the
/// outer loop, the thread points the inner one.
pub struct Sweep<'a> {
    /// Labelled operation mixes.
    pub mixes: &'a [(&'a str, Mix)],
    /// Key distribution of every run.
    pub dist: KeyDist,
    /// Key space of the preload and of every run.
    pub keyspace: KeySpace,
    /// Preloaded records.
    pub keys: u64,
    /// Worker-thread points.
    pub threads: &'a [usize],
    /// Sample one operation's latency every `n` (0: no sampling).
    pub sample_every: u32,
    /// Lookups per batched call (1: scalar lookups).
    pub batch: usize,
    /// Prints one point's row.
    pub row: fn(&Point<'_>),
}

impl<'a> Sweep<'a> {
    /// A sweep over dense keys, without latency sampling, with scalar
    /// lookups.
    pub fn new(
        mixes: &'a [(&'a str, Mix)],
        dist: KeyDist,
        keys: u64,
        threads: &'a [usize],
        row: fn(&Point<'_>),
    ) -> Self {
        Sweep {
            mixes,
            dist,
            keyspace: KeySpace::Dense,
            keys,
            threads,
            sample_every: 0,
            batch: 1,
            row,
        }
    }

    /// Run the sweep on a fresh index per lock configuration of `locks`.
    pub fn over(&self, index: &str, locks: &[(&str, SweepFn)]) {
        for (lock, f) in locks {
            f(self, index, lock);
        }
    }

    /// Run every point on `tree`, already preloaded with the sweep's keys.
    pub fn points<I: ConcurrentIndex>(&self, tree: &I, index: &str, lock: &str) {
        for &(mix_name, mix) in self.mixes {
            for &threads in self.threads {
                let mut cfg = WorkloadConfig::new(threads, mix, self.dist.clone(), self.keys);
                cfg.keyspace = self.keyspace;
                cfg.duration = env::duration();
                cfg.sample_every = self.sample_every;
                cfg.batch = self.batch;
                let (stats, events) = (tree.index_stats(), optiql::stats::snapshot());
                let (result, hist) = run(tree, &cfg);
                (self.row)(&Point {
                    index,
                    lock,
                    mix: mix_name,
                    threads,
                    result,
                    hist,
                    stats: tree.index_stats().since(&stats),
                    events: optiql::stats::snapshot().since(&events),
                });
            }
        }
    }
}

/// Build an `I`, preload it with the sweep's keys and run every point on
/// it. A lock list holds this function instantiated per tree type, so
/// every measured loop is monomorphised.
pub fn sweep<I: ConcurrentIndex + Default>(s: &Sweep<'_>, index: &str, lock: &str) {
    let tree = I::default();
    preload(&tree, s.keys, s.keyspace);
    s.points(&tree, index, lock);
}

/// [`sweep`] for one tree type: `(sweep, index label, lock label)`.
pub type SweepFn = fn(&Sweep<'_>, &str, &str);

type BTree<IL, LL> = BPlusTree<IL, LL, DEFAULT_IC, DEFAULT_LC>;

/// The paper's five B+-tree lock configurations, as `(inner, leaf)`
/// pairs: the OptiQL variants queue at the leaves only (§6.1).
pub const BTREE_LOCKS: [(&str, SweepFn); 5] = [
    ("OptLock", sweep::<BTree<OptLock, OptLock>>),
    ("OptiQL-NOR", sweep::<BTree<OptLock, OptiQLNor>>),
    ("OptiQL", sweep::<BTree<OptLock, OptiQL>>),
    ("pthread", sweep::<BTree<PthreadRwLock, PthreadRwLock>>),
    ("MCS-RW", sweep::<BTree<McsRwLock, McsRwLock>>),
];

/// The paper's five ART locks (one lock type for every node).
pub const ART_LOCKS: [(&str, SweepFn); 5] = [
    ("OptLock", sweep::<ArtTree<OptLock>>),
    ("OptiQL-NOR", sweep::<ArtTree<OptiQLNor>>),
    ("OptiQL", sweep::<ArtTree<OptiQL>>),
    ("pthread", sweep::<ArtTree<PthreadRwLock>>),
    ("MCS-RW", sweep::<ArtTree<McsRwLock>>),
];

/// The configurations of `locks` named in `names`, in `locks`' order.
pub fn only(locks: &[(&'static str, SweepFn)], names: &[&str]) -> Vec<(&'static str, SweepFn)> {
    locks
        .iter()
        .copied()
        .filter(|(name, _)| names.contains(name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql_art::ArtOptiQL;
    use optiql_btree::{BTreeOptLock, BTreeOptiQL};

    fn quick_cfg(mix: Mix) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::new(2, mix, KeyDist::Uniform, 10_000);
        cfg.duration = Duration::from_millis(150);
        cfg
    }

    #[test]
    fn preload_populates_every_key() {
        let tree: BTreeOptiQL = BTreeOptiQL::new();
        let cfg = quick_cfg(Mix::READ_ONLY);
        preload(&tree, cfg.preload, cfg.keyspace);
        assert_eq!(tree.len(), 10_000);
        assert_eq!(tree.lookup(0), Some(1));
        assert_eq!(tree.lookup(9_999), Some(10_000));
    }

    #[test]
    fn read_only_workload_hits_every_lookup() {
        let tree: BTreeOptiQL = BTreeOptiQL::new();
        let cfg = quick_cfg(Mix::READ_ONLY);
        preload(&tree, cfg.preload, cfg.keyspace);
        let (r, hist) = run(&tree, &cfg);
        assert!(r.lookups > 0);
        assert_eq!(r.lookups, r.lookup_hits, "dense preload: all hits");
        assert_eq!(r.updates + r.inserts + r.removes, 0);
        assert!(hist.count() > 0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn balanced_workload_mixes_ops() {
        let tree: BTreeOptLock = BTreeOptLock::new();
        let cfg = quick_cfg(Mix::BALANCED);
        preload(&tree, cfg.preload, cfg.keyspace);
        let (r, _) = run(&tree, &cfg);
        assert!(r.lookups > 0);
        assert!(r.updates > 0);
        let ratio = r.lookups as f64 / (r.lookups + r.updates) as f64;
        assert!((0.35..0.65).contains(&ratio), "lookup ratio {ratio}");
    }

    #[test]
    fn insert_heavy_grows_art() {
        let art: ArtOptiQL = ArtOptiQL::new();
        let cfg = quick_cfg(Mix::INSERT_HEAVY);
        preload(&art, cfg.preload, cfg.keyspace);
        let before = art.len();
        let (r, _) = run(&art, &cfg);
        assert!(r.inserts > 0);
        assert!(art.len() > before, "inserts must add keys");
        art.check_invariants();
    }

    #[test]
    fn self_similar_workload_runs_on_art() {
        let art: ArtOptiQL = ArtOptiQL::new();
        let mut cfg = quick_cfg(Mix::WRITE_HEAVY);
        cfg.dist = KeyDist::self_similar_02();
        preload(&art, cfg.preload, cfg.keyspace);
        let (r, _) = run(&art, &cfg);
        assert!(r.updates > 0);
        art.check_invariants();
    }

    #[test]
    fn batched_read_only_workload_hits_every_lookup() {
        let tree: BTreeOptiQL = BTreeOptiQL::new();
        let mut cfg = quick_cfg(Mix::READ_ONLY);
        cfg.batch = 8;
        preload(&tree, cfg.preload, cfg.keyspace);
        let (r, _) = run(&tree, &cfg);
        assert!(r.lookups > 0);
        assert_eq!(r.lookups % 8, 0, "lookups counted in whole batches");
        assert_eq!(r.lookups, r.lookup_hits, "dense preload: all hits");
    }

    #[test]
    fn batched_lookups_mix_with_scalar_writes_on_art() {
        let art: ArtOptiQL = ArtOptiQL::new();
        let mut cfg = quick_cfg(Mix::READ_HEAVY);
        cfg.batch = 16;
        preload(&art, cfg.preload, cfg.keyspace);
        let (r, _) = run(&art, &cfg);
        assert!(r.lookups > 0 && r.updates > 0);
        assert_eq!(r.lookups, r.lookup_hits);
        art.check_invariants();
    }

    /// Each run's inserts are fresh keys: a second run on the same tree
    /// grows it by exactly its own insert count instead of overwriting
    /// the first run's keys.
    #[test]
    fn a_second_run_inserts_past_the_first_runs_keys() {
        let tree: BTreeOptiQL = BTreeOptiQL::new();
        let cfg = quick_cfg(Mix::YCSB_D);
        preload(&tree, cfg.preload, cfg.keyspace);
        for _ in 0..2 {
            let before = tree.len() as u64;
            let (r, _) = run(&tree, &cfg);
            assert!(r.inserts > 0);
            assert_eq!(tree.len() as u64 - before, r.inserts);
        }
    }

    #[test]
    fn mix_percentages_validate() {
        let suite = Mix::paper_suite();
        assert_eq!(suite.len(), 5);
        for (_, m) in suite {
            assert_eq!(m.lookup + m.update + m.insert + m.remove + m.scan, 100);
        }
        for (_, m) in Mix::ycsb_suite() {
            assert_eq!(m.lookup + m.update + m.insert + m.remove + m.scan, 100);
        }
    }

    #[test]
    fn ycsb_e_drives_range_scans() {
        let tree: BTreeOptiQL = BTreeOptiQL::new();
        let cfg = quick_cfg(Mix::YCSB_E);
        preload(&tree, cfg.preload, cfg.keyspace);
        let (r, _) = run(&tree, &cfg);
        assert!(r.scans > 0, "YCSB-E must issue scans");
        assert!(r.scanned_entries > 0);
        assert!(r.inserts > 0, "YCSB-E inserts 5%");
    }

    #[test]
    fn ycsb_e_scans_on_art_too() {
        let art: ArtOptiQL = ArtOptiQL::new();
        let cfg = quick_cfg(Mix::YCSB_E);
        preload(&art, cfg.preload, cfg.keyspace);
        let (r, _) = run(&art, &cfg);
        assert!(r.scans > 0 && r.scanned_entries > 0);
        art.check_invariants();
    }

    #[test]
    fn scan_modes_agree_on_quiescent_counts() {
        // Same config, no writers: Stream and Count must both report
        // full-length scans over a dense preload.
        for mode in [ScanMode::Stream, ScanMode::Count] {
            let tree: BTreeOptiQL = BTreeOptiQL::new();
            let mut cfg = quick_cfg(Mix::with_scan(0, 0, 0, 0, 100));
            cfg.scan_mode = mode;
            cfg.scan_max = 10;
            preload(&tree, cfg.preload, cfg.keyspace);
            let (r, _) = run(&tree, &cfg);
            assert!(r.scans > 0, "{mode:?} issued no scans");
            // Scan lengths are uniform in 1..=10 and every start has at
            // least 10 successors in a dense 10k preload, so the mean
            // entries-per-scan must be strictly above 1.
            assert!(
                r.scanned_entries > r.scans,
                "{mode:?}: {} entries over {} scans",
                r.scanned_entries,
                r.scans
            );
        }
    }
}

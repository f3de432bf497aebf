//! Hot-path microbenchmarks: the per-operation substrate costs that sit
//! under *every* index operation, measured in isolation so regressions are
//! visible before they wash out in whole-index numbers.
//!
//! Groups:
//!
//! * `pin_unpin` — the two epoch-reclamation pins the benchmark's ledger
//!   does not report: a re-entrant pin with an outer guard held, and a pin
//!   through the collector (the plain handle pin/unpin round-trip is the
//!   ledger's `reclaim.pin_unpin_ns`);
//! * `qnode` — queue-node pool acquire/release (1 thread and 8 threads);
//! * `node_search` — single-level B+-tree in-node search: inner
//!   `child_index` at child capacities 16/64/256 and leaf `lower_bound`
//!   at the matching leaf capacities;
//! * `x_lock` — uncontended exclusive acquire/release cycle for every
//!   lock in the crate (the ledger tracks the OptiQL row's trend as
//!   `core.optiql_xlock_ns`; the comparison across locks lives here);
//! * `r_cycle` — uncontended reader admission + validation for the five
//!   reader-capable locks of the paper's index figures;
//! * `upgrade` — uncontended read → upgrade → exclusive release for the
//!   three optimistic locks;
//! * `x_lock/OptiQL÷OptLock`, `r_cycle/OptiQL÷OptLock` — OptiQL's
//!   throughput over OptLock's, both timed A B B A in one process, so the
//!   binary's code placement and host drift fall on both alike: `value` is
//!   the median of [`RATIO_ROUNDS`] rounds' ratios, `extra` their min–max.
//!   Two builds' `x_lock/*` rows can differ by code placement alone; these
//!   rows compare across builds;
//! * `index_op` — single-thread OptiQL B+-tree and ART lookup/update on a
//!   100 k-key tree, stepping through the keys by 7. One timed loop of
//!   these moves by up to 2x between runs, so each row is the median of
//!   [`RUNS`] loops, its `extra` the median's mean ns and the loops'
//!   min–max Mops/s.
//!
//! The last four groups quantify §5.4: OptiQL's uncontended writer
//! release pays a CAS, opportunistic read adds two atomics per handover,
//! and the reader path costs exactly as much as a centralized optimistic
//! lock.
//!
//! Rows go to stdout and to `results/BENCH_hotpath.json` in the shape
//! every bench shares: `series` is `<group>/<config>`, `x` the thread
//! count, `value` Mops/s, `extra` mean ns per op, then percentiles. A run
//! replaces the file; every row carries `OPTIQL_BENCH_REV` (see
//! [`optiql_bench::report`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use optiql::slab::Slab;
use optiql::{
    qnode, ExclusiveLock, IndexLock, McsLock, McsRwLock, OptLock, OptLockBackoff, OptiQL,
    OptiQLAor, OptiQLNor, PthreadRwLock, TtsBackoff, TtsLock,
};
use optiql_art::ArtOptiQL;
use optiql_bench::{banner, env, header, mops, r2, row_latency, Histogram, LatencySummary};
use optiql_btree::node::{as_inner, as_leaf, Inner, Leaf};
use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;
use optiql_sharded::affinity::pin_thread;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::hint::black_box;

/// Operations per timing batch: long enough to amortize the `Instant`
/// reads, short enough to populate the latency histogram.
const BATCH: u64 = 256;

struct Timed {
    ops_per_sec: f64,
    hist: Histogram,
}

/// Time `f` in batches for `dur`, collecting per-op latency (batch mean).
fn time_loop(dur: Duration, mut f: impl FnMut()) -> Timed {
    for _ in 0..BATCH {
        f(); // warm-up: faults, TLS registration, branch predictors
    }
    let mut hist = Histogram::new();
    let mut ops = 0u64;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        let ns = t0.elapsed().as_nanos() as u64;
        hist.record((ns / BATCH).max(1));
        ops += BATCH;
        if start.elapsed() >= dur {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Timed {
        ops_per_sec: ops as f64 / secs,
        hist,
    }
}

/// As [`time_loop`] but with `threads` workers running `f` concurrently.
fn time_threads(threads: usize, dur: Duration, f: impl Fn(usize) + Sync) -> Timed {
    let stop = AtomicBool::new(false);
    let merged: Mutex<(u64, Histogram)> = Mutex::new((0, Histogram::new()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (stop, merged, f) = (&stop, &merged, &f);
            s.spawn(move || {
                pin_thread(t);
                for _ in 0..BATCH {
                    f(t);
                }
                let mut hist = Histogram::new();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    for _ in 0..BATCH {
                        f(t);
                    }
                    let ns = t0.elapsed().as_nanos() as u64;
                    hist.record((ns / BATCH).max(1));
                    ops += BATCH;
                }
                let mut g = merged.lock().unwrap();
                g.0 += ops;
                g.1.merge(&hist);
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();
    let (ops, hist) = merged.into_inner().unwrap();
    Timed {
        ops_per_sec: ops as f64 / secs,
        hist,
    }
}

/// One row: throughput over all threads, one thread's mean time per
/// operation (what the ledger's `*_ns` metrics report), and percentiles
/// of the per-batch means.
fn emit(group: &str, config: &str, threads: usize, t: &Timed) {
    row_latency(
        "hotpath",
        &format!("{group}/{config}"),
        threads,
        r2(mops(t.ops_per_sec)),
        r2(threads as f64 * 1e9 / t.ops_per_sec),
        LatencySummary::from_histogram(&t.hist).as_ref(),
    );
}

// --- group: reclamation pin/unpin ----------------------------------------

fn bench_pin_unpin(dur: Duration) {
    let collector = optiql_reclaim::Collector::new();
    let handle = collector.handle();

    // Re-entrant pin with an outer guard held: the depth>0 fast path.
    let outer = handle.pin();
    let t = time_loop(dur, || {
        drop(black_box(handle.pin()));
    });
    drop(outer);
    emit("pin_unpin", "nested", 1, &t);

    let t = time_loop(dur, || {
        drop(black_box(collector.pin()));
    });
    emit("pin_unpin", "collector", 1, &t);
}

// --- group: queue-node pool ----------------------------------------------

fn bench_qnode(dur: Duration) {
    let t = time_loop(dur, || {
        let id = qnode::alloc();
        black_box(id);
        qnode::free(id);
    });
    emit("qnode", "acquire_release", 1, &t);

    // Hold two (the B+-tree merge case) so the TLS cache cycles.
    let t = time_loop(dur, || {
        let a = qnode::alloc();
        let b = qnode::alloc();
        qnode::free(black_box(a));
        qnode::free(black_box(b));
    });
    emit("qnode", "acquire_release_pair", 1, &t);

    for threads in [8usize, 16] {
        let t = time_threads(threads, dur, |_| {
            let id = qnode::alloc();
            black_box(id);
            qnode::free(id);
        });
        emit("qnode", "acquire_release", threads, &t);
    }
}

// --- group: in-node search ------------------------------------------------

fn bench_node_search<const IC: usize>(dur: Duration) {
    // A full inner node of IC-1 separators routing to one shared dummy
    // child, searched with uniformly random keys over the covered range.
    let children = Slab::new();
    let child = Leaf::<OptLock, 4>::alloc(&children);
    let inners = Slab::new();
    let ip = Inner::<OptLock, IC>::alloc(&inners);
    // Safety: `ip` was just allocated by `Inner::<OptLock, IC>::alloc`.
    let inner = unsafe { as_inner::<OptLock, IC>(ip) };
    inner.init_root(8, child, child);
    for i in 1..(IC - 1) as u64 {
        inner.insert_child((i + 1) * 8, child);
    }
    // 64Ki probe keys: long enough that the branch predictor cannot
    // memorize the probe sequence, which would flatter branchy searches.
    let span = IC as u64 * 8;
    let mut rng = SmallRng::seed_from_u64(0xB7EE);
    let keys: Vec<u64> = (0..65536).map(|_| rng.random_range(0..span)).collect();
    let mut i = 0usize;
    let t = time_loop(dur, || {
        i = (i + 1) & 0xFFFF;
        black_box(inner.child_index(black_box(keys[i])));
    });
    emit("node_search", &format!("child_index_{IC}"), 1, &t);

    // Matching leaf: LC = IC entries, lower_bound over the same keys.
    let leaves = Slab::new();
    let lp = Leaf::<OptLock, IC>::alloc(&leaves);
    // Safety: `lp` was just allocated by `Leaf::<OptLock, IC>::alloc`.
    let leaf = unsafe { as_leaf::<OptLock, IC>(lp) };
    for k in 0..IC as u64 {
        leaf.insert(k * 8, k);
    }
    let t = time_loop(dur, || {
        i = (i + 1) & 0xFFFF;
        black_box(leaf.lower_bound(black_box(keys[i])));
    });
    emit("node_search", &format!("lower_bound_{IC}"), 1, &t);
}

// --- group: uncontended exclusive acquire ---------------------------------

/// One uncontended exclusive acquire/release cycle on `lock`.
fn x_cycle<L: ExclusiveLock>(lock: &L) -> impl FnMut() + '_ {
    move || {
        let tok = lock.x_lock();
        black_box(lock);
        lock.x_unlock(tok);
    }
}

fn bench_x_lock<L: ExclusiveLock>(dur: Duration) {
    let lock = L::default();
    emit("x_lock", L::NAME, 1, &time_loop(dur, x_cycle(&lock)));
}

// --- group: uncontended reader cycle and upgrade --------------------------

/// One uncontended reader admission + validation on `lock`.
fn r_cycle<L: IndexLock>(lock: &L) -> impl FnMut() + '_ {
    move || {
        let v = lock.r_lock().unwrap();
        black_box(lock);
        black_box(lock.r_unlock(v));
    }
}

fn bench_r_cycle<L: IndexLock>(dur: Duration) {
    let lock = L::default();
    emit("r_cycle", L::NAME, 1, &time_loop(dur, r_cycle(&lock)));
}

fn bench_upgrade<L: IndexLock>(dur: Duration) {
    let lock = L::default();
    let t = time_loop(dur, || {
        let v = lock.r_lock().unwrap();
        let tok = lock.try_upgrade(v).unwrap();
        lock.x_unlock(tok);
    });
    emit("upgrade", L::NAME, 1, &t);
}

// --- in-process ratios -----------------------------------------------------

/// A B B A rounds per ratio row.
const RATIO_ROUNDS: usize = 5;

/// `<group>/<a>÷<b>`: `fa`'s throughput over `fb`'s, each round timing
/// `fa`, `fb`, `fb`, `fa` for a quarter of `dur` each.
fn ratio_row(
    group: &str,
    a: &str,
    b: &str,
    dur: Duration,
    mut fa: impl FnMut(),
    mut fb: impl FnMut(),
) {
    let quarter = dur / 4;
    let mut ratios: Vec<f64> = (0..RATIO_ROUNDS)
        .map(|_| {
            let a1 = time_loop(quarter, &mut fa).ops_per_sec;
            let b1 = time_loop(quarter, &mut fb).ops_per_sec;
            let b2 = time_loop(quarter, &mut fb).ops_per_sec;
            let a2 = time_loop(quarter, &mut fa).ops_per_sec;
            (a1 + a2) / (b1 + b2)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let (lo, hi) = (ratios[0], ratios[RATIO_ROUNDS - 1]);
    row_latency(
        "hotpath",
        &format!("{group}/{a}÷{b}"),
        1,
        format!("{:.3}", ratios[RATIO_ROUNDS / 2]),
        format!("({lo:.3}-{hi:.3})"),
        None,
    );
}

fn bench_ratios(dur: Duration) {
    let (q, o) = (OptiQL::default(), OptLock::default());
    ratio_row(
        "x_lock",
        OptiQL::NAME,
        OptLock::NAME,
        dur,
        x_cycle(&q),
        x_cycle(&o),
    );
    ratio_row(
        "r_cycle",
        OptiQL::NAME,
        OptLock::NAME,
        dur,
        r_cycle(&q),
        r_cycle(&o),
    );
}

// --- group: single-thread index point ops ---------------------------------

const INDEX_KEYS: u64 = 100_000;

/// Timed loops per `index_op` row.
const RUNS: usize = 5;

/// One `index_op` row from [`RUNS`] timed loops of `f`: the median loop's
/// throughput and percentiles, then its mean ns and the loops' min–max.
fn index_row(config: &str, dur: Duration, mut f: impl FnMut()) {
    let mut runs: Vec<Timed> = (0..RUNS).map(|_| time_loop(dur, &mut f)).collect();
    runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
    let t = &runs[RUNS / 2];
    let (lo, hi) = (mops(runs[0].ops_per_sec), mops(runs[RUNS - 1].ops_per_sec));
    row_latency(
        "hotpath",
        &format!("index_op/{config}"),
        1,
        r2(mops(t.ops_per_sec)),
        format!("{} ({lo:.2}-{hi:.2})", r2(1e9 / t.ops_per_sec)),
        LatencySummary::from_histogram(&t.hist).as_ref(),
    );
}

fn bench_index_op<I: ConcurrentIndex + Default>(dur: Duration, name: &str) {
    let index = I::default();
    for k in 0..INDEX_KEYS {
        index.insert(k, k);
    }
    let mut k = 0u64;
    index_row(&format!("{name}_lookup"), dur, || {
        k = (k + 7) % INDEX_KEYS;
        black_box(index.lookup(black_box(k)));
    });
    index_row(&format!("{name}_update"), dur, || {
        k = (k + 7) % INDEX_KEYS;
        black_box(index.update(black_box(k), 1));
    });
}

fn main() {
    let dur = env::duration();
    banner("hotpath", "substrate fast-path microbenchmarks");
    header(&[
        "figure",
        "group/config",
        "threads",
        "Mops/s",
        "mean_ns",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "p999_ns",
    ]);

    bench_pin_unpin(dur);
    bench_qnode(dur);
    bench_node_search::<16>(dur);
    bench_node_search::<64>(dur);
    bench_node_search::<256>(dur);

    bench_x_lock::<TtsLock>(dur);
    bench_x_lock::<TtsBackoff>(dur);
    bench_x_lock::<McsLock>(dur);
    bench_x_lock::<McsRwLock>(dur);
    bench_x_lock::<OptLock>(dur);
    bench_x_lock::<OptLockBackoff>(dur);
    bench_x_lock::<OptiQL>(dur);
    bench_x_lock::<OptiQLNor>(dur);
    bench_x_lock::<OptiQLAor>(dur);
    bench_x_lock::<PthreadRwLock>(dur);

    bench_r_cycle::<OptLock>(dur);
    bench_r_cycle::<OptiQLNor>(dur);
    bench_r_cycle::<OptiQL>(dur);
    bench_r_cycle::<McsRwLock>(dur);
    bench_r_cycle::<PthreadRwLock>(dur);

    bench_upgrade::<OptLock>(dur);
    bench_upgrade::<OptiQLNor>(dur);
    bench_upgrade::<OptiQL>(dur);

    bench_ratios(dur);

    bench_index_op::<BTreeOptiQL>(dur, "btree_optiql");
    bench_index_op::<ArtOptiQL>(dur, "art_optiql");
}

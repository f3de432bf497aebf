//! Reproduce the paper's Figure 1 story in miniature: a B+-tree under an
//! update-only workload, with a centralized optimistic lock vs OptiQL, at
//! low and high contention. Prints a side-by-side table.
//!
//! Run with: `cargo run --release --example contention_demo`
//! (On a many-core machine, also try OPTIQL_BENCH_THREADS=1,10,20,40,80.)

use optiql_bench::{env, preload, run, KeyDist, KeySpace, Mix, WorkloadConfig};
use optiql_btree::{BTreeOptLock, BTreeOptiQL};
use optiql_index_api::ConcurrentIndex;

fn measure<I: ConcurrentIndex>(index: &I, dist: KeyDist, threads: usize, keys: u64) -> f64 {
    let mut cfg = WorkloadConfig::new(threads, Mix::UPDATE_ONLY, dist, keys);
    cfg.duration = env::duration();
    cfg.sample_every = 0;
    let (r, _) = run(index, &cfg);
    r.throughput() / 1e6
}

fn main() {
    let keys = 200_000u64;
    let threads = env::thread_counts();

    let optlock: BTreeOptLock = BTreeOptLock::new();
    let optiql: BTreeOptiQL = BTreeOptiQL::new();
    preload(&optlock, keys, KeySpace::Dense);
    preload(&optiql, keys, KeySpace::Dense);

    println!("B+-tree, update-only, {keys} keys (Mops/s)");
    println!();
    println!("                     (a) low contention      (b) high contention");
    println!("threads              OptLock   OptiQL        OptLock   OptiQL");
    for &t in &threads {
        let low_optlock = measure(&optlock, KeyDist::Uniform, t, keys);
        let low_optiql = measure(&optiql, KeyDist::Uniform, t, keys);
        let high_optlock = measure(&optlock, KeyDist::self_similar_02(), t, keys);
        let high_optiql = measure(&optiql, KeyDist::self_similar_02(), t, keys);
        println!(
            "{t:>7}              {low_optlock:>7.2}   {low_optiql:>6.2}        {high_optlock:>7.2}   {high_optiql:>6.2}"
        );
    }
    println!();
    println!("Expected shape (paper Fig. 1): the two locks match under low");
    println!("contention; under high contention OptLock degrades as threads");
    println!("are added while OptiQL's queue keeps throughput stable.");
}

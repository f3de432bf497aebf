//! Fairness demonstration (paper §1.1 and D3): with backoff-based
//! centralized locks, "lucky" threads can acquire the lock several times
//! more often than others; OptiQL's FIFO queue hands the lock over evenly.
//!
//! Counts per-thread acquisitions of one highly contended lock and prints
//! the max/min ratio for each lock type (1.0 = perfectly fair).
//!
//! Run with: `cargo run --release --example fairness_demo`

use std::time::Duration;

use optiql::{ExclusiveLock, McsLock, OptLock, OptLockBackoff, OptiQL, TtsBackoff, TtsLock};
use optiql_bench::{run_exclusive, Contention, MicroConfig};

fn fairness<L: ExclusiveLock>(threads: usize) -> (f64, u64) {
    let cfg = MicroConfig {
        threads,
        contention: Contention::Extreme,
        read_pct: 0,
        cs_len: 50,
        duration: Duration::from_millis(600),
    };
    let r = run_exclusive::<L>(&cfg);
    (r.fairness_ratio(), r.ops())
}

fn main() {
    let threads = 8; // oversubscribed on small hosts: worst case for fairness
    println!("single contended lock, {threads} threads, per-thread acquisition balance");
    println!();
    println!("lock              max/min ratio    total acquisitions");
    for (name, (ratio, ops)) in [
        ("TTS", fairness::<TtsLock>(threads)),
        ("TTS+backoff", fairness::<TtsBackoff>(threads)),
        ("OptLock", fairness::<OptLock>(threads)),
        ("OptLock+backoff", fairness::<OptLockBackoff>(threads)),
        ("MCS", fairness::<McsLock>(threads)),
        ("OptiQL", fairness::<OptiQL>(threads)),
    ] {
        println!("{name:<16}  {ratio:>12.2}    {ops:>14}");
    }
    println!();
    println!("Expected shape: queue-based MCS/OptiQL sit near 1.0 (FIFO);");
    println!("backoff variants skew several-fold toward lucky threads —");
    println!("the paper observed ~3x, which is why OptiQL avoids backoff.");
}

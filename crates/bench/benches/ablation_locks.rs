//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. **Backoff vs queueing** (§1.1): exponential backoff eases collapse on
//!    centralized locks but sacrifices fairness; the queue gives both.
//!    Reported: throughput *and* max/min per-thread acquisition ratio.
//! 2. **Opportunistic read** (§5.3): OptiQL vs OptiQL-NOR reader success
//!    under a write-heavy mix.

use optiql::{
    ExclusiveLock, IndexLock, McsLock, OptLock, OptLockBackoff, OptiQL, OptiQLNor, TtsBackoff,
    TtsLock,
};
use optiql_bench::{
    banner, env, header, mops, r2, row_extra, run_exclusive, run_mixed, Contention, MicroConfig,
};

fn fairness_point<L: ExclusiveLock>(threads: usize) {
    let cfg = MicroConfig::new(threads, Contention::Extreme, env::duration());
    let r = run_exclusive::<L>(&cfg);
    row_extra(
        "ablation",
        "backoff-vs-queue",
        L::NAME,
        r2(mops(r.throughput())),
        format!("fairness={:.2}", r.fairness_ratio()),
    );
}

fn opread_point<L: IndexLock>(threads: usize, read_pct: u32) {
    let cfg = MicroConfig {
        threads,
        contention: Contention::High,
        read_pct,
        cs_len: 50,
        duration: env::duration(),
    };
    let r = run_mixed::<L>(&cfg);
    row_extra(
        "ablation",
        "opportunistic-read",
        format!("{}@{}r", L::NAME, read_pct),
        r2(mops(r.throughput())),
        format!("read_success={:.1}%", r.read_success_rate() * 100.0),
    );
}

fn main() {
    banner(
        "ablation",
        "Design-choice ablations (extreme/high contention)",
    );
    header(&["figure", "ablation", "config", "Mops/s", "extra"]);
    let threads = *env::thread_counts().last().unwrap();

    // 1. Backoff vs queueing, with fairness.
    fairness_point::<TtsLock>(threads);
    fairness_point::<TtsBackoff>(threads);
    fairness_point::<OptLock>(threads);
    fairness_point::<OptLockBackoff>(threads);
    fairness_point::<McsLock>(threads);
    fairness_point::<OptiQL>(threads);

    // 2. Opportunistic read on/off across read ratios.
    for read_pct in [20, 50, 80] {
        opread_point::<OptiQLNor>(threads, read_pct);
        opread_point::<OptiQL>(threads, read_pct);
    }
}

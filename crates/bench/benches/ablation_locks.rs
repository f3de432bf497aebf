//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. **Backoff vs queueing** (§1.1): exponential backoff eases collapse on
//!    centralized locks but sacrifices fairness; the queue gives both.
//!    Reported: throughput *and* max/min per-thread acquisition ratio,
//!    each the median of five runs, with the ratio's range.
//! 2. **Opportunistic read** (§5.3): OptiQL vs OptiQL-NOR reader success
//!    under a write-heavy mix.

use optiql::{
    ExclusiveLock, IndexLock, McsLock, OptLock, OptLockBackoff, OptiQL, OptiQLNor, TtsBackoff,
    TtsLock,
};
use optiql_bench::{
    banner, env, header, mops, r2, row_extra, run_exclusive, run_mixed, Contention, MicroConfig,
};

/// Runs per backoff-vs-queue point. One short run's max/min ratio can
/// move by 2x from run to run on a shared host, so the row gives the
/// median of several with their range.
const FAIRNESS_RUNS: usize = 5;

fn fairness_point<L: ExclusiveLock>(threads: usize) {
    let cfg = MicroConfig::new(threads, Contention::Extreme, env::duration());
    let (mut rate, mut fair): (Vec<f64>, Vec<f64>) = (0..FAIRNESS_RUNS)
        .map(|_| {
            let r = run_exclusive::<L>(&cfg);
            (mops(r.throughput()), r.fairness_ratio())
        })
        .unzip();
    rate.sort_by(f64::total_cmp);
    fair.sort_by(f64::total_cmp);
    let mid = FAIRNESS_RUNS / 2;
    row_extra(
        "ablation",
        "backoff-vs-queue",
        L::NAME,
        r2(rate[mid]),
        format!(
            "fairness={:.2} ({:.2}-{:.2})",
            fair[mid],
            fair[0],
            fair[FAIRNESS_RUNS - 1]
        ),
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

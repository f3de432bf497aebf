//! Figure 6: exclusive-lock throughput under five contention levels for
//! all seven lock variants (OptLock, OptiQL-NOR, OptiQL, pthread, MCS-RW,
//! TTS, MCS), sweeping the thread count.
//!
//! Expected shape (paper): queue-based variants (OptiQL, OptiQL-NOR,
//! MCS-RW, MCS, pthread) hold their throughput under extreme/high
//! contention while TTS and OptLock collapse; under medium/low/no
//! contention all locks scale similarly.

use optiql::{
    ExclusiveLock, McsLock, McsRwLock, OptLock, OptiQL, OptiQLNor, PthreadRwLock, TtsLock,
};
use optiql_bench::{banner, env, header, mops, r2, row, run_exclusive, Contention, MicroConfig};

fn sweep<L: ExclusiveLock>(contention: Contention, threads: &[usize]) {
    for &t in threads {
        let cfg = MicroConfig::new(t, contention, env::duration());
        let r = run_exclusive::<L>(&cfg);
        row(
            "fig06",
            &format!("{}/{}", contention.label(), L::NAME),
            t,
            r2(mops(r.throughput())),
        );
    }
}

fn main() {
    banner("fig06", "Exclusive lock throughput vs contention level");
    header(&["figure", "contention/lock", "threads", "Mops/s"]);
    let threads = env::thread_counts();
    for contention in Contention::all() {
        sweep::<OptLock>(contention, &threads);
        sweep::<OptiQLNor>(contention, &threads);
        sweep::<OptiQL>(contention, &threads);
        sweep::<PthreadRwLock>(contention, &threads);
        sweep::<McsRwLock>(contention, &threads);
        sweep::<TtsLock>(contention, &threads);
        sweep::<McsLock>(contention, &threads);
    }
}

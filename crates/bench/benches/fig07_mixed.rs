//! Figure 7: lock throughput under varying read/write ratios
//! (0/100 … 90/10) and four contention levels, at the maximum thread
//! count, for the five reader-capable locks.
//!
//! Expected shape (paper): under extreme contention OptLock stays low and
//! pthread trends worse, MCS-RW holds, OptiQL-NOR leads until the mix
//! becomes read-heavy where OptiQL's opportunistic read pays off; under
//! medium/low contention the optimistic locks dominate the pessimistic
//! ones.

use optiql::{IndexLock, McsRwLock, OptLock, OptiQL, OptiQLNor, PthreadRwLock};
use optiql_bench::{banner, env, header, mops, r2, row, run_mixed, Contention, MicroConfig};

const RATIOS: [(u32, &str); 5] = [
    (0, "0/100"),
    (20, "20/80"),
    (50, "50/50"),
    (80, "80/20"),
    (90, "90/10"),
];

fn sweep<L: IndexLock>(contention: Contention, threads: usize) {
    for (read_pct, label) in RATIOS {
        let cfg = MicroConfig {
            threads,
            contention,
            read_pct,
            cs_len: 50,
            duration: env::duration(),
        };
        let r = run_mixed::<L>(&cfg);
        row(
            "fig07",
            &format!("{}/{}", contention.label(), L::NAME),
            label,
            r2(mops(r.throughput())),
        );
    }
}

fn main() {
    banner("fig07", "Mixed read/write lock throughput (max threads)");
    header(&["figure", "contention/lock", "read/write", "Mops/s"]);
    let threads = *env::thread_counts().last().unwrap();
    for contention in [
        Contention::Extreme,
        Contention::High,
        Contention::Medium,
        Contention::Low,
    ] {
        sweep::<OptLock>(contention, threads);
        sweep::<OptiQLNor>(contention, threads);
        sweep::<OptiQL>(contention, threads);
        sweep::<PthreadRwLock>(contention, threads);
        sweep::<McsRwLock>(contention, threads);
    }
}

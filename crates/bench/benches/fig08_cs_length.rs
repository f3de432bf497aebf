//! Figure 8: lock throughput under varying critical-section lengths
//! (5–200 volatile increments) with a read-mostly mix (80% reads / 20%
//! writes), under low and high contention, at the maximum thread count.
//!
//! Expected shape (paper): under low contention CS length just scales
//! throughput down uniformly; under high contention opportunistic read
//! (OptiQL vs OptiQL-NOR) mainly benefits short critical sections
//! (CS ≤ 50) — the reader-admission window is too short for long reads.

use optiql::{IndexLock, OptLock, OptiQL, OptiQLNor};
use optiql_bench::{banner, env, header, mops, r2, row, run_mixed, Contention, MicroConfig};

const CS_LENGTHS: [u32; 5] = [5, 50, 100, 150, 200];

fn sweep<L: IndexLock>(contention: Contention, threads: usize) {
    for cs in CS_LENGTHS {
        let cfg = MicroConfig {
            threads,
            contention,
            read_pct: 80,
            cs_len: cs,
            duration: env::duration(),
        };
        let r = run_mixed::<L>(&cfg);
        row(
            "fig08",
            &format!("{}/{}", contention.label(), L::NAME),
            cs,
            r2(mops(r.throughput())),
        );
    }
}

fn main() {
    banner(
        "fig08",
        "Throughput vs critical-section length (80/20 read/write)",
    );
    header(&["figure", "contention/lock", "cs_len", "Mops/s"]);
    let threads = *env::thread_counts().last().unwrap();
    for contention in [Contention::Low, Contention::High] {
        sweep::<OptLock>(contention, threads);
        sweep::<OptiQLNor>(contention, threads);
        sweep::<OptiQL>(contention, threads);
    }
}

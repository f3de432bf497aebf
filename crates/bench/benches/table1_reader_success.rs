//! Table 1: reader success rate of OptiQL-NOR vs OptiQL under varying
//! read/write ratios and high contention, at the maximum thread count.
//!
//! Expected shape (paper): OptiQL-NOR starves readers (< 2% success — the
//! queue keeps the word locked through handover), while OptiQL's
//! opportunistic read admits a substantial fraction (~26–32%).
//!
//! One row per lock and read/write ratio: the driver's read success rate
//! in percent, followed by a `<lock>/counters` row with the
//! *counter-derived* rate — one minus the lock layer's own rejections and
//! failed validations (`optiql::stats`) over the driver's read attempts,
//! which should match the driver's rate — and a comment line with the
//! lock's slow-path event totals, including how many admitted readers came
//! in through the opportunistic-read handover window (`opread_admit`), the
//! direct mechanism behind OptiQL's advantage.

use optiql::stats;
use optiql::{IndexLock, OptLock, OptiQL, OptiQLNor};
use optiql_bench::{banner, env, header, r2, row, run_mixed, Contention, MicroConfig};

const RATIOS: [(u32, &str); 4] = [
    (20, "20%/80%"),
    (50, "50%/50%"),
    (80, "80%/20%"),
    (90, "90%/10%"),
];

fn success_rates<L: IndexLock>(lock: &str, threads: usize) {
    for (read_pct, ratio) in RATIOS {
        let cfg = MicroConfig {
            threads,
            contention: Contention::High,
            read_pct,
            cs_len: 50,
            duration: env::duration(),
        };
        let before = stats::snapshot();
        let r = run_mixed::<L>(&cfg);
        let events = stats::snapshot().since(&before);
        row("table1", lock, ratio, r2(r.read_success_rate() * 100.0));
        let counted = events.reader_success(r.reads_ok + r.reads_failed);
        row(
            "table1",
            &format!("{lock}/counters"),
            ratio,
            r2(counted * 100.0),
        );
        println!("# {lock} {ratio}: {events}");
    }
}

fn main() {
    banner(
        "table1",
        "Reader success rate under high contention (percent)",
    );
    header(&["figure", "lock", "read/write", "success %"]);
    let threads = *env::thread_counts().last().unwrap();
    success_rates::<OptiQLNor>("OptiQL-NOR", threads);
    success_rates::<OptiQL>("OptiQL", threads);
    success_rates::<OptLock>("OptLock", threads);
}

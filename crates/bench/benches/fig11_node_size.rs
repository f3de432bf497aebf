//! Figure 11: B+-tree throughput under the skewed distribution across
//! node sizes 256 B – 16 KB, comparing OptLock, OptiQL-NOR, OptiQL and
//! OptiQL-AOR at a fixed thread count, for read-heavy / balanced /
//! write-heavy mixes.
//!
//! Expected shape (paper): larger nodes mean longer critical sections;
//! opportunistic read loses value for read-heavy mixes as nodes grow
//! (OptiQL-NOR catches up) but stays ahead with more writers. AOR buys up
//! to ~30% extra with larger nodes by holding the reader-admission window
//! open during the in-leaf search.

use optiql::{OptLock, OptiQL, OptiQLAor, OptiQLNor};
use optiql_bench::{banner, env, header, mops, r2, row, sweep, KeyDist, Mix, Point, Sweep};
use optiql_btree::BPlusTree;

/// The four leaf locks at one node size (inner nodes use OptLock); the
/// size label stands in the sweep's index slot and becomes the row's x.
fn size<const IC: usize, const LC: usize>(s: &Sweep<'_>, label: &str) {
    sweep::<BPlusTree<OptLock, OptLock, IC, LC>>(s, label, "OptLock");
    sweep::<BPlusTree<OptLock, OptiQLNor, IC, LC>>(s, label, "OptiQL-NOR");
    sweep::<BPlusTree<OptLock, OptiQL, IC, LC>>(s, label, "OptiQL");
    sweep::<BPlusTree<OptLock, OptiQLAor, IC, LC>>(s, label, "OptiQL-AOR");
}

fn main() {
    banner(
        "fig11",
        "B+-tree throughput vs node size (skewed, fixed threads)",
    );
    header(&["figure", "workload/lock", "node_size", "Mops/s"]);
    let threads = [*env::thread_counts().last().unwrap()];
    let mixes = [
        ("Read-heavy", Mix::READ_HEAVY),
        ("Balanced", Mix::BALANCED),
        ("Write-heavy", Mix::WRITE_HEAVY),
    ];
    // Node-size sweeps multiply the key count by constant-size nodes; keep
    // the preload smaller so the 16 KB point stays memory-friendly.
    let s = Sweep::new(
        &mixes,
        KeyDist::self_similar_02(),
        env::preload_keys().min(1_000_000),
        &threads,
        |p: &Point<'_>| {
            let series = format!("{}/{}", p.mix, p.lock);
            row("fig11", &series, p.index, r2(mops(p.result.throughput())));
        },
    );
    size::<16, 15>(&s, "256");
    size::<32, 31>(&s, "512");
    size::<64, 63>(&s, "1K");
    size::<128, 127>(&s, "2K");
    size::<256, 255>(&s, "4K");
    size::<512, 511>(&s, "8K");
    size::<1024, 1023>(&s, "16K");
}

//! Figure 12: operation latency percentiles (min … p99.999) for B+-tree
//! and ART under the self-similar (0.2) distribution, at two thread
//! counts, for read-only / balanced / update-only workloads.
//!
//! Expected shape (paper): OptLock's update tails blow up at the high
//! percentiles (unfair CAS retries), while OptiQL and OptiQL-NOR stay
//! flat thanks to FIFO queuing; OptiQL-NOR spikes on the balanced
//! workload where its starved readers retry many times.

use optiql_bench::{
    banner, env, header, only, row, KeyDist, Mix, Point, Sweep, ART_LOCKS, BTREE_LOCKS,
};

/// Seven percentile rows, then the run's restart accounting and the lock
/// layer's slow-path events as comment lines: tail latency correlates with
/// traversal restarts (rejected or invalidated readers retry from the
/// root) and with queueing.
fn rows(p: &Point<'_>) {
    let series = format!("{}/{}/{}t/{}", p.index, p.mix, p.threads, p.lock);
    for (pct, ns) in p.hist.paper_percentiles() {
        // µs, as in the paper's y-axis.
        row("fig12", &series, pct, format!("{:.2}", ns as f64 / 1_000.0));
    }
    let d = &p.stats;
    println!(
        "# {series}: ops={} restarts={} restarts/op={:.4} yields={}",
        d.ops,
        d.restarts,
        d.restarts_per_op(),
        d.escalations,
    );
    let e = &p.events;
    println!(
        "# {series}: queue_waits={} handovers={} read_rejects={} validate_fails={} opread_admits={}",
        e.queue_waits, e.handovers, e.read_rejects, e.validate_fails, e.opread_admits,
    );
}

fn main() {
    banner(
        "fig12",
        "Latency percentiles (µs), self-similar 0.2 (paper: 20 and 40 threads)",
    );
    header(&["figure", "index/workload/threads/lock", "percentile", "µs"]);
    let all = env::thread_counts();
    // The paper uses one-socket (20) and two-socket (40) points; scale to
    // the host by taking the middle and the maximum of the sweep.
    let points = if all.len() >= 2 {
        vec![all[all.len() / 2], *all.last().unwrap()]
    } else {
        all.clone()
    };
    let mixes = [
        ("Read-only", Mix::READ_ONLY),
        ("Balanced", Mix::BALANCED),
        ("Update-only", Mix::UPDATE_ONLY),
    ];
    let mut s = Sweep::new(
        &mixes,
        KeyDist::self_similar_02(),
        env::preload_keys(),
        &points,
        rows,
    );
    s.sample_every = 16; // dense sampling for stable tails
    let locks = ["OptLock", "OptiQL-NOR", "OptiQL"];
    s.over("B+-tree", &only(&BTREE_LOCKS, &locks));
    s.over("ART", &only(&ART_LOCKS, &locks));
}

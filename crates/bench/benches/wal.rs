//! Extension: durability pricing — what does the write-ahead log cost,
//! and what does group commit buy back?
//!
//! The question this target answers: can a wal-mounted server keep
//! pipelined write throughput near the no-fsync bound? `--fsync always`
//! is the honest per-op baseline (one fsync per SET, the device's sync
//! latency in series with every ack); `--fsync group` amortizes one
//! fsync per worker round over every response released in that round;
//! `--fsync none` appends but never syncs — the logging-only upper
//! bound. The wal PR's acceptance bar: group commit within 2× of
//! `none` at pipeline depth ≥ 8.
//!
//! Matrix: fsync {none, group, always} × connections {1,2,8} × depth
//! {1,8,32}, write-only load (100% SET) over a btree backend, each
//! policy on a fresh wal directory. The `fsync/req` column comes from
//! the server's wal counters — the amortization made visible: ~1 for
//! `always`, ~1/(conns·depth) for `group`, 0 for `none`.
//!
//! The fan-in axis matters because a group commit's cost model is
//! `work/(work + fsync)` per worker round: the device's sync latency
//! (55–70 µs on this host's virtio disk for a write into the log's
//! zero-filled, synced region; a log grown by its appends paid
//! 105–165 µs, `fallocate` alone 105–110 µs — DESIGN §10.3) is a fixed
//! toll per round, so the ratio to the no-fsync bound improves with
//! every writer that shares the flush.
//! One conn at depth 8 amortizes over 8 writes; eight conns at depth
//! 32 amortize over 256, which is where durability gets cheap. Rows
//! land in `BENCH_wal.json` with the shared tail-latency columns.

use std::collections::HashMap;

use optiql_bench::{banner, closed_loop, env, header, mops, r2, row_latency, LatencySummary};
use optiql_server::server::{start, BackendKind, ServerConfig};
use optiql_server::FsyncPolicy;

const DEPTHS: [usize; 3] = [1, 8, 32];
const CONNS: [usize; 3] = [1, 2, 8];

fn main() {
    banner(
        "wal",
        "Write-ahead-logged server: group commit vs per-op fsync vs no fsync",
    );
    header(&[
        "figure",
        "fsync/depth",
        "conns",
        "Mops/s",
        "fsync_per_req",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "p999_ns",
    ]);

    let keys = env::preload_keys();
    let policies = [FsyncPolicy::None, FsyncPolicy::Group, FsyncPolicy::Always];

    // (policy, conns, depth) → ops/s, for the closing ratio summary.
    let mut measured: HashMap<(&str, usize, usize), f64> = HashMap::new();

    for policy in policies {
        let pname = policy.as_str();
        let dir =
            std::env::temp_dir().join(format!("optiql-bench-wal-{pname}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            backend: BackendKind::Btree,
            workers: 0,
            wal_dir: Some(dir.clone()),
            fsync: policy,
            ..ServerConfig::default()
        })
        .expect("server start");
        let addr = h.addr().to_string();
        let wal = h.wal().cloned().expect("wal mounted");

        // Per-op fsync pays the device's sync latency on every request;
        // scale its point budget down so the sweep stays bounded without
        // changing what a point measures (throughput is a rate).
        let ops_per_conn: u64 = match (policy, env::full()) {
            (FsyncPolicy::Always, false) => 3_000,
            (FsyncPolicy::Always, true) => 15_000,
            (_, false) => 30_000,
            (_, true) => 150_000,
        };

        // Unmeasured warmup: page in the log files and settle TCP.
        let warmup = if policy == FsyncPolicy::Always {
            500
        } else {
            5_000
        };
        let _ = closed_loop(&addr, 2, 8, warmup, 0, keys, 0);

        for conns in CONNS {
            for depth in DEPTHS {
                let before = wal.stats();
                let seed = 0x5A1 + depth as u64;
                let r = closed_loop(&addr, conns, depth, ops_per_conn, 0, keys, seed)
                    .expect("closed loop");
                assert_eq!(r.errors, 0, "error responses during wal/{pname} bench");
                let delta = wal.stats().since(&before);
                let fsync_per_req = delta.fsyncs as f64 / r.ops.max(1) as f64;
                measured.insert((pname, conns, depth), r.throughput());
                row_latency(
                    "wal",
                    &format!("{pname}/depth{depth}"),
                    conns,
                    r2(mops(r.throughput())),
                    (fsync_per_req * 1000.0).round() / 1000.0,
                    LatencySummary::from_histogram(&r.hist).as_ref(),
                );
            }
        }
        drop(h);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Headline ratios: what durability costs against the logging-only
    // bound, and what group commit claws back from per-op fsync. The
    // acceptance bar is group ≥ 0.5× none at every depth ≥ 8.
    println!("# durability cost (throughput ratios, same load):");
    for conns in CONNS {
        for depth in DEPTHS {
            let n = measured.get(&("none", conns, depth));
            let g = measured.get(&("group", conns, depth));
            let a = measured.get(&("always", conns, depth));
            if let (Some(n), Some(g), Some(a)) = (n, g, a) {
                println!(
                    "#   conns={conns} depth={depth}: group/none={:.2}x always/none={:.2}x group/always={:.1}x",
                    g / n,
                    a / n,
                    g / a,
                );
            }
        }
    }
}

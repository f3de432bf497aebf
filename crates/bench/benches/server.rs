//! Extension: the thread-per-core pipelined KV server, end to end —
//! loopback TCP, real framing, closed-loop clients — in both dispatch
//! modes.
//!
//! The question this target answers: does batching survive the network?
//! `BENCH_batched.json` shows `multi_lookup` beating scalar lookups
//! ~4× at batch 8 on the raw index; here the same engines sit behind a
//! socket, a frame codec and a worker loop, and the comparison is
//! grouped dispatch (gather a connection's pipelined burst into runs as
//! it is decoded, drain them into `multi_lookup`/`multi_insert`) against
//! per-op scalar dispatch of the very same request stream. At pipeline depth 1
//! the two are identical by construction; the win must appear at
//! depth ≥ 8.
//!
//! Matrix: backend {btree, art, sharded-btree/8} × dispatch {grouped,
//! per-op} × connections {1,2} × depth {1,8,32}, uniform read-only load
//! over a dense preloaded keyspace. Rows land in `BENCH_server.json`
//! with the shared p50/p95/p99/p999 per-request tail-latency columns.

use std::collections::HashMap;

use optiql_bench::{banner, closed_loop, header, mops, r2, row_latency};
use optiql_harness::env;
use optiql_harness::report::LatencySummary;
use optiql_server::server::{start, BackendKind, Dispatch, ServerConfig};

const DEPTHS: [usize; 3] = [1, 8, 32];
const CONNS: [usize; 2] = [1, 2];

fn dispatch_name(d: Dispatch) -> &'static str {
    match d {
        Dispatch::Grouped => "grouped",
        Dispatch::PerOp => "per-op",
    }
}

fn main() {
    banner(
        "server",
        "Pipelined KV server over loopback TCP, grouped vs per-op dispatch",
    );
    header(&[
        "figure",
        "backend/dispatch/depth",
        "conns",
        "Mops/s",
        "batched%",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "p999_ns",
    ]);

    let keys = env::preload_keys();
    let ops_per_conn: u64 = if env::full() { 200_000 } else { 40_000 };
    let backends = [
        ("btree", BackendKind::Btree),
        ("art", BackendKind::Art),
        ("sharded-btree/8", BackendKind::ShardedBtree { shards: 8 }),
    ];

    // (backend, dispatch, conns, depth) → ops/s, for the closing
    // grouped-vs-per-op summary.
    let mut measured: HashMap<(&str, &str, usize, usize), f64> = HashMap::new();

    for (bname, backend) in backends {
        for dispatch in [Dispatch::Grouped, Dispatch::PerOp] {
            let h = start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                backend,
                workers: 0, // thread-per-core: one worker per host core
                dispatch,
                preload: keys,
                max_group: 256,
                ..ServerConfig::default()
            })
            .expect("server start");
            let addr = h.addr().to_string();

            // Unmeasured warmup: fault in the touched pages and let the
            // TCP stacks settle before the first recorded point.
            let _ = closed_loop(&addr, 2, 8, 5_000, 100, keys, 0);

            for conns in CONNS {
                for depth in DEPTHS {
                    let before = h.stats();
                    let seed = 0xBE7C + depth as u64;
                    let r = closed_loop(&addr, conns, depth, ops_per_conn, 100, keys, seed)
                        .expect("closed loop");
                    assert_eq!(r.errors, 0, "error responses during {bname} bench");
                    let after = h.stats();
                    let ops_delta = after.index_ops.saturating_sub(before.index_ops);
                    let batched_delta = after.batched_ops.saturating_sub(before.batched_ops);
                    let batched_pct = if ops_delta > 0 {
                        100.0 * batched_delta as f64 / ops_delta as f64
                    } else {
                        0.0
                    };
                    let dname = dispatch_name(dispatch);
                    measured.insert((bname, dname, conns, depth), r.throughput());
                    row_latency(
                        "server",
                        &format!("{bname}/{dname}/depth{depth}"),
                        conns,
                        r2(mops(r.throughput())),
                        r2(batched_pct),
                        LatencySummary::from_histogram(&r.hist).as_ref(),
                    );
                }
            }
            drop(h);
        }
    }

    // Headline: what grouping buys over per-op dispatch of the same
    // stream, per backend, at each depth ≥ 8 (depth 1 is the sanity
    // row: the two modes execute identically there).
    println!("# grouped/per-op speedup (same backend, same load):");
    for (bname, _) in backends {
        for conns in CONNS {
            for depth in DEPTHS {
                let g = measured.get(&(bname, "grouped", conns, depth));
                let p = measured.get(&(bname, "per-op", conns, depth));
                if let (Some(g), Some(p)) = (g, p) {
                    if *p > 0.0 {
                        println!("#   {bname} conns={conns} depth={depth}: {:.2}x", g / p);
                    }
                }
            }
        }
    }
}

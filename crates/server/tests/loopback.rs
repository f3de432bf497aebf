//! Loopback integration tests: a real server on 127.0.0.1, real TCP
//! clients, every opcode, both dispatch modes — and the robustness
//! contract: a client that sends garbage gets an ERR frame and loses its
//! connection, while every other connection (and the worker itself)
//! keeps running.

mod common;

use common::{call, connect, exercise_all_ops, get};
use optiql_server::proto::{Request, Response};
use optiql_server::server::{start, BackendKind, Dispatch, ServerConfig, ServerHandle};
use optiql_server::Client;

fn serve(backend: BackendKind, dispatch: Dispatch, preload: u64) -> ServerHandle {
    start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        backend,
        workers: 1,
        dispatch,
        preload,
        max_group: 64,
        ..ServerConfig::default()
    })
    .expect("server start")
}

#[test]
fn every_opcode_round_trips_grouped() {
    let h = serve(BackendKind::Btree, Dispatch::Grouped, 1000);
    exercise_all_ops(h.addr(), 1000);
    let stats = h.shutdown();
    assert!(stats.requests >= 8);
    assert_eq!(stats.proto_errors, 0);
}

#[test]
fn every_opcode_round_trips_per_op_and_sharded() {
    let h = serve(
        BackendKind::ShardedBtree { shards: 2 },
        Dispatch::PerOp,
        1000,
    );
    exercise_all_ops(h.addr(), 1000);
    let stats = h.shutdown();
    assert_eq!(stats.batched_ops, 0, "per-op mode must never batch");
}

#[test]
fn pipelined_burst_is_answered_in_order_and_batched() {
    let n: u64 = 256;
    let h = serve(BackendKind::Btree, Dispatch::Grouped, n);
    let mut c = connect(h.addr());

    // One write carrying a deep pipeline of GETs: the server drains the
    // burst, routes it through multi_lookup, and answers in arrival
    // order.
    let reqs: Vec<Request> = (0..n).map(|key| Request::Get { key }).collect();
    c.send(&reqs).unwrap();
    for key in 0..n {
        assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(key + 1))));
    }

    // Mixed burst: SET run, GET run, MGET — still positional.
    let mut mixed = vec![
        Request::Set { key: 1, value: 100 },
        Request::Set { key: 2, value: 200 },
        Request::Set { key: 3, value: 300 },
    ];
    mixed.extend((1..4).map(|key| Request::Get { key }));
    mixed.push(Request::MGet {
        keys: vec![3, 2, 1],
    });
    c.send(&mixed).unwrap();
    assert_eq!(c.recv().unwrap(), Some(Response::Old(Some(2))));
    assert_eq!(c.recv().unwrap(), Some(Response::Old(Some(3))));
    assert_eq!(c.recv().unwrap(), Some(Response::Old(Some(4))));
    assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(100))));
    assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(200))));
    assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(300))));
    assert_eq!(
        c.recv().unwrap(),
        Some(Response::MValues(vec![Some(300), Some(200), Some(100)]))
    );

    let stats = h.shutdown();
    assert!(
        stats.batched_ops > 0,
        "grouped dispatch never used the batch engines: {stats:?}"
    );
    assert!(stats.groups > 0);
}

/// Two workers, four connections sending concurrently: the counters are
/// striped per thread, and their sum must still be exactly what was sent.
#[test]
fn two_workers_count_exactly_what_four_clients_sent() {
    const BURSTS: u64 = 200;
    let h = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        backend: BackendKind::ShardedBtree { shards: 4 },
        workers: 2,
        max_group: 64,
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = h.addr();
    let start_line = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let start_line = &start_line;
            s.spawn(move || {
                let mut c = connect(addr);
                start_line.wait();
                for b in 0..BURSTS {
                    let key = (b * 4 + t) * 8;
                    // 3 SETs, 2 GETs, one MGET of 5, one DEL: 7 requests,
                    // 11 index operations.
                    let burst = [
                        Request::Set { key, value: b },
                        Request::Set {
                            key: key + 1,
                            value: b,
                        },
                        Request::Set {
                            key: key + 2,
                            value: b,
                        },
                        Request::Get { key },
                        Request::Get { key: key + 1 },
                        Request::MGet {
                            keys: (key..key + 5).collect(),
                        },
                        Request::Del { key: key + 2 },
                    ];
                    c.send(&burst).unwrap();
                    for _ in &burst {
                        assert!(!matches!(
                            c.recv().unwrap(),
                            None | Some(Response::Error(_))
                        ));
                    }
                }
            });
        }
    });
    let index_ops = h.index().index_stats().ops;
    let stats = h.shutdown();
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.requests, 4 * BURSTS * 7);
    assert_eq!(stats.index_ops, 4 * BURSTS * 11);
    assert_eq!(stats.proto_errors, 0);
    assert!(stats.groups >= stats.requests / 64, "{stats:?}");
    assert!(stats.batched_ops <= stats.index_ops, "{stats:?}");
    // The trees below counted the same operations, shard by shard.
    assert_eq!(index_ops, stats.index_ops);
}

#[test]
fn garbage_bytes_close_only_that_connection() {
    let h = serve(BackendKind::Btree, Dispatch::Grouped, 100);

    // A healthy connection, opened first and kept alive throughout.
    let mut good = connect(h.addr());
    assert_eq!(get(&mut good, 1), Some(2));

    // Hostile connections: structural garbage (valid length prefix,
    // unknown opcode) — 0x99, and the once-reserved CAS/INCR/TTL space
    // 0x08–0x0A, which is unknown like any other now. The server must
    // answer ERR, then close.
    for opcode in [0x99, 0x08, 0x09, 0x0A] {
        let mut bad = connect(h.addr());
        bad.send_raw(&3u32.to_le_bytes()).unwrap();
        bad.send_raw(&[opcode, 0xAA, 0xBB]).unwrap();
        match bad.recv().unwrap() {
            Some(Response::Error(msg)) => assert!(msg.contains("opcode"), "got: {msg}"),
            other => panic!("expected ERR frame for {opcode:#04x}, got {other:?}"),
        }
        assert_eq!(bad.recv().unwrap(), None, "connection must close after ERR");
    }

    // A second hostile connection: an oversized length prefix.
    let mut huge = connect(h.addr());
    huge.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    match huge.recv().unwrap() {
        Some(Response::Error(_)) => {}
        other => panic!("expected ERR frame, got {other:?}"),
    }
    assert_eq!(huge.recv().unwrap(), None);

    // The worker survived: the old connection still answers, and so
    // does a brand-new one.
    assert_eq!(get(&mut good, 2), Some(3));
    let mut fresh = connect(h.addr());
    assert_eq!(get(&mut fresh, 3), Some(4));

    let stats = h.shutdown();
    assert_eq!(stats.proto_errors, 5);
}

/// Drain one whole SCAN reply: parts until SCAN_END, asserting every
/// part respects the frame bound and keys ascend across the stream.
fn recv_scan(c: &mut Client) -> (Vec<(u64, u64)>, u32) {
    let mut entries: Vec<(u64, u64)> = Vec::new();
    loop {
        match c.recv().unwrap().expect("scan stream ended early") {
            Response::ScanPart(part) => {
                assert!(
                    part.len() <= optiql_server::proto::SCAN_PART_MAX,
                    "oversized part: {}",
                    part.len()
                );
                assert!(!part.is_empty(), "server must not emit empty parts");
                entries.extend(part);
            }
            Response::ScanEnd { total } => {
                for w in entries.windows(2) {
                    assert!(w[0].0 < w[1].0, "scan stream must ascend");
                }
                return (entries, total);
            }
            other => panic!("expected SCAN_PART/SCAN_END, got {other:?}"),
        }
    }
}

#[test]
fn scan_streams_bounded_frames_in_order() {
    let n: u64 = 1000;
    for backend in [BackendKind::Art, BackendKind::ShardedBtree { shards: 2 }] {
        let h = serve(backend, Dispatch::Grouped, n);
        let mut c = connect(h.addr());

        // 300 entries => parts of 128 + 128 + 44, then SCAN_END(300).
        c.send(&[Request::Scan {
            start: 5,
            count: 300,
        }])
        .unwrap();
        let (entries, total) = recv_scan(&mut c);
        assert_eq!(total, 300);
        let want: Vec<(u64, u64)> = (5..305).map(|k| (k, k + 1)).collect();
        assert_eq!(entries, want);

        // Starting past the preload: empty stream, just the terminator.
        c.send(&[Request::Scan {
            start: n + 50,
            count: 10,
        }])
        .unwrap();
        let (entries, total) = recv_scan(&mut c);
        assert_eq!((entries.len(), total), (0, 0));

        // count 0: also just the terminator.
        c.send(&[Request::Scan { start: 0, count: 0 }]).unwrap();
        assert_eq!((recv_scan(&mut c).1), 0);

        // Asking past the end caps at what exists.
        c.send(&[Request::Scan {
            start: n - 3,
            count: 500,
        }])
        .unwrap();
        let (entries, total) = recv_scan(&mut c);
        assert_eq!(total, 3);
        assert_eq!(entries, vec![(n - 3, n - 2), (n - 2, n - 1), (n - 1, n)]);

        // Pipelined with point ops: replies stay in request order, the
        // scan's parts contiguous between them.
        c.send(&[
            Request::Get { key: 1 },
            Request::Scan {
                start: 0,
                count: 130,
            },
            Request::Get { key: 2 },
        ])
        .unwrap();
        assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(2))));
        let (entries, total) = recv_scan(&mut c);
        assert_eq!(total, 130);
        assert_eq!(entries.len(), 130);
        assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(3))));

        let stats = h.shutdown();
        assert_eq!(stats.proto_errors, 0);
    }
}

#[test]
fn malformed_scan_closes_only_that_connection() {
    let h = serve(BackendKind::Btree, Dispatch::Grouped, 100);
    let mut good = connect(h.addr());
    assert_eq!(get(&mut good, 1), Some(2));

    // A SCAN frame whose count exceeds MAX_SCAN: structurally invalid,
    // so this connection gets ERR-then-close.
    let mut bad = connect(h.addr());
    bad.send_raw(&13u32.to_le_bytes()).unwrap();
    bad.send_raw(&[0x07]).unwrap();
    bad.send_raw(&0u64.to_le_bytes()).unwrap();
    bad.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    match bad.recv().unwrap() {
        Some(Response::Error(msg)) => assert!(msg.contains("count"), "got: {msg}"),
        other => panic!("expected ERR frame, got {other:?}"),
    }
    assert_eq!(bad.recv().unwrap(), None, "connection must close after ERR");

    // Everyone else is unaffected.
    assert_eq!(get(&mut good, 2), Some(3));
    let stats = h.shutdown();
    assert_eq!(stats.proto_errors, 1);
}

#[test]
fn shutdown_opcode_acks_and_stops_the_server() {
    let h = serve(BackendKind::Art, Dispatch::Grouped, 10);
    let mut c = connect(h.addr());
    assert_eq!(call(&mut c, Request::Shutdown), Response::Ok);
    // join() returns because the SHUTDOWN raised the stop flag.
    let stats = h.join();
    assert!(stats.requests >= 1);
}

#[test]
fn shutdown_trims_the_logs_under_a_living_wal_clone() {
    let dir = std::env::temp_dir().join(format!("optiql-loopback-trim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        backend: BackendKind::ShardedBtree { shards: 2 },
        workers: 1,
        // Not a multiple of `max_group`: the batched preload's last
        // chunk is a short one.
        preload: 1000,
        max_group: 64,
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let h = start(&cfg).expect("server start");
    let mut c = connect(h.addr());
    for k in 5000..5100u64 {
        assert_eq!(
            call(&mut c, Request::Set { key: k, value: k }),
            Response::Old(None)
        );
    }
    // What the benches do: keep the wal (and the index over it) past
    // the handle. Neither may keep the prepared region in the files.
    let wal = std::sync::Arc::clone(h.wal().expect("wal is mounted"));
    let index = std::sync::Arc::clone(h.index());
    h.shutdown();
    let on_disk: u64 = (0..wal.shard_count())
        .map(|i| std::fs::metadata(wal.shard(i).path()).unwrap().len())
        .sum();
    let counted = wal.stats();
    assert_eq!(counted.records, 1100);
    assert_eq!(on_disk, counted.bytes, "log files hold more than the log");
    assert!(counted.prealloc_bytes > counted.bytes, "{counted:?}");
    drop((wal, index));

    let h = start(&ServerConfig { preload: 0, ..cfg }).expect("restart");
    assert_eq!(h.recovery().expect("wal is mounted").applied(), 1100);
    let mut c = connect(h.addr());
    assert_eq!(get(&mut c, 999), Some(1000));
    assert_eq!(get(&mut c, 5099), Some(5099));
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

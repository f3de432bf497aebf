//! Loopback integration tests: a real server on 127.0.0.1, real TCP
//! clients, every opcode, both dispatch modes — and the robustness
//! contract: a client that sends garbage gets an ERR frame and loses its
//! connection, while every other connection (and the worker itself)
//! keeps running.

mod common;

use common::{call, connect, exercise_all_ops, get, recv_scan};
use optiql_server::proto::{Request, Response, MAX_SCAN};
use optiql_server::server::{start, BackendKind, Dispatch, ServerConfig, ServerHandle};

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

/// What one connection of the mixed-burst test expects: a model of its
/// own keys (no request of its reaches the other connection's range) and
/// the index operations its requests add up to.
#[derive(Default)]
struct Model {
    map: std::collections::BTreeMap<u64, u64>,
    index_ops: u64,
}

impl Model {
    /// Apply `req` and append the reply frame(s) it must be answered with.
    fn answer(&mut self, req: &Request, want: &mut Vec<Response>) {
        self.index_ops += match req {
            Request::Get { key } => {
                want.push(Response::Value(self.map.get(key).copied()));
                1
            }
            Request::Set { key, value } => {
                want.push(Response::Old(self.map.insert(*key, *value)));
                1
            }
            Request::Del { key } => {
                want.push(Response::Old(self.map.remove(key)));
                1
            }
            Request::MGet { keys } => {
                let vs = keys.iter().map(|k| self.map.get(k).copied()).collect();
                want.push(Response::MValues(vs));
                keys.len() as u64
            }
            Request::Scan { start, count } => {
                let entries: Vec<(u64, u64)> = (self.map.range(start..))
                    .take(*count as usize)
                    .map(|(k, v)| (*k, *v))
                    .collect();
                for part in entries.chunks(optiql_server::proto::SCAN_PART_MAX) {
                    want.push(Response::ScanPart(part.to_vec()));
                }
                let total = entries.len() as u32;
                want.push(Response::ScanEnd { total });
                u64::from(total.max(1))
            }
            Request::Shutdown => unreachable!("the mixed bursts never stop the server"),
        };
    }
}

/// Forty frames over a 24-key working set at `base` (so reads meet
/// earlier writes and deletes), laid out against `max_group: 8`: the GET
/// runs at 3–9 and 20–25 and the SET runs at 12–18 and 26–33 each
/// straddle a slice boundary (8, 16, 24, 32); a GET run follows a SET run
/// directly (at 3, reading the key just written twice) and a SET run a
/// GET run (at 26), the other runs are cut by DEL, MGET and two SCANs;
/// two SET runs write one key twice.
fn mixed_burst(base: u64, burst: u64) -> Vec<Request> {
    let mut x = base ^ burst;
    let mut key = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        base + (x >> 33) % 24
    };
    let mut reqs = Vec::with_capacity(40);
    let twice = key();
    for (i, key) in [twice, key(), twice].into_iter().enumerate() {
        let value = burst * 100 + i as u64;
        reqs.push(Request::Set { key, value });
    }
    reqs.push(Request::Get { key: twice });
    reqs.extend((4..=9).map(|_| Request::Get { key: key() }));
    reqs.push(Request::Del { key: key() });
    reqs.push(Request::MGet {
        keys: (0..5).map(|_| key()).collect(),
    });
    let twice = key();
    reqs.extend((12..=18).map(|i| Request::Set {
        key: if i % 3 == 0 { twice } else { key() },
        value: burst * 100 + i,
    }));
    reqs.push(Request::Scan {
        start: base + 5,
        count: 10,
    });
    reqs.extend((20..=25).map(|_| Request::Get { key: key() }));
    reqs.extend((26..=33).map(|i| Request::Set {
        key: key(),
        value: burst * 100 + i,
    }));
    reqs.push(Request::Scan {
        start: key(),
        count: 16,
    });
    reqs.push(Request::Del { key: key() });
    reqs.extend((36..=39).map(|_| Request::Get { key: key() }));
    assert_eq!(reqs.len(), 40);
    reqs
}

/// Two connections on one worker (so both feed the worker's one run),
/// interleaving every opcode: each reply is checked at its position
/// against the connection's own model, in both dispatch modes.
#[test]
fn every_position_of_a_mixed_burst_gets_its_own_answer() {
    const BURSTS: u64 = 6;
    for dispatch in [Dispatch::Grouped, Dispatch::PerOp] {
        let h = start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            backend: BackendKind::ShardedBtree { shards: 2 },
            workers: 1,
            dispatch,
            max_group: 8,
            ..ServerConfig::default()
        })
        .expect("server start");
        let addr = h.addr();
        let start_line = std::sync::Barrier::new(2);
        let index_ops: u64 = std::thread::scope(|s| {
            let conns: Vec<_> = (0..2u64)
                .map(|t| {
                    let start_line = &start_line;
                    s.spawn(move || {
                        // Disjoint ranges; 64 keys above the working set
                        // that are never deleted keep every scan (≤ 16
                        // entries) inside its connection's own range.
                        let base = (t + 1) << 32;
                        let floor = (0..64).map(|i| Request::Set {
                            key: base + 1000 + i,
                            value: i,
                        });
                        let mut model = Model::default();
                        let mut c = connect(addr);
                        start_line.wait();
                        let bursts = (0..BURSTS).map(|b| mixed_burst(base, b));
                        for (b, burst) in std::iter::once(floor.collect()).chain(bursts).enumerate()
                        {
                            let mut want = Vec::new();
                            for req in &burst {
                                model.answer(req, &mut want);
                            }
                            c.send(&burst).unwrap();
                            for (i, want) in want.iter().enumerate() {
                                assert_eq!(
                                    c.recv().unwrap().as_ref(),
                                    Some(want),
                                    "{dispatch:?}: conn {t}, burst {b}, reply frame {i}"
                                );
                            }
                        }
                        model.index_ops
                    })
                })
                .collect();
            conns.into_iter().map(|c| c.join().unwrap()).sum()
        });
        let stats = h.shutdown();
        assert_eq!(stats.requests, 2 * (64 + BURSTS * 40));
        assert_eq!(stats.index_ops, index_ops);
        assert_eq!(stats.proto_errors, 0);
        match dispatch {
            // ⌈64 / 8⌉ + BURSTS × ⌈40 / 8⌉ slices per connection; a burst
            // the kernel delivers in two reads is cut once more.
            Dispatch::Grouped => {
                assert!(stats.groups >= 2 * (8 + BURSTS * 5), "{stats:?}");
                assert!(stats.batched_ops > 0, "{stats:?}");
            }
            Dispatch::PerOp => assert_eq!((stats.groups, stats.batched_ops), (0, 0)),
        }
    }
}

#[test]
fn garbage_bytes_close_only_that_connection() {
    let h = serve(BackendKind::Btree, Dispatch::Grouped, 100);

    // A healthy connection, opened first and kept alive throughout.
    let mut good = connect(h.addr());
    assert_eq!(get(&mut good, 1), Some(2));

    // Hostile connections: structural garbage (valid length prefix,
    // unknown opcode) — 0x99, the retired scan-count opcode 0x05 and the
    // once-reserved CAS/INCR/TTL space 0x08–0x0A, which are unknown like
    // any other now. The server must answer ERR, then close, and the
    // neighbouring connection proceed.
    for (i, opcode) in [0x99, 0x05, 0x08, 0x09, 0x0A].into_iter().enumerate() {
        let mut bad = connect(h.addr());
        bad.send_raw(&3u32.to_le_bytes()).unwrap();
        bad.send_raw(&[opcode, 0xAA, 0xBB]).unwrap();
        match bad.recv().unwrap() {
            Some(Response::Error(msg)) => {
                let want = format!("unknown opcode {opcode:#04x}");
                assert!(msg.contains(&want), "got: {msg}");
            }
            other => panic!("expected ERR frame for {opcode:#04x}, got {other:?}"),
        }
        assert_eq!(bad.recv().unwrap(), None, "connection must close after ERR");
        assert_eq!(get(&mut good, i as u64), Some(i as u64 + 1));
    }

    // A second hostile connection: an oversized length prefix.
    let mut huge = connect(h.addr());
    huge.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    match huge.recv().unwrap() {
        Some(Response::Error(_)) => {}
        other => panic!("expected ERR frame, got {other:?}"),
    }
    assert_eq!(huge.recv().unwrap(), None);

    // A third: a well-formed SCAN frame whose count is over MAX_SCAN.
    // One such frame would otherwise keep the worker — and every
    // connection it serves — busy for the whole index.
    let mut greedy = connect(h.addr());
    let mut frame = Vec::new();
    Request::Scan {
        start: 0,
        count: MAX_SCAN + 1,
    }
    .encode(&mut frame);
    greedy.send_raw(&frame).unwrap();
    match greedy.recv().unwrap() {
        Some(Response::Error(msg)) => assert!(msg.contains("count"), "got: {msg}"),
        other => panic!("expected ERR frame, got {other:?}"),
    }
    assert_eq!(greedy.recv().unwrap(), None);

    // The worker survived: the old connection still answers, and so
    // does a brand-new one.
    assert_eq!(get(&mut good, 2), Some(3));
    let mut fresh = connect(h.addr());
    assert_eq!(get(&mut fresh, 3), Some(4));

    let stats = h.shutdown();
    assert_eq!(stats.proto_errors, 7);
}

/// A frame is executed where it is decoded, so what a burst's bad frame
/// or SHUTDOWN does to the connection happens *at its position*: the
/// frames ahead of it are answered first, the frames behind it never
/// run.
#[test]
fn err_follows_the_replies_it_arrived_behind() {
    for dispatch in [Dispatch::Grouped, Dispatch::PerOp] {
        let h = serve(BackendKind::Btree, dispatch, 100);

        let mut burst = Vec::new();
        Request::Get { key: 1 }.encode(&mut burst);
        Request::Get { key: 2 }.encode(&mut burst);
        burst.extend_from_slice(&3u32.to_le_bytes());
        burst.extend_from_slice(&[0x99, 0xAA, 0xBB]);
        let mut c = connect(h.addr());
        c.send_raw(&burst).unwrap();
        assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(2))));
        assert_eq!(c.recv().unwrap(), Some(Response::Value(Some(3))));
        match c.recv().unwrap() {
            Some(Response::Error(msg)) => assert!(msg.contains("opcode"), "got: {msg}"),
            other => panic!("{dispatch:?}: expected ERR in third place, got {other:?}"),
        }
        assert_eq!(c.recv().unwrap(), None, "connection must close after ERR");

        // SHUTDOWN in mid-burst: acked in its place, and the SET behind
        // it is neither executed nor (under a wal) logged.
        let (k, k2) = (5000, 5001);
        let mut c = connect(h.addr());
        c.send(&[
            Request::Set { key: k, value: 1 },
            Request::Shutdown,
            Request::Set { key: k2, value: 2 },
        ])
        .unwrap();
        assert_eq!(c.recv().unwrap(), Some(Response::Old(None)));
        assert_eq!(c.recv().unwrap(), Some(Response::Ok));
        assert_eq!(c.recv().unwrap(), None, "connection must close after OK");
        let index = std::sync::Arc::clone(h.index());
        let stats = h.join();
        assert_eq!(index.lookup(k), Some(1));
        assert_eq!(
            index.lookup(k2),
            None,
            "{dispatch:?}: a frame ran behind SHUTDOWN"
        );
        assert_eq!(stats.proto_errors, 1);
        assert_eq!(stats.requests, 4, "{dispatch:?}: two GETs, SET, SHUTDOWN");
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

#[test]
fn a_restart_with_preload_keeps_acknowledged_writes() {
    // Preload seeds an empty store only. Restarted with the same
    // `preload` over a log recovery applies, the dense keys must not
    // overwrite what clients were told was written (nor be logged again).
    let dir =
        std::env::temp_dir().join(format!("optiql-loopback-repreload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        backend: BackendKind::Btree,
        workers: 1,
        preload: 1000,
        max_group: 64,
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let h = start(&cfg).expect("server start");
    let mut c = connect(h.addr());
    assert_eq!(
        call(&mut c, Request::Set { key: 5, value: 77 }),
        Response::Old(Some(6))
    );
    h.shutdown();

    let h = start(&cfg).expect("restart");
    assert_eq!(h.recovery().expect("wal is mounted").applied(), 1001);
    let mut c = connect(h.addr());
    assert_eq!(
        get(&mut c, 5),
        Some(77),
        "the preload reverted an acked SET"
    );
    assert_eq!(get(&mut c, 999), Some(1000));
    let wal = std::sync::Arc::clone(h.wal().expect("wal is mounted"));
    h.shutdown();
    assert_eq!(
        wal.stats().records,
        0,
        "the restart logged the preload again"
    );
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

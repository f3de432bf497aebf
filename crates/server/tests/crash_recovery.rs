//! Kill-during-load crash recovery: the durable-prefix property, end to
//! end, against a real subprocess server.
//!
//! A client floods SETs at a wal-mounted server (`--fsync group`). At a
//! seeded random ack count the server process is SIGKILLed mid-load; a
//! second server then recovers the same wal directory and must satisfy:
//!
//! * **Every acked write survives.** Acks are FIFO per connection, so
//!   the number of responses the client fully received is the length of
//!   the acked prefix — each of those keys must be present with its
//!   exact value after recovery.
//! * **No phantoms.** A full scan of the recovered keyspace may contain
//!   only keys the client actually sent (acked or in-flight — an
//!   unacked write may legally survive), each with the value the client
//!   wrote. Nothing else.
//!
//! Trials are seed-replayable: `OPTIQL_CRASH_SEEDS=7,8,9` (comma
//! separated) overrides the default seed list, and every assertion
//! message carries the seed. The clean-SHUTDOWN control runs the same
//! flow without the kill and requires *everything* back.
//!
//! SIGKILL does not drop the OS page cache, so this test proves the
//! ack/recovery protocol (fsync-before-ack ordering, torn-frame
//! truncation, replay); the torn-tail proptests in `optiql-wal` cover
//! physical corruption below the OS.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use optiql_server::proto::{FrameDecoder, Request, Response};

/// Keys are offset away from anything a preload could produce.
const BASE: u64 = 1 << 32;
/// SETs the load phase attempts per trial.
const LOAD: u64 = 20_000;

fn value_of(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A spawned `optiql-server` with its parsed listen address and what it
/// printed before the banner (the recovery and mount reports).
struct Server {
    child: Child,
    addr: SocketAddr,
    preamble: Vec<String>,
}

impl Server {
    /// Spawn the real binary on a fresh port over `wal_dir` and wait
    /// for its banner.
    fn spawn(wal_dir: &std::path::Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_optiql-server"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--backend",
                "sharded-btree",
                "--shards",
                "4",
                "--workers",
                "1",
                "--fsync",
                "group",
                "--wal-dir",
            ])
            .arg(wal_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn optiql-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut preamble = Vec::new();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before banner")
                .expect("read server stdout");
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.trim().parse().expect("parse listen addr");
            }
            preamble.push(line);
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server {
            child,
            addr,
            preamble,
        }
    }

    fn kill(&mut self) {
        // std's kill is SIGKILL on unix: no handlers, no flushes.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

struct Client {
    s: TcpStream,
    dec: FrameDecoder,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        Client {
            s,
            dec: FrameDecoder::new(),
        }
    }

    fn send(&mut self, reqs: &[Request]) {
        let mut wire = Vec::new();
        for r in reqs {
            r.encode(&mut wire);
        }
        self.s.write_all(&wire).expect("write");
    }

    fn recv(&mut self) -> Option<Response> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(r) = self.dec.next_response().expect("well-formed response") {
                return Some(r);
            }
            let n = self.s.read(&mut buf).expect("read");
            if n == 0 {
                return None;
            }
            self.dec.feed(&buf[..n]);
        }
    }

    fn call(&mut self, req: Request) -> Response {
        self.send(std::slice::from_ref(&req));
        self.recv().expect("response before EOF")
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("optiql-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Flood `LOAD` pipelined SETs; count FIFO acks. When `kill_at` is
/// reached, SIGKILL the server. Returns (acked, sent).
fn load_until(server: &mut Server, kill_at: Option<u64>) -> (u64, u64) {
    let sent = Arc::new(AtomicU64::new(0));
    let mut rx = Client::connect(server.addr);
    let tx = rx.s.try_clone().expect("clone stream");
    let sender = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            let mut tx = tx;
            let mut wire = Vec::with_capacity(64 * 1024);
            for chunk_base in (0..LOAD).step_by(256) {
                wire.clear();
                let n = 256.min(LOAD - chunk_base);
                for i in chunk_base..chunk_base + n {
                    Request::Set {
                        key: BASE + i,
                        value: value_of(i),
                    }
                    .encode(&mut wire);
                }
                // A kill mid-load surfaces here as a broken pipe; the
                // count of fully sent SETs is what the phantom check
                // bounds against, so stop counting on error.
                if tx.write_all(&wire).is_err() {
                    return;
                }
                sent.fetch_add(n, Ordering::Release);
            }
        })
    };

    let mut acked = 0u64;
    let mut buf = [0u8; 16 * 1024];
    'recv: loop {
        while let Ok(Some(resp)) = rx.dec.next_response() {
            match resp {
                Response::Old(_) => acked += 1,
                other => panic!("unexpected response during load: {other:?}"),
            }
            if acked == LOAD {
                break 'recv;
            }
            if let Some(at) = kill_at {
                if acked >= at {
                    server.kill();
                    break 'recv;
                }
            }
        }
        match rx.s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => rx.dec.feed(&buf[..n]),
        }
    }
    // Drain whatever acks were already in flight when we decided to
    // stop: each is a response the server released post-fsync.
    if kill_at.is_some() {
        while let Ok(Some(Response::Old(_))) = rx.dec.next_response() {
            acked += 1;
        }
        while acked < LOAD {
            match rx.s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    rx.dec.feed(&buf[..n]);
                    while let Ok(Some(Response::Old(_))) = rx.dec.next_response() {
                        acked += 1;
                    }
                }
            }
        }
    }
    sender.join().expect("sender thread");
    (acked, sent.load(Ordering::Acquire))
}

/// Assert the recovered server satisfies the durable-prefix property
/// for a trial that acked `acked` of `sent` sequential SETs.
fn verify_recovered(addr: SocketAddr, acked: u64, sent: u64, seed: u64) {
    let mut c = Client::connect(addr);

    // 1. Every acked write is present with its exact value.
    for chunk_base in (0..acked).step_by(512) {
        let n = 512.min(acked - chunk_base);
        let keys: Vec<u64> = (chunk_base..chunk_base + n).map(|i| BASE + i).collect();
        match c.call(Request::MGet { keys }) {
            Response::MValues(vs) => {
                for (j, v) in vs.into_iter().enumerate() {
                    let i = chunk_base + j as u64;
                    assert_eq!(
                        v,
                        Some(value_of(i)),
                        "seed {seed:#x}: acked key {i} lost or corrupt after recovery \
                         (acked={acked}, sent={sent})"
                    );
                }
            }
            other => panic!("seed {seed:#x}: MGET answered {other:?}"),
        }
    }

    // 2. No phantoms: everything in the recovered keyspace was sent,
    // with the value the client wrote.
    c.send(&[Request::Scan {
        start: BASE,
        count: (LOAD + 16) as u32,
    }]);
    let mut found = 0u64;
    loop {
        match c.recv().expect("scan response") {
            Response::ScanPart(part) => {
                for (k, v) in part {
                    let i = k.checked_sub(BASE).unwrap_or_else(|| {
                        panic!("seed {seed:#x}: phantom key {k} below keyspace")
                    });
                    assert!(
                        i < sent,
                        "seed {seed:#x}: phantom key {i} was never sent (sent={sent})"
                    );
                    assert_eq!(
                        v,
                        value_of(i),
                        "seed {seed:#x}: key {i} has a value the client never wrote"
                    );
                    found += 1;
                }
            }
            Response::ScanEnd { total } => {
                assert_eq!(u64::from(total), found, "seed {seed:#x}: scan miscount");
                break;
            }
            other => panic!("seed {seed:#x}: scan answered {other:?}"),
        }
    }
    assert!(
        found >= acked,
        "seed {seed:#x}: recovered {found} keys < {acked} acked"
    );
}

fn shutdown(addr: SocketAddr) {
    let mut c = Client::connect(addr);
    match c.call(Request::Shutdown) {
        Response::Ok => {}
        other => panic!("shutdown answered {other:?}"),
    }
}

fn trial_seeds() -> Vec<u64> {
    match std::env::var("OPTIQL_CRASH_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().expect("OPTIQL_CRASH_SEEDS: bad seed"))
            .collect(),
        Err(_) => vec![0xC0FFEE],
    }
}

#[test]
fn sigkill_mid_load_preserves_the_acked_prefix() {
    for seed in trial_seeds() {
        let dir = tempdir(&format!("kill-{seed:x}"));
        let mut rng = seed;
        // Crash somewhere in the middle half of the load.
        let kill_at = LOAD / 4 + splitmix(&mut rng) % (LOAD / 2);

        let mut victim = Server::spawn(&dir);
        let (acked, sent) = load_until(&mut victim, Some(kill_at));
        victim.kill();
        assert!(
            acked >= kill_at,
            "seed {seed:#x}: load ended early ({acked} acks, wanted {kill_at})"
        );
        assert!(acked <= sent, "seed {seed:#x}: acks outran sends");

        let survivor = Server::spawn(&dir);
        verify_recovered(survivor.addr, acked, sent, seed);
        shutdown(survivor.addr);
        drop(survivor);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clean_shutdown_preserves_everything() {
    let seed = 0x5D0_0D1E;
    let dir = tempdir("clean");

    let mut first = Server::spawn(&dir);
    let (acked, sent) = load_until(&mut first, None);
    assert_eq!(acked, LOAD, "clean run must ack every SET");
    assert_eq!(sent, LOAD);
    shutdown(first.addr);
    let status = first.child.wait().expect("wait server");
    assert!(status.success(), "clean shutdown must exit 0: {status:?}");

    let survivor = Server::spawn(&dir);
    verify_recovered(survivor.addr, LOAD, LOAD, seed);
    shutdown(survivor.addr);
    drop(survivor);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes behind the last valid frame of a log are cut off when the wal is
/// mounted. They never reach the replay report, so the server must say so
/// itself: one start-up line per affected shard, none for a clean log.
#[test]
fn torn_tail_cut_at_mount_is_reported_at_startup() {
    let dir = tempdir("torn-report");

    let mut first = Server::spawn(&dir);
    let (acked, _) = load_until(&mut first, None);
    assert_eq!(acked, LOAD);
    shutdown(first.addr);
    assert!(first.child.wait().expect("wait server").success());

    // A clean shutdown trimmed the log to its valid length.
    let log = dir.join("shard-2.log");
    let valid = std::fs::metadata(&log).expect("shard 2 log").len();
    std::fs::OpenOptions::new()
        .append(true)
        .open(&log)
        .and_then(|mut f| f.write_all(&[0xAB; 37]))
        .expect("append garbage");

    let survivor = Server::spawn(&dir);
    let reported: Vec<&String> = survivor
        .preamble
        .iter()
        .filter(|l| l.contains("torn tail"))
        .collect();
    assert_eq!(reported.len(), 1, "preamble: {:?}", survivor.preamble);
    let want = format!("# wal: shard 2 torn tail cut at {valid}: ");
    assert!(reported[0].starts_with(&want), "{:?}", reported[0]);
    assert!(
        first.preamble.iter().all(|l| !l.contains("torn tail")),
        "a fresh directory has nothing to cut: {:?}",
        first.preamble
    );
    // Nothing valid went with the garbage.
    verify_recovered(survivor.addr, LOAD, LOAD, 0x7041);
    shutdown(survivor.addr);
    drop(survivor);
    let _ = std::fs::remove_dir_all(&dir);
}

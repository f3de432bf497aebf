//! The process boundary: the real `optiql-server` binary as a
//! subprocess, driven over TCP. Mostly kill-during-load crash recovery —
//! the durable-prefix property, end to end — plus a restart under
//! another `--shards` (refused, harmless) and the plain two-process
//! smoke (no wal: every opcode, a pipelined burst, SHUTDOWN, exit 0).
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

mod common;

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{call, connect, exercise_all_ops};
use optiql_server::proto::{Request, Response};

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
    /// Spawn the real binary on a fresh port with `args` (4-shard
    /// B+-tree backend) and wait for its banner.
    fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_optiql-server"))
            .args(["--addr", "127.0.0.1:0"])
            .args(["--backend", "sharded-btree", "--shards", "4"])
            .args(args)
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

    /// One worker, group commit, logs in `wal_dir`.
    fn durable(wal_dir: &Path) -> Server {
        let dir = wal_dir.to_str().expect("temp dir is UTF-8");
        Server::spawn(&["--workers", "1", "--fsync", "group", "--wal-dir", dir])
    }

    /// Send SHUTDOWN and require the process to exit 0.
    fn shutdown(mut self) {
        assert_eq!(
            call(&mut connect(self.addr), Request::Shutdown),
            Response::Ok
        );
        let status = self.child.wait().expect("wait server");
        assert!(status.success(), "clean shutdown must exit 0: {status:?}");
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

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("optiql-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Flood `LOAD` pipelined SETs; count FIFO acks. When `kill_at` is
/// reached, SIGKILL the server. Returns (acked, sent).
fn load_until(server: &mut Server, kill_at: Option<u64>) -> (u64, u64) {
    let sent = Arc::new(AtomicU64::new(0));
    let mut rx = connect(server.addr);
    let tx = rx.stream().try_clone().expect("clone stream");
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

    // Count acks until all are in or the connection ends. After the
    // kill the loop keeps reading: whatever was already in flight is a
    // response the server released post-fsync.
    let mut acked = 0u64;
    let mut killed = false;
    while acked < LOAD {
        match rx.recv() {
            Ok(Some(Response::Old(_))) => acked += 1,
            Ok(Some(other)) => panic!("unexpected response during load: {other:?}"),
            Ok(None) | Err(_) => break,
        }
        if !killed && kill_at.is_some_and(|at| acked >= at) {
            server.kill();
            killed = true;
        }
    }
    sender.join().expect("sender thread");
    (acked, sent.load(Ordering::Acquire))
}

/// Assert the recovered server satisfies the durable-prefix property
/// for a trial that acked `acked` of `sent` sequential SETs.
fn verify_recovered(addr: SocketAddr, acked: u64, sent: u64, seed: u64) {
    let mut c = connect(addr);

    // 1. Every acked write is present with its exact value.
    for chunk_base in (0..acked).step_by(512) {
        let n = 512.min(acked - chunk_base);
        let keys: Vec<u64> = (chunk_base..chunk_base + n).map(|i| BASE + i).collect();
        match call(&mut c, Request::MGet { keys }) {
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
    }])
    .expect("send scan");
    let mut found = 0u64;
    loop {
        match c.recv().expect("read").expect("scan response") {
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

        let mut victim = Server::durable(&dir);
        let (acked, sent) = load_until(&mut victim, Some(kill_at));
        victim.kill();
        assert!(
            acked >= kill_at,
            "seed {seed:#x}: load ended early ({acked} acks, wanted {kill_at})"
        );
        assert!(acked <= sent, "seed {seed:#x}: acks outran sends");

        let survivor = Server::durable(&dir);
        verify_recovered(survivor.addr, acked, sent, seed);
        survivor.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clean_shutdown_preserves_everything() {
    let seed = 0x5D0_0D1E;
    let dir = tempdir("clean");

    let mut first = Server::durable(&dir);
    let (acked, sent) = load_until(&mut first, None);
    assert_eq!(acked, LOAD, "clean run must ack every SET");
    assert_eq!(sent, LOAD);
    first.shutdown();

    let survivor = Server::durable(&dir);
    verify_recovered(survivor.addr, LOAD, LOAD, seed);
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes behind the last valid frame of a log are cut off when the wal is
/// mounted. They never reach the replay report, so the server must say so
/// itself: one start-up line per affected shard, none for a clean log.
#[test]
fn torn_tail_cut_at_mount_is_reported_at_startup() {
    let dir = tempdir("torn-report");

    let mut first = Server::durable(&dir);
    let (acked, _) = load_until(&mut first, None);
    assert_eq!(acked, LOAD);
    assert!(
        first.preamble.iter().all(|l| !l.contains("torn tail")),
        "a fresh directory has nothing to cut: {:?}",
        first.preamble
    );
    first.shutdown();

    // A clean shutdown trimmed the log to its valid length.
    let log = dir.join("shard-2.log");
    let valid = std::fs::metadata(&log).expect("shard 2 log").len();
    std::fs::OpenOptions::new()
        .append(true)
        .open(&log)
        .and_then(|mut f| f.write_all(&[0xAB; 37]))
        .expect("append garbage");

    let survivor = Server::durable(&dir);
    let reported: Vec<&String> = survivor
        .preamble
        .iter()
        .filter(|l| l.contains("torn tail"))
        .collect();
    assert_eq!(reported.len(), 1, "preamble: {:?}", survivor.preamble);
    let want = format!("# wal: shard 2 torn tail cut at {valid}: ");
    assert!(reported[0].starts_with(&want), "{:?}", reported[0]);
    // Nothing valid went with the garbage.
    verify_recovered(survivor.addr, LOAD, LOAD, 0x7041);
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `*.log` file under `dir` with its content.
fn log_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut logs: Vec<_> = std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read log");
            (p, bytes)
        })
        .collect();
    logs.sort();
    logs
}

/// A wal directory belongs to the `--backend`/`--shards` it was created
/// with. Restarted with another shard count the server would look for
/// half the keys in logs it never opens; it must say so and exit before
/// it touches a log or binds, and the same directory must still come
/// back whole under the original flags.
#[test]
fn restart_with_another_shard_count_is_refused_and_harmless() {
    let dir = tempdir("geometry");
    let mut first = Server::durable(&dir);
    let (acked, _) = load_until(&mut first, None);
    assert_eq!(acked, LOAD);
    first.shutdown();
    let before = log_files(&dir);
    assert_eq!(before.len(), 4, "one log per shard");

    // Later flags win, so this is `--shards 2` over the 4-shard logs.
    let mut child = Command::new(env!("CARGO_BIN_EXE_optiql-server"))
        .args(["--addr", "127.0.0.1:0", "--backend", "sharded-btree"])
        .args(["--shards", "2", "--workers", "1", "--wal-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optiql-server");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll server") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("the server serves 2 shards over a log written with 4");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(1), "refusal is exit 1: {status:?}");
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    let want = format!(
        "optiql-server: {}: log written with shards=4 block_bits=16, \
         started with shards=2 block_bits=16",
        dir.display()
    );
    assert!(stderr.contains(&want), "stderr: {stderr:?}");
    assert!(log_files(&dir) == before, "a refused start changed a log");

    let survivor = Server::durable(&dir);
    verify_recovered(survivor.addr, LOAD, LOAD, 0x6E0);
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two processes, no wal: every data opcode, then two connections each
/// pushing depth-8 windows of GETs over the preload, then SHUTDOWN and a
/// zero exit.
#[test]
fn served_binary_answers_every_opcode_and_a_pipelined_burst() {
    const PRELOAD: u64 = 100_000;
    const DEPTH: u64 = 8;
    let server = Server::spawn(&["--preload", "100000"]);
    exercise_all_ops(server.addr, PRELOAD);
    std::thread::scope(|s| {
        for conn in 0..2u64 {
            let addr = server.addr;
            s.spawn(move || {
                let mut c = connect(addr);
                let mut base = conn * 7919;
                for _ in 0..2_500 {
                    let keys: Vec<u64> = (0..DEPTH).map(|i| (base + i * 31) % PRELOAD).collect();
                    let window: Vec<Request> =
                        keys.iter().map(|&key| Request::Get { key }).collect();
                    c.send(&window).expect("send window");
                    for key in keys {
                        let got = c.recv().expect("read");
                        assert_eq!(got, Some(Response::Value(Some(key + 1))));
                    }
                    base = (base + 104_729) % PRELOAD;
                }
            });
        }
    });
    server.shutdown();
}

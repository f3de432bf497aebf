//! `optiql-server` — serve an OptiQL index over TCP.
//!
//! ```text
//! optiql-server [--addr 127.0.0.1:7878] [--backend sharded-btree]
//!               [--shards 8] [--workers 0] [--dispatch grouped]
//!               [--preload 0] [--max-group 256]
//!               [--wal-dir DIR] [--fsync always|group|none]
//! ```
//!
//! With `--wal-dir` the server recovers the directory's logs before
//! binding (a `# recovery: ...` line reports what replayed), serves a
//! write-ahead-logged index, and acknowledges SET/DEL only after the
//! covering fsync (per `--fsync`; default `group`). `--backend` and
//! `--shards` are fixed for the life of a `--wal-dir`: started over logs
//! written under another geometry, the server says so and exits 1.
//! `--preload N` seeds keys `0..N` (value `key + 1`) into an empty store
//! only: when recovery applied any record, it is skipped.
//!
//! Prints `listening on <addr>` once ready (scripts wait for that
//! line), then serves until a client sends the SHUTDOWN opcode
//! (`Client::call(&Request::Shutdown)`), and exits 0 after printing a
//! stats summary.

use optiql_server::{start, BackendKind, Dispatch, FsyncPolicy, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: optiql-server [--addr HOST:PORT] [--backend btree|art|sharded-btree|sharded-art]\n\
         \x20                    [--shards N] [--workers N] [--dispatch grouped|per-op]\n\
         \x20                    [--preload N] [--max-group N]\n\
         \x20                    [--wal-dir DIR] [--fsync always|group|none]\n\
         \x20 --preload N seeds keys 0..N (value key + 1) into an empty store only:\n\
         \x20 it is skipped when --wal-dir recovery applied any record\n\
         \x20 --dispatch per-op is the bench baseline (every run ended after one\n\
         \x20 request: one scalar operation each), not a serving mode"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        preload: 0,
        ..ServerConfig::default()
    };
    let mut backend_name = "sharded-btree".to_string();
    let mut shards = 8usize;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = val(),
            "--backend" => backend_name = val(),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = val().parse().unwrap_or_else(|_| usage()),
            "--dispatch" => {
                cfg.dispatch = Dispatch::parse(&val()).unwrap_or_else(|| usage());
            }
            "--preload" => cfg.preload = val().parse().unwrap_or_else(|_| usage()),
            "--max-group" => cfg.max_group = val().parse().unwrap_or_else(|_| usage()),
            "--wal-dir" => cfg.wal_dir = Some(val().into()),
            "--fsync" => {
                cfg.fsync = FsyncPolicy::parse(&val()).unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cfg.backend = BackendKind::parse(&backend_name, shards).unwrap_or_else(|| usage());

    let handle = match start(&cfg) {
        Ok(h) => h,
        Err(e) => {
            // The error names what it is about: the listen address, or
            // the wal directory and the geometry it was written with.
            eprintln!("optiql-server: {e}");
            std::process::exit(1);
        }
    };
    // Recovery summary before the banner: anything polling for
    // "listening on" sees the replay outcome first.
    if let Some(rep) = handle.recovery() {
        println!("# recovery: {rep}");
    }
    // Bytes the mount cut off a log never reach the replay report above;
    // they are lost writes (or garbage) and must not go unsaid.
    for m in handle.wal().iter().flat_map(|w| w.mount_report()) {
        if let Some(torn) = &m.torn {
            println!(
                "# wal: shard {} torn tail cut at {}: {}",
                m.shard, torn.offset, torn.reason
            );
        }
    }
    println!("listening on {}", handle.addr());
    println!(
        "# backend={backend_name} shards={shards} workers={} dispatch={:?} preload={}",
        cfg.workers, cfg.dispatch, cfg.preload
    );
    if let Some(dir) = &cfg.wal_dir {
        println!("# wal: dir={} fsync={}", dir.display(), cfg.fsync.as_str());
    }
    // Line-buffered stdout may sit on the banner when piped; scripts
    // poll for it.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let wal = handle.wal().cloned();
    let stats = handle.join();
    let wal_stats = wal.map(|w| w.stats());
    println!(
        "# shutdown: conns={} requests={} index_ops={} groups={} batched_ops={} proto_errors={}",
        stats.connections,
        stats.requests,
        stats.index_ops,
        stats.groups,
        stats.batched_ops,
        stats.proto_errors
    );
    if let Some(w) = wal_stats {
        println!(
            "# wal: records={} bytes={} fsyncs={} extends={} prealloc_bytes={} extend_failures={}",
            w.records, w.bytes, w.fsyncs, w.extends, w.prealloc_bytes, w.extend_failures
        );
    }
}

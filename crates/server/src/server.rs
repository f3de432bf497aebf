//! The thread-per-core pipelined server.
//!
//! One acceptor thread owns the listener and deals accepted connections
//! out to worker threads round-robin. Each worker owns a core
//! (best-effort pin) and the connections it was handed — not shards and
//! not reclamation domains: connections are dealt by arrival, not by
//! key, so any worker's requests reach any shard. It multiplexes its
//! connections with non-blocking reads, so one slow client never stalls
//! the others.
//!
//! The point of the server is what happens between read and write: a
//! pipelining client has several requests in flight, so one socket read
//! usually drains a *burst* of frames. The worker executes a frame where
//! it decodes it: in [`Dispatch::Grouped`] mode consecutive GETs (or
//! consecutive SETs) of a burst are gathered into one run as they are
//! decoded, and the run — ended by an opcode change, a `max_group` slice
//! boundary or the end of the burst — goes through `multi_lookup` /
//! `multi_insert`, the software-pipelined group-prefetch engines the
//! batched benches measured at 3.9× (B+-tree) / 1.9× (ART) over scalar
//! descent; every other opcode ends the run and is answered on the spot.
//! A reply is therefore encoded before the next frame is looked at:
//! arrival order is structural, not bookkeeping. [`Dispatch::PerOp`] is
//! the same executor with every run ended after one request — not a
//! serving mode: it exists so the `server` bench can measure exactly
//! what grouping buys end-to-end.
//!
//! Robustness: a malformed or oversized frame poisons only its own
//! connection — the worker answers with [`Response::Error`], flushes,
//! and closes that socket. Worker threads never panic on client bytes.
//! Two ordering rules follow from executing at decode: the ERR for a
//! malformed frame is sent *after* the replies to every frame that
//! arrived ahead of it (a positional client never reads it as the answer
//! to an earlier request), and nothing behind a malformed frame or a
//! SHUTDOWN in the same burst is decoded, executed or logged.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use optiql_index_api::{ConcurrentIndex, Counters};
use optiql_sharded::{affinity::pin_thread, Router, ShardedIndex, DEFAULT_BLOCK_BITS};
use optiql_wal::{DurableIndex, FsyncPolicy, RecoveryReport, Wal, WalConfig, WalStatsSnapshot};

use crate::proto::{encode_scan_part, FrameDecoder, Request, Response, SCAN_PART_MAX};

/// Which index the server serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One OptiQL B+-tree.
    Btree,
    /// One OptiQL ART.
    Art,
    /// Block-routed sharded facade over B+-trees.
    ShardedBtree {
        /// Shard count (rounded up to a power of two).
        shards: usize,
    },
    /// Block-routed sharded facade over ARTs.
    ShardedArt {
        /// Shard count (rounded up to a power of two).
        shards: usize,
    },
}

impl BackendKind {
    /// Parse a CLI backend name: `btree`, `art`, `sharded-btree`,
    /// `sharded-art`.
    pub fn parse(name: &str, shards: usize) -> Option<BackendKind> {
        Some(match name {
            "btree" => BackendKind::Btree,
            "art" => BackendKind::Art,
            "sharded-btree" => BackendKind::ShardedBtree { shards },
            "sharded-art" => BackendKind::ShardedArt { shards },
            _ => return None,
        })
    }
}

/// How a worker executes a drained burst of requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Gather each burst's same-opcode runs as its frames are decoded and
    /// dispatch them through the batched engines.
    #[default]
    Grouped,
    /// The bench baseline, not a serving mode: the same executor with
    /// every run ended after one request, so each request is one scalar
    /// index operation (`benches/server.rs` measures what grouping buys
    /// against it).
    PerOp,
}

impl Dispatch {
    /// Parse a CLI dispatch name: `grouped` or `per-op`.
    pub fn parse(name: &str) -> Option<Dispatch> {
        Some(match name {
            "grouped" => Dispatch::Grouped,
            "per-op" => Dispatch::PerOp,
            _ => return None,
        })
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Index backend.
    pub backend: BackendKind,
    /// Worker threads. `0` means one per available core.
    pub workers: usize,
    /// Burst execution mode.
    pub dispatch: Dispatch,
    /// Keys preloaded before the listener opens: dense keys
    /// `0..preload`, value `key + 1` (the harness convention, so a
    /// uniform read load over `0..preload` always hits). Preload seeds
    /// an empty store only: when recovery applied any record from
    /// `wal_dir`, it is skipped, so a restart never overwrites
    /// acknowledged writes.
    pub preload: u64,
    /// Longest slice of a connection's burst gathered into one run (and
    /// so the most keys one `multi_*` call is handed).
    pub max_group: usize,
    /// Write-ahead-log directory. `None` (the default) serves the
    /// in-memory index exactly as before; `Some` mounts a
    /// [`DurableIndex`] on top — recovery runs before the listener
    /// opens, and every SET/DEL is logged (and, per `fsync`, synced)
    /// before its ack reaches the wire.
    pub wal_dir: Option<PathBuf>,
    /// Fsync discipline when `wal_dir` is set: `Always` syncs inside
    /// every mutation, `Group` amortizes one sync per worker round over
    /// the whole pipelined burst, `None` never syncs (measurement
    /// baseline).
    pub fsync: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            backend: BackendKind::ShardedBtree { shards: 8 },
            workers: 0,
            dispatch: Dispatch::Grouped,
            preload: 0,
            max_group: 256,
            wal_dir: None,
            fsync: FsyncPolicy::Group,
        }
    }
}

// The server's always-on counters: one lane per [`StatsSnapshot`] field,
// in one striped block every worker and the acceptor add to — a handful of
// adds per run, each on the adding thread's own cache lines.
const CONNECTIONS: usize = 0;
const REQUESTS: usize = 1;
const INDEX_OPS: usize = 2;
const GROUPS: usize = 3;
const BATCHED_OPS: usize = 4;
const PROTO_ERRORS: usize = 5;
type ServerCounters = Counters<6>;

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Requests executed (an MGET counts once).
    pub requests: u64,
    /// Index operations executed (an MGET of k keys counts k).
    pub index_ops: u64,
    /// `max_group` slices of bursts executed (grouped mode only): a
    /// burst of `n` frames counts `⌈n / max_group⌉`.
    pub groups: u64,
    /// Operations that went through `multi_lookup`/`multi_insert`.
    pub batched_ops: u64,
    /// Connections closed for protocol violations.
    pub proto_errors: u64,
}

impl StatsSnapshot {
    fn of(counters: &ServerCounters) -> StatsSnapshot {
        let sum = counters.sum();
        StatsSnapshot {
            connections: sum[CONNECTIONS],
            requests: sum[REQUESTS],
            index_ops: sum[INDEX_OPS],
            groups: sum[GROUPS],
            batched_ops: sum[BATCHED_OPS],
            proto_errors: sum[PROTO_ERRORS],
        }
    }
}

/// The index the server serves, and how it spreads keys over its shards.
struct Backend {
    index: Arc<dyn ConcurrentIndex>,
    /// The log is mounted with this same value, so a key's log is its
    /// index shard's log.
    router: Router,
}

fn sharded_backend<I: ConcurrentIndex + Default + 'static>(shards: usize) -> Backend {
    let s: ShardedIndex<I> = ShardedIndex::new(shards);
    Backend {
        router: s.router(),
        index: Arc::new(s),
    }
}

fn plain_backend<I: ConcurrentIndex + Default + 'static>() -> Backend {
    Backend {
        index: Arc::new(I::default()),
        router: Router::new(1, DEFAULT_BLOCK_BITS),
    }
}

impl Backend {
    fn build(kind: BackendKind) -> Backend {
        match kind {
            BackendKind::Btree => plain_backend::<optiql_btree::BTreeOptiQL>(),
            BackendKind::Art => plain_backend::<optiql_art::ArtOptiQL>(),
            BackendKind::ShardedBtree { shards } => {
                sharded_backend::<optiql_btree::BTreeOptiQL>(shards)
            }
            BackendKind::ShardedArt { shards } => sharded_backend::<optiql_art::ArtOptiQL>(shards),
        }
    }
}

/// A running server. Dropping the handle aborts the process's view of
/// it without joining; call [`shutdown`](Self::shutdown) (or let a
/// client send the SHUTDOWN opcode and call [`join`](Self::join)) for a
/// clean stop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<ServerCounters>,
    index: Arc<dyn ConcurrentIndex>,
    wal: Option<Arc<Wal>>,
    recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when `:0` was
    /// requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::of(&self.stats)
    }

    /// The served index (tests inspect it directly). With a wal mounted
    /// this is the [`DurableIndex`] wrapper: direct mutations through it
    /// are logged too.
    pub fn index(&self) -> &Arc<dyn ConcurrentIndex> {
        &self.index
    }

    /// What recovery replayed at startup (`None` when no wal is
    /// mounted).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The mounted wal (`None` without `--wal-dir`). Benches clone the
    /// `Arc` to snapshot counters after the handle is consumed by
    /// [`join`](Self::join)/[`shutdown`](Self::shutdown).
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Wal counter snapshot (`None` when no wal is mounted).
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Request a stop and join every thread.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop.store(true, Ordering::Release);
        self.join_threads();
        StatsSnapshot::of(&self.stats)
    }

    /// Wait until something else stops the server (a SHUTDOWN frame),
    /// then join every thread.
    pub fn join(mut self) -> StatsSnapshot {
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.join_threads();
        StatsSnapshot::of(&self.stats)
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Trim the logs now that nothing appends: callers hold clones
        // of the `Arc<Wal>` (and of the index over it), so waiting for
        // the last one to drop would leave the prepared region in the
        // files for as long as they like.
        if let Some(wal) = self.wal.take() {
            if let Err(e) = wal.close() {
                eprintln!("# wal: trimming the logs failed: {e}");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.join_threads();
    }
}

/// Build the backend, recover + mount the wal (if configured), preload,
/// bind the listener and spawn the acceptor + worker threads.
pub fn start(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let backend = Backend::build(cfg.backend);

    // Mount durability first: recovery must finish before the listener
    // opens, so no client ever reads pre-recovery state. Recovery
    // replays into the *plain* index (appending nothing); the wrapper
    // only sees post-recovery traffic.
    let (serve_index, wal, recovery) = match &cfg.wal_dir {
        Some(dir) => {
            let wal = Arc::new(Wal::open(WalConfig {
                dir: dir.clone(),
                router: backend.router,
                policy: cfg.fsync,
            })?);
            let report = wal.recover_into(&*backend.index)?;
            let durable: Arc<dyn ConcurrentIndex> = Arc::new(DurableIndex::new(
                Arc::clone(&backend.index),
                Arc::clone(&wal),
            ));
            (durable, Some(wal), Some(report))
        }
        None => (Arc::clone(&backend.index), None, None),
    };

    // Preload seeds an empty store only: over a log that recovery
    // applied records from, the dense keys would overwrite acknowledged
    // writes with `key + 1`.
    let preload = match &recovery {
        Some(rep) if rep.applied() > 0 => 0,
        _ => cfg.preload,
    };
    // Preload through the serving index, in ascending `max_group`
    // chunks, with or without a log: a B+-tree takes each chunk one
    // descent per leaf (`serve-get` set-up 0.48 s -> 0.16 s against the
    // scalar loop this replaced, lower in 10/10 alternating pairs;
    // EXPERIMENTS *One descent per leaf*), a sharded index hands each
    // chunk inside one block to its shard as is, and with a wal mounted
    // the keys are logged like any client write, one log write per
    // chunk, so a later recovery reproduces preload + traffic.
    let step = cfg.max_group.max(1);
    let mut batch = Vec::with_capacity(step);
    for lo in (0..preload).step_by(step) {
        batch.clear();
        batch.extend((lo..preload.min(lo + step as u64)).map(|i| (i, i.wrapping_add(1))));
        serve_index.multi_insert(&batch);
    }
    if let Some(w) = &wal {
        w.commit_dirty();
    }

    let listener = TcpListener::bind(&cfg.addr).map_err(|e| {
        std::io::Error::new(e.kind(), format!("cannot listen on {}: {e}", cfg.addr))
    })?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.workers
    };
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerCounters::new());

    let mut threads = Vec::with_capacity(workers + 1);
    let mut senders = Vec::with_capacity(workers);
    for tid in 0..workers {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        senders.push(tx);
        let w = Worker {
            rx,
            index: Arc::clone(&serve_index),
            dispatch: cfg.dispatch,
            max_group: cfg.max_group.max(1),
            // Only group commit needs the worker-round flush point:
            // Always syncs inside each op, None never syncs.
            group_wal: wal
                .as_ref()
                .filter(|w| w.policy() == FsyncPolicy::Group)
                .map(Arc::clone),
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("optiql-worker-{tid}"))
                .spawn(move || {
                    pin_thread(tid);
                    w.run();
                })?,
        );
    }

    {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        threads.push(
            std::thread::Builder::new()
                .name("optiql-acceptor".into())
                .spawn(move || accept_loop(listener, senders, stop, stats))?,
        );
    }

    Ok(ServerHandle {
        addr,
        stop,
        threads,
        stats,
        index: serve_index,
        wal,
        recovery,
    })
}

fn accept_loop(
    listener: TcpListener,
    senders: Vec<mpsc::Sender<TcpStream>>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerCounters>,
) {
    let mut next = 0usize;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stats.add(CONNECTIONS, 1);
                // Round-robin deal; a worker whose channel died (worker
                // exited) just drops the connection.
                let _ = senders[next % senders.len()].send(stream);
                next += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One connection a worker multiplexes.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded responses not yet written; `outpos` is the flush cursor.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Flush what's buffered, then close (set on protocol errors and
    /// after a SHUTDOWN ack). Nothing more is read or decoded.
    close_after_flush: bool,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_flush: false,
            closed: false,
        }
    }
}

/// The run being gathered: the GETs *or* the SETs (never both) decoded
/// since the last reply was encoded. A worker owns one for its lifetime,
/// so a steady-state burst allocates nothing to be staged.
#[derive(Default)]
struct Run {
    gets: Vec<u64>,
    sets: Vec<(u64, u64)>,
}

struct Worker {
    rx: mpsc::Receiver<TcpStream>,
    index: Arc<dyn ConcurrentIndex>,
    dispatch: Dispatch,
    max_group: usize,
    /// Present iff a wal with [`FsyncPolicy::Group`] is mounted: the
    /// worker round becomes two-phase (execute everything, one
    /// `commit_dirty`, then flush responses) so a single fsync per
    /// dirty shard covers every ack the round releases.
    group_wal: Option<Arc<Wal>>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerCounters>,
}

impl Worker {
    fn run(&self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut run = Run::default();
        let mut idle_rounds = 0u32;
        while !self.stop.load(Ordering::Acquire) {
            let mut progressed = false;
            while let Ok(s) = self.rx.try_recv() {
                conns.push(Conn::new(s));
                progressed = true;
            }
            match &self.group_wal {
                // Group commit: read and execute every connection first
                // (responses pile up in outbufs), make the whole round
                // durable with one fsync per dirty shard, and only then
                // let any response reach a socket. An ack a client can
                // observe is therefore always covered by a completed
                // fsync — the durable-prefix property the crash tests
                // assert.
                Some(wal) => {
                    for conn in conns.iter_mut() {
                        progressed |= self.ingest(conn, &mut scratch, &mut run);
                    }
                    wal.commit_dirty();
                    for conn in conns.iter_mut() {
                        progressed |= self.flush(conn);
                    }
                }
                // Without one, a connection is flushed as soon as it has
                // been executed, so its client builds the next burst
                // while the worker executes the next connection. Running
                // this round in the two-phase shape above (minus the
                // commit) was measured and rejected: over 12 alternating
                // pairs `serve-mixed-art` fell to ×0.83 `ops_per_s` and
                // ×1.17 `p50_us` (behind in 11 and 12 of 12), `serve-get`
                // to ×0.94 and ×1.11 (results/pr23/merged-round-*.json,
                // EXPERIMENTS *One executor*).
                None => {
                    for conn in conns.iter_mut() {
                        progressed |= self.ingest(conn, &mut scratch, &mut run);
                        progressed |= self.flush(conn);
                    }
                }
            }
            conns.retain(|c| !c.closed);
            if progressed {
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                if idle_rounds < 64 {
                    // Share the core with clients (this matters on
                    // single-core hosts, where the clients and the
                    // worker time-slice one CPU).
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Read what the socket has, then execute the burst frame by frame —
    /// responses land in `conn.outbuf`, nothing touches the socket's
    /// write side. Returns true if any byte or request moved.
    fn ingest(&self, conn: &mut Conn, scratch: &mut [u8], run: &mut Run) -> bool {
        if conn.close_after_flush {
            return false;
        }
        let mut progressed = false;
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.decoder.feed(&scratch[..n]);
                    progressed = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closed = true;
                    return true;
                }
            }
        }

        // A run ends at every `slice` frames of the burst, whatever its
        // opcodes: per-op dispatch is a slice of one.
        let grouped = self.dispatch == Dispatch::Grouped;
        let slice = if grouped { self.max_group } else { 1 };
        let mut in_slice = 0;
        while !conn.close_after_flush {
            match conn.decoder.next_request() {
                Ok(Some(req)) => {
                    progressed = true;
                    if grouped && in_slice == 0 {
                        self.stats.add(GROUPS, 1);
                    }
                    self.execute(req, conn, run);
                    in_slice += 1;
                    if in_slice == slice {
                        self.finish(run, &mut conn.outbuf);
                        in_slice = 0;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Malformed frame: answer — behind the replies to
                    // the well-formed frames ahead of it — then close
                    // only this connection.
                    self.finish(run, &mut conn.outbuf);
                    self.stats.add(PROTO_ERRORS, 1);
                    Response::Error(format!("bad frame: {e}")).encode(&mut conn.outbuf);
                    conn.close_after_flush = true;
                    progressed = true;
                }
            }
        }
        self.finish(run, &mut conn.outbuf);
        progressed
    }

    /// Write buffered responses out, handle close-after-flush.
    fn flush(&self, conn: &mut Conn) -> bool {
        if conn.closed {
            return false;
        }
        let mut progressed = false;
        while conn.outpos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    conn.closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.outpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closed = true;
                    return true;
                }
            }
        }
        if conn.outpos == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.outpos = 0;
            if conn.close_after_flush {
                conn.closed = true;
            }
        }
        progressed
    }

    /// Account one run: `requests` frames costing `ops` index operations,
    /// through a batched engine or not.
    fn account(&self, requests: usize, ops: usize, batched: bool) {
        self.stats.add(REQUESTS, requests as u64);
        self.stats.add(INDEX_OPS, ops as u64);
        if batched {
            self.stats.add(BATCHED_OPS, ops as u64);
        }
    }

    /// Execute one frame where it was decoded: a GET or SET joins the run
    /// (ending it first if it holds the other opcode); anything else ends
    /// the run and is answered on the spot.
    fn execute(&self, req: Request, conn: &mut Conn, run: &mut Run) {
        let out = &mut conn.outbuf;
        let (ops, batched) = match req {
            Request::Get { key } => {
                if !run.sets.is_empty() {
                    self.finish(run, out);
                }
                run.gets.push(key);
                return;
            }
            Request::Set { key, value } => {
                if !run.gets.is_empty() {
                    self.finish(run, out);
                }
                run.sets.push((key, value));
                return;
            }
            Request::Del { key } => {
                self.finish(run, out);
                Response::Old(self.index.remove(key)).encode(out);
                (1, false)
            }
            Request::MGet { keys } => {
                self.finish(run, out);
                // An MGET is already a batch: straight through the
                // pipelined engine, unless per-op is measuring without.
                let grouped = self.dispatch == Dispatch::Grouped;
                let vs = if grouped {
                    self.index.multi_lookup(&keys)
                } else {
                    keys.iter().map(|&k| self.index.lookup(k)).collect()
                };
                Response::MValues(vs).encode(out);
                (keys.len(), grouped)
            }
            Request::Shutdown => {
                self.finish(run, out);
                Response::Ok.encode(out);
                self.stop.store(true, Ordering::Release);
                conn.close_after_flush = true;
                (0, false)
            }
            Request::Scan { start, count } => {
                self.finish(run, out);
                // Stream straight off the lazy range iterator: each
                // SCAN_PART is encoded from the one part buffer, which is
                // then cleared, before the next chunk of leaves is even
                // visited, so a 64Ki scan costs one part's allocation,
                // not the scan's or one per part.
                let mut total = 0u32;
                let mut part: Vec<(u64, u64)> =
                    Vec::with_capacity(SCAN_PART_MAX.min(count as usize));
                for kv in self
                    .index
                    .range(std::ops::Bound::Included(start), std::ops::Bound::Unbounded)
                    .take(count as usize)
                {
                    part.push(kv);
                    if part.len() == SCAN_PART_MAX {
                        total += part.len() as u32;
                        encode_scan_part(&part, out);
                        part.clear();
                    }
                }
                total += part.len() as u32;
                if !part.is_empty() {
                    encode_scan_part(&part, out);
                }
                Response::ScanEnd { total }.encode(out);
                (total.max(1) as usize, false)
            }
        };
        self.account(1, ops, batched);
    }

    /// End the run: the only place a GET or SET reaches the index. One
    /// key is a scalar operation, more go through the batched engine.
    fn finish(&self, run: &mut Run, out: &mut Vec<u8>) {
        match run.gets[..] {
            [] => {}
            [key] => Response::Value(self.index.lookup(key)).encode(out),
            _ => {
                for v in self.index.multi_lookup(&run.gets) {
                    Response::Value(v).encode(out);
                }
            }
        }
        match run.sets[..] {
            [] => {}
            [(key, value)] => Response::Old(self.index.insert(key, value)).encode(out),
            _ => {
                for v in self.index.multi_insert(&run.sets) {
                    Response::Old(v).encode(out);
                }
            }
        }
        let n = run.gets.len() + run.sets.len();
        if n > 0 {
            self.account(n, n, n > 1);
            run.gets.clear();
            run.sets.clear();
        }
    }
}

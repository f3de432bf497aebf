//! The thread-per-core pipelined server.
//!
//! One acceptor thread owns the listener and deals accepted connections
//! out to worker threads round-robin. Each worker owns a core
//! (best-effort pin), a set of reclamation domains (the shards dealt to
//! it by [`ShardAffinity::shards_of_worker`]) and the connections it was
//! handed; it multiplexes them with non-blocking reads, so one slow
//! client never stalls the others.
//!
//! The point of the server is what happens between read and write: a
//! pipelining client has several requests in flight, so one socket read
//! usually drains a *burst* of frames. In [`Dispatch::Grouped`] mode the
//! worker carves each burst into maximal same-opcode runs and dispatches
//! every GET-run through `multi_lookup` and every SET-run through
//! `multi_insert` — the software-pipelined group-prefetch engines the
//! batched benches measured at 3.9× (B+-tree) / 1.9× (ART) over scalar
//! descent — under **one** epoch pin per burst (the per-op pins inside
//! become nested no-fence increments). Responses are written back in
//! arrival order; runs are contiguous, so order preservation is
//! structural, not bookkeeping. [`Dispatch::PerOp`] is the same executor
//! with runs capped at one request and no burst pin — not a serving
//! mode: it exists so the `server` bench can measure exactly what
//! grouping buys end-to-end.
//!
//! Robustness: a malformed or oversized frame poisons only its own
//! connection — the worker answers with [`Response::Error`], flushes,
//! and closes that socket. Worker threads never panic on client bytes.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use optiql_index_api::{ConcurrentIndex, Counters, ReclaimHandle};
use optiql_sharded::{Router, ShardAffinity, ShardedIndex, DEFAULT_BLOCK_BITS};
use optiql_wal::{DurableIndex, FsyncPolicy, RecoveryReport, Wal, WalConfig, WalStatsSnapshot};

use crate::proto::{FrameDecoder, Request, Response, SCAN_PART_MAX};

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
    /// Carve bursts into same-opcode runs and dispatch them through the
    /// batched engines under one epoch pin per burst.
    #[default]
    Grouped,
    /// The bench baseline, not a serving mode: the same executor with
    /// every run capped at one request and no burst pin, so each request
    /// is one scalar index operation (`benches/server.rs` measures what
    /// grouping buys against it).
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
    /// uniform read load over `0..preload` always hits).
    pub preload: u64,
    /// Largest burst executed under one pin (and one `multi_*` call).
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
    /// Bursts executed under one pin (grouped mode only).
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

/// The backend seen by workers: the index plus its reclamation topology.
struct Backend {
    index: Arc<dyn ConcurrentIndex>,
    /// How `index` spreads keys over its shards. The log is mounted with
    /// this same value, so a key's log is its index shard's log.
    router: Router,
    /// One handle per reclamation domain, in shard order (plain trees
    /// have exactly one domain).
    domains: Vec<ReclaimHandle>,
    /// Shard → core placement used to deal domains out to workers.
    shard_affinity: ShardAffinity,
}

fn sharded_backend<I: ConcurrentIndex + Default + 'static>(shards: usize) -> Backend {
    let s: ShardedIndex<I> = ShardedIndex::new(shards);
    let mut domains = Vec::new();
    s.for_each_shard(|_, sh| domains.extend(sh.reclaim_handle()));
    let shard_affinity = s.affinity();
    Backend {
        router: s.router(),
        index: Arc::new(s),
        domains,
        shard_affinity,
    }
}

fn plain_backend<I: ConcurrentIndex + Default + 'static>() -> Backend {
    let t = I::default();
    let domains = t.reclaim_handle().into_iter().collect();
    Backend {
        index: Arc::new(t),
        router: Router::new(1, DEFAULT_BLOCK_BITS),
        domains,
        shard_affinity: ShardAffinity::probe(1),
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

    /// The reclamation domains worker `tid` of `workers` owns (and pins
    /// once per burst in grouped mode).
    fn owned_domains(&self, tid: usize, workers: usize) -> Vec<ReclaimHandle> {
        if self.domains.is_empty() {
            return Vec::new();
        }
        self.shard_affinity
            .shards_of_worker(tid, workers)
            .into_iter()
            .filter_map(|s| self.domains.get(s).cloned())
            .collect()
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

    /// True once the server has begun stopping (a client sent SHUTDOWN
    /// or [`shutdown`](Self::shutdown) ran).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
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
    let backend = Arc::new(Backend::build(cfg.backend));

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
            let report = wal.recover_into::<u64, _>(&*backend.index)?;
            let durable: Arc<dyn ConcurrentIndex> = Arc::new(DurableIndex::new(
                Arc::clone(&backend.index),
                Arc::clone(&wal),
            ));
            (durable, Some(wal), Some(report))
        }
        None => (Arc::clone(&backend.index), None, None),
    };

    // Preload through the serving index: with a wal mounted the dense
    // keys are logged like any client write, so a later recovery
    // reproduces preload + traffic together.
    match &wal {
        // One log write per batch instead of one per key (1 M syscalls
        // for 1 M keys otherwise).
        Some(w) => {
            let step = cfg.max_group.max(1);
            let mut batch = Vec::with_capacity(step);
            for lo in (0..cfg.preload).step_by(step) {
                batch.clear();
                batch.extend(
                    (lo..cfg.preload.min(lo + step as u64)).map(|i| (i, i.wrapping_add(1))),
                );
                serve_index.multi_insert(&batch);
            }
            w.commit_dirty();
        }
        // Without a log there is nothing to batch for: on dense
        // ascending keys the batched descent measured 12 % slower than
        // this loop (`serve-get` set-up 0.55 s -> 0.62 s).
        None => {
            for i in 0..cfg.preload {
                serve_index.insert(i, i.wrapping_add(1));
            }
        }
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
    let worker_affinity = ShardAffinity::probe(workers);

    let mut threads = Vec::with_capacity(workers + 1);
    let mut senders = Vec::with_capacity(workers);
    for tid in 0..workers {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        senders.push(tx);
        let w = Worker {
            tid,
            rx,
            index: Arc::clone(&serve_index),
            owned: backend.owned_domains(tid, workers),
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
        let affinity = worker_affinity.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("optiql-worker-{tid}"))
                .spawn(move || {
                    affinity.pin_to_shard(w.tid);
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
    /// Decoded, not yet executed.
    pending: Vec<Request>,
    /// Encoded responses not yet written; `outpos` is the flush cursor.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Flush what's buffered, then close (set on protocol errors and
    /// after a SHUTDOWN ack).
    close_after_flush: bool,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            pending: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_flush: false,
            closed: false,
        }
    }
}

struct Worker {
    tid: usize,
    rx: mpsc::Receiver<TcpStream>,
    index: Arc<dyn ConcurrentIndex>,
    /// Reclamation domains this worker owns; pinned once per burst in
    /// grouped mode.
    owned: Vec<ReclaimHandle>,
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
        let mut idle_rounds = 0u32;
        while !self.stop.load(Ordering::Acquire) {
            let mut progressed = false;
            while let Ok(s) = self.rx.try_recv() {
                conns.push(Conn::new(s));
                progressed = true;
            }
            match &self.group_wal {
                // Group commit: run every connection's read → decode →
                // execute first (responses pile up in outbufs), make the
                // whole round durable with one fsync per dirty shard,
                // and only then let any response reach a socket. An ack
                // a client can observe is therefore always covered by a
                // completed fsync — the durable-prefix property the
                // crash tests assert.
                Some(wal) => {
                    for conn in conns.iter_mut() {
                        progressed |= self.pump_ingest(conn, &mut scratch);
                    }
                    wal.commit_dirty();
                    for conn in conns.iter_mut() {
                        progressed |= self.pump_flush(conn);
                    }
                }
                None => {
                    for conn in conns.iter_mut() {
                        progressed |= self.pump(conn, &mut scratch);
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

    /// Run one read → decode → execute → flush cycle on a connection.
    /// Returns true if any byte or request moved.
    fn pump(&self, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        let a = self.pump_ingest(conn, scratch);
        let b = self.pump_flush(conn);
        a || b
    }

    /// The front half of [`pump`](Self::pump): read, decode, execute —
    /// responses land in `conn.outbuf` but nothing touches the socket's
    /// write side. Under group commit the worker runs this over every
    /// connection, fsyncs, then flushes.
    fn pump_ingest(&self, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        let mut progressed = false;

        // Read everything the socket has.
        if !conn.close_after_flush {
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

            // Decode the burst.
            loop {
                match conn.decoder.next_request() {
                    Ok(Some(req)) => conn.pending.push(req),
                    Ok(None) => break,
                    Err(e) => {
                        // Malformed frame: answer, then close only this
                        // connection. The queue decoded so far still
                        // executes — those frames were well-formed.
                        self.stats.add(PROTO_ERRORS, 1);
                        Response::Error(format!("bad frame: {e}")).encode(&mut conn.outbuf);
                        conn.close_after_flush = true;
                        progressed = true;
                        break;
                    }
                }
            }
        }

        // Execute.
        if !conn.pending.is_empty() {
            progressed = true;
            self.execute(conn);
            conn.pending.clear();
        }
        progressed
    }

    /// The back half of [`pump`](Self::pump): write buffered responses
    /// out, handle close-after-flush.
    fn pump_flush(&self, conn: &mut Conn) -> bool {
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

    fn execute_one(&self, req: &Request, out: &mut Vec<u8>) {
        let ops = match req {
            Request::Get { .. } | Request::Set { .. } => {
                unreachable!("`execute` runs every GET and SET itself, in both dispatch modes")
            }
            Request::Del { key } => {
                Response::Old(self.index.remove(*key)).encode(out);
                1
            }
            Request::MGet { keys } => {
                let vs: Vec<Option<u64>> = keys.iter().map(|&k| self.index.lookup(k)).collect();
                Response::MValues(vs).encode(out);
                keys.len()
            }
            Request::ScanCount { start, limit } => {
                let n = self.index.scan_count(*start, *limit as usize);
                Response::Count(n as u64).encode(out);
                1
            }
            Request::Shutdown => {
                Response::Ok.encode(out);
                self.stop.store(true, Ordering::Release);
                0
            }
            Request::Scan { start, count } => {
                // Stream straight off the lazy range iterator: each
                // SCAN_PART is encoded (and its buffer retired) before
                // the next chunk of leaves is even visited, so a 64Ki
                // scan costs one part's allocation, not the scan's.
                let mut total = 0u32;
                let mut part: Vec<(u64, u64)> =
                    Vec::with_capacity(SCAN_PART_MAX.min(*count as usize));
                for kv in self
                    .index
                    .range(
                        std::ops::Bound::Included(*start),
                        std::ops::Bound::Unbounded,
                    )
                    .take(*count as usize)
                {
                    part.push(kv);
                    if part.len() == SCAN_PART_MAX {
                        total += part.len() as u32;
                        Response::ScanPart(std::mem::take(&mut part)).encode(out);
                    }
                }
                total += part.len() as u32;
                if !part.is_empty() {
                    Response::ScanPart(part).encode(out);
                }
                Response::ScanEnd { total }.encode(out);
                total.max(1) as usize
            }
        };
        self.account(1, ops, false);
    }

    /// Execute a burst: maximal same-opcode runs go through the batched
    /// engines; each `max_group` slice runs under one epoch pin over
    /// this worker's owned domains. [`Dispatch::PerOp`] caps a run at one
    /// request and takes no burst pin, so nothing reaches a batched
    /// engine.
    fn execute(&self, conn: &mut Conn) {
        let grouped = self.dispatch == Dispatch::Grouped;
        let run_cap = if grouped { usize::MAX } else { 1 };
        let reqs = std::mem::take(&mut conn.pending);
        let mut gets: Vec<u64> = Vec::new();
        let mut sets: Vec<(u64, u64)> = Vec::new();
        for chunk in reqs.chunks(self.max_group) {
            // One pin per burst over the owned domains: every per-op pin
            // the engines take inside is a nested depth increment.
            let _pins: Vec<_> = if grouped {
                self.stats.add(GROUPS, 1);
                self.owned.iter().map(|h| h.pin()).collect()
            } else {
                Vec::new()
            };
            let mut i = 0;
            while i < chunk.len() {
                match &chunk[i] {
                    Request::Get { .. } => {
                        gets.clear();
                        while gets.len() < run_cap {
                            let Some(Request::Get { key }) = chunk.get(i) else {
                                break;
                            };
                            gets.push(*key);
                            i += 1;
                        }
                        if gets.len() == 1 {
                            Response::Value(self.index.lookup(gets[0])).encode(&mut conn.outbuf);
                        } else {
                            for v in self.index.multi_lookup(&gets) {
                                Response::Value(v).encode(&mut conn.outbuf);
                            }
                        }
                        self.account(gets.len(), gets.len(), gets.len() > 1);
                    }
                    Request::Set { .. } => {
                        sets.clear();
                        while sets.len() < run_cap {
                            let Some(Request::Set { key, value }) = chunk.get(i) else {
                                break;
                            };
                            sets.push((*key, *value));
                            i += 1;
                        }
                        if sets.len() == 1 {
                            Response::Old(self.index.insert(sets[0].0, sets[0].1))
                                .encode(&mut conn.outbuf);
                        } else {
                            for v in self.index.multi_insert(&sets) {
                                Response::Old(v).encode(&mut conn.outbuf);
                            }
                        }
                        self.account(sets.len(), sets.len(), sets.len() > 1);
                    }
                    Request::MGet { keys } if grouped => {
                        // An MGET is already a batch: straight through
                        // the pipelined engine.
                        let vs = self.index.multi_lookup(keys);
                        Response::MValues(vs).encode(&mut conn.outbuf);
                        self.account(1, keys.len(), true);
                        i += 1;
                    }
                    req => {
                        self.execute_one(req, &mut conn.outbuf);
                        if matches!(req, Request::Shutdown) {
                            conn.close_after_flush = true;
                        }
                        i += 1;
                    }
                }
            }
        }
        conn.pending = reqs;
    }
}

//! Per-shard write-ahead (redo) logging for the OptiQL index stack.
//!
//! The stack's indexes are memory-optimized: nodes live on the heap,
//! protected by OptiQL optimistic locks, and nothing survives a restart.
//! This crate adds the classic main-memory-database recovery recipe
//! (Larson et al., see PAPERS.md) on top, without touching the trees:
//!
//! * **Redo-only logging.** Every successful mutation appends one
//!   CRC32-framed record ([`record`]) to a per-shard log. Log order
//!   equals apply order per shard ([`shard`]), so replaying a log start
//!   to finish reproduces the shard's final state.
//! * **One router, recorded.** Which log a key's records go to is not
//!   decided here: [`WalConfig::router`] is the index's own
//!   [`Router`], so log `i` holds exactly index shard `i`'s keys. The
//!   directory remembers it (a `GEOMETRY` file written at first open),
//!   and [`Wal::open`] refuses to mount the logs under any other map —
//!   replayed under fewer logs acknowledged writes vanish, under more a
//!   stale value can win.
//! * **Group commit.** Appends land in the OS immediately; `fdatasync`
//!   is deferred and amortized. Under [`FsyncPolicy::Group`] the server
//!   issues one `commit_dirty` per worker round — one fsync covers an
//!   entire pipelined burst, and acks are released only after it.
//! * **Extend-ahead.** That fsync should pay for a data flush and
//!   nothing else, so a log never grows by its appends: each shard
//!   writes at a cursor into a region it zero-filled and synced
//!   beforehand, [`shard::EXTEND_CHUNK`] bytes at a time. A log file is
//!   therefore longer than its log until [`Wal::close`] trims it.
//! * **Checkpoint-by-scan.** A checkpoint is one streaming `range()`
//!   scan of the live index written to per-shard sidecar files
//!   ([`checkpoint`]); it bounds replay without stalling writers.
//! * **Recovery.** [`Wal::open`] finds the end of each log by frame CRC
//!   and LSN continuity (a zero tail is a clean end, anything else a
//!   torn one, which it cuts off); `recover_into` loads the newest
//!   valid checkpoint per shard and replays the log tail, in parallel
//!   across shards ([`recover`]).
//!
//! Unix only: the extend-ahead uses positioned writes
//! (`std::os::unix::fs::FileExt`).
//!
//! [`DurableIndex`] wraps any [`ConcurrentIndex`] with the logging
//! discipline; the server mounts it when `--wal-dir` is given.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use optiql_index_api::ConcurrentIndex;
use optiql_sharded::{Router, DEFAULT_BLOCK_BITS};

pub mod checkpoint;
pub mod crc;
pub mod durable;
pub mod record;
pub mod recover;
pub mod shard;
pub mod stats;

pub use checkpoint::{CheckpointReport, ShardCheckpoint};
pub use durable::DurableIndex;
pub use record::{FrameCursor, Record, TornTail};
pub use recover::{RecoveryReport, ShardRecovery};
pub use shard::LogShard;
pub use stats::WalStatsSnapshot;

/// When acknowledged writes reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync inside every mutating operation before it returns. The
    /// naive durable baseline: correct, and pays one `fdatasync` per op.
    Always,
    /// Group commit: appends are buffered in the OS; the mount point
    /// (server worker round, or an explicit [`DurableIndex::commit`])
    /// issues one fsync covering the whole batch before acks go out.
    #[default]
    Group,
    /// Never fsync. The log still exists and recovery still works up to
    /// whatever the OS wrote back — a measurement baseline, not a
    /// durability contract.
    None,
}

impl FsyncPolicy {
    /// Parse a CLI spelling (`always` / `group` / `none`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "group" => Some(FsyncPolicy::Group),
            "none" => Some(FsyncPolicy::None),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Group => "group",
            FsyncPolicy::None => "none",
        }
    }
}

/// How to open a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `shard-<i>.log` / `shard-<i>.ckpt` files
    /// (created if absent).
    pub dir: PathBuf,
    /// The key→log map: one log per shard of this router. Hand over the
    /// index's own (`ShardedIndex::router()`), so wal shard == index
    /// shard for every key and a log's append mutex only ever serializes
    /// writers that already contend on the same index shard. Fixed for
    /// the life of `dir` (see [`Wal::open`]).
    pub router: Router,
    /// Fsync discipline for [`DurableIndex`] mounts.
    pub policy: FsyncPolicy,
}

impl WalConfig {
    /// Single-shard log in `dir` with the default group-commit policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            router: Router::new(1, DEFAULT_BLOCK_BITS),
            policy: FsyncPolicy::Group,
        }
    }
}

/// What [`Wal::open`] found in one shard's log file.
#[derive(Debug, Clone)]
pub struct ShardMount {
    /// Shard index.
    pub shard: usize,
    /// Valid log bytes: where the shard's cursor was put.
    pub log_bytes: u64,
    /// Last LSN in the valid prefix (0 if the log is empty).
    pub last_lsn: u64,
    /// The torn tail that was cut off, if any. The zero-filled region a
    /// crash leaves behind the last frame is not one.
    pub torn: Option<TornTail>,
}

/// A set of per-shard redo logs plus their checkpoint sidecars.
pub struct Wal {
    shards: Vec<Arc<LogShard>>,
    router: Router,
    policy: FsyncPolicy,
    stats: Arc<stats::WalCounters>,
    dir: PathBuf,
    mount: Vec<ShardMount>,
}

pub(crate) fn log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.log"))
}

pub(crate) fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.ckpt"))
}

/// The file in a wal directory recording the router its logs were
/// written under, as `shards=<n> block_bits=<b>`.
const GEOMETRY: &str = "GEOMETRY";

/// Hold `dir` to the router it was created with; a fresh directory
/// records `router`. Per-shard "log order = apply order" only survives a
/// restart if every key is looked for in the log it was written to, so
/// another shard count — or, with several logs, another block size — is
/// refused before any log is opened. A directory older than the
/// `GEOMETRY` file is adopted (under the caller's `block_bits`) when its
/// logs are exactly `shard-0 .. shard-<shards - 1>`; builds that old
/// always created `shard-0` upwards, so counting from 0 finds them all.
fn check_geometry(dir: &Path, router: Router) -> std::io::Result<()> {
    let path = dir.join(GEOMETRY);
    let (shards, block_bits) = (router.shards(), router.block_bits());
    let ours = format!("shards={shards} block_bits={block_bits}");
    let written = match std::fs::read_to_string(&path) {
        Ok(text) => text.trim().to_owned(),
        Err(e) if e.kind() == ErrorKind::NotFound => {
            let logs = (0..).take_while(|&i| log_path(dir, i).exists()).count();
            if logs == 0 || logs == shards {
                // Renamed into place whole, and before the first log
                // exists: a crash leaves no `GEOMETRY`, or a complete one.
                let tmp = path.with_extension("tmp");
                let mut file = File::create(&tmp)?;
                writeln!(file, "{ours}")?;
                file.sync_all()?;
                return std::fs::rename(&tmp, &path);
            }
            format!("shards={logs} and no {GEOMETRY} file")
        }
        Err(e) => return Err(e),
    };
    // One log has no granularity to disagree about.
    if written == ours || (shards == 1 && written.starts_with("shards=1 ")) {
        return Ok(());
    }
    let dir = dir.display();
    Err(std::io::Error::new(
        ErrorKind::InvalidInput,
        format!("{dir}: log written with {written}, started with {ours}"),
    ))
}

impl Wal {
    /// Open (creating as needed) the per-shard logs under `cfg.dir`:
    /// find the end of each log, cut off a torn tail if there is one,
    /// put the shard's cursor there and prepare a zero-filled region
    /// ahead of it. Does **not** replay — call [`Wal::recover_into`]
    /// before mounting an index on top.
    ///
    /// The first open of a directory records `cfg.router` in its
    /// `GEOMETRY` file. Every later open under a router that would look
    /// for some key in another log fails with
    /// [`ErrorKind::InvalidInput`], naming the directory and both
    /// geometries, having created, truncated and replayed nothing.
    pub fn open(cfg: WalConfig) -> std::io::Result<Wal> {
        std::fs::create_dir_all(&cfg.dir)?;
        check_geometry(&cfg.dir, cfg.router)?;
        let n = cfg.router.shards();
        let stats = Arc::new(stats::WalCounters::new());
        let mut shards = Vec::with_capacity(n);
        let mut mount = Vec::with_capacity(n);
        for i in 0..n {
            let path = log_path(&cfg.dir, i);
            // Not O_APPEND: appends go to the shard's cursor, which
            // stays short of the end of the file.
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(&path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let end = recover::scan_log(&bytes, |_, _| {});
            if end.torn.is_some() {
                // Cut the tail off rather than append over it: see
                // "Where a log ends" in `recover`.
                file.set_len(end.valid_len)?;
            }
            mount.push(ShardMount {
                shard: i,
                log_bytes: end.valid_len,
                last_lsn: end.last_lsn,
                torn: end.torn,
            });
            shards.push(Arc::new(LogShard::new(
                i,
                path,
                file,
                end.valid_len,
                end.last_lsn + 1,
                Arc::clone(&stats),
            )?));
        }
        // A log (or `GEOMETRY`) may have just been created, and records
        // fsynced into a file are only as durable as its directory entry.
        File::open(&cfg.dir)?.sync_all()?;
        Ok(Wal {
            shards,
            router: cfg.router,
            policy: cfg.policy,
            stats,
            dir: cfg.dir,
            mount,
        })
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The wal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of log shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The key→log map this wal was opened with (the index's router).
    pub fn router(&self) -> Router {
        self.router
    }

    /// Access one shard's log.
    pub fn shard(&self, i: usize) -> &LogShard {
        &self.shards[i]
    }

    /// Fsync every shard with appends not yet covered by one. The
    /// group-commit flush point: one call, at most one fsync per dirty
    /// shard, covering everything appended before it.
    pub fn commit_dirty(&self) {
        for s in &self.shards {
            s.commit();
        }
    }

    /// Trim every log to its valid length: after this the `*.log` files
    /// hold exactly the frames appended, with no prepared region behind
    /// them. Dropping the `Wal` does the same, but a mount point that
    /// hands out `Arc<Wal>` clones cannot wait for the last of them to
    /// go — the server calls this once its workers have stopped.
    /// Appends afterwards are allowed (they prepare a new region).
    pub fn close(&self) -> std::io::Result<()> {
        self.shards.iter().try_for_each(|s| s.close())
    }

    /// Per-shard findings from [`Wal::open`] (torn tails, last LSNs).
    pub fn mount_report(&self) -> &[ShardMount] {
        &self.mount
    }

    /// Counter snapshot (records/bytes/fsyncs across all shards).
    pub fn stats(&self) -> WalStatsSnapshot {
        WalStatsSnapshot::of(&self.stats)
    }

    /// Rebuild index state: per shard, load the newest valid checkpoint
    /// (if any) and replay the log tail. `index` must be *empty* and
    /// must **not** be a [`DurableIndex`] over this wal (recovery must
    /// not re-log). Shards recover in parallel.
    pub fn recover_into<I>(&self, index: &I) -> std::io::Result<RecoveryReport>
    where
        I: ConcurrentIndex + ?Sized,
    {
        recover::recover_into(self, index)
    }

    /// Checkpoint-by-scan: stream the live index into per-shard
    /// checkpoint sidecars, bounding future replay to the log tail.
    /// Safe under concurrent writers (see `checkpoint` module docs).
    pub fn checkpoint<I>(&self, index: &I) -> std::io::Result<CheckpointReport>
    where
        I: ConcurrentIndex + ?Sized,
    {
        checkpoint::checkpoint(self, index)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best effort; call `close` to see the error.
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql_index_api::model::ModelIndex;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("optiql-wal-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Group, FsyncPolicy::None] {
            assert_eq!(FsyncPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn open_append_reopen_preserves_lsns() {
        let dir = tempdir("reopen");
        {
            let wal = Wal::open(WalConfig::new(&dir)).unwrap();
            let shard = wal.shard(0);
            let ((), last) = shard.append_with(|txn| {
                txn.set(1, 10);
                txn.set(2, 20);
            });
            shard.ensure_durable(last);
        }
        {
            let wal = Wal::open(WalConfig::new(&dir)).unwrap();
            assert_eq!(wal.mount_report()[0].last_lsn, 2);
            assert!(wal.mount_report()[0].torn.is_none());
            // New appends continue the dense LSN sequence.
            let ((), last) = wal.shard(0).append_with(|txn| {
                txn.del(1);
            });
            assert_eq!(last, 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_cut_off_on_open() {
        let dir = tempdir("torn");
        {
            let wal = Wal::open(WalConfig::new(&dir)).unwrap();
            wal.shard(0).append_with(|txn| {
                txn.set(1, 10);
            });
            wal.commit_dirty();
        }
        // Tear the tail: append garbage that is not a valid frame.
        let path = log_path(&dir, 0);
        let valid_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
        }
        {
            let wal = Wal::open(WalConfig::new(&dir)).unwrap();
            let m = &wal.mount_report()[0];
            assert_eq!(m.last_lsn, 1);
            assert_eq!(m.log_bytes, valid_len);
            assert!(m.torn.is_some(), "torn tail must be reported");
            // Recovery sees exactly the valid prefix.
            let model = ModelIndex::new();
            let rep = wal.recover_into(&model).unwrap();
            assert_eq!(rep.applied(), 1);
            assert_eq!(model.lookup(1), Some(10));
            wal.close().unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! One redo log: a file written at a cursor, with dense per-shard LSNs
//! and a leader/follower fsync gate for group commit.
//!
//! The file is not grown by its appends. Ahead of the cursor lies a
//! region that [`LogShard`] has already filled with zeros *and synced*,
//! [`EXTEND_CHUNK`] bytes at a time, so the group-commit `fdatasync`
//! only has to write data blocks that exist on disk already; it never
//! has to journal a new file size or allocate extents (DESIGN §10.3
//! has the measurements). Mount finds the end of the log by frame CRC
//! and LSN continuity ([`recover`](crate::recover)), so the zero tail a
//! crash leaves behind is a clean end; [`LogShard::close`] trims it.
//!
//! Log order must equal apply order for records touching the same key,
//! or replay could resurrect an overwritten value. [`LogShard::append_with`]
//! enforces that the cheap way: the caller applies the mutation to the
//! index *inside* the append closure, so the shard's append mutex
//! serializes apply+log as one unit for everything routed to this shard
//! (same key → same route → same shard). Different shards never
//! contend, preserving the cross-shard concurrency the router buys.
//! (DESIGN §10 discusses the finer-grained alternative — stamping LSNs
//! under the OptiQL x-lock — and why it isn't needed at this node count.)
//!
//! Durability is decoupled from appending: `appended` is the highest LSN
//! written to the OS, `durable` the highest covered by an fsync. Any
//! thread needing `lsn` durable calls [`LogShard::ensure_durable`]; the
//! fsync gate makes the first comer the leader whose single
//! `fdatasync` covers every append before it, and late arrivals observe
//! the advanced watermark and return without syncing — group commit.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::{WalCounters, BYTES, EXTENDS, EXTEND_FAILURES, FSYNCS, PREALLOC_BYTES, RECORDS};

/// How far ahead of the cursor the log is zero-filled and synced in one
/// go. Filling 16 MiB takes 10–20 ms on the reference host, under the
/// append mutex: short enough for a mount, and at one stall per ~480 k
/// 35-byte records rare enough to sit beyond the p99.9 of request
/// latency.
pub const EXTEND_CHUNK: u64 = 16 << 20;

/// Source of the zero fill. Small and static: it is resident memory
/// of every process that mounts a log (a chunk-sized heap buffer would
/// be too, once freed into the allocator's arena), and at 512 writes
/// per chunk the system calls are about a tenth of the fill.
static ZEROS: [u8; 32 << 10] = [0; 32 << 10];

struct Appender {
    /// The file offset of this handle is the cursor: always `len`.
    file: File,
    /// Valid log bytes: where the next frame goes.
    len: u64,
    /// Appends that end at or below this offset overwrite zero-filled,
    /// synced blocks; the first one that would cross it extends the
    /// region first. Never below `len`.
    prepared: u64,
    /// LSN the next record will carry (LSNs are 1-based and dense).
    next_lsn: u64,
    /// Frame staging buffer, reused across appends.
    buf: Vec<u8>,
}

/// A single shard's redo log.
pub struct LogShard {
    path: PathBuf,
    /// Independent handle used only for the commit `fdatasync`, so the
    /// gate never blocks appenders.
    sync_handle: File,
    inner: Mutex<Appender>,
    /// Highest LSN written to the file (visible to the OS).
    appended: AtomicU64,
    /// Highest LSN covered by an fsync.
    durable: AtomicU64,
    /// Group-commit gate: whoever holds it performs the fsync that
    /// covers everyone queued behind.
    gate: Mutex<()>,
    stats: Arc<WalCounters>,
    id: usize,
}

/// Handed to [`LogShard::append_with`] closures: stages redo records
/// with freshly assigned LSNs while the caller mutates the index.
pub struct Txn<'a> {
    next_lsn: &'a mut u64,
    buf: &'a mut Vec<u8>,
    records: u64,
}

impl Txn<'_> {
    /// Stage a `Set key := value` redo record; returns its LSN.
    pub fn set(&mut self, key: u64, value: u64) -> u64 {
        let lsn = *self.next_lsn;
        *self.next_lsn += 1;
        self.records += 1;
        crate::record::frame_set(self.buf, lsn, key, value);
        lsn
    }

    /// Stage a `Del key` redo record; returns its LSN.
    pub fn del(&mut self, key: u64) -> u64 {
        let lsn = *self.next_lsn;
        *self.next_lsn += 1;
        self.records += 1;
        crate::record::frame_del(self.buf, lsn, key);
        lsn
    }
}

impl Appender {
    /// Make sure the next `need` bytes at the cursor lie in the prepared
    /// region: if they would cross its end, zero-fill and sync from
    /// `prepared` up to the chunk boundary at or above `len + need`. The
    /// sync happens here, with the zeros, so no later group commit has
    /// to write them back.
    ///
    /// A failure (disk full, I/O error) is counted and otherwise
    /// ignored: `prepared` moves on regardless, so the appends up to it
    /// grow the file the way an `O_APPEND` log would, and the next
    /// attempt is a chunk away. Whatever part of the fill did land is
    /// zeros beyond the cursor, which the appends overwrite and
    /// [`LogShard::close`] trims.
    fn extend_ahead(&mut self, need: u64, stats: &WalCounters) {
        if self.len + need <= self.prepared {
            return;
        }
        let upto = (self.len + need).next_multiple_of(EXTEND_CHUNK);
        let fill = || -> std::io::Result<()> {
            let mut at = self.prepared;
            while at < upto {
                let n = (upto - at).min(ZEROS.len() as u64);
                self.file.write_all_at(&ZEROS[..n as usize], at)?;
                at += n;
            }
            self.file.sync_data()
        };
        match fill() {
            Ok(()) => {
                stats.add(EXTENDS, 1);
                stats.add(PREALLOC_BYTES, upto - self.prepared);
            }
            Err(_) => stats.add(EXTEND_FAILURES, 1),
        }
        self.prepared = upto;
    }
}

impl LogShard {
    /// Wrap an opened, already-scanned log file whose valid prefix is
    /// `len` bytes long and followed by nothing but zeros (or nothing).
    /// `next_lsn` is one past the last LSN in that prefix. Puts the
    /// cursor at `len` and makes sure a prepared region lies ahead of
    /// it, so the first append after a mount does not pay for one.
    pub(crate) fn new(
        id: usize,
        path: PathBuf,
        mut file: File,
        len: u64,
        next_lsn: u64,
        stats: Arc<WalCounters>,
    ) -> std::io::Result<Self> {
        // Opened, not cloned: the kernel reports a write-back error once
        // per open file, and the sync inside `extend_ahead`, which shrugs
        // errors off, must not be the one that uses it up.
        let sync_handle = File::open(&path)?;
        file.seek(SeekFrom::Start(len))?;
        let mut appender = Appender {
            prepared: file.metadata()?.len().max(len),
            file,
            len,
            next_lsn,
            buf: Vec::with_capacity(4096),
        };
        appender.extend_ahead(1, &stats);
        Ok(LogShard {
            path,
            sync_handle,
            inner: Mutex::new(appender),
            appended: AtomicU64::new(next_lsn - 1),
            durable: AtomicU64::new(next_lsn - 1),
            gate: Mutex::new(()),
            stats,
            id,
        })
    }

    /// This shard's index within the WAL.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Highest LSN written to the OS.
    pub fn appended_lsn(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Highest LSN covered by an fsync.
    pub fn durable_lsn(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Apply-and-log as one serialized unit: the closure mutates the
    /// index and stages matching redo records on `txn`; the staged
    /// frames are written to the OS before the lock is released.
    /// Returns the closure's result and the last LSN this call appended
    /// (0 when the closure staged nothing — e.g. a no-op update).
    ///
    /// I/O errors are fail-stop (panic): a redo log we cannot write to
    /// is a durability contract we can no longer honor, and limping on
    /// would hand out acks backed by nothing.
    pub fn append_with<T>(&self, f: impl FnOnce(&mut Txn<'_>) -> T) -> (T, u64) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.buf.clear();
        let mut txn = Txn {
            next_lsn: &mut inner.next_lsn,
            buf: &mut inner.buf,
            records: 0,
        };
        let out = f(&mut txn);
        let records = txn.records;
        if records == 0 {
            return (out, 0);
        }
        let bytes = inner.buf.len() as u64;
        inner.extend_ahead(bytes, &self.stats);
        inner
            .file
            .write_all(&inner.buf)
            .unwrap_or_else(|e| panic!("wal shard {}: append failed: {e}", self.id));
        inner.len += bytes;
        let last = inner.next_lsn - 1;
        self.appended.store(last, Ordering::Release);
        self.stats.add(RECORDS, records);
        self.stats.add(BYTES, bytes);
        (out, last)
    }

    /// Trim the file to its valid length, dropping the prepared region
    /// ahead of the cursor. Appending afterwards is allowed and prepares
    /// a new region. Not synced: a trim lost to a crash leaves a zero
    /// tail, which mount reads as a clean end anyway.
    pub(crate) fn close(&self) -> std::io::Result<()> {
        // A poisoned mutex means an appender panicked on a failed write;
        // `len` still marks the last complete frame.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.file.set_len(inner.len)?;
        inner.prepared = inner.len;
        Ok(())
    }

    /// Block until every append up to `lsn` is on stable storage.
    /// Group commit: one fsync covers every caller queued at the gate.
    pub fn ensure_durable(&self, lsn: u64) {
        if lsn == 0 || self.durable.load(Ordering::Acquire) >= lsn {
            return;
        }
        let _gate = self.gate.lock().unwrap();
        if self.durable.load(Ordering::Acquire) >= lsn {
            return; // a leader that ran while we queued covered us
        }
        // Cover everything appended so far, not just `lsn` — followers
        // that queued behind us ride this fsync for free.
        let cover = self.appended.load(Ordering::Acquire);
        self.sync_handle
            .sync_data()
            .unwrap_or_else(|e| panic!("wal shard {}: fsync failed: {e}", self.id));
        self.durable.store(cover, Ordering::Release);
        self.stats.add(FSYNCS, 1);
    }

    /// Fsync iff there are appends not yet covered by one.
    pub fn commit(&self) {
        let appended = self.appended.load(Ordering::Acquire);
        if appended > self.durable.load(Ordering::Acquire) {
            self.ensure_durable(appended);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FrameCursor, Record};
    use std::io::Read;

    fn scratch_shard(dir: &std::path::Path) -> LogShard {
        let path = dir.join("shard-0.log");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        LogShard::new(0, path, file, 0, 1, Arc::new(WalCounters::new())).unwrap()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("optiql-wal-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn lsns_are_dense_and_frames_decode() {
        let dir = tempdir("dense");
        let shard = scratch_shard(&dir);
        let ((), last) = shard.append_with(|txn| {
            assert_eq!(txn.set(7, 70), 1);
            assert_eq!(txn.set(8, 80), 2);
            txn.del(7);
        });
        assert_eq!(last, 3);
        assert_eq!(shard.appended_lsn(), 3);
        assert_eq!(shard.durable_lsn(), 0);
        shard.ensure_durable(3);
        assert_eq!(shard.durable_lsn(), 3);

        // The file is the frames plus the rest of the prepared chunk;
        // close trims it to the frames.
        assert_eq!(std::fs::metadata(shard.path()).unwrap().len(), EXTEND_CHUNK);
        shard.close().unwrap();
        let mut bytes = Vec::new();
        std::fs::File::open(shard.path())
            .unwrap()
            .read_to_end(&mut bytes)
            .unwrap();
        let mut cur = FrameCursor::new(&bytes);
        let mut lsns = Vec::new();
        while let Some(r) = cur.next_frame().unwrap() {
            lsns.push(r.lsn().unwrap());
            if let Record::Del { key, .. } = r {
                assert_eq!(key, 7);
            }
        }
        assert_eq!(lsns, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_append_neither_logs_nor_syncs() {
        let dir = tempdir("empty");
        let shard = scratch_shard(&dir);
        let (v, last) = shard.append_with(|_txn| 42);
        assert_eq!((v, last), (42, 0));
        assert_eq!(shard.appended_lsn(), 0);
        shard.commit(); // nothing to cover — must not fsync
        assert_eq!(crate::WalStatsSnapshot::of(&shard.stats).fsyncs, 0);
        shard.close().unwrap();
        assert_eq!(std::fs::metadata(shard.path()).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_extend_ahead_is_counted_and_appends_grow_the_file() {
        let dir = tempdir("full");
        let shard = scratch_shard(&dir);
        shard.close().unwrap(); // drop the region prepared at mount
        {
            // A handle that cannot write stands in for a full disk, for
            // the length of one extend-ahead.
            let mut inner = shard.inner.lock().unwrap();
            let read_only = File::open(&shard.path).unwrap();
            let writable = std::mem::replace(&mut inner.file, read_only);
            inner.extend_ahead(35, &shard.stats);
            inner.file = writable;
            assert_eq!(
                inner.prepared, EXTEND_CHUNK,
                "no retry before the next chunk"
            );
        }
        let ((), last) = shard.append_with(|txn| {
            txn.set(7, 70);
        });
        shard.ensure_durable(last);
        let s = crate::WalStatsSnapshot::of(&shard.stats);
        assert_eq!((s.extends, s.extend_failures), (1, 1), "{s:?}");
        assert_eq!(s.prealloc_bytes, EXTEND_CHUNK, "the one at mount");
        assert_eq!(std::fs::metadata(&shard.path).unwrap().len(), s.bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_fsync_covers_concurrent_appenders() {
        let dir = tempdir("group");
        let shard = Arc::new(scratch_shard(&dir));
        let threads = 4;
        let per = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let shard = Arc::clone(&shard);
                s.spawn(move || {
                    for i in 0..per {
                        let k = (t as u64) << 32 | i as u64;
                        let ((), lsn) = shard.append_with(|txn| {
                            txn.set(k, i as u64);
                        });
                        shard.ensure_durable(lsn);
                    }
                });
            }
        });
        let total = (threads * per) as u64;
        assert_eq!(shard.appended_lsn(), total);
        assert_eq!(shard.durable_lsn(), total);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

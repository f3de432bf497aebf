//! Checkpoint-by-scan: stream the live index into per-shard sidecars.
//!
//! The checkpoint is **fuzzy**: it runs concurrently with writers, on
//! top of the streaming [`range`](optiql_index_api::ConcurrentIndex::range)
//! iterators — chunk-atomic snapshots under validated optimistic reads,
//! no lock held while the consumer (our file writer) runs. The classic
//! ordering argument makes this safe without quiescing anyone:
//!
//! * Each shard's `start_lsn` is captured **before** the scan begins,
//!   as `appended_lsn() + 1` at capture time.
//! * Any mutation the scan *misses* necessarily happened concurrently
//!   with or after the capture, so its redo record carries
//!   `lsn >= start_lsn` and replays on top of the checkpoint.
//! * Any mutation the scan *catches twice* (a value written before the
//!   scan reached its key, then again after) is harmless: replay is
//!   last-writer-wins and the later record also has `lsn >= start_lsn`.
//!
//! A checkpoint entry therefore may be stale; it can never be wrong
//! after the log tail replays. The file is written to a `.tmp` sibling,
//! fsynced, then atomically renamed over `shard-<i>.ckpt` — a crash
//! mid-checkpoint leaves the previous checkpoint intact.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::Bound;

use optiql_index_api::ConcurrentIndex;

use crate::record::{frame_ckpt_begin, frame_ckpt_end, frame_ckpt_entry};
use crate::Wal;

/// Per-shard checkpoint outcome.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: usize,
    /// Replay starts here: records with `lsn >= start_lsn` are applied
    /// on top of the checkpoint.
    pub start_lsn: u64,
    /// Entries written.
    pub entries: u64,
    /// File bytes written (frames, including header/footer).
    pub bytes: u64,
}

/// What a checkpoint pass wrote, shard by shard.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardCheckpoint>,
}

impl CheckpointReport {
    /// Total entries across shards.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.entries).sum()
    }
}

impl std::fmt::Display for CheckpointReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bytes: u64 = self.shards.iter().map(|s| s.bytes).sum();
        write!(
            f,
            "checkpointed {} entries across {} shards ({bytes} bytes)",
            self.entries(),
            self.shards.len()
        )
    }
}

struct ShardWriter {
    file: File,
    tmp: std::path::PathBuf,
    dst: std::path::PathBuf,
    buf: Vec<u8>,
    entries: u64,
    bytes: u64,
    start_lsn: u64,
}

const FLUSH_AT: usize = 64 << 10;

impl ShardWriter {
    fn drain(&mut self) -> std::io::Result<()> {
        self.file.write_all(&self.buf)?;
        self.bytes += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
}

/// See [`Wal::checkpoint`].
pub fn checkpoint<I>(wal: &Wal, index: &I) -> std::io::Result<CheckpointReport>
where
    I: ConcurrentIndex + ?Sized,
{
    // Capture every shard's replay horizon BEFORE the scan starts: a
    // mutation the scan misses must log at or after this LSN.
    let mut writers: Vec<ShardWriter> = (0..wal.shard_count())
        .map(|i| {
            let dst = crate::ckpt_path(wal.dir(), i);
            let tmp = dst.with_extension("ckpt.tmp");
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            let start_lsn = wal.shard(i).appended_lsn() + 1;
            let mut w = ShardWriter {
                file,
                tmp,
                dst,
                buf: Vec::with_capacity(FLUSH_AT + 512),
                entries: 0,
                bytes: 0,
                start_lsn,
            };
            frame_ckpt_begin(&mut w.buf, start_lsn);
            Ok(w)
        })
        .collect::<std::io::Result<_>>()?;

    for (k, v) in index.range(Bound::Unbounded, Bound::Unbounded) {
        let w = &mut writers[wal.router().route(k)];
        frame_ckpt_entry(&mut w.buf, k, v);
        w.entries += 1;
        if w.buf.len() >= FLUSH_AT {
            w.drain()?;
        }
    }

    let mut shards = Vec::with_capacity(writers.len());
    for (i, mut w) in writers.into_iter().enumerate() {
        frame_ckpt_end(&mut w.buf, w.entries);
        w.drain()?;
        w.file.sync_data()?;
        std::fs::rename(&w.tmp, &w.dst)?;
        shards.push(ShardCheckpoint {
            shard: i,
            start_lsn: w.start_lsn,
            entries: w.entries,
            bytes: w.bytes,
        });
    }
    // Make the renames themselves durable (best effort — not all
    // platforms let you fsync a directory handle).
    if let Ok(d) = File::open(wal.dir()) {
        let _ = d.sync_all();
    }
    Ok(CheckpointReport { shards })
}

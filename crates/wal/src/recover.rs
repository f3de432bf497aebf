//! Crash recovery: checkpoint load + log-tail replay, per shard.
//!
//! Per shard, recovery is strictly sequential and idempotent:
//!
//! 1. Read `shard-<i>.ckpt` if present. The checkpoint is accepted only
//!    when *fully* valid — `CkptBegin` header, every entry frame, a
//!    `CkptEnd` footer whose count matches, and a clean EOF. Anything
//!    less (a crash mid-checkpoint leaves a `.tmp`, never a partial
//!    `.ckpt`, but torn bytes can still happen) rejects the whole file:
//!    the shard falls back to full log replay and the report flags it.
//! 2. Apply the checkpoint entries (ascending chunks through
//!    `multi_insert` into an empty index).
//! 3. Replay the log in file order up to its end (below), applying
//!    `Set`→`insert` and `Del`→`remove` for records with
//!    `lsn >= start_lsn`; older records are already reflected in the
//!    checkpoint and are skipped. Runs of consecutive `Set`s are batched
//!    into one `multi_insert`, which is defined to apply in order, and
//!    every `Del` flushes the run before it. Replay is last-writer-wins,
//!    so re-running recovery is harmless.
//!
//! **Where a log ends.** A log file is longer than its log: the shard
//! writes into a zero-filled region prepared ahead of its cursor
//! ([`shard`](crate::shard)), and only a clean close trims it. So the
//! end is found, not read off the file size ([`scan_log`], shared by
//! mount and replay): the log is the longest prefix of whole frames
//! with valid CRCs whose LSNs continue the dense sequence. If nothing
//! but zeros follows, that is a *clean* end. Anything else — a partial
//! frame, a CRC mismatch, a well-formed frame with the wrong LSN — is a
//! torn tail, and [`Wal::open`] cuts it off before the first append:
//! left in place, a stale frame could line up behind a newer, equally
//! long one and be replayed after it.
//!
//! Shards are independent (disjoint key sets by routing), so they
//! recover in parallel — one thread per shard, the same layout the
//! sharded index uses for its own construction.
//!
//! The index being recovered into must be plain (NOT a
//! [`DurableIndex`](crate::DurableIndex) over the same wal): recovery
//! must not append to the log it is reading.

use std::io::Read;

use optiql_index_api::ConcurrentIndex;

use crate::record::{FrameCursor, Record, TornTail};
use crate::Wal;

/// Most records one replay `multi_insert` is handed: the server's
/// default `max_group`.
const REPLAY_BATCH: usize = 256;

/// Where [`scan_log`] found the end of a log image.
pub(crate) struct LogEnd {
    /// Length of the valid prefix.
    pub valid_len: u64,
    /// Last LSN in it (0 if it holds no redo record).
    pub last_lsn: u64,
    /// Set unless the prefix is followed by nothing or only zeros.
    pub torn: Option<TornTail>,
}

/// Walk the image of a log file, handing each redo record of the valid
/// prefix to `visit` in order, and say where that prefix ends (module
/// docs: "Where a log ends").
pub(crate) fn scan_log(bytes: &[u8], mut visit: impl FnMut(u64, Record)) -> LogEnd {
    let mut cur = FrameCursor::new(bytes);
    let mut last_lsn = 0u64;
    let torn = loop {
        let at = cur.offset();
        match cur.next_frame() {
            Ok(Some(rec)) => {
                let Some(lsn) = rec.lsn() else {
                    continue; // checkpoint record in a log: ignore
                };
                // The first LSN is taken as found: a log whose head was
                // truncated behind a checkpoint does not start at 1.
                if last_lsn != 0 && lsn != last_lsn + 1 {
                    break Some(TornTail {
                        offset: at,
                        reason: format!("lsn {lsn} does not follow lsn {last_lsn}"),
                    });
                }
                last_lsn = lsn;
                visit(lsn, rec);
            }
            Ok(None) => break None,
            Err(torn) => {
                let zeros = bytes[torn.offset as usize..].iter().all(|&b| b == 0);
                break (!zeros).then_some(torn);
            }
        }
    };
    LogEnd {
        valid_len: torn.as_ref().map_or(cur.offset(), |t| t.offset),
        last_lsn,
        torn,
    }
}

/// Per-shard recovery outcome.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// Entries applied from the checkpoint (0 if none/invalid).
    pub checkpoint_entries: u64,
    /// The checkpoint's `start_lsn` (1 when no checkpoint was usable —
    /// i.e. full log replay).
    pub checkpoint_start_lsn: u64,
    /// True when a checkpoint file existed but failed validation.
    pub checkpoint_invalid: bool,
    /// Log records applied (`lsn >= start_lsn`).
    pub replayed: u64,
    /// Log records skipped as already covered by the checkpoint.
    pub skipped: u64,
    /// Highest LSN seen in the log.
    pub last_lsn: u64,
    /// Torn tail encountered while reading the log (only possible when
    /// the file changed after [`Wal::open`], which cuts tails off).
    pub torn: Option<TornTail>,
}

/// What recovery did, shard by shard.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardRecovery>,
}

impl RecoveryReport {
    /// Total records applied (checkpoint entries + replayed log records).
    pub fn applied(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.checkpoint_entries + s.replayed)
            .sum()
    }

    /// True if any shard's log had a torn tail.
    pub fn any_torn(&self) -> bool {
        self.shards.iter().any(|s| s.torn.is_some())
    }

    /// True if any shard rejected an existing checkpoint file.
    pub fn any_checkpoint_invalid(&self) -> bool {
        self.shards.iter().any(|s| s.checkpoint_invalid)
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ckpt: u64 = self.shards.iter().map(|s| s.checkpoint_entries).sum();
        let replayed: u64 = self.shards.iter().map(|s| s.replayed).sum();
        let skipped: u64 = self.shards.iter().map(|s| s.skipped).sum();
        write!(
            f,
            "recovered {} shards: {ckpt} checkpoint entries + {replayed} log records ({skipped} skipped)",
            self.shards.len()
        )?;
        if self.any_checkpoint_invalid() {
            write!(f, ", invalid checkpoint(s) ignored")?;
        }
        if self.any_torn() {
            write!(f, ", torn tail(s) truncated")?;
        }
        Ok(())
    }
}

/// A fully validated checkpoint image.
struct LoadedCkpt {
    start_lsn: u64,
    entries: Vec<(u64, u64)>,
}

/// Read and validate `shard-<i>.ckpt`. `Ok(None)` when the file does not
/// exist; `Err(())` when it exists but is not fully valid.
fn load_ckpt(path: &std::path::Path) -> std::io::Result<Result<Option<LoadedCkpt>, ()>> {
    let mut bytes = Vec::new();
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Ok(None)),
        Err(e) => return Err(e),
    };
    let mut cur = FrameCursor::new(&bytes);
    let start_lsn = match cur.next_frame() {
        Ok(Some(Record::CkptBegin { start_lsn })) => start_lsn,
        _ => return Ok(Err(())),
    };
    let mut entries = Vec::new();
    loop {
        match cur.next_frame() {
            Ok(Some(Record::CkptEntry { key, value })) => entries.push((key, value)),
            Ok(Some(Record::CkptEnd { entries: n })) => {
                // Footer count must match, and nothing may follow it.
                if n != entries.len() as u64 || !matches!(cur.next_frame(), Ok(None)) {
                    return Ok(Err(()));
                }
                return Ok(Ok(Some(LoadedCkpt { start_lsn, entries })));
            }
            _ => return Ok(Err(())), // foreign record, torn frame, or EOF before footer
        }
    }
}

fn recover_shard<I>(wal: &Wal, shard: usize, index: &I) -> std::io::Result<ShardRecovery>
where
    I: ConcurrentIndex + ?Sized,
{
    let mut rep = ShardRecovery {
        shard,
        checkpoint_entries: 0,
        checkpoint_start_lsn: 1,
        checkpoint_invalid: false,
        replayed: 0,
        skipped: 0,
        last_lsn: 0,
        torn: None,
    };

    match load_ckpt(&crate::ckpt_path(wal.dir(), shard))? {
        Ok(Some(ckpt)) => {
            rep.checkpoint_start_lsn = ckpt.start_lsn;
            // A checkpoint is a scan: ascending, so a B+-tree takes each
            // chunk one descent per leaf.
            for chunk in ckpt.entries.chunks(REPLAY_BATCH) {
                index.multi_insert(chunk);
            }
            rep.checkpoint_entries = ckpt.entries.len() as u64;
        }
        Ok(None) => {}
        Err(()) => rep.checkpoint_invalid = true,
    }

    let mut bytes = Vec::new();
    std::fs::File::open(crate::log_path(wal.dir(), shard))?.read_to_end(&mut bytes)?;
    // Consecutive SETs go in as one `multi_insert`, which applies a batch
    // in order (a repeated key ends at its last write); a DEL flushes
    // them first, so log order is apply order.
    let mut sets: Vec<(u64, u64)> = Vec::with_capacity(REPLAY_BATCH);
    let flush = |sets: &mut Vec<(u64, u64)>| {
        if !sets.is_empty() {
            index.multi_insert(sets);
            sets.clear();
        }
    };
    let end = scan_log(&bytes, |lsn, rec| {
        if lsn < rep.checkpoint_start_lsn {
            rep.skipped += 1;
            return;
        }
        rep.replayed += 1;
        match rec {
            Record::Set { key, value, .. } => {
                sets.push((key, value));
                if sets.len() == REPLAY_BATCH {
                    flush(&mut sets);
                }
            }
            Record::Del { key, .. } => {
                flush(&mut sets);
                index.remove(key);
            }
            _ => unreachable!("scan_log visits redo records only"),
        }
    });
    flush(&mut sets);
    rep.last_lsn = end.last_lsn;
    rep.torn = end.torn;
    Ok(rep)
}

/// See [`Wal::recover_into`].
pub fn recover_into<I>(wal: &Wal, index: &I) -> std::io::Result<RecoveryReport>
where
    I: ConcurrentIndex + ?Sized,
{
    let n = wal.shard_count();
    if n == 1 {
        return Ok(RecoveryReport {
            shards: vec![recover_shard(wal, 0, index)?],
        });
    }
    let results: Vec<std::io::Result<ShardRecovery>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| s.spawn(move || recover_shard(wal, i, index)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut shards = Vec::with_capacity(n);
    for r in results {
        shards.push(r?);
    }
    Ok(RecoveryReport { shards })
}

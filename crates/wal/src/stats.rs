//! Cheap WAL counters, shared by every shard of a [`Wal`](crate::Wal).
//!
//! Relaxed atomics: these feed benchmarks and the server's shutdown
//! line, not correctness decisions.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters (one instance per [`Wal`](crate::Wal), all shards).
#[derive(Debug, Default)]
pub struct WalStats {
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    extends: AtomicU64,
    prealloc_bytes: AtomicU64,
    extend_failures: AtomicU64,
}

impl WalStats {
    pub(crate) fn on_append(&self, records: u64, bytes: u64) {
        self.records.fetch_add(records, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn on_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_extend(&self, bytes: u64) {
        self.extends.fetch_add(1, Ordering::Relaxed);
        self.prealloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn on_extend_failure(&self) {
        self.extend_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            extends: self.extends.load(Ordering::Relaxed),
            prealloc_bytes: self.prealloc_bytes.load(Ordering::Relaxed),
            extend_failures: self.extend_failures.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`WalStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Redo records appended (across all shards).
    pub records: u64,
    /// Frame bytes appended (headers included).
    pub bytes: u64,
    /// `fdatasync` calls issued by commits (the one inside each
    /// extend-ahead is not among them).
    pub fsyncs: u64,
    /// Extend-aheads that zero-filled and synced a region of log.
    pub extends: u64,
    /// Bytes those extend-aheads zero-filled. Not part of `bytes`:
    /// a clean close trims what was never overwritten.
    pub prealloc_bytes: u64,
    /// Extend-aheads that failed (disk full, I/O error); the appends
    /// that followed grew the file instead.
    pub extend_failures: u64,
}

impl WalStatsSnapshot {
    /// Counter-wise difference versus an earlier snapshot.
    pub fn since(&self, earlier: &WalStatsSnapshot) -> WalStatsSnapshot {
        WalStatsSnapshot {
            records: self.records.saturating_sub(earlier.records),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            extends: self.extends.saturating_sub(earlier.extends),
            prealloc_bytes: self.prealloc_bytes.saturating_sub(earlier.prealloc_bytes),
            extend_failures: self.extend_failures.saturating_sub(earlier.extend_failures),
        }
    }
}

//! The WAL's counters: the lanes of the one [`Counters`] block every shard
//! of a [`Wal`](crate::Wal) adds to, and the snapshot view of it.
//!
//! They feed benchmarks and the server's shutdown line, not correctness
//! decisions.

use optiql_index_api::Counters;

// Lanes, in [`WalStatsSnapshot`] field order.
pub(crate) const RECORDS: usize = 0;
pub(crate) const BYTES: usize = 1;
pub(crate) const FSYNCS: usize = 2;
pub(crate) const EXTENDS: usize = 3;
pub(crate) const PREALLOC_BYTES: usize = 4;
pub(crate) const EXTEND_FAILURES: usize = 5;
/// The block all shards of one wal share.
pub(crate) type WalCounters = Counters<6>;

/// Point-in-time view of a wal's counters.
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
    pub(crate) fn of(counters: &WalCounters) -> WalStatsSnapshot {
        let sum = counters.sum();
        WalStatsSnapshot {
            records: sum[RECORDS],
            bytes: sum[BYTES],
            fsyncs: sum[FSYNCS],
            extends: sum[EXTENDS],
            prealloc_bytes: sum[PREALLOC_BYTES],
            extend_failures: sum[EXTEND_FAILURES],
        }
    }

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

//! [`DurableIndex`]: any [`ConcurrentIndex`] plus the redo-logging
//! discipline.
//!
//! Every successful mutation routes to a wal shard by its key through
//! [`Wal::router`] — the index's own `Router` value, handed over in
//! `WalConfig` — so a wal shard's append mutex only serializes writers
//! that already serialize on the index shard underneath. The mutation is
//! applied *inside* [`LogShard::append_with`], making apply order equal
//! log order per shard (the recovery invariant). Scalar ops share one
//! `logged` helper; a batch is one `Router::fan_out`, the function the
//! sharded facade splits its own batches with.
//!
//! Conditional logging: `update` and `remove` log nothing when they
//! didn't change anything (key absent), so replaying the log can never
//! manufacture state the live index didn't have.
//!
//! Fsync placement follows the wal's [`FsyncPolicy`]:
//!
//! * `Always` — each mutation fsyncs before returning; `multi_insert`
//!   degrades to the scalar loop (one fsync per element — the honest
//!   per-op baseline the benchmarks compare against).
//! * `Group` / `None` — mutations only append. Under `Group` the mount
//!   point flushes: the server issues one [`Wal::commit_dirty`] per
//!   worker round before releasing acks; standalone users call
//!   [`DurableIndex::commit`] at their own batch boundaries.
//!
//! [`LogShard::append_with`]: crate::shard::LogShard::append_with

use std::ops::Bound;
use std::sync::Arc;

use optiql_index_api::{ConcurrentIndex, IndexStats, RangeItem, RangeIter, ReclaimHandle};

use crate::shard::Txn;
use crate::{FsyncPolicy, Wal};

/// A write-ahead-logged wrapper around an index. See the module docs.
pub struct DurableIndex<I> {
    inner: I,
    wal: Arc<Wal>,
}

impl<I: ConcurrentIndex> DurableIndex<I> {
    /// Wrap `inner` (already recovered — see [`Wal::recover_into`])
    /// with the logging discipline of `wal`.
    pub fn new(inner: I, wal: Arc<Wal>) -> Self {
        DurableIndex { inner, wal }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The wal underneath.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Group-commit flush point: fsync every shard with uncovered
    /// appends. Call after a batch of mutations whose acks are about to
    /// be released.
    pub fn commit(&self) {
        self.wal.commit_dirty();
    }

    /// Checkpoint the wrapped index through the wal (bounding future
    /// replay). Scans `inner` directly — checkpointing never logs.
    pub fn checkpoint(&self) -> std::io::Result<crate::CheckpointReport> {
        self.wal.checkpoint(&self.inner)
    }

    #[inline]
    fn always(&self) -> bool {
        matches!(self.wal.policy(), FsyncPolicy::Always)
    }

    /// One logged scalar mutation of `k`. `apply` gets the owning log's
    /// open append: it applies the mutation to `inner` *inside* the
    /// append (apply order = log order) and stages a record only for
    /// what it changed. Under `Always` the record is synced before the
    /// answer is returned.
    fn logged<R>(&self, k: u64, apply: impl FnOnce(&mut Txn<'_>) -> R) -> R {
        let shard = self.wal.shard(self.wal.router().route(k));
        let (res, last) = shard.append_with(apply);
        if self.always() {
            shard.ensure_durable(last); // no-op when nothing was staged
        }
        res
    }
}

impl<I: ConcurrentIndex> ConcurrentIndex for DurableIndex<I> {
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.logged(k, |txn| {
            let old = self.inner.insert(k, v);
            txn.set(k, v);
            old
        })
    }

    fn update(&self, k: u64, v: u64) -> Option<u64> {
        self.logged(k, |txn| {
            let old = self.inner.update(k, v);
            if old.is_some() {
                txn.set(k, v);
            }
            old
        })
    }

    fn lookup(&self, k: u64) -> Option<u64> {
        self.inner.lookup(k)
    }

    fn remove(&self, k: u64) -> Option<u64> {
        self.logged(k, |txn| {
            let old = self.inner.remove(k);
            if old.is_some() {
                txn.del(k);
            }
            old
        })
    }

    fn scan_chunk(&self, from: Option<u64>, limit: usize, out: &mut Vec<RangeItem>) -> Option<u64> {
        self.inner.scan_chunk(from, limit, out)
    }

    /// Forwarded, not inherited: `inner` may be a facade with its own.
    fn range(&self, start: Bound<u64>, end: Bound<u64>) -> RangeIter<'_> {
        self.inner.range(start, end)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn index_stats(&self) -> IndexStats {
        self.inner.index_stats()
    }

    fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.inner.multi_lookup(keys)
    }

    /// Batched insert with batched logging: one [`Router::fan_out`] over
    /// the wal's router, one `append_with` per touched log. Relative
    /// order is preserved inside each log's sub-batch, so per-key
    /// operation order is unchanged (equal keys share a log) — all the
    /// in-order duplicate-visibility contract depends on — and log order
    /// equals apply order within each log.
    ///
    /// [`Router::fan_out`]: optiql_sharded::Router::fan_out
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        if self.always() {
            // Per-op durability: the scalar loop, one fsync per element.
            return pairs.iter().map(|&(k, v)| self.insert(k, v)).collect();
        }
        self.wal.router().fan_out(
            pairs,
            |&(k, _)| k,
            |log, sub| {
                let append = |txn: &mut Txn<'_>| {
                    let res = self.inner.multi_insert(sub);
                    for &(k, v) in sub {
                        txn.set(k, v);
                    }
                    res
                };
                self.wal.shard(log).append_with(append).0
            },
        )
    }

    fn reclaim_handle(&self) -> Option<ReclaimHandle> {
        self.inner.reclaim_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalConfig;
    use optiql_index_api::model::ModelIndex;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("optiql-wal-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn mount(dir: &PathBuf, policy: FsyncPolicy) -> DurableIndex<ModelIndex> {
        let wal = Arc::new(
            Wal::open(WalConfig {
                policy,
                ..WalConfig::new(dir)
            })
            .unwrap(),
        );
        DurableIndex::new(ModelIndex::new(), wal)
    }

    fn recovered(dir: &PathBuf) -> (ModelIndex, crate::RecoveryReport) {
        let wal = Wal::open(WalConfig::new(dir)).unwrap();
        let fresh = ModelIndex::new();
        let rep = wal.recover_into(&fresh).unwrap();
        (fresh, rep)
    }

    #[test]
    fn logged_mutations_recover() {
        let dir = tempdir("basic");
        {
            let ix = mount(&dir, FsyncPolicy::Group);
            assert_eq!(ix.insert(1, 10), None);
            assert_eq!(ix.insert(2, 20), None);
            assert_eq!(ix.update(2, 21), Some(20));
            assert_eq!(ix.remove(1), Some(10));
            assert_eq!(ix.insert(3, 30), None);
            ix.commit();
        }
        let (fresh, rep) = recovered(&dir);
        assert_eq!(rep.applied(), 5);
        assert_eq!(fresh.lookup(1), None);
        assert_eq!(fresh.lookup(2), Some(21));
        assert_eq!(fresh.lookup(3), Some(30));
        assert_eq!(fresh.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn noop_update_and_remove_log_nothing() {
        let dir = tempdir("noop");
        {
            let ix = mount(&dir, FsyncPolicy::Group);
            assert_eq!(ix.update(77, 1), None);
            assert_eq!(ix.remove(77), None);
            ix.commit();
            assert_eq!(ix.wal().stats().records, 0);
            assert_eq!(ix.wal().stats().fsyncs, 0);
        }
        let (fresh, rep) = recovered(&dir);
        assert_eq!(rep.applied(), 0);
        assert!(fresh.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_insert_matches_scalar_semantics_and_recovers() {
        let dir = tempdir("multi");
        let pairs: Vec<(u64, u64)> = vec![(5, 50), (6, 60), (5, 51), (7, 70), (5, 52)];
        {
            let ix = mount(&dir, FsyncPolicy::Group);
            let res = ix.multi_insert(&pairs);
            // Duplicate keys see the value written earlier in the batch.
            assert_eq!(res, vec![None, None, Some(50), None, Some(51)]);
            ix.commit();
        }
        let (fresh, _) = recovered(&dir);
        assert_eq!(fresh.lookup(5), Some(52));
        assert_eq!(fresh.lookup(6), Some(60));
        assert_eq!(fresh.lookup(7), Some(70));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_replay_keeps_log_order_around_dels() {
        // Replay hands runs of SETs to `multi_insert`: runs longer than one
        // replay batch, a key rewritten inside a run and across runs, and
        // DELs that must land between the SETs around them.
        let dir = tempdir("replay-order");
        let mut want = std::collections::BTreeMap::new();
        let records = {
            let ix = mount(&dir, FsyncPolicy::Group);
            for i in 1..=1000u64 {
                let key = i % 7;
                if i % 97 == 0 {
                    assert_eq!(ix.remove(key), want.remove(&key));
                } else {
                    assert_eq!(ix.insert(key, i), want.insert(key, i));
                }
            }
            // A DEL as a key's last record, behind a SET of it in the run.
            assert_eq!(ix.remove(3), want.remove(&3));
            ix.commit();
            ix.wal().stats().records
        };
        let (fresh, rep) = recovered(&dir);
        assert_eq!(rep.shards[0].replayed, records);
        for key in 0..7 {
            assert_eq!(fresh.lookup(key), want.get(&key).copied(), "key {key}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn always_policy_fsyncs_per_mutation() {
        let dir = tempdir("always");
        let ix = mount(&dir, FsyncPolicy::Always);
        ix.insert(1, 10);
        ix.insert(2, 20);
        ix.remove(1);
        let s = ix.wal().stats();
        assert_eq!(s.records, 3);
        assert_eq!(s.fsyncs, 3);
        // And every shard is clean: nothing left to commit.
        ix.commit();
        assert_eq!(ix.wal().stats().fsyncs, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_policy_defers_to_commit() {
        let dir = tempdir("group");
        let ix = mount(&dir, FsyncPolicy::Group);
        for k in 0..100u64 {
            ix.insert(k, k * 10);
        }
        assert_eq!(ix.wal().stats().fsyncs, 0);
        ix.commit();
        let s = ix.wal().stats();
        assert_eq!(s.records, 100);
        assert_eq!(s.fsyncs, 1, "one fsync covers the whole batch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let dir = tempdir("ckpt");
        {
            let ix = mount(&dir, FsyncPolicy::Group);
            for k in 0..50u64 {
                ix.insert(k, k);
            }
            let ck = ix.checkpoint().unwrap();
            assert_eq!(ck.entries(), 50);
            // Post-checkpoint mutations replay on top.
            ix.insert(100, 1000);
            ix.remove(0);
            ix.commit();
        }
        let (fresh, rep) = recovered(&dir);
        assert_eq!(rep.shards[0].checkpoint_entries, 50);
        assert_eq!(rep.shards[0].skipped, 50, "pre-checkpoint records skipped");
        assert_eq!(rep.shards[0].replayed, 2);
        assert_eq!(fresh.len(), 50); // 50 - removed(0) + inserted(100)
        assert_eq!(fresh.lookup(100), Some(1000));
        assert_eq!(fresh.lookup(0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

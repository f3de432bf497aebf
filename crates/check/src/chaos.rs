//! The chaos layer: seed-replayable schedule perturbation.
//!
//! Two cooperating pieces:
//!
//! * **Lock-layer injection** — `optiql` is built with its `chaos`
//!   feature here, so every `stats`-event site inside the locks and
//!   trees (acquire, handover, opportunistic-read admission, validation
//!   failure, OLC restart, AOR window close, batch pipeline round) calls
//!   [`optiql::chaos::perturb`]. That is where the known races lived;
//!   perturbing *there* stretches exactly the windows a preempting
//!   scheduler would have to hit by luck.
//! * **[`ChaosIndex`]** — an operation-level wrapper that jitters before
//!   and after each whole index call, shifting how worker threads'
//!   operation streams interleave (coarse-grained phase, vs. the
//!   fine-grained lock-layer phase).
//!
//! Both draw from the same per-thread SplitMix64 streams seeded from
//! `(run seed, worker slot)` via [`optiql::chaos`], so one `--seed`
//! value pins the entire perturbation schedule.

use std::ops::Bound;

use optiql_index_api::{ConcurrentIndex, IndexStats, RangeItem, RangeIter};

pub use optiql::chaos::{configure, disable, enabled, register_thread};

/// Operation-level chaos wrapper: jitters the calling thread before and
/// after every forwarded operation (when chaos is enabled — see
/// [`configure`]). Transparent otherwise. The jitter class derives from
/// the key, so the perturbation schedule is seed-stable.
pub struct ChaosIndex<I> {
    inner: I,
}

impl<I> ChaosIndex<I> {
    /// Wrap `inner`.
    pub fn new(inner: I) -> Self {
        ChaosIndex { inner }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    #[inline]
    fn around<T>(&self, class: u64, f: impl FnOnce(&I) -> T) -> T {
        optiql::chaos::jitter(class);
        let out = f(&self.inner);
        optiql::chaos::jitter(class ^ 0x5555_5555_5555_5555);
        out
    }
}

impl<I: ConcurrentIndex> ConcurrentIndex for ChaosIndex<I> {
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.around(k.wrapping_add(1), |i| i.insert(k, v))
    }
    fn update(&self, k: u64, v: u64) -> Option<u64> {
        self.around(k.wrapping_add(2), |i| i.update(k, v))
    }
    fn lookup(&self, k: u64) -> Option<u64> {
        self.around(k.wrapping_add(3), |i| i.lookup(k))
    }
    fn remove(&self, k: u64) -> Option<u64> {
        self.around(k.wrapping_add(4), |i| i.remove(k))
    }
    fn scan_chunk(&self, from: Option<u64>, limit: usize, out: &mut Vec<RangeItem>) -> Option<u64> {
        let class = from.unwrap_or(0).wrapping_add(5);
        self.around(class, |i| i.scan_chunk(from, limit, out))
    }
    /// Streaming chaos: jitter when the iterator is opened, then once per
    /// yielded entry — stretching the windows *between* per-chunk
    /// revalidations, which is exactly where a scan races structural
    /// changes.
    fn range(&self, start: Bound<u64>, end: Bound<u64>) -> RangeIter<'_> {
        let class = match start {
            Bound::Included(k) | Bound::Excluded(k) => k.wrapping_add(6),
            Bound::Unbounded => 6,
        };
        optiql::chaos::jitter(class);
        let inner = self.inner.range(start, end);
        RangeIter::new(inner.inspect(move |_| optiql::chaos::jitter(class ^ 0x5555_5555_5555_5555)))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn index_stats(&self) -> IndexStats {
        self.inner.index_stats()
    }
    fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.around(keys.len() as u64, |i| i.multi_lookup(keys))
    }
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        self.around(pairs.len() as u64, |i| i.multi_insert(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql_index_api::model::ModelIndex;

    #[test]
    fn chaos_wrapper_is_transparent() {
        configure(7);
        register_thread(0);
        let c = ChaosIndex::new(ModelIndex::new());
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.lookup(1), Some(10));
        assert_eq!(c.update(1, 11), Some(10));
        assert_eq!(c.multi_insert(&[(2, 20), (2, 21)]), vec![None, Some(20)]);
        assert_eq!(c.multi_lookup(&[1, 2, 3]), vec![Some(11), Some(21), None]);
        assert_eq!(c.range(Bound::Unbounded, Bound::Unbounded).count(), 2);
        assert_eq!(c.remove(2), Some(21));
        assert_eq!(c.len(), 1);
        disable();
    }
}

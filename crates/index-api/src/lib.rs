//! # optiql-index-api — the index-agnostic concurrent-index surface
//!
//! Both paper indexes (`optiql-btree`, `optiql-art`) expose the same
//! `u64` → `u64` interface; this crate owns that interface so everything
//! above the trees — the evaluation crate, the sharded facade, examples,
//! tests — is written once against [`ConcurrentIndex`] and runs unmodified
//! over any index (or composition of indexes).
//!
//! Keys are `u64`, as on the wire and in the paper's evaluation (DESIGN
//! §9). Range access has **one primitive an index writes**,
//! [`ConcurrentIndex::scan_chunk`]: copy out a bounded run of entries (a
//! B+-tree leaf, an ART subtree slice) under a validated optimistic read
//! and name the key to resume from. Callers read a range through one
//! driver of that primitive, [`ConcurrentIndex::range`], written once
//! here, so a scan never holds a lock while its consumer runs and a
//! version conflict costs one chunk's re-read.
//!
//! The workspace layering is strictly one-directional:
//!
//! ```text
//! optiql (core: locks + olc protocol)
//!    └── optiql-index-api (this crate: the trait)
//!           ├── optiql-btree, optiql-art (indexes implement it)
//!           ├── optiql-sharded (facade: ShardedIndex<I: ConcurrentIndex>)
//!           └── optiql-bench (consumer: workload drivers + bench targets)
//! ```
//!
//! Index crates implement the trait with [`impl_concurrent_index!`], which
//! delegates every required method to the inherent method of the same
//! name — keeping the two impl blocks from drifting apart, as the previous
//! hand-rolled copies in the benchmark driver did.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::ops::Bound;

pub use optiql::counters::Counters;
pub use optiql::olc::IndexStats;
pub use optiql_reclaim::Handle as ReclaimHandle;

/// One entry a range iterator yields.
pub type RangeItem = (u64, u64);

/// A streaming range scan over an index, in ascending key order.
///
/// Entries are produced lazily, one [`ConcurrentIndex::scan_chunk`] at a
/// time — so no lock is held while the consumer runs, and a version
/// conflict costs one chunk's re-read, not the whole scan.
///
/// Consistency contract (see DESIGN.md §9.2): within one chunk the
/// entries are an atomic snapshot; across chunks the scan is a
/// lock-free traversal — every key present for the whole scan is
/// yielded exactly once, keys inserted or removed concurrently may or
/// may not appear, and no key is ever yielded twice.
pub struct RangeIter<'a> {
    inner: Box<dyn Iterator<Item = RangeItem> + Send + 'a>,
}

impl<'a> RangeIter<'a> {
    /// Wrap a concrete iterator.
    pub fn new(inner: impl Iterator<Item = RangeItem> + Send + 'a) -> Self {
        RangeIter {
            inner: Box::new(inner),
        }
    }

    /// An iterator over nothing (degenerate bounds).
    pub fn empty() -> Self {
        RangeIter {
            inner: Box::new(std::iter::empty()),
        }
    }
}

impl Iterator for RangeIter<'_> {
    type Item = RangeItem;

    #[inline]
    fn next(&mut self) -> Option<RangeItem> {
        self.inner.next()
    }
}

/// True when the interval described by `start`/`end` can contain a key
/// (`false` lets implementations return [`RangeIter::empty`] without
/// descending — and keeps `BTreeMap::range`'s bound panics unreachable).
pub fn bounds_nonempty(start: &Bound<u64>, end: &Bound<u64>) -> bool {
    match (start, end) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
        (Bound::Included(s), Bound::Included(e)) => s <= e,
        (Bound::Included(s), Bound::Excluded(e))
        | (Bound::Excluded(s), Bound::Included(e))
        | (Bound::Excluded(s), Bound::Excluded(e)) => s < e,
    }
}

/// True when `k` satisfies the lower bound `start`.
#[inline]
pub fn key_above_start(k: &u64, start: &Bound<u64>) -> bool {
    match start {
        Bound::Unbounded => true,
        Bound::Included(s) => k >= s,
        Bound::Excluded(s) => k > s,
    }
}

/// True when `k` satisfies the upper bound `end`.
#[inline]
pub fn key_below_end(k: &u64, end: &Bound<u64>) -> bool {
    match end {
        Bound::Unbounded => true,
        Bound::Included(e) => k <= e,
        Bound::Excluded(e) => k < e,
    }
}

/// [`ConcurrentIndex::scan_chunk`] for an index that can already walk its
/// entries in key order (a model, a register array, a merge of streams):
/// the chunk is the next `limit` entries of `ascending`, the resume key
/// the one after them.
pub fn chunk_of(
    mut ascending: impl Iterator<Item = RangeItem>,
    limit: usize,
    out: &mut Vec<RangeItem>,
) -> Option<u64> {
    out.clear();
    out.extend(ascending.by_ref().take(limit));
    ascending.next().map(|(k, _)| k)
}

/// Entries a stream asks [`ConcurrentIndex::scan_chunk`] for at a time.
/// It cannot know when its consumer will stop, so the chunk stays small:
/// an ART chunk this size validates under contention and over-reads
/// little, and a default-sized B+-tree leaf is never cut.
const SCAN_CHUNK: usize = 64;

/// The iterator behind the provided [`ConcurrentIndex::range`]: drains
/// one chunk, then asks the index for the next at the resume key. One
/// buffer serves the whole scan.
struct Chunks<'a, I: ?Sized> {
    index: &'a I,
    /// The current chunk, **descending**: `pop` hands entries out in key
    /// order without shifting, and the next fill reuses the allocation.
    chunk: Vec<RangeItem>,
    /// `Some(from)` — another chunk may follow, read at `from` (`None`:
    /// the smallest key); `None` — the scan ends when `chunk` drains.
    next: Option<Option<u64>>,
    start: Bound<u64>,
    end: Bound<u64>,
}

impl<I: ConcurrentIndex + ?Sized> Iterator for Chunks<'_, I> {
    type Item = RangeItem;

    fn next(&mut self) -> Option<RangeItem> {
        loop {
            if let Some(entry) = self.chunk.pop() {
                return Some(entry);
            }
            let from = self.next.take()?;
            let resume = self.index.scan_chunk(from, SCAN_CHUNK, &mut self.chunk);
            // Keys ascend, so the end bound cuts a suffix of one chunk and
            // ends the scan there; so does a resume key already past it.
            let keep = self
                .chunk
                .partition_point(|(k, _)| key_below_end(k, &self.end));
            if keep == self.chunk.len() {
                self.next = resume.filter(|k| key_below_end(k, &self.end)).map(Some);
            }
            self.chunk.truncate(keep);
            self.chunk.reverse();
            // Chunks start at the start key: only an excluded start key
            // itself can sit below the bound, and only in front.
            if matches!(self.chunk.last(), Some((k, _)) if !key_above_start(k, &self.start)) {
                self.chunk.pop();
            }
        }
    }
}

/// A concurrent ordered index from `u64` keys to `u64` values: the
/// interface both paper indexes (and any facade over them) expose.
///
/// All methods take `&self`: implementations synchronize internally (the
/// whole point of the lock protocols underneath). [`scan_chunk`] is
/// **required** — an index without range support must say so explicitly
/// instead of silently reporting zero, which previously made YCSB-E
/// numbers look plausible while scanning nothing — and it is the only
/// range code an index writes: [`range`], provided here, is its one
/// driver.
///
/// [`scan_chunk`]: ConcurrentIndex::scan_chunk
/// [`range`]: ConcurrentIndex::range
pub trait ConcurrentIndex: Send + Sync {
    /// Insert or overwrite a key; returns the previous value if present.
    fn insert(&self, k: u64, v: u64) -> Option<u64>;

    /// Update an existing key; returns the previous value, `None` if the
    /// key is absent (no insert happens).
    fn update(&self, k: u64, v: u64) -> Option<u64>;

    /// Point lookup.
    fn lookup(&self, k: u64) -> Option<u64>;

    /// Remove a key; returns the removed value.
    fn remove(&self, k: u64) -> Option<u64>;

    /// The range primitive: replace the contents of `out` with up to
    /// `limit` entries whose keys are ≥ `from` (`None`: from the smallest
    /// key), and return the key to resume from, `None` once nothing lies
    /// beyond the chunk. The contract every caller may rely on:
    ///
    /// * a chunk ascends and is **one validated read**: a tree takes it
    ///   under one optimistic descent (a B+-tree leaf is an atomic
    ///   snapshot) and `out` is cleared on entry and on every internal
    ///   restart, so a failed validation never leaks a torn chunk; a
    ///   facade's chunk is a slice of its merge of such chunks;
    /// * an index may deliver fewer than `limit` entries — even none —
    ///   and still name a resume key (its natural unit, a leaf, ended);
    /// * the resume key is **above every key delivered and at or below
    ///   every key still to come**, so calling again with it neither
    ///   loses nor repeats an entry and always advances. In particular a
    ///   chunk cut short by `limit` resumes at the first key it left
    ///   behind, not at the end of the leaf it was reading.
    ///
    /// Across chunks the scan is a lock-free traversal (see
    /// [`RangeIter`]). One chunk is one descent and counts as one
    /// operation in [`index_stats`](ConcurrentIndex::index_stats).
    fn scan_chunk(&self, from: Option<u64>, limit: usize, out: &mut Vec<RangeItem>) -> Option<u64>;

    /// Stream the entries whose keys fall within `start..end`, in
    /// ascending key order, without materializing the result set. See
    /// [`RangeIter`] for the concurrency contract. A wrapper forwards
    /// this only when it changes the stream or sits above an index that
    /// overrides it.
    fn range(&self, start: Bound<u64>, end: Bound<u64>) -> RangeIter<'_> {
        if !bounds_nonempty(&start, &end) {
            return RangeIter::empty();
        }
        let first = match start {
            Bound::Included(s) | Bound::Excluded(s) => Some(s),
            Bound::Unbounded => None,
        };
        RangeIter::new(Chunks {
            index: self,
            chunk: Vec::new(),
            next: Some(first),
            start,
            end,
        })
    }

    /// Number of entries (maintained counter; exact when quiescent).
    fn len(&self) -> usize;

    /// True iff the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unified operation/restart accounting
    /// ([`optiql::olc::IndexStats`]). Composite indexes aggregate their
    /// parts; plain wrappers may return the default.
    fn index_stats(&self) -> IndexStats {
        IndexStats::default()
    }

    /// Batched point lookups: `result[i] == self.lookup(keys[i])`, order
    /// preserved.
    ///
    /// The default is a scalar loop, so every implementation keeps
    /// working; the paper indexes override it with a software-pipelined
    /// descent that interleaves ~8 lookups round-robin, prefetching each
    /// op's next node before switching to the others, so one batch keeps
    /// several cache misses outstanding (memory-level parallelism).
    fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|&k| self.lookup(k)).collect()
    }

    /// Batched inserts, equivalent to applying `pairs` **in order**:
    /// `result[i]` is what `self.insert(pairs[i].0, pairs[i].1)` would
    /// have returned at that point in the sequence (so a duplicate key
    /// later in the batch sees the value written earlier in the batch).
    ///
    /// Default is a scalar loop; pipelined overrides must preserve the
    /// in-order semantics.
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        pairs.iter().map(|&(k, v)| self.insert(k, v)).collect()
    }

    /// The epoch-reclamation domain guarding this index's node frees, if
    /// it has one. No index in this workspace has: both trees free an
    /// unlinked node straight into its slab (`optiql::slab`), so every
    /// index answers `None`. The method stays for the callers in
    /// `benchmark/`, which sample a domain's backlog (`embed.rs`) and pin
    /// one across a replayed burst (`ledger.rs`) when there is one.
    fn reclaim_handle(&self) -> Option<ReclaimHandle> {
        None
    }
}

/// Implement [`ConcurrentIndex`] for an index type by delegating to its
/// inherent methods (`insert`, `update`, `lookup`, `remove`,
/// `scan_chunk`, `len`, `index_stats`, `multi_*`).
/// `range` is the trait's provided driver.
///
/// ```ignore
/// optiql_index_api::impl_concurrent_index! {
///     impl [L: optiql::IndexLock] for crate::ArtTree<L>
/// }
/// ```
#[macro_export]
macro_rules! impl_concurrent_index {
    (impl [$($generics:tt)*] for $ty:ty) => {
        impl<$($generics)*> $crate::ConcurrentIndex for $ty {
            #[inline]
            fn insert(&self, k: u64, v: u64) -> Option<u64> {
                <$ty>::insert(self, k, v)
            }
            #[inline]
            fn update(&self, k: u64, v: u64) -> Option<u64> {
                <$ty>::update(self, k, v)
            }
            #[inline]
            fn lookup(&self, k: u64) -> Option<u64> {
                <$ty>::lookup(self, k)
            }
            #[inline]
            fn remove(&self, k: u64) -> Option<u64> {
                <$ty>::remove(self, k)
            }
            #[inline]
            fn scan_chunk(
                &self,
                from: Option<u64>,
                limit: usize,
                out: &mut Vec<$crate::RangeItem>,
            ) -> Option<u64> {
                <$ty>::scan_chunk(self, from, limit, out)
            }
            #[inline]
            fn len(&self) -> usize {
                <$ty>::len(self)
            }
            #[inline]
            fn index_stats(&self) -> $crate::IndexStats {
                <$ty>::index_stats(self)
            }
            #[inline]
            fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
                <$ty>::multi_lookup(self, keys)
            }
            #[inline]
            fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
                <$ty>::multi_insert(self, pairs)
            }
        }
    };
}

/// Delegate every trait method through a pointer-like wrapper: a shared
/// reference or an `Arc` of an index is itself an index, so drivers and
/// composing wrappers (recorders, chaos layers, shard facades) can hold
/// `Arc<dyn ConcurrentIndex>` without a bespoke newtype each.
macro_rules! impl_deref_index {
    ($(#[$meta:meta])* impl [$($generics:tt)*] for $ty:ty) => {
        $(#[$meta])*
        impl<$($generics)*> ConcurrentIndex for $ty {
            #[inline]
            fn insert(&self, k: u64, v: u64) -> Option<u64> {
                (**self).insert(k, v)
            }
            #[inline]
            fn update(&self, k: u64, v: u64) -> Option<u64> {
                (**self).update(k, v)
            }
            #[inline]
            fn lookup(&self, k: u64) -> Option<u64> {
                (**self).lookup(k)
            }
            #[inline]
            fn remove(&self, k: u64) -> Option<u64> {
                (**self).remove(k)
            }
            #[inline]
            fn scan_chunk(
                &self,
                from: Option<u64>,
                limit: usize,
                out: &mut Vec<RangeItem>,
            ) -> Option<u64> {
                (**self).scan_chunk(from, limit, out)
            }
            #[inline]
            fn range(&self, start: Bound<u64>, end: Bound<u64>) -> RangeIter<'_> {
                (**self).range(start, end)
            }
            #[inline]
            fn len(&self) -> usize {
                (**self).len()
            }
            #[inline]
            fn is_empty(&self) -> bool {
                (**self).is_empty()
            }
            #[inline]
            fn index_stats(&self) -> IndexStats {
                (**self).index_stats()
            }
            #[inline]
            fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
                (**self).multi_lookup(keys)
            }
            #[inline]
            fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
                (**self).multi_insert(pairs)
            }
        }
    };
}

impl_deref_index! {
    /// A shared reference to an index is an index.
    impl ['a, T: ConcurrentIndex + ?Sized] for &'a T
}
impl_deref_index! {
    /// An `Arc` of an index (including `Arc<dyn ConcurrentIndex>`) is an
    /// index.
    impl [T: ConcurrentIndex + ?Sized] for std::sync::Arc<T>
}
impl_deref_index! {
    /// A box of an index is an index.
    impl [T: ConcurrentIndex + ?Sized] for Box<T>
}

/// Reference implementation for models and tests: a mutex-protected
/// `BTreeMap`. Sequentially consistent, obviously correct, slow — exactly
/// what a differential test wants on the other side of the diff.
pub mod model {
    use super::{bounds_nonempty, chunk_of, ConcurrentIndex, RangeItem};
    use std::collections::BTreeMap;
    use std::ops::Bound;
    use std::sync::Mutex;

    /// `Mutex<BTreeMap>` as a [`ConcurrentIndex`].
    #[derive(Debug, Default)]
    pub struct ModelIndex {
        map: Mutex<BTreeMap<u64, u64>>,
    }

    impl ModelIndex {
        /// An empty model.
        pub fn new() -> Self {
            Self::default()
        }

        /// Entries with keys ≥ `start`, up to `limit`, in key order.
        pub fn scan(&self, start: u64, limit: usize) -> Vec<RangeItem> {
            let map = self.map.lock().unwrap();
            map.range(start..)
                .take(limit)
                .map(|(&k, &v)| (k, v))
                .collect()
        }

        /// Atomic snapshot of the entries within `start..end`, in key
        /// order (the model-side answer a real index's `range` is diffed
        /// against).
        pub fn scan_bounds(&self, start: Bound<u64>, end: Bound<u64>) -> Vec<RangeItem> {
            if !bounds_nonempty(&start, &end) {
                return Vec::new();
            }
            let map = self.map.lock().unwrap();
            map.range((start, end)).map(|(&k, &v)| (k, v)).collect()
        }
    }

    impl ConcurrentIndex for ModelIndex {
        fn insert(&self, k: u64, v: u64) -> Option<u64> {
            self.map.lock().unwrap().insert(k, v)
        }
        fn update(&self, k: u64, v: u64) -> Option<u64> {
            let mut m = self.map.lock().unwrap();
            m.get_mut(&k).map(|slot| std::mem::replace(slot, v))
        }
        fn lookup(&self, k: u64) -> Option<u64> {
            self.map.lock().unwrap().get(&k).copied()
        }
        fn remove(&self, k: u64) -> Option<u64> {
            self.map.lock().unwrap().remove(&k)
        }
        /// Exactly `limit` entries while that many remain, resuming at
        /// the next key in the map: the contract at its tightest.
        fn scan_chunk(
            &self,
            from: Option<u64>,
            limit: usize,
            out: &mut Vec<RangeItem>,
        ) -> Option<u64> {
            let map = self.map.lock().unwrap();
            let rest = map.range(from.unwrap_or(0)..);
            chunk_of(rest.map(|(&k, &v)| (k, v)), limit, out)
        }
        fn len(&self) -> usize {
            self.map.lock().unwrap().len()
        }
    }
}
#[cfg(test)]
mod tests {
    use super::model::ModelIndex;
    use super::*;

    #[test]
    fn model_index_implements_the_trait_honestly() {
        let m = ModelIndex::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.update(2, 20), None, "update never inserts");
        assert_eq!(m.lookup(1), Some(11));
        assert_eq!(m.len(), 1);
        m.insert(5, 50);
        m.insert(3, 30);
        let count = |start, limit| {
            m.range(Bound::Included(start), Bound::Unbounded)
                .take(limit)
                .count()
        };
        assert_eq!(count(2, 10), 2);
        assert_eq!(count(0, 2), 2, "take caps the count");
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.index_stats(), IndexStats::default());
    }

    #[test]
    fn default_multi_methods_match_scalar_semantics() {
        let m = ModelIndex::new();
        // Duplicate key within the batch: the second insert must observe
        // the first one's value, and the lookup batch must be ordered.
        let inserted = m.multi_insert(&[(1, 10), (2, 20), (1, 11)]);
        assert_eq!(inserted, vec![None, None, Some(10)]);
        let got = m.multi_lookup(&[2, 9, 1, 1]);
        assert_eq!(got, vec![Some(20), None, Some(11), Some(11)]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn trait_objects_work() {
        let m = ModelIndex::new();
        let dynref: &dyn ConcurrentIndex = &m;
        dynref.insert(7, 70);
        assert_eq!(dynref.lookup(7), Some(70));
        assert!(!dynref.is_empty());
        assert_eq!(
            dynref.range(Bound::Unbounded, Bound::Unbounded).count(),
            1,
            "range must stay object-safe"
        );
    }

    #[test]
    fn pointer_wrappers_are_indexes_too() {
        let arc: std::sync::Arc<dyn ConcurrentIndex> = std::sync::Arc::new(ModelIndex::new());
        arc.insert(1, 10);
        assert_eq!(ConcurrentIndex::lookup(&arc, 1), Some(10));
        let by_ref: &dyn ConcurrentIndex = &arc;
        assert_eq!(by_ref.len(), 1);
        assert_eq!(by_ref.range(Bound::Unbounded, Bound::Unbounded).count(), 1);
        let boxed: Box<dyn ConcurrentIndex> = Box::new(ModelIndex::new());
        assert_eq!(
            boxed.multi_insert(&[(2, 20), (2, 21)]),
            vec![None, Some(20)]
        );
        assert_eq!(boxed.range(Bound::Unbounded, Bound::Unbounded).count(), 1);
    }

    #[test]
    fn model_range_respects_every_bound_shape() {
        let m = ModelIndex::new();
        for k in [1u64, 3, 5, 7, 9] {
            m.insert(k, k * 10);
        }
        let collect = |s, e| -> Vec<u64> { m.range(s, e).map(|(k, _)| k).collect() };
        assert_eq!(
            collect(Bound::Unbounded, Bound::Unbounded),
            vec![1, 3, 5, 7, 9]
        );
        assert_eq!(
            collect(Bound::Included(3), Bound::Excluded(9)),
            vec![3, 5, 7]
        );
        assert_eq!(collect(Bound::Excluded(3), Bound::Included(7)), vec![5, 7]);
        assert_eq!(collect(Bound::Included(4), Bound::Included(4)), vec![]);
        // Degenerate bounds must not panic (BTreeMap::range would).
        assert_eq!(collect(Bound::Included(9), Bound::Included(1)), vec![]);
        assert_eq!(collect(Bound::Excluded(5), Bound::Excluded(5)), vec![]);
    }

    #[test]
    fn bound_helpers_agree_with_btreemap() {
        assert!(bounds_nonempty(&Bound::Included(1), &Bound::Included(1)));
        assert!(!bounds_nonempty(&Bound::Excluded(1), &Bound::Excluded(1)));
        assert!(!bounds_nonempty(&Bound::Included(2), &Bound::Included(1)));
        assert!(bounds_nonempty(&Bound::Unbounded, &Bound::Unbounded));
        assert!(key_above_start(&5, &Bound::Excluded(4)));
        assert!(!key_above_start(&4, &Bound::Excluded(4)));
        assert!(key_below_end(&5, &Bound::Included(5)));
        assert!(!key_below_end(&5, &Bound::Excluded(5)));
    }
}

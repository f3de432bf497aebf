//! B+-tree node layout.
//!
//! Memory-optimized B+-trees use small nodes (256 bytes by default, paper
//! §6.1/§7.1) with the lock embedded in the node header. Because optimistic
//! readers scan node contents *concurrently with writers*, every mutable
//! cell is an atomic: that is free of UB, and any torn/inconsistent
//! combination a reader may assemble is discarded by lock-version
//! validation. Keys are `u64`s in fixed `[AtomicU64]` arrays that the
//! branchless search kernel streams; nothing in a node publishes a
//! pointee, so every access is `Relaxed`.
//!
//! Layout conventions:
//!
//! * A leaf holds up to `LC` sorted `(key, value)` pairs.
//! * An inner node holds `count` sorted separator keys and `count + 1`
//!   children; capacity is `IC - 1` keys / `IC` children. `children[i]`
//!   covers keys `< keys[i]`; `children[count]` covers the rest. Separator
//!   `keys[i]` is the smallest key reachable through `children[i + 1]`.
//! * `NodeBase::leaf` is immutable after construction, so a traversal may
//!   read it through a not-yet-validated pointer (the pointee is kept
//!   alive by epoch reclamation).
//! * A node's header is 16 bytes: the leaf tag and `count` share the first
//!   word, the 8-byte lock is the second. A leaf is `repr(C, align(64))`
//!   and a slot of its tree's [`Slab`], so a leaf of every
//!   [`node_size`](crate::node_size) preset is exactly its nominal size
//!   on whole cache lines (`S256`: 16 + 15 × 16 = 256 bytes, four
//!   lines). An inner node is a `Box` of 16 + 16 × `IC` bytes (272 at
//!   `S256`).

use std::sync::atomic::{AtomicPtr, AtomicU16, AtomicU64, Ordering};

use optiql::slab::Slab;
use optiql::{IndexLock, OptLock};

use crate::DEFAULT_IC;

/// Every node cell is read and written `Relaxed`: version validation, not
/// memory ordering, is what makes a snapshot consistent.
const R: Ordering = Ordering::Relaxed;

/// Largest count searched by the unrolled linear scan; larger nodes fall
/// through to the branchless binary search.
const LINEAR_MAX: usize = 16;

/// Number of `keys[..n]` satisfying `pred` — the shared kernel of
/// [`Inner::child_index`] (`pred = key_i <= needle`) and
/// [`Leaf::lower_bound`] (`pred = key_i < needle`). Requires `keys[..n]`
/// sorted and `pred` monotone (true-prefix), which both callers guarantee;
/// on a torn concurrent snapshot the result is still in `0..=n` and the
/// caller's version validation discards it.
///
/// Search is branch-free in the *data*: a fixed-stride unrolled scan that
/// accumulates compare results for small counts (no mispredicts, the loads
/// pipeline), and a "monobound" binary search (`base += pred * half`, a
/// conditional-move idiom) for larger ones.
#[inline(always)]
fn sorted_prefix_len(keys: &[AtomicU64], n: usize, pred: impl Fn(u64) -> bool) -> usize {
    debug_assert!(n <= keys.len());
    let mut base = 0usize;
    let mut len = n;
    // Monobound narrowing: branchless halving until the window is small.
    // Each step is one load feeding a conditional-move — a short serial
    // chain instead of a run of unpredictable branches.
    while len > LINEAR_MAX {
        let half = len / 2;
        base += pred(keys[base + half - 1].load(R)) as usize * half;
        len -= half;
    }
    // Unrolled branchless scan of the final window: the loads are
    // independent, so they pipeline instead of serializing.
    let mut idx = base;
    let end = base + len;
    let mut i = base;
    while i + 4 <= end {
        idx += pred(keys[i].load(R)) as usize;
        idx += pred(keys[i + 1].load(R)) as usize;
        idx += pred(keys[i + 2].load(R)) as usize;
        idx += pred(keys[i + 3].load(R)) as usize;
        i += 4;
    }
    while i < end {
        idx += pred(keys[i].load(R)) as usize;
        i += 1;
    }
    idx
}

/// Cache-line size the prefetch arithmetic assumes (x86-64).
const LINE: usize = 64;

/// Most bytes of a node a descent prefetches: the span of an `S256` inner
/// node, the largest node of the default preset (272 bytes). A larger
/// preset (`S512` up, Figure 11) binary-searches its keys and touches a
/// few of its lines, so fetching it whole would pull in kilobytes the
/// search never reads.
const PREFETCH_MAX: usize = size_of::<Inner<OptLock, DEFAULT_IC>>();

/// Byte offsets, from a node's first byte, at which [`prefetch_node`]
/// issues a prefetch: one every line's width while inside the node, then
/// the node's last byte, `bytes` capped at [`PREFETCH_MAX`]. An inner
/// node's type aligns it to 8 bytes, not to a line, so the same node
/// spans five lines at one address and six at another (a 272-byte inner
/// node at a 56-byte line offset ends in its sixth line): the stride
/// covers every line but the last, and the last byte covers that one
/// wherever the node starts. `bytes` is a `size_of`, so the offsets fold
/// to constants.
#[inline(always)]
fn prefetch_offsets(bytes: usize) -> impl Iterator<Item = usize> {
    let bytes = bytes.min(PREFETCH_MAX);
    (0..bytes.div_ceil(LINE) + 1).map(move |i| (i * LINE).min(bytes - 1))
}

/// Prefetch every line of the node at `p` (the first `bytes` of it, see
/// [`prefetch_offsets`]). A descent step issues it where it chooses a
/// child, before it validates the parent's version: the child's lines
/// arrive together while the parent validates, so the child's key scan
/// and its value or child read do not wait on one miss after another.
/// The child's kind is not known before it arrives; callers pass their
/// own inner node's size, which a leaf of the same preset does not
/// exceed. A leaf child is four aligned lines at `S256`, so of the six
/// prefetches for a 272-byte inner node the two past its 256th byte
/// land in one line of the next slot of the slab: one line too many
/// per leaf, which no descent step knows how to avoid without the
/// child's level.
#[inline(always)]
fn prefetch_node(p: *const NodeBase, bytes: usize) {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for off in prefetch_offsets(bytes) {
        #[cfg(target_arch = "x86_64")]
        // Safety: prefetch is a pure hint and is architecturally defined
        // to never fault, whatever the address points at.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(off))
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (p, off);
    }
}

/// Common first-field header of every node; enables leaf/inner dispatch
/// through a type-erased pointer (`repr(C)` prefix cast).
#[repr(C)]
pub struct NodeBase {
    /// True iff this node is a leaf. Immutable after construction.
    pub leaf: bool,
}

/// Inner node: `lock` is the *inner* lock type `IL` (the paper keeps
/// centralized optimistic locks on inner nodes even in the OptiQL
/// configuration, §6.1).
#[repr(C)]
pub struct Inner<IL: IndexLock, const IC: usize> {
    /// Common header (leaf tag).
    pub base: NodeBase,
    count: AtomicU16,
    /// Inner-node lock.
    pub lock: IL,
    keys: [AtomicU64; IC],
    children: [AtomicPtr<NodeBase>; IC],
}

/// Leaf node: `lock` is the *leaf* lock type `LL`. Line-aligned, so a
/// leaf of a nominal size never touches a line beyond it.
#[repr(C, align(64))]
pub struct Leaf<LL: IndexLock, const LC: usize> {
    /// Common header (leaf tag).
    pub base: NodeBase,
    count: AtomicU16,
    /// Leaf lock (where index contention concentrates).
    pub lock: LL,
    keys: [AtomicU64; LC],
    vals: [AtomicU64; LC],
}

// --- casting helpers ------------------------------------------------------

/// Read the immutable leaf tag of a (possibly not yet validated) node.
///
/// # Safety
/// `p` must point to a live or epoch-retired node of this tree.
#[inline]
pub unsafe fn is_leaf(p: *const NodeBase) -> bool {
    unsafe { (*p).leaf }
}

/// Cast to an inner node reference.
///
/// # Safety
/// `p` must point to a live or epoch-retired `Inner<IL, IC>`.
#[inline]
pub unsafe fn as_inner<'a, IL: IndexLock, const IC: usize>(p: *mut NodeBase) -> &'a Inner<IL, IC> {
    debug_assert!(!unsafe { is_leaf(p) });
    unsafe { &*(p as *const Inner<IL, IC>) }
}

/// Cast to a leaf node reference.
///
/// # Safety
/// `p` must point to a live or epoch-retired `Leaf<LL, LC>`.
#[inline]
pub unsafe fn as_leaf<'a, LL: IndexLock, const LC: usize>(p: *mut NodeBase) -> &'a Leaf<LL, LC> {
    debug_assert!(unsafe { is_leaf(p) });
    unsafe { &*(p as *const Leaf<LL, LC>) }
}

// --- inner node -----------------------------------------------------------

impl<IL: IndexLock, const IC: usize> Inner<IL, IC> {
    /// Maximum number of separator keys.
    pub const MAX_KEYS: usize = IC - 1;

    /// Allocate an empty inner node and leak it to a raw pointer.
    pub fn alloc() -> *mut NodeBase {
        let node = Box::new(Inner::<IL, IC> {
            base: NodeBase { leaf: false },
            count: AtomicU16::new(0),
            lock: IL::default(),
            keys: [const { AtomicU64::new(0) }; IC],
            children: [const { AtomicPtr::new(std::ptr::null_mut()) }; IC],
        });
        Box::into_raw(node) as *mut NodeBase
    }

    /// Number of separator keys, clamped to capacity (a concurrent reader
    /// may observe a transient value; clamping keeps indexing in bounds and
    /// validation rejects the result).
    #[inline]
    pub fn count(&self) -> usize {
        (self.count.load(R) as usize).min(Self::MAX_KEYS)
    }

    /// True iff no separator key fits anymore (eager-split trigger).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count.load(R) as usize >= Self::MAX_KEYS
    }

    /// Separator key at `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> u64 {
        self.keys[i].load(R)
    }

    /// Child pointer at `i`.
    #[inline]
    pub fn child(&self, i: usize) -> *mut NodeBase {
        self.children[i].load(R)
    }

    /// Index of the child covering `key`: first `i` with `key < keys[i]`,
    /// else `count`.
    #[inline]
    pub fn child_index(&self, key: u64) -> usize {
        sorted_prefix_len(&self.keys, self.count(), |k| k <= key)
    }

    /// Child pointer covering `key`. The child is prefetched whole so its
    /// fetch overlaps the caller's version validation of this node.
    #[inline]
    pub fn find_child(&self, key: u64) -> *mut NodeBase {
        let child = self.children[self.child_index(key)].load(R);
        prefetch_node(child, size_of::<Self>());
        child
    }

    /// Leftmost child (`from = None`) or the child covering `from` — the
    /// scan descent, which may have no lower bound. Also returns the
    /// separator bounding the child's range from above (`None` when it is
    /// the rightmost child).
    #[inline]
    pub fn find_child_from(&self, from: Option<u64>) -> (*mut NodeBase, Option<u64>) {
        let idx = from.map_or(0, |k| self.child_index(k));
        let upper = (idx < self.count()).then(|| self.key_at(idx));
        let child = self.children[idx].load(R);
        // Warm the child while the caller validates this node's version.
        prefetch_node(child, size_of::<Self>());
        (child, upper)
    }

    /// Insert a separator + right child (holder of the exclusive lock
    /// only). The caller guarantees the node is not full.
    pub fn insert_child(&self, sep: u64, right: *mut NodeBase) {
        let n = self.count.load(R) as usize;
        debug_assert!(n < Self::MAX_KEYS);
        let pos = sorted_prefix_len(&self.keys, n.min(Self::MAX_KEYS), |k| k <= sep);
        let mut i = n;
        while i > pos {
            self.keys[i].store(self.keys[i - 1].load(R), R);
            self.children[i + 1].store(self.children[i].load(R), R);
            i -= 1;
        }
        self.keys[pos].store(sep, R);
        self.children[pos + 1].store(right, R);
        self.count.store((n + 1) as u16, R);
    }

    /// Set the two initial children of a fresh root (exclusive access to
    /// a node no reader has seen yet).
    pub fn init_root(&self, sep: u64, left: *mut NodeBase, right: *mut NodeBase) {
        self.keys[0].store(sep, R);
        self.children[0].store(left, R);
        self.children[1].store(right, R);
        self.count.store(1, R);
    }

    /// Split where the insert of `key` descends (holder of the exclusive
    /// lock only). Through the last child the cut is the second-to-last
    /// separator: this node keeps all but two children and the right node
    /// starts with one separator and two children (never none), so an
    /// ascending stream leaves full inner nodes behind; through any other
    /// child the split is in half. Returns `(separator-to-push-up,
    /// new-right-node)`.
    pub fn split(&self, key: u64) -> (u64, *mut NodeBase) {
        let n = self.count.load(R) as usize;
        debug_assert!(n >= 3, "splitting a near-empty inner node");
        let via_last = self.child_index(key) == n;
        let mid = if via_last { n - 2 } else { n / 2 };
        let sep = self.key_at(mid);
        let right_ptr = Self::alloc();
        let right = unsafe { as_inner::<IL, IC>(right_ptr) };
        let right_keys = n - mid - 1;
        for i in 0..right_keys {
            right.keys[i].store(self.keys[mid + 1 + i].load(R), R);
            right.children[i].store(self.children[mid + 1 + i].load(R), R);
        }
        right.children[right_keys].store(self.children[n].load(R), R);
        right.count.store(right_keys as u16, R);
        self.count.store(mid as u16, R);
        (sep, right_ptr)
    }

    /// Remove the child at `idx` and its adjacent separator (exclusive
    /// access; `count` must be ≥ 1).
    pub fn remove_child(&self, idx: usize) {
        let n = self.count.load(R) as usize;
        debug_assert!(n >= 1 && idx <= n);
        // Removing children[idx]: drop separator keys[idx - 1] (or keys[0]
        // when idx == 0) and close the gaps.
        for i in idx.saturating_sub(1)..n - 1 {
            self.keys[i].store(self.keys[i + 1].load(R), R);
        }
        for i in idx..n {
            self.children[i].store(self.children[i + 1].load(R), R);
        }
        self.count.store((n - 1) as u16, R);
    }

    /// Position of a child pointer, if present (exclusive access).
    pub fn position_of(&self, child: *mut NodeBase) -> Option<usize> {
        let n = self.count.load(R) as usize;
        (0..=n).find(|&i| self.children[i].load(R) == child)
    }
}

// --- leaf node -------------------------------------------------------------

impl<LL: IndexLock, const LC: usize> Leaf<LL, LC> {
    /// Maximum number of entries.
    pub const MAX_ENTRIES: usize = LC;

    /// Allocate an empty leaf in a slot of `slab`.
    pub fn alloc(slab: &Slab<Self>) -> *mut NodeBase {
        // The slab releases its chunks without dropping what they hold.
        const { assert!(!std::mem::needs_drop::<Self>(), "a leaf needs no drop") };
        let p = slab.alloc().as_ptr();
        // SAFETY: a fresh slot of the slab, sized and aligned for a leaf.
        unsafe {
            p.write(Leaf {
                base: NodeBase { leaf: true },
                count: AtomicU16::new(0),
                lock: LL::default(),
                keys: [const { AtomicU64::new(0) }; LC],
                vals: [const { AtomicU64::new(0) }; LC],
            })
        };
        p as *mut NodeBase
    }

    /// Entry count, clamped to capacity (see [`Inner::count`]).
    #[inline]
    pub fn count(&self) -> usize {
        (self.count.load(R) as usize).min(LC)
    }

    /// True iff no entry fits anymore (split trigger).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count.load(R) as usize >= LC
    }

    /// Key at slot `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> u64 {
        self.keys[i].load(R)
    }

    /// Value at slot `i`.
    #[inline]
    pub fn val(&self, i: usize) -> u64 {
        self.vals[i].load(R)
    }

    /// First index with `keys[idx] >= key` (lower bound).
    #[inline]
    pub fn lower_bound(&self, key: u64) -> usize {
        sorted_prefix_len(&self.keys, self.count(), |k| k < key)
    }

    /// Position of `key`, if present.
    #[inline]
    pub fn search(&self, key: u64) -> Option<usize> {
        let idx = self.lower_bound(key);
        (idx < self.count() && self.key_at(idx) == key).then_some(idx)
    }

    /// Value for `key`, if present (readers call this between `r_lock` and
    /// `r_unlock`; the result is meaningful only if validation passes).
    #[inline]
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.search(key).map(|i| self.vals[i].load(R))
    }

    /// Store `val` at the slot of `key` (exclusive access). Returns the old
    /// value, or `None` if the key is absent.
    pub fn update(&self, key: u64, val: u64) -> Option<u64> {
        let i = self.search(key)?;
        let old = self.vals[i].load(R);
        self.vals[i].store(val, R);
        Some(old)
    }

    /// Insert or overwrite (exclusive access; must not be full unless the
    /// key already exists). Returns the previous value if the key existed.
    pub fn insert(&self, key: u64, val: u64) -> Option<u64> {
        let n = self.count.load(R) as usize;
        let pos = self.lower_bound(key);
        if pos < n && self.key_at(pos) == key {
            let old = self.vals[pos].load(R);
            self.vals[pos].store(val, R);
            return Some(old);
        }
        debug_assert!(n < LC, "insert into full leaf");
        let mut i = n;
        while i > pos {
            self.keys[i].store(self.keys[i - 1].load(R), R);
            self.vals[i].store(self.vals[i - 1].load(R), R);
            i -= 1;
        }
        self.keys[pos].store(key, R);
        self.vals[pos].store(val, R);
        self.count.store((n + 1) as u16, R);
        None
    }

    /// Remove `key` (exclusive access). Returns the removed value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let n = self.count.load(R) as usize;
        let pos = self.search(key)?;
        let old = self.vals[pos].load(R);
        for i in pos..n - 1 {
            self.keys[i].store(self.keys[i + 1].load(R), R);
            self.vals[i].store(self.vals[i + 1].load(R), R);
        }
        self.count.store((n - 1) as u16, R);
        Some(old)
    }

    /// Split where the pending insert of `key` lands (exclusive access),
    /// taking the new right leaf from `slab`. A key sorting after every
    /// entry leaves this leaf as it is, full, and the right leaf empty,
    /// with `key` as the separator: the caller inserts `key` there before
    /// it publishes the sibling, so the separator is still the right
    /// leaf's smallest key, and an ascending stream leaves full leaves
    /// behind. Any other key splits in half. Returns `(separator, right
    /// node)`.
    pub fn split(&self, key: u64, slab: &Slab<Self>) -> (u64, *mut NodeBase) {
        let n = self.count.load(R) as usize;
        debug_assert!(n >= 2);
        let right_ptr = Self::alloc(slab);
        if self.lower_bound(key) == n {
            return (key, right_ptr);
        }
        let mid = n / 2;
        let right = unsafe { as_leaf::<LL, LC>(right_ptr) };
        for i in mid..n {
            right.keys[i - mid].store(self.keys[i].load(R), R);
            right.vals[i - mid].store(self.vals[i].load(R), R);
        }
        right.count.store((n - mid) as u16, R);
        self.count.store(mid as u16, R);
        (right.key_at(0), right_ptr)
    }

    /// Append every entry of `right` (exclusive access to both; combined
    /// count must fit).
    pub fn absorb(&self, right: &Self) {
        let n = self.count.load(R) as usize;
        let m = right.count.load(R) as usize;
        debug_assert!(n + m <= LC);
        for i in 0..m {
            self.keys[n + i].store(right.keys[i].load(R), R);
            self.vals[n + i].store(right.vals[i].load(R), R);
        }
        self.count.store((n + m) as u16, R);
    }

    /// Append the entries with key ≥ `from` (every entry when `from` is
    /// `None`) to `out`, at most `limit` of them, and return the first
    /// key left behind when `limit` cut the leaf short.
    pub fn collect_from(
        &self,
        from: Option<u64>,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<u64> {
        let n = self.count();
        let start = from.map_or(0, |k| self.lower_bound(k));
        let end = start + limit.min(n.saturating_sub(start));
        out.extend((start..end).map(|i| (self.key_at(i), self.val(i))));
        (end < n).then(|| self.key_at(end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type L = Leaf<OptLock, 8>;
    type I = Inner<OptLock, 8>;

    /// A fresh leaf from `slab`; the slab's chunks go when it drops.
    fn leaf<'a>(slab: &Slab<L>) -> (&'a L, *mut NodeBase) {
        let p = L::alloc(slab);
        (unsafe { as_leaf::<OptLock, 8>(p) }, p)
    }

    fn free_inner(p: *mut NodeBase) {
        drop(unsafe { Box::from_raw(p as *mut I) });
    }

    #[test]
    fn leaf_insert_sorted_and_lookup() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        for k in [5u64, 1, 9, 3] {
            assert!(l.insert(k, k * 10).is_none());
        }
        assert_eq!(l.count(), 4);
        let keys: Vec<u64> = (0..4).map(|i| l.key_at(i)).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert_eq!(l.lookup(5), Some(50));
        assert_eq!(l.lookup(4), None);
    }

    #[test]
    fn leaf_insert_duplicate_overwrites() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        assert!(l.insert(7, 1).is_none());
        assert_eq!(l.insert(7, 2), Some(1));
        assert_eq!(l.count(), 1);
        assert_eq!(l.lookup(7), Some(2));
    }

    #[test]
    fn leaf_update_and_remove() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        l.insert(1, 10);
        l.insert(2, 20);
        l.insert(3, 30);
        assert_eq!(l.update(2, 21), Some(20));
        assert_eq!(l.update(4, 40), None);
        assert_eq!(l.remove(2), Some(21));
        assert_eq!(l.remove(2), None);
        assert_eq!(l.count(), 2);
        assert_eq!(l.lookup(1), Some(10));
        assert_eq!(l.lookup(3), Some(30));
    }

    #[test]
    fn leaf_split_moves_upper_half() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        for k in 0..8u64 {
            l.insert(2 * k, k);
        }
        assert!(l.is_full());
        // The pending key lands inside the leaf: split in half.
        let (sep, rp) = l.split(5, &slab);
        let r = unsafe { as_leaf::<OptLock, 8>(rp) };
        assert_eq!(sep, 8);
        assert_eq!(l.count(), 4);
        assert_eq!(r.count(), 4);
        assert_eq!(l.lookup(6), Some(3));
        assert_eq!(l.lookup(8), None);
        assert_eq!(r.lookup(8), Some(4));
    }

    #[test]
    fn leaf_split_for_an_appended_key_moves_nothing() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        for k in 0..8u64 {
            l.insert(k, k);
        }
        let (sep, rp) = l.split(8, &slab);
        let r = unsafe { as_leaf::<OptLock, 8>(rp) };
        assert_eq!(sep, 8, "the pending key is the separator");
        assert_eq!((l.count(), r.count()), (8, 0), "the full leaf stays full");
        assert_eq!(l.lookup(7), Some(7));
        // The caller's insert makes the separator the right leaf's first key.
        assert_eq!(r.insert(8, 8), None);
        assert_eq!(r.key_at(0), sep);
    }

    #[test]
    fn leaf_absorb_concatenates() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        let (r, _) = leaf(&slab);
        l.insert(1, 1);
        l.insert(2, 2);
        r.insert(10, 10);
        r.insert(11, 11);
        l.absorb(r);
        assert_eq!(l.count(), 4);
        assert_eq!(l.lookup(11), Some(11));
    }

    #[test]
    fn leaf_collect_from_respects_bounds() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        for k in [2u64, 4, 6, 8] {
            l.insert(k, k);
        }
        let mut out = Vec::new();
        let left_behind = l.collect_from(Some(4), 2, &mut out);
        assert_eq!(out, vec![(4, 4), (6, 6)]);
        assert_eq!(left_behind, Some(8), "a cut leaf names its next key");
        out.clear();
        assert_eq!(l.collect_from(None, 8, &mut out), None);
        assert_eq!(out.len(), 4, "None = no lower bound");
    }

    #[test]
    fn inner_child_routing() {
        let slab = Slab::new();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8>(ip) };
        let (c0, c1, c2) = (L::alloc(&slab), L::alloc(&slab), L::alloc(&slab));
        inner.init_root(10, c0, c1);
        inner.insert_child(20, c2);
        assert_eq!(inner.count(), 2);
        assert_eq!(inner.find_child(5), c0);
        assert_eq!(inner.find_child(10), c1);
        assert_eq!(inner.find_child(20), c2);
        assert_eq!(inner.key_at(0), 10);
        assert_eq!(inner.key_at(1), 20);
        assert_eq!(inner.find_child_from(None).0, c0, "None descends leftmost");
        assert_eq!(inner.find_child_from(None).1, Some(10));
        assert_eq!(inner.find_child_from(Some(15)).0, inner.find_child(15));
        assert_eq!(inner.find_child_from(Some(15)).1, Some(20));
        assert_eq!(inner.find_child_from(Some(99)).1, None, "rightmost");
        free_inner(ip);
    }

    #[test]
    fn inner_split_pushes_middle_separator_up() {
        let slab = Slab::new();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8>(ip) };
        let kids: Vec<*mut NodeBase> = (0..8).map(|_| L::alloc(&slab)).collect();
        inner.init_root(10, kids[0], kids[1]);
        for (i, &sep) in [20u64, 30, 40, 50, 60].iter().enumerate() {
            inner.insert_child(sep, kids[i + 2]);
        }
        assert!(inner.is_full() || inner.count() == 6);
        let n = inner.count();
        // The insert descends through a middle child: split in half.
        let (sep, rp) = inner.split(25);
        let right = unsafe { as_inner::<OptLock, 8>(rp) };
        assert_eq!(sep, 40);
        assert_eq!(inner.count() + right.count() + 1, n);
        // Separator strictly partitions the two halves.
        for i in 0..inner.count() {
            assert!(inner.key_at(i) < sep);
        }
        for i in 0..right.count() {
            assert!(right.key_at(i) > sep);
        }
        free_inner(ip);
        free_inner(rp);
    }

    #[test]
    fn inner_split_through_the_last_child_keeps_all_but_two_children() {
        let slab = Slab::new();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8>(ip) };
        let kids: Vec<*mut NodeBase> = (0..8).map(|_| L::alloc(&slab)).collect();
        inner.init_root(10, kids[0], kids[1]);
        for (i, &sep) in [20u64, 30, 40, 50, 60, 70].iter().enumerate() {
            inner.insert_child(sep, kids[i + 2]);
        }
        assert!(inner.is_full());
        let (sep, rp) = inner.split(75);
        let right = unsafe { as_inner::<OptLock, 8>(rp) };
        assert_eq!(sep, 60);
        assert_eq!((inner.count(), right.count()), (5, 1));
        assert_eq!(inner.find_child(55), kids[5]);
        assert_eq!(right.find_child(65), kids[6]);
        assert_eq!(right.find_child(75), kids[7]);
        free_inner(ip);
        free_inner(rp);
    }

    #[test]
    fn inner_remove_child_closes_gaps() {
        let slab = Slab::new();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8>(ip) };
        let (c0, c1, c2) = (L::alloc(&slab), L::alloc(&slab), L::alloc(&slab));
        inner.init_root(10, c0, c1);
        inner.insert_child(20, c2);
        // Remove middle child c1 (covers [10,20)): separator 10 goes away.
        let pos = inner.position_of(c1).unwrap();
        inner.remove_child(pos);
        assert_eq!(inner.count(), 1);
        assert_eq!(inner.key_at(0), 20, "separator 10 dropped");
        assert_eq!(inner.find_child(5), c0);
        assert_eq!(inner.find_child(25), c2);
        // Remove leftmost child.
        inner.remove_child(0);
        assert_eq!(inner.count(), 0);
        assert_eq!(inner.find_child(0), c2);
        free_inner(ip);
    }

    #[test]
    fn search_matches_reference_across_scan_regimes() {
        // Cover counts below and above LINEAR_MAX so both the unrolled
        // linear scan and the monobound binary search are checked against a
        // naive reference.
        fn check<const C: usize>() {
            let slab = Slab::new();
            let lp = Leaf::<OptLock, C>::alloc(&slab);
            let l = unsafe { as_leaf::<OptLock, C>(lp) };
            for i in 0..C as u64 {
                l.insert(i * 2 + 1, i);
            }
            for probe in 0..=(2 * C as u64 + 2) {
                let expect = (0..l.count())
                    .find(|&i| l.key_at(i) >= probe)
                    .unwrap_or(l.count());
                assert_eq!(l.lower_bound(probe), expect, "C={C} probe={probe}");
            }

            let ip = Inner::<OptLock, C>::alloc();
            let inner = unsafe { as_inner::<OptLock, C>(ip) };
            let kids = Slab::new();
            let kid = Leaf::<OptLock, 4>::alloc(&kids);
            inner.init_root(2, kid, kid);
            for i in 1..(C - 1) as u64 {
                inner.insert_child((i + 1) * 2, kid);
            }
            for probe in 0..=(2 * C as u64 + 2) {
                let expect = (0..inner.count())
                    .find(|&i| probe < inner.key_at(i))
                    .unwrap_or(inner.count());
                assert_eq!(inner.child_index(probe), expect, "C={C} probe={probe}");
            }
            drop(unsafe { Box::from_raw(ip as *mut Inner<OptLock, C>) });
        }
        check::<4>();
        check::<8>();
        check::<16>();
        check::<17>();
        check::<64>();
        check::<256>();
    }

    #[test]
    fn s256_nodes_are_256_and_272_bytes() {
        use crate::DEFAULT_LC;
        use optiql::OptiQL;
        // 16 bytes of header (tag and count in one word, the lock in the
        // next) on top of the slots.
        assert_eq!((DEFAULT_IC, DEFAULT_LC), (16, 15));
        assert_eq!(size_of::<Leaf<OptiQL, DEFAULT_LC>>(), 16 + 15 * 16);
        assert_eq!(size_of::<Leaf<OptLock, DEFAULT_LC>>(), 256);
        assert_eq!(size_of::<Inner<OptLock, DEFAULT_IC>>(), 16 + 16 * 16);
        assert_eq!(size_of::<Inner<OptLock, DEFAULT_IC>>(), 272);
    }

    #[test]
    fn every_preset_leaf_is_its_nominal_size_on_whole_lines() {
        use crate::node_size::*;
        use optiql::{McsRwLock, OptiQL, PthreadRwLock};
        fn lines<LL: IndexLock, const LC: usize>(nominal: usize) {
            assert_eq!(size_of::<Leaf<LL, LC>>(), nominal, "{nominal} B preset");
            assert_eq!(align_of::<Leaf<LL, LC>>(), LINE, "{nominal} B preset");
        }
        lines::<OptiQL, { S256.1 }>(256);
        lines::<OptLock, { S256.1 }>(256);
        lines::<McsRwLock, { S256.1 }>(256);
        lines::<PthreadRwLock, { S256.1 }>(256);
        lines::<OptiQL, { S512.1 }>(512);
        lines::<OptiQL, { S1K.1 }>(1024);
        lines::<OptiQL, { S2K.1 }>(2048);
        lines::<OptiQL, { S4K.1 }>(4096);
        lines::<OptiQL, { S8K.1 }>(8192);
        lines::<OptiQL, { S16K.1 }>(16384);
        // A leaf from the slab starts on a line.
        let slab = Slab::new();
        let p = Leaf::<OptiQL, { S256.1 }>::alloc(&slab);
        assert_eq!(p as usize % LINE, 0);
    }

    /// Line numbers `prefetch_node` fetches for `bytes` at `addr`.
    fn fetched_lines(addr: usize, bytes: usize) -> Vec<usize> {
        prefetch_offsets(bytes)
            .map(|off| (addr + off) / LINE)
            .collect()
    }

    #[test]
    fn prefetched_lines_hold_an_s256_node_whole_at_every_offset() {
        use crate::DEFAULT_LC;
        use optiql::OptiQL;
        // Both kinds of default node, at every 8-byte offset into a line:
        // every byte lies in a prefetched line, and no line lies outside
        // the node.
        let s256 = [
            size_of::<Leaf<OptiQL, DEFAULT_LC>>(),
            size_of::<Inner<OptLock, DEFAULT_IC>>(),
        ];
        for bytes in s256 {
            for off in (0..LINE).step_by(8) {
                let addr = (1 << 20) + off;
                let lines = fetched_lines(addr, bytes);
                for byte in addr..addr + bytes {
                    assert!(
                        lines.contains(&(byte / LINE)),
                        "{bytes} B at +{off}: byte {byte}"
                    );
                }
                assert!(lines
                    .iter()
                    .all(|&l| (addr / LINE..=(addr + bytes - 1) / LINE).contains(&l)));
            }
        }
        // The sixth line: a 272-byte inner node at a 56-byte offset.
        assert!(fetched_lines(LINE + 56, 272).contains(&6));
        // A line-aligned leaf is four lines; the inner node's span fetches
        // the first line of the slot after it too.
        let leaf = size_of::<Leaf<OptiQL, DEFAULT_LC>>();
        assert_eq!(fetched_lines(LINE, leaf), [1, 2, 3, 4, 4]);
        assert_eq!(fetched_lines(LINE, PREFETCH_MAX), [1, 2, 3, 4, 5, 5]);
    }

    #[test]
    fn a_large_preset_prefetches_no_more_than_the_cap() {
        use crate::node_size::{S16K, S1K};
        let cap = prefetch_offsets(PREFETCH_MAX).count();
        assert_eq!(cap, 6, "five strides and the last byte of 272");
        for bytes in [
            size_of::<Leaf<OptLock, { S1K.1 }>>(),
            size_of::<Inner<OptLock, { S1K.0 }>>(),
            size_of::<Inner<OptLock, { S16K.0 }>>(),
        ] {
            assert!(bytes > PREFETCH_MAX);
            assert_eq!(prefetch_offsets(bytes).count(), cap, "{bytes} B");
            assert!(
                prefetch_offsets(bytes).all(|off| off < PREFETCH_MAX),
                "{bytes} B"
            );
        }
    }

    #[test]
    fn lower_bound_on_empty_leaf() {
        let slab = Slab::new();
        let (l, _) = leaf(&slab);
        assert_eq!(l.lower_bound(42), 0);
        assert_eq!(l.search(42), None);
        assert_eq!(l.lookup(42), None);
    }
}

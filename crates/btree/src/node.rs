//! B+-tree node layout.
//!
//! Memory-optimized B+-trees use small nodes (256 bytes by default, paper
//! §6.1/§7.1) with the lock embedded in the node header. Because optimistic
//! readers scan node contents *concurrently with writers*, every mutable
//! cell is an atomic: that is free of UB, and any torn/inconsistent
//! combination a reader may assemble is discarded by lock-version
//! validation.
//!
//! # Key slots
//!
//! Nodes are generic over the key type `K:`[`IndexKey`] but still store
//! keys in fixed `[AtomicU64]` arrays of **slot words** — the key itself
//! for `u64` (inline), an owned pointer to the heap key otherwise. The
//! branchless search kernel streams slot words exactly as it streamed raw
//! keys; only the compare goes through `K`. Memory orderings come from the
//! key type: `Relaxed` for inline keys (compiling to the pre-generic code
//! bit for bit), `Acquire`/`Release` for pointer slots so a reader that
//! observes a published slot also observes the pointee's bytes. The same
//! orderings cover `count` and the child pointers, because for pointer
//! keys they are publication edges too (a reader must not chase a fresh
//! `count` into a slot whose store it cannot see yet).
//!
//! Slot **ownership** is manual and explicit: methods that drop or
//! duplicate an entry return the affected slot word so the tree can
//! retire it through epoch reclamation (`u64` makes all of it a no-op).
//! Stale slot words beyond `count` — left behind by removes and splits —
//! are never nulled and never freed: they alias keys owned elsewhere or
//! keys already retired, both of which stay dereferenceable for as long
//! as any reader that could observe them is pinned.
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
//!
//! # Prefix truncation (`K::TRUNCATE` byte keys)
//!
//! For [`bslot`]-represented keys every node additionally owns a
//! **prefix slot**: one byte string every key in the node starts with
//! (not necessarily maximal, possibly empty). Key slots then hold only
//! the *suffix* after that prefix — so for clustered workloads
//! (`user0000000031`, …) most suffixes fit the 7-byte inline word and
//! the branchless kernel streams them with **zero** pointer chases,
//! comparing exactly the discriminating bytes.
//!
//! A probe is related to the prefix once per node (`rel`): either it
//! begins with the prefix and descends as a suffix probe, or it
//! diverges and the answer is position `0`/`count` without touching a
//! single key slot. Writers holding the exclusive lock maintain the
//! prefix: a diverging insert first *shrinks* it to the shared part
//! (rewriting every suffix slot and retiring the old ones), splits and
//! merges *re-grow* it to the maximal common prefix of the surviving
//! suffixes. Optimistic readers may interleave with a rewrite and
//! assemble a prefix from one generation with suffixes from another —
//! such a read is garbage but memory-safe (epoch reclamation keeps
//! every retired blob dereferenceable past the readers' pins) and is
//! discarded by lock-version validation, exactly like any other torn
//! node snapshot.

use std::cmp::Ordering as Cmp;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU16, AtomicU64, Ordering};

use optiql::IndexLock;
use optiql_index_api::{bslot, IndexKey};
use optiql_reclaim::Guard;

/// Longest common prefix of two byte strings.
#[inline]
fn common_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Relate a probe to a node prefix. `Ok(suffix)` when the probe begins
/// with the whole prefix (search continues over the suffix slots);
/// otherwise the probe diverges from *every* key in the node and the
/// error carries which side it falls on (`Less`: before all keys,
/// `Greater`: after all) plus the shared length — the target a
/// diverging insert must shrink the prefix to.
#[inline]
fn rel<'a>(prefix: &[u8], raw: &'a [u8]) -> Result<&'a [u8], (Cmp, usize)> {
    if prefix.is_empty() {
        return Ok(raw);
    }
    let m = common_len(prefix, raw);
    if m == prefix.len() {
        Ok(&raw[m..])
    } else if m == raw.len() || raw[m] < prefix[m] {
        // The probe is a proper prefix of the node prefix (hence of
        // every key), or its first divergent byte sorts below.
        Err((Cmp::Less, m))
    } else {
        Err((Cmp::Greater, m))
    }
}

/// Relaxed ordering shorthand for the cells that never carry publication
/// duties (values, and everything when `K` is inline).
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
/// conditional-move idiom) for larger ones. `ld` is the slot-load ordering
/// of the key type (constant after monomorphization).
#[inline(always)]
fn sorted_prefix_len(
    keys: &[AtomicU64],
    n: usize,
    ld: Ordering,
    pred: impl Fn(u64) -> bool,
) -> usize {
    debug_assert!(n <= keys.len());
    let mut base = 0usize;
    let mut len = n;
    // Monobound narrowing: branchless halving until the window is small.
    // Each step is one load feeding a conditional-move — a short serial
    // chain instead of a run of unpredictable branches.
    while len > LINEAR_MAX {
        let half = len / 2;
        base += pred(keys[base + half - 1].load(ld)) as usize * half;
        len -= half;
    }
    // Unrolled branchless scan of the final window: the loads are
    // independent, so they pipeline instead of serializing.
    let mut idx = base;
    let end = base + len;
    let mut i = base;
    while i + 4 <= end {
        idx += pred(keys[i].load(ld)) as usize;
        idx += pred(keys[i + 1].load(ld)) as usize;
        idx += pred(keys[i + 2].load(ld)) as usize;
        idx += pred(keys[i + 3].load(ld)) as usize;
        i += 4;
    }
    while i < end {
        idx += pred(keys[i].load(ld)) as usize;
        i += 1;
    }
    idx
}

/// Hint the CPU to pull the first two lines of a node into cache. Issued on
/// the traversal path between choosing a child and validating the parent's
/// version, so the fetch overlaps the validation instead of stalling the
/// descent.
#[inline(always)]
pub(crate) fn prefetch_node(p: *const NodeBase) {
    #[cfg(target_arch = "x86_64")]
    // Safety: prefetch is a pure hint and is architecturally defined to
    // never fault, whatever the address points at.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
        _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(64));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetch the *tail* of a node: lines 2 to 4, which with the two of
/// [`prefetch_node`] are the 320 bytes that hold a default node whole (a
/// leaf is 272 bytes, an inner node 288: 32 of header on top of the
/// slots; whether `p` is one or the other is not known before it
/// arrives). The batched engine has a whole pipeline round between
/// choosing a child and touching it, so it can afford to pull the entire
/// node — key array tails and the value/child array up to the last slot,
/// which dense nodes do occupy — not just the header two lines fetched
/// on the latency-sensitive scalar path.
#[inline(always)]
pub(crate) fn prefetch_node_rest(p: *const NodeBase) {
    #[cfg(target_arch = "x86_64")]
    // Safety: as above — prefetch never faults.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(128));
        _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(192));
        _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(256));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
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
pub struct Inner<IL: IndexLock, const IC: usize, K: IndexKey = u64> {
    /// Common header (leaf tag).
    pub base: NodeBase,
    /// Inner-node lock.
    pub lock: IL,
    count: AtomicU16,
    /// Node prefix slot (`K::TRUNCATE` only; the inline empty string
    /// otherwise). See the module docs.
    prefix: AtomicU64,
    keys: [AtomicU64; IC],
    children: [AtomicPtr<NodeBase>; IC],
    _key: PhantomData<K>,
}

/// Leaf node: `lock` is the *leaf* lock type `LL`.
#[repr(C)]
pub struct Leaf<LL: IndexLock, const LC: usize, K: IndexKey = u64> {
    /// Common header (leaf tag).
    pub base: NodeBase,
    /// Leaf lock (where index contention concentrates).
    pub lock: LL,
    count: AtomicU16,
    /// Node prefix slot (`K::TRUNCATE` only; the inline empty string
    /// otherwise). See the module docs.
    prefix: AtomicU64,
    keys: [AtomicU64; LC],
    vals: [AtomicU64; LC],
    _key: PhantomData<K>,
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
/// `p` must point to a live or epoch-retired `Inner<IL, IC, K>`.
#[inline]
pub unsafe fn as_inner<'a, IL: IndexLock, const IC: usize, K: IndexKey>(
    p: *mut NodeBase,
) -> &'a Inner<IL, IC, K> {
    debug_assert!(!unsafe { is_leaf(p) });
    unsafe { &*(p as *const Inner<IL, IC, K>) }
}

/// Cast to a leaf node reference.
///
/// # Safety
/// `p` must point to a live or epoch-retired `Leaf<LL, LC, K>`.
#[inline]
pub unsafe fn as_leaf<'a, LL: IndexLock, const LC: usize, K: IndexKey>(
    p: *mut NodeBase,
) -> &'a Leaf<LL, LC, K> {
    debug_assert!(unsafe { is_leaf(p) });
    unsafe { &*(p as *const Leaf<LL, LC, K>) }
}

/// Prefix-slot maintenance shared verbatim by [`Inner`] and [`Leaf`]
/// (both expand it into their impl blocks; the bodies only touch the
/// common `prefix`/`keys`/`count` fields).
macro_rules! prefix_ops {
    () => {
        /// The raw prefix slot word (borrowed; dereference only while
        /// pinned). The inline empty string for non-`TRUNCATE` keys.
        #[inline]
        pub fn prefix_word(&self) -> u64 {
            self.prefix.load(K::SLOT_LOAD)
        }

        /// The node prefix bytes, unpacked into `tmp` when inline.
        ///
        /// # Safety
        /// Caller must be pinned (or hold the tree exclusively) so a
        /// concurrently retired prefix blob is still dereferenceable.
        #[inline]
        unsafe fn prefix_bytes<'a>(&self, tmp: &'a mut [u8; bslot::MAX_INLINE]) -> &'a [u8] {
            unsafe { bslot::slot_bytes(self.prefix.load(K::SLOT_LOAD), tmp) }
        }

        /// Prefetch the heap blobs a forthcoming search in this node will
        /// chase: the node prefix plus the first binary-probe key slots.
        /// Inline slots need nothing, and a torn snapshot only wastes a
        /// hint (prefetch never faults), so this runs on unvalidated
        /// optimistic reads.
        #[inline]
        pub fn prefetch_probe_slots(&self) {
            bslot::prefetch(self.prefix.load(K::SLOT_LOAD));
            let n = self.count();
            if n == 0 {
                return;
            }
            bslot::prefetch(self.keys[n / 2].load(K::SLOT_LOAD));
            bslot::prefetch(self.keys[n / 4].load(K::SLOT_LOAD));
            bslot::prefetch(self.keys[(3 * n) / 4].load(K::SLOT_LOAD));
        }

        /// Shrink the node prefix to its first `m` bytes, pushing the
        /// cut tail down into every suffix slot (exclusive lock holders
        /// only). Old slots are epoch-retired: optimistic readers may
        /// still be comparing against them.
        fn shrink_prefix_to(&self, m: usize, g: &Guard) {
            let old_pfx = self.prefix.load(K::SLOT_LOAD);
            let mut tp = [0u8; bslot::MAX_INLINE];
            // Safety: we hold the exclusive lock; the slot is live.
            let pfx = unsafe { bslot::slot_bytes(old_pfx, &mut tp) };
            debug_assert!(m < pfx.len());
            let tail = pfx[m..].to_vec();
            let new_pfx = bslot::make(&pfx[..m]);
            let n = self.count.load(R) as usize;
            let mut scratch = Vec::with_capacity(tail.len() + bslot::MAX_INLINE);
            for i in 0..n {
                let old = self.keys[i].load(K::SLOT_LOAD);
                scratch.clear();
                scratch.extend_from_slice(&tail);
                // Safety: live slot owned by this node; retired below.
                unsafe {
                    bslot::append_to(old, &mut scratch);
                    self.keys[i].store(bslot::make(&scratch), K::SLOT_STORE);
                    bslot::retire(old, g);
                }
            }
            self.prefix.store(new_pfx, K::SLOT_STORE);
            // Safety: unlinked under the exclusive lock.
            unsafe { bslot::retire(old_pfx, g) };
        }

        /// Re-grow the node prefix to the maximal shared prefix of the
        /// current suffixes (exclusive lock holders only; called after
        /// splits and merges change the key population). Because the
        /// suffixes are sorted, their common prefix is the common
        /// prefix of the first and last alone.
        fn grow_prefix(&self, g: &Guard) {
            let n = self.count.load(R) as usize;
            if n == 0 {
                return;
            }
            let (mut t0, mut t1) = ([0u8; bslot::MAX_INLINE], [0u8; bslot::MAX_INLINE]);
            // Safety: live slots owned by this node.
            let ext = unsafe {
                let first = bslot::slot_bytes(self.keys[0].load(K::SLOT_LOAD), &mut t0);
                let last = bslot::slot_bytes(self.keys[n - 1].load(K::SLOT_LOAD), &mut t1);
                let ext = common_len(first, last);
                if ext == 0 {
                    return;
                }
                first[..ext].to_vec()
            };
            let mut scratch = Vec::new();
            for i in 0..n {
                let old = self.keys[i].load(K::SLOT_LOAD);
                scratch.clear();
                // Safety: live slot owned by this node; retired below.
                unsafe {
                    bslot::append_to(old, &mut scratch);
                    self.keys[i].store(bslot::make(&scratch[ext.len()..]), K::SLOT_STORE);
                    bslot::retire(old, g);
                }
            }
            let old_pfx = self.prefix.load(K::SLOT_LOAD);
            scratch.clear();
            // Safety: live prefix slot; retired below.
            unsafe { bslot::append_to(old_pfx, &mut scratch) };
            scratch.extend_from_slice(&ext);
            self.prefix.store(bslot::make(&scratch), K::SLOT_STORE);
            // Safety: unlinked under the exclusive lock.
            unsafe { bslot::retire(old_pfx, g) };
        }
    };
}

// --- inner node -----------------------------------------------------------

impl<IL: IndexLock, const IC: usize, K: IndexKey> Inner<IL, IC, K> {
    /// Maximum number of separator keys.
    pub const MAX_KEYS: usize = IC - 1;

    /// Allocate an empty inner node and leak it to a raw pointer.
    pub fn alloc() -> *mut NodeBase {
        let node = Box::new(Inner::<IL, IC, K> {
            base: NodeBase { leaf: false },
            lock: IL::default(),
            count: AtomicU16::new(0),
            prefix: AtomicU64::new(bslot::EMPTY),
            keys: [const { AtomicU64::new(0) }; IC],
            children: [const { AtomicPtr::new(std::ptr::null_mut()) }; IC],
            _key: PhantomData,
        });
        Box::into_raw(node) as *mut NodeBase
    }

    /// Number of separator keys, clamped to capacity (a concurrent reader
    /// may observe a transient value; clamping keeps indexing in bounds and
    /// validation rejects the result). For pointer keys the `Acquire` load
    /// also guarantees the slots below the observed count are published.
    #[inline]
    pub fn count(&self) -> usize {
        (self.count.load(K::SLOT_LOAD) as usize).min(Self::MAX_KEYS)
    }

    /// True iff no separator key fits anymore (eager-split trigger).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count.load(K::SLOT_LOAD) as usize >= Self::MAX_KEYS
    }

    /// Separator key slot at `i` (borrowed; ownership stays with the node).
    #[inline]
    pub fn key_slot(&self, i: usize) -> u64 {
        self.keys[i].load(K::SLOT_LOAD)
    }

    /// Child pointer at `i`.
    #[inline]
    pub fn child(&self, i: usize) -> *mut NodeBase {
        self.children[i].load(K::SLOT_LOAD)
    }

    prefix_ops!();

    /// Index of the child covering `key`: first `i` with `key < keys[i]`,
    /// else `count`.
    #[inline]
    pub fn child_index(&self, key: &K) -> usize {
        if K::TRUNCATE {
            let mut tp = [0u8; bslot::MAX_INLINE];
            // Safety: caller is pinned; the prefix slot stays readable.
            let pfx = unsafe { self.prefix_bytes(&mut tp) };
            match rel(pfx, key.raw_bytes()) {
                Err((Cmp::Less, _)) => 0,
                Err(_) => self.count(),
                Ok(suf) => {
                    let w = bslot::sort_word(suf);
                    sorted_prefix_len(&self.keys, self.count(), K::SLOT_LOAD, |s| {
                        // Safety: published suffix slot below count.
                        unsafe { bslot::cmp(suf, w, s) != Cmp::Less }
                    })
                }
            }
        } else {
            sorted_prefix_len(&self.keys, self.count(), K::SLOT_LOAD, |s| {
                // Safety: slots below an observed count are published keys
                // of this node (or epoch-protected stale aliases).
                unsafe { key.cmp_slot(s) != Cmp::Less }
            })
        }
    }

    /// Child pointer covering `key`. The child is prefetched so its
    /// fetch overlaps the caller's version validation of this node.
    #[inline]
    pub fn find_child(&self, key: &K) -> *mut NodeBase {
        let child = self.children[self.child_index(key)].load(K::SLOT_LOAD);
        prefetch_node(child);
        child
    }

    /// Leftmost child (`from = None`) or the child covering `from` — the
    /// scan descent, which may have no lower bound. Also returns the
    /// separator **key** bounding the child's range from above (`None`
    /// when it is the rightmost child): an owned reconstruction, valid
    /// past validation.
    #[inline]
    pub fn find_child_from(&self, from: Option<&K>) -> (*mut NodeBase, Option<K>) {
        let idx = match from {
            Some(k) => self.child_index(k),
            None => 0,
        };
        let n = self.count();
        let upper = if idx < n {
            // Safety: caller pinned; published slot below count.
            Some(unsafe { self.sep_key_at(idx) })
        } else {
            None
        };
        let child = self.children[idx].load(K::SLOT_LOAD);
        // Warm the child while the caller validates this node's version.
        prefetch_node(child);
        (child, upper)
    }

    /// Owned copy of the full separator key at `i` (prefix reattached
    /// for truncated nodes).
    ///
    /// # Safety
    /// Caller must be pinned (or hold the tree exclusively) so the slot
    /// and prefix pointees are alive.
    pub unsafe fn sep_key_at(&self, i: usize) -> K {
        if K::TRUNCATE {
            let mut buf = Vec::new();
            // Safety: live prefix and key slots per caller contract.
            unsafe {
                bslot::append_to(self.prefix.load(K::SLOT_LOAD), &mut buf);
                bslot::append_to(self.keys[i].load(K::SLOT_LOAD), &mut buf);
            }
            K::from_raw(&buf)
        } else {
            unsafe { K::slot_key(self.keys[i].load(K::SLOT_LOAD)) }
        }
    }

    /// Insert a separator + right child (holder of the exclusive lock
    /// only); the separator is cloned into a slot owned by this node
    /// (re-expressed against the node prefix when truncating, shrinking
    /// it first if the separator diverges). The caller guarantees the
    /// node is not full.
    pub fn insert_child(&self, sep: &K, right: *mut NodeBase, g: &Guard) {
        let n = self.count.load(R) as usize;
        debug_assert!(n < Self::MAX_KEYS);
        let (pos, slot) = if K::TRUNCATE {
            let raw = sep.raw_bytes();
            if n == 0 {
                // First separator: the whole key becomes the prefix and
                // its suffix slot is empty.
                let old_pfx = self.prefix.load(K::SLOT_LOAD);
                self.prefix.store(bslot::make(raw), K::SLOT_STORE);
                // Safety: unlinked under the exclusive lock.
                unsafe { bslot::retire(old_pfx, g) };
                (0, bslot::EMPTY)
            } else {
                let mut tp = [0u8; bslot::MAX_INLINE];
                // Safety: exclusive lock held; prefix slot is live.
                let pfx = unsafe { self.prefix_bytes(&mut tp) };
                let suf: &[u8] = match rel(pfx, raw) {
                    Ok(s) => s,
                    Err((_, m)) => {
                        self.shrink_prefix_to(m, g);
                        // The new prefix is `raw[..m]` by construction.
                        &raw[m..]
                    }
                };
                let w = bslot::sort_word(suf);
                let pos = sorted_prefix_len(&self.keys, n.min(Self::MAX_KEYS), K::SLOT_LOAD, |s| {
                    // Safety: published suffix slot below count.
                    unsafe { bslot::cmp(suf, w, s) != Cmp::Less }
                });
                (pos, bslot::make(suf))
            }
        } else {
            let slot = sep.clone().into_slot();
            let pos = sorted_prefix_len(&self.keys, n.min(Self::MAX_KEYS), K::SLOT_LOAD, |s| {
                // Safety: both are live slot words (see module doc).
                unsafe { K::slot_cmp_slot(s, slot) != Cmp::Greater }
            });
            (pos, slot)
        };
        let mut i = n;
        while i > pos {
            self.keys[i].store(self.keys[i - 1].load(K::SLOT_LOAD), K::SLOT_STORE);
            self.children[i + 1].store(self.children[i].load(K::SLOT_LOAD), K::SLOT_STORE);
            i -= 1;
        }
        self.keys[pos].store(slot, K::SLOT_STORE);
        self.children[pos + 1].store(right, K::SLOT_STORE);
        self.count.store((n + 1) as u16, K::SLOT_STORE);
    }

    /// Set the two initial children of a fresh root (exclusive access to
    /// a node no reader has seen yet).
    pub fn init_root(&self, sep: K, left: *mut NodeBase, right: *mut NodeBase) {
        let slot = if K::TRUNCATE {
            // Fresh node, empty prefix: the whole key is the suffix.
            self.prefix
                .store(bslot::make(sep.raw_bytes()), K::SLOT_STORE);
            bslot::EMPTY
        } else {
            sep.into_slot()
        };
        self.keys[0].store(slot, K::SLOT_STORE);
        self.children[0].store(left, K::SLOT_STORE);
        self.children[1].store(right, K::SLOT_STORE);
        self.count.store(1, K::SLOT_STORE);
    }

    /// Split where the insert of `key` descends (holder of the exclusive
    /// lock only). Through the last child the cut is the second-to-last
    /// separator: this node keeps all but two children and the right node
    /// starts with one separator and two children (never none), so an
    /// ascending stream leaves full inner nodes behind; through any other
    /// child the split is in half. Returns `(separator-to-push-up,
    /// new-right-node)`; the separator is an owned full key, and the slot
    /// it came from is retired (readers may still be comparing against
    /// it). Truncated halves re-grow their prefixes from the surviving
    /// suffixes.
    pub fn split(&self, key: &K, g: &Guard) -> (K, *mut NodeBase) {
        let n = self.count.load(R) as usize;
        debug_assert!(n >= 3, "splitting a near-empty inner node");
        let via_last = self.child_index(key) == n;
        let mid = if via_last { n - 2 } else { n / 2 };
        // Safety: this thread holds the exclusive lock; slot is live.
        let sep = unsafe { self.sep_key_at(mid) };
        let mid_slot = self.keys[mid].load(K::SLOT_LOAD);
        let right_ptr = Self::alloc();
        let right = unsafe { as_inner::<IL, IC, K>(right_ptr) };
        let right_keys = n - mid - 1;
        for i in 0..right_keys {
            right.keys[i].store(self.keys[mid + 1 + i].load(K::SLOT_LOAD), K::SLOT_STORE);
            right.children[i].store(self.children[mid + 1 + i].load(K::SLOT_LOAD), K::SLOT_STORE);
        }
        right.children[right_keys].store(self.children[n].load(K::SLOT_LOAD), K::SLOT_STORE);
        right.count.store(right_keys as u16, K::SLOT_STORE);
        self.count.store(mid as u16, K::SLOT_STORE);
        // Safety: the mid slot was unlinked above (count excludes it on
        // the left, it was not copied right); `sep` already cloned it.
        unsafe { K::slot_retire(mid_slot, g) };
        if K::TRUNCATE {
            right
                .prefix
                // Safety: live prefix slot under the exclusive lock.
                .store(
                    unsafe { bslot::clone_slot(self.prefix.load(K::SLOT_LOAD)) },
                    K::SLOT_STORE,
                );
            right.grow_prefix(g);
            self.grow_prefix(g);
        }
        (sep, right_ptr)
    }

    /// Remove the child at `idx` and its adjacent separator (exclusive
    /// access; `count` must be ≥ 1). Returns the dropped separator slot —
    /// ownership moves to the caller, which must retire it.
    pub fn remove_child(&self, idx: usize) -> u64 {
        let n = self.count.load(R) as usize;
        debug_assert!(n >= 1 && idx <= n);
        // Removing children[idx]: drop separator keys[idx - 1] (or keys[0]
        // when idx == 0) and close the gaps.
        let key_gone = idx.saturating_sub(1);
        let dropped = self.keys[key_gone].load(K::SLOT_LOAD);
        for i in key_gone..n - 1 {
            self.keys[i].store(self.keys[i + 1].load(K::SLOT_LOAD), K::SLOT_STORE);
        }
        for i in idx..n {
            self.children[i].store(self.children[i + 1].load(K::SLOT_LOAD), K::SLOT_STORE);
        }
        self.count.store((n - 1) as u16, K::SLOT_STORE);
        dropped
    }

    /// Position of a child pointer, if present (exclusive access).
    pub fn position_of(&self, child: *mut NodeBase) -> Option<usize> {
        let n = self.count.load(R) as usize;
        (0..=n).find(|&i| self.children[i].load(K::SLOT_LOAD) == child)
    }

    /// Free the separator slots this node owns (`[0, count)`), plus the
    /// prefix slot for truncated nodes: tree drop only, when no
    /// concurrent access exists.
    ///
    /// # Safety
    /// Caller must have exclusive ownership of the whole tree.
    pub unsafe fn free_key_slots(&self) {
        for i in 0..self.count() {
            unsafe { K::slot_free(self.keys[i].load(R)) };
        }
        if K::TRUNCATE {
            unsafe { bslot::free(self.prefix.load(R)) };
        }
    }
}

// --- leaf node -------------------------------------------------------------

impl<LL: IndexLock, const LC: usize, K: IndexKey> Leaf<LL, LC, K> {
    /// Maximum number of entries.
    pub const MAX_ENTRIES: usize = LC;

    /// Allocate an empty leaf and leak it to a raw pointer.
    pub fn alloc() -> *mut NodeBase {
        let node = Box::new(Leaf::<LL, LC, K> {
            base: NodeBase { leaf: true },
            lock: LL::default(),
            count: AtomicU16::new(0),
            prefix: AtomicU64::new(bslot::EMPTY),
            keys: [const { AtomicU64::new(0) }; LC],
            vals: [const { AtomicU64::new(0) }; LC],
            _key: PhantomData,
        });
        Box::into_raw(node) as *mut NodeBase
    }

    /// Entry count, clamped to capacity (see [`Inner::count`]).
    #[inline]
    pub fn count(&self) -> usize {
        (self.count.load(K::SLOT_LOAD) as usize).min(LC)
    }

    /// True iff no entry fits anymore (split trigger).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count.load(K::SLOT_LOAD) as usize >= LC
    }

    /// Key slot at `i` (borrowed).
    #[inline]
    pub fn key_slot(&self, i: usize) -> u64 {
        self.keys[i].load(K::SLOT_LOAD)
    }

    prefix_ops!();

    /// Owned copy of the full key at `i` (prefix reattached for
    /// truncated nodes).
    ///
    /// # Safety
    /// Caller must be pinned (or hold the tree exclusively) so the slot's
    /// pointee is alive.
    #[inline]
    pub unsafe fn key_at(&self, i: usize) -> K {
        if K::TRUNCATE {
            let mut buf = Vec::new();
            // Safety: live prefix and key slots per caller contract.
            unsafe {
                bslot::append_to(self.prefix.load(K::SLOT_LOAD), &mut buf);
                bslot::append_to(self.keys[i].load(K::SLOT_LOAD), &mut buf);
            }
            K::from_raw(&buf)
        } else {
            unsafe { K::slot_key(self.keys[i].load(K::SLOT_LOAD)) }
        }
    }

    /// Value at slot `i`.
    #[inline]
    pub fn val(&self, i: usize) -> u64 {
        self.vals[i].load(R)
    }

    /// First index with `keys[idx] >= key` (lower bound).
    #[inline]
    pub fn lower_bound(&self, key: &K) -> usize {
        if K::TRUNCATE {
            let mut tp = [0u8; bslot::MAX_INLINE];
            // Safety: caller is pinned; the prefix slot stays readable.
            let pfx = unsafe { self.prefix_bytes(&mut tp) };
            match rel(pfx, key.raw_bytes()) {
                Err((Cmp::Less, _)) => 0,
                Err(_) => self.count(),
                Ok(suf) => {
                    let w = bslot::sort_word(suf);
                    sorted_prefix_len(&self.keys, self.count(), K::SLOT_LOAD, |s| {
                        // Safety: published suffix slot below count.
                        unsafe { bslot::cmp(suf, w, s) == Cmp::Greater }
                    })
                }
            }
        } else {
            sorted_prefix_len(&self.keys, self.count(), K::SLOT_LOAD, |s| {
                // Safety: slots below an observed count are published keys
                // of this node (or epoch-protected stale aliases).
                unsafe { key.cmp_slot(s) == Cmp::Greater }
            })
        }
    }

    /// Position of `key`, if present.
    #[inline]
    pub fn search(&self, key: &K) -> Option<usize> {
        if K::TRUNCATE {
            let mut tp = [0u8; bslot::MAX_INLINE];
            // Safety: caller is pinned; the prefix slot stays readable.
            let pfx = unsafe { self.prefix_bytes(&mut tp) };
            let suf = rel(pfx, key.raw_bytes()).ok()?;
            let w = bslot::sort_word(suf);
            let n = self.count();
            let idx = sorted_prefix_len(&self.keys, n, K::SLOT_LOAD, |s| {
                // Safety: published suffix slot below count.
                unsafe { bslot::cmp(suf, w, s) == Cmp::Greater }
            });
            // Safety: as above.
            (idx < n
                && unsafe { bslot::cmp(suf, w, self.keys[idx].load(K::SLOT_LOAD)) } == Cmp::Equal)
                .then_some(idx)
        } else {
            let idx = self.lower_bound(key);
            // Safety: as in `lower_bound`.
            if idx < self.count()
                && unsafe { key.cmp_slot(self.keys[idx].load(K::SLOT_LOAD)) } == Cmp::Equal
            {
                Some(idx)
            } else {
                None
            }
        }
    }

    /// Value for `key`, if present (readers call this between `r_lock` and
    /// `r_unlock`; the result is meaningful only if validation passes).
    #[inline]
    pub fn lookup(&self, key: &K) -> Option<u64> {
        self.search(key).map(|i| self.vals[i].load(R))
    }

    /// Store `val` at the slot of `key` (exclusive access). Returns the old
    /// value, or `None` if the key is absent.
    pub fn update(&self, key: &K, val: u64) -> Option<u64> {
        let i = self.search(key)?;
        let old = self.vals[i].load(R);
        self.vals[i].store(val, R);
        Some(old)
    }

    /// Insert or overwrite (exclusive access; must not be full unless the
    /// key already exists). Returns the previous value if the key existed.
    /// A new entry clones `key` into a freshly owned slot; for truncated
    /// nodes the slot holds the suffix (the prefix shrinks first when the
    /// key diverges from it, and the whole key *becomes* the prefix when
    /// the leaf is empty).
    pub fn insert(&self, key: &K, val: u64, g: &Guard) -> Option<u64> {
        let n = self.count.load(R) as usize;
        let (pos, slot) = if K::TRUNCATE {
            let raw = key.raw_bytes();
            if n == 0 {
                let old_pfx = self.prefix.load(K::SLOT_LOAD);
                self.prefix.store(bslot::make(raw), K::SLOT_STORE);
                // Safety: unlinked under the exclusive lock (a reader of
                // the previously-emptied leaf may still hold the word).
                unsafe { bslot::retire(old_pfx, g) };
                self.keys[0].store(bslot::EMPTY, K::SLOT_STORE);
                self.vals[0].store(val, R);
                self.count.store(1, K::SLOT_STORE);
                return None;
            }
            let mut tp = [0u8; bslot::MAX_INLINE];
            // Safety: exclusive lock held; prefix slot is live.
            let pfx = unsafe { self.prefix_bytes(&mut tp) };
            let suf: &[u8] = match rel(pfx, raw) {
                Ok(s) => s,
                Err((_, m)) => {
                    self.shrink_prefix_to(m, g);
                    // The new prefix is `raw[..m]` by construction.
                    &raw[m..]
                }
            };
            let w = bslot::sort_word(suf);
            let pos = sorted_prefix_len(&self.keys, n.min(LC), K::SLOT_LOAD, |s| {
                // Safety: published suffix slot below count.
                unsafe { bslot::cmp(suf, w, s) == Cmp::Greater }
            });
            if pos < n
                // Safety: as above.
                && unsafe { bslot::cmp(suf, w, self.keys[pos].load(K::SLOT_LOAD)) } == Cmp::Equal
            {
                let old = self.vals[pos].load(R);
                self.vals[pos].store(val, R);
                return Some(old);
            }
            (pos, bslot::make(suf))
        } else {
            let pos = self.lower_bound(key);
            // Safety: published slot below count (see module doc).
            if pos < n && unsafe { key.cmp_slot(self.keys[pos].load(K::SLOT_LOAD)) } == Cmp::Equal {
                let old = self.vals[pos].load(R);
                self.vals[pos].store(val, R);
                return Some(old);
            }
            (pos, key.clone().into_slot())
        };
        debug_assert!(n < LC, "insert into full leaf");
        let mut i = n;
        while i > pos {
            self.keys[i].store(self.keys[i - 1].load(K::SLOT_LOAD), K::SLOT_STORE);
            self.vals[i].store(self.vals[i - 1].load(R), R);
            i -= 1;
        }
        self.keys[pos].store(slot, K::SLOT_STORE);
        self.vals[pos].store(val, R);
        self.count.store((n + 1) as u16, K::SLOT_STORE);
        None
    }

    /// Remove `key` (exclusive access). Returns `(slot, value)` of the
    /// removed entry; ownership of the slot moves to the caller, which
    /// must retire it (readers may still be comparing against it).
    pub fn remove(&self, key: &K) -> Option<(u64, u64)> {
        let n = self.count.load(R) as usize;
        let pos = self.search(key)?;
        let slot = self.keys[pos].load(K::SLOT_LOAD);
        let old = self.vals[pos].load(R);
        for i in pos..n - 1 {
            self.keys[i].store(self.keys[i + 1].load(K::SLOT_LOAD), K::SLOT_STORE);
            self.vals[i].store(self.vals[i + 1].load(R), R);
        }
        self.count.store((n - 1) as u16, K::SLOT_STORE);
        Some((slot, old))
    }

    /// Split where the pending insert of `key` lands (exclusive access).
    /// A key sorting after every entry leaves this leaf `n - 1` entries
    /// and starts the right one with the last, so an ascending stream
    /// leaves full leaves behind, not half-empty ones; any other key
    /// splits in half. Either way the right leaf is not empty. Returns
    /// `(separator, right node)`: the separator is an owned copy of the
    /// smallest key of the new right leaf (which keeps its own slot).
    /// Truncated halves re-grow their prefixes from the surviving
    /// suffixes, so the short local suffixes of a freshly split node
    /// usually collapse into inline words.
    pub fn split(&self, key: &K, g: &Guard) -> (K, *mut NodeBase) {
        let n = self.count.load(R) as usize;
        debug_assert!(n >= 2);
        let behind_last = self.lower_bound(key) == n;
        let mid = if behind_last { n - 1 } else { n / 2 };
        let right_ptr = Self::alloc();
        let right = unsafe { as_leaf::<LL, LC, K>(right_ptr) };
        for i in mid..n {
            right.keys[i - mid].store(self.keys[i].load(K::SLOT_LOAD), K::SLOT_STORE);
            right.vals[i - mid].store(self.vals[i].load(R), R);
        }
        right.count.store((n - mid) as u16, K::SLOT_STORE);
        self.count.store(mid as u16, K::SLOT_STORE);
        if K::TRUNCATE {
            right
                .prefix
                // Safety: live prefix slot under the exclusive lock.
                .store(
                    unsafe { bslot::clone_slot(self.prefix.load(K::SLOT_LOAD)) },
                    K::SLOT_STORE,
                );
            // Safety: right.keys[0] was just published by this thread.
            let sep = unsafe { right.key_at(0) };
            right.grow_prefix(g);
            self.grow_prefix(g);
            (sep, right_ptr)
        } else {
            // Safety: right.keys[0] is a live slot this thread published.
            let sep = unsafe { right.key_at(0) };
            let _ = g;
            (sep, right_ptr)
        }
    }

    /// Append every entry of `right` (exclusive access to both; combined
    /// count must fit). For matching prefixes the slot words simply
    /// move; otherwise this node's prefix shrinks to the common part and
    /// the right entries are re-expressed against it (their old slots
    /// retired). The caller retires the right node itself without
    /// freeing its (now stale-alias) slots either way.
    pub fn absorb(&self, right: &Self, g: &Guard) {
        let n = self.count.load(R) as usize;
        let m = right.count.load(R) as usize;
        debug_assert!(n + m <= LC);
        if K::TRUNCATE {
            let (mut tl, mut tr) = ([0u8; bslot::MAX_INLINE], [0u8; bslot::MAX_INLINE]);
            // Safety: exclusive locks held on both nodes.
            let (c, extra, lp_len) = unsafe {
                let lp = self.prefix_bytes(&mut tl);
                let rp = right.prefix_bytes(&mut tr);
                let c = common_len(lp, rp);
                (c, rp[c..].to_vec(), lp.len())
            };
            if c < lp_len {
                self.shrink_prefix_to(c, g);
            }
            if extra.is_empty() && c == lp_len {
                // Identical prefixes: slot ownership moves wholesale.
                for i in 0..m {
                    self.keys[n + i].store(right.keys[i].load(K::SLOT_LOAD), K::SLOT_STORE);
                    self.vals[n + i].store(right.vals[i].load(R), R);
                }
            } else {
                let mut scratch = Vec::new();
                for i in 0..m {
                    let old = right.keys[i].load(K::SLOT_LOAD);
                    scratch.clear();
                    scratch.extend_from_slice(&extra);
                    // Safety: live slot of the (locked) right node; its
                    // ownership ends here, so it is retired.
                    unsafe {
                        bslot::append_to(old, &mut scratch);
                        self.keys[n + i].store(bslot::make(&scratch), K::SLOT_STORE);
                        bslot::retire(old, g);
                    }
                    self.vals[n + i].store(right.vals[i].load(R), R);
                }
            }
            self.count.store((n + m) as u16, K::SLOT_STORE);
            // The merged population may share more than the common
            // prefix of the two halves; re-maximalize.
            self.grow_prefix(g);
        } else {
            for i in 0..m {
                self.keys[n + i].store(right.keys[i].load(K::SLOT_LOAD), K::SLOT_STORE);
                self.vals[n + i].store(right.vals[i].load(R), R);
            }
            self.count.store((n + m) as u16, K::SLOT_STORE);
        }
    }

    /// Append the entries with key ≥ `from` (every entry when `from` is
    /// `None`) to `out`, at most `limit` of them, and return the first
    /// key left behind when `limit` cut the leaf short. Keys are owned
    /// clones (prefix reattached once per node for truncated leaves): the
    /// caller may keep them past validation.
    pub fn collect_from(
        &self,
        from: Option<&K>,
        limit: usize,
        out: &mut Vec<(K, u64)>,
    ) -> Option<K> {
        let n = self.count();
        let start = match from {
            Some(k) => self.lower_bound(k),
            None => 0,
        };
        let end = start + limit.min(n.saturating_sub(start));
        if K::TRUNCATE {
            let mut buf = Vec::new();
            // Safety: caller pinned; prefix slot readable.
            unsafe { bslot::append_to(self.prefix.load(K::SLOT_LOAD), &mut buf) };
            let plen = buf.len();
            for i in start..end {
                buf.truncate(plen);
                // Safety: published slot below count, caller pinned.
                unsafe { bslot::append_to(self.keys[i].load(K::SLOT_LOAD), &mut buf) };
                out.push((K::from_raw(&buf), self.vals[i].load(R)));
            }
        } else {
            for i in start..end {
                // Safety: published slot below count, caller pinned.
                out.push((unsafe { self.key_at(i) }, self.vals[i].load(R)));
            }
        }
        // Safety: published slot below count, caller pinned.
        (end < n).then(|| unsafe { self.key_at(end) })
    }

    /// Free the key slots this node owns (`[0, count)`), plus the prefix
    /// slot for truncated nodes: tree drop only.
    ///
    /// # Safety
    /// Caller must have exclusive ownership of the whole tree.
    pub unsafe fn free_key_slots(&self) {
        for i in 0..self.count() {
            unsafe { K::slot_free(self.keys[i].load(R)) };
        }
        if K::TRUNCATE {
            unsafe { bslot::free(self.prefix.load(R)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql::OptLock;
    use optiql_index_api::Bytes;
    use optiql_reclaim::Collector;

    type L = Leaf<OptLock, 8>;
    type I = Inner<OptLock, 8>;

    fn leaf<'a>() -> (&'a L, *mut NodeBase) {
        let p = L::alloc();
        (unsafe { as_leaf::<OptLock, 8, u64>(p) }, p)
    }

    fn free_leaf(p: *mut NodeBase) {
        drop(unsafe { Box::from_raw(p as *mut L) });
    }

    fn free_inner(p: *mut NodeBase) {
        drop(unsafe { Box::from_raw(p as *mut I) });
    }

    #[test]
    fn leaf_insert_sorted_and_lookup() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        for k in [5u64, 1, 9, 3] {
            assert!(l.insert(&k, k * 10, &g).is_none());
        }
        assert_eq!(l.count(), 4);
        let keys: Vec<u64> = (0..4).map(|i| l.key_slot(i)).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert_eq!(l.lookup(&5), Some(50));
        assert_eq!(l.lookup(&4), None);
        free_leaf(p);
    }

    #[test]
    fn leaf_insert_duplicate_overwrites() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        assert!(l.insert(&7, 1, &g).is_none());
        assert_eq!(l.insert(&7, 2, &g), Some(1));
        assert_eq!(l.count(), 1);
        assert_eq!(l.lookup(&7), Some(2));
        free_leaf(p);
    }

    #[test]
    fn leaf_update_and_remove() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        l.insert(&1, 10, &g);
        l.insert(&2, 20, &g);
        l.insert(&3, 30, &g);
        assert_eq!(l.update(&2, 21), Some(20));
        assert_eq!(l.update(&4, 40), None);
        assert_eq!(l.remove(&2), Some((2, 21)), "remove yields (slot, val)");
        assert_eq!(l.remove(&2), None);
        assert_eq!(l.count(), 2);
        assert_eq!(l.lookup(&1), Some(10));
        assert_eq!(l.lookup(&3), Some(30));
        free_leaf(p);
    }

    #[test]
    fn leaf_split_moves_upper_half() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        for k in 0..8u64 {
            l.insert(&(2 * k), k, &g);
        }
        assert!(l.is_full());
        // The pending key lands inside the leaf: split in half.
        let (sep, rp) = l.split(&5, &g);
        let r = unsafe { as_leaf::<OptLock, 8, u64>(rp) };
        assert_eq!(sep, 8);
        assert_eq!(l.count(), 4);
        assert_eq!(r.count(), 4);
        assert_eq!(l.lookup(&6), Some(3));
        assert_eq!(l.lookup(&8), None);
        assert_eq!(r.lookup(&8), Some(4));
        free_leaf(p);
        free_leaf(rp);
    }

    #[test]
    fn leaf_split_for_an_appended_key_moves_only_the_last_entry() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        for k in 0..8u64 {
            l.insert(&k, k, &g);
        }
        let (sep, rp) = l.split(&8, &g);
        let r = unsafe { as_leaf::<OptLock, 8, u64>(rp) };
        assert_eq!(sep, 7, "the separator is still the right leaf's first key");
        assert_eq!((l.count(), r.count()), (7, 1));
        assert_eq!(l.lookup(&6), Some(6));
        assert_eq!(l.lookup(&7), None);
        assert_eq!(r.lookup(&7), Some(7));
        free_leaf(p);
        free_leaf(rp);
    }

    #[test]
    fn leaf_absorb_concatenates() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        let (r, rp) = leaf();
        l.insert(&1, 1, &g);
        l.insert(&2, 2, &g);
        r.insert(&10, 10, &g);
        r.insert(&11, 11, &g);
        l.absorb(r, &g);
        assert_eq!(l.count(), 4);
        assert_eq!(l.lookup(&11), Some(11));
        free_leaf(p);
        free_leaf(rp);
    }

    #[test]
    fn leaf_collect_from_respects_bounds() {
        let col = Collector::new();
        let g = col.pin();
        let (l, p) = leaf();
        for k in [2u64, 4, 6, 8] {
            l.insert(&k, k, &g);
        }
        let mut out = Vec::new();
        let left_behind = l.collect_from(Some(&4), 2, &mut out);
        assert_eq!(out, vec![(4, 4), (6, 6)]);
        assert_eq!(left_behind, Some(8), "a cut leaf names its next key");
        out.clear();
        assert_eq!(l.collect_from(None, 8, &mut out), None);
        assert_eq!(out.len(), 4, "None = no lower bound");
        free_leaf(p);
    }

    #[test]
    fn byte_key_leaf_owns_its_slots() {
        let col = Collector::new();
        let g = col.pin();
        let p = Leaf::<OptLock, 8, Bytes>::alloc();
        let l = unsafe { as_leaf::<OptLock, 8, Bytes>(p) };
        for s in ["delta", "alpha", "charlie", "bravo"] {
            assert!(l.insert(&Bytes::from(s), s.len() as u64, &g).is_none());
        }
        assert_eq!(l.count(), 4);
        // Sorted lexicographically through the slot indirection.
        let keys: Vec<Bytes> = (0..4).map(|i| unsafe { l.key_at(i) }).collect();
        assert_eq!(
            keys,
            ["alpha", "bravo", "charlie", "delta"]
                .map(Bytes::from)
                .to_vec()
        );
        assert_eq!(l.lookup(&Bytes::from("charlie")), Some(7));
        assert_eq!(l.lookup(&Bytes::from("zulu")), None);
        assert_eq!(
            l.insert(&Bytes::from("alpha"), 99, &g),
            Some(5),
            "overwrite"
        );
        // Remove hands the (suffix) slot back for the caller to release.
        let (slot, val) = l.remove(&Bytes::from("bravo")).unwrap();
        assert_eq!(val, 5);
        unsafe { Bytes::slot_free(slot) };
        // Split: separator is an independently owned full key.
        let (sep, rp) = l.split(&Bytes::from("bravo"), &g);
        let r = unsafe { as_leaf::<OptLock, 8, Bytes>(rp) };
        assert_eq!(sep, unsafe { r.key_at(0) });
        unsafe {
            l.free_key_slots();
            r.free_key_slots();
        }
        drop(unsafe { Box::from_raw(p as *mut Leaf<OptLock, 8, Bytes>) });
        drop(unsafe { Box::from_raw(rp as *mut Leaf<OptLock, 8, Bytes>) });
        drop(g);
        col.flush();
    }

    #[test]
    fn truncated_leaf_inlines_clustered_suffixes() {
        let col = Collector::new();
        let g = col.pin();
        let p = Leaf::<OptLock, 8, Bytes>::alloc();
        let l = unsafe { as_leaf::<OptLock, 8, Bytes>(p) };
        // First insert: the whole key becomes the prefix, slot = "".
        assert!(l
            .insert(&Bytes::from("user0000000000000007"), 7, &g)
            .is_none());
        assert_eq!(l.key_slot(0), bslot::EMPTY);
        // Clustered inserts share the long prefix; the divergent tails
        // are short, so every slot stays inline — zero pointer chases.
        for i in [3u64, 5, 9, 42] {
            let k = Bytes::from(format!("user00000000000000{i:02}"));
            assert!(l.insert(&k, i, &g).is_none());
        }
        for i in 0..l.count() {
            assert!(bslot::is_inline(l.key_slot(i)), "slot {i} not inline");
        }
        let mut tp = [0u8; bslot::MAX_INLINE];
        assert_eq!(
            unsafe { bslot::slot_bytes(l.prefix_word(), &mut tp) },
            b"user00000000000000",
            "prefix shrank to the common part"
        );
        for i in [3u64, 5, 7, 9, 42] {
            let k = Bytes::from(format!("user00000000000000{i:02}"));
            assert_eq!(l.lookup(&k), Some(i), "{k:?}");
        }
        // A probe outside the prefix answers without touching slots.
        assert_eq!(l.lookup(&Bytes::from("item0")), None);
        assert_eq!(l.lower_bound(&Bytes::from("item0")), 0);
        assert_eq!(l.lower_bound(&Bytes::from("zzz")), l.count());
        // A divergent insert shrinks the prefix and keeps everything.
        assert!(l.insert(&Bytes::from("user1"), 100, &g).is_none());
        assert_eq!(
            unsafe { bslot::slot_bytes(l.prefix_word(), &mut tp) },
            b"user",
        );
        for i in [3u64, 5, 7, 9, 42] {
            let k = Bytes::from(format!("user00000000000000{i:02}"));
            assert_eq!(l.lookup(&k), Some(i), "{k:?} after shrink");
        }
        assert_eq!(l.lookup(&Bytes::from("user1")), Some(100));
        // Full keys reconstruct with the prefix reattached.
        let mut out = Vec::new();
        assert_eq!(l.collect_from(None, 16, &mut out), None);
        assert_eq!(out.len(), 6);
        assert_eq!(out[0].0, Bytes::from("user0000000000000003"));
        assert_eq!(out[5].0, Bytes::from("user1"));
        // Split re-grows each half's prefix.
        let (sep, rp) = l.split(&Bytes::from("user0000000000000004"), &g);
        let r = unsafe { as_leaf::<OptLock, 8, Bytes>(rp) };
        assert_eq!(sep, unsafe { r.key_at(0) });
        for (i, (k, _)) in out.iter().enumerate().take(l.count()) {
            assert_eq!(unsafe { l.key_at(i) }, *k, "left keys survive");
        }
        for i in 0..r.count() {
            assert_eq!(
                unsafe { r.key_at(i) },
                out[l.count() + i].0,
                "right keys survive"
            );
        }
        unsafe {
            l.free_key_slots();
            r.free_key_slots();
        }
        drop(unsafe { Box::from_raw(p as *mut Leaf<OptLock, 8, Bytes>) });
        drop(unsafe { Box::from_raw(rp as *mut Leaf<OptLock, 8, Bytes>) });
        drop(g);
        col.flush();
    }

    #[test]
    fn truncated_leaf_absorb_merges_prefix_contexts() {
        let col = Collector::new();
        let g = col.pin();
        let p = Leaf::<OptLock, 8, Bytes>::alloc();
        let rp = Leaf::<OptLock, 8, Bytes>::alloc();
        let l = unsafe { as_leaf::<OptLock, 8, Bytes>(p) };
        let r = unsafe { as_leaf::<OptLock, 8, Bytes>(rp) };
        for s in ["apple-01", "apple-02"] {
            l.insert(&Bytes::from(s), 1, &g);
        }
        for s in ["apricot-77", "apricot-99"] {
            r.insert(&Bytes::from(s), 2, &g);
        }
        l.absorb(r, &g);
        assert_eq!(l.count(), 4);
        let mut tp = [0u8; bslot::MAX_INLINE];
        assert_eq!(
            unsafe { bslot::slot_bytes(l.prefix_word(), &mut tp) },
            b"ap",
            "merged prefix is the common part"
        );
        for s in ["apple-01", "apple-02", "apricot-77", "apricot-99"] {
            assert!(l.lookup(&Bytes::from(s)).is_some(), "{s}");
        }
        unsafe { l.free_key_slots() };
        drop(unsafe { Box::from_raw(p as *mut Leaf<OptLock, 8, Bytes>) });
        drop(unsafe { Box::from_raw(rp as *mut Leaf<OptLock, 8, Bytes>) });
        drop(g);
        col.flush();
    }

    #[test]
    fn inner_child_routing() {
        let col = Collector::new();
        let g = col.pin();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8, u64>(ip) };
        let (c0, c1, c2) = (L::alloc(), L::alloc(), L::alloc());
        inner.init_root(10, c0, c1);
        inner.insert_child(&20, c2, &g);
        assert_eq!(inner.count(), 2);
        assert_eq!(inner.find_child(&5), c0);
        assert_eq!(inner.find_child(&10), c1);
        assert_eq!(inner.find_child(&20), c2);
        assert_eq!(unsafe { inner.sep_key_at(0) }, 10);
        assert_eq!(unsafe { inner.sep_key_at(1) }, 20);
        assert_eq!(inner.find_child_from(None).0, c0, "None descends leftmost");
        assert_eq!(inner.find_child_from(None).1, Some(10));
        assert_eq!(inner.find_child_from(Some(&15)).0, inner.find_child(&15));
        assert_eq!(inner.find_child_from(Some(&15)).1, Some(20));
        assert_eq!(inner.find_child_from(Some(&99)).1, None, "rightmost");
        free_leaf(c0);
        free_leaf(c1);
        free_leaf(c2);
        free_inner(ip);
    }

    #[test]
    fn inner_split_pushes_middle_separator_up() {
        let col = Collector::new();
        let g = col.pin();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8, u64>(ip) };
        let kids: Vec<*mut NodeBase> = (0..8).map(|_| L::alloc()).collect();
        inner.init_root(10, kids[0], kids[1]);
        for (i, sep) in [20u64, 30, 40, 50, 60].iter().enumerate() {
            inner.insert_child(sep, kids[i + 2], &g);
        }
        assert!(inner.is_full() || inner.count() == 6);
        let n = inner.count();
        // The insert descends through a middle child: split in half.
        let (sep, rp) = inner.split(&25, &g);
        let right = unsafe { as_inner::<OptLock, 8, u64>(rp) };
        assert_eq!(sep, 40);
        assert_eq!(inner.count() + right.count() + 1, n);
        // Separator strictly partitions the two halves.
        for i in 0..inner.count() {
            assert!(inner.key_slot(i) < sep);
        }
        for i in 0..right.count() {
            assert!(right.key_slot(i) > sep);
        }
        for k in kids {
            free_leaf(k);
        }
        free_inner(ip);
        free_inner(rp);
    }

    #[test]
    fn inner_split_through_the_last_child_keeps_all_but_two_children() {
        let col = Collector::new();
        let g = col.pin();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8, u64>(ip) };
        let kids: Vec<*mut NodeBase> = (0..8).map(|_| L::alloc()).collect();
        inner.init_root(10, kids[0], kids[1]);
        for (i, sep) in [20u64, 30, 40, 50, 60, 70].iter().enumerate() {
            inner.insert_child(sep, kids[i + 2], &g);
        }
        assert!(inner.is_full());
        let (sep, rp) = inner.split(&75, &g);
        let right = unsafe { as_inner::<OptLock, 8, u64>(rp) };
        assert_eq!(sep, 60);
        assert_eq!((inner.count(), right.count()), (5, 1));
        assert_eq!(inner.find_child(&55), kids[5]);
        assert_eq!(right.find_child(&65), kids[6]);
        assert_eq!(right.find_child(&75), kids[7]);
        for k in kids {
            free_leaf(k);
        }
        free_inner(ip);
        free_inner(rp);
    }

    #[test]
    fn truncated_inner_routes_and_splits() {
        let col = Collector::new();
        let g = col.pin();
        let ip = Inner::<OptLock, 8, Bytes>::alloc();
        let inner = unsafe { as_inner::<OptLock, 8, Bytes>(ip) };
        let kids: Vec<*mut NodeBase> = (0..8).map(|_| Leaf::<OptLock, 8, Bytes>::alloc()).collect();
        inner.init_root(Bytes::from("key-20"), kids[0], kids[1]);
        for (i, s) in ["key-30", "key-40", "key-50", "key-60", "key-70"]
            .iter()
            .enumerate()
        {
            inner.insert_child(&Bytes::from(*s), kids[i + 2], &g);
        }
        assert_eq!(inner.count(), 6);
        // All separators share "key-" and the suffixes are inline.
        for i in 0..inner.count() {
            assert!(bslot::is_inline(inner.key_slot(i)));
            assert_eq!(
                unsafe { inner.sep_key_at(i) },
                Bytes::from(format!("key-{}0", i + 2))
            );
        }
        assert_eq!(inner.find_child(&Bytes::from("key-10")), kids[0]);
        assert_eq!(inner.find_child(&Bytes::from("key-25")), kids[1]);
        assert_eq!(
            inner.find_child(&Bytes::from("aaa")),
            kids[0],
            "below prefix"
        );
        assert_eq!(
            inner.find_child(&Bytes::from("zzz")),
            kids[6],
            "above prefix"
        );
        let (sep, rp) = inner.split(&Bytes::from("key-35"), &g);
        let right = unsafe { as_inner::<OptLock, 8, Bytes>(rp) };
        assert_eq!(sep, Bytes::from("key-50"));
        for i in 0..inner.count() {
            assert!(unsafe { inner.sep_key_at(i) } < sep);
        }
        for i in 0..right.count() {
            assert!(unsafe { right.sep_key_at(i) } > sep);
        }
        for k in kids {
            drop(unsafe { Box::from_raw(k as *mut Leaf<OptLock, 8, Bytes>) });
        }
        unsafe {
            inner.free_key_slots();
            right.free_key_slots();
        }
        drop(unsafe { Box::from_raw(ip as *mut Inner<OptLock, 8, Bytes>) });
        drop(unsafe { Box::from_raw(rp as *mut Inner<OptLock, 8, Bytes>) });
        drop(g);
        col.flush();
    }

    #[test]
    fn inner_remove_child_closes_gaps() {
        let col = Collector::new();
        let g = col.pin();
        let ip = I::alloc();
        let inner = unsafe { as_inner::<OptLock, 8, u64>(ip) };
        let (c0, c1, c2) = (L::alloc(), L::alloc(), L::alloc());
        inner.init_root(10, c0, c1);
        inner.insert_child(&20, c2, &g);
        // Remove middle child c1 (covers [10,20)): separator 10 goes away.
        let pos = inner.position_of(c1).unwrap();
        assert_eq!(inner.remove_child(pos), 10, "dropped separator slot");
        assert_eq!(inner.count(), 1);
        assert_eq!(inner.find_child(&5), c0);
        assert_eq!(inner.find_child(&25), c2);
        // Remove leftmost child.
        assert_eq!(inner.remove_child(0), 20);
        assert_eq!(inner.count(), 0);
        assert_eq!(inner.find_child(&0), c2);
        free_leaf(c0);
        free_leaf(c1);
        free_leaf(c2);
        free_inner(ip);
    }

    #[test]
    fn search_matches_reference_across_scan_regimes() {
        // Cover counts below and above LINEAR_MAX so both the unrolled
        // linear scan and the monobound binary search are checked against a
        // naive reference.
        fn check<const C: usize>() {
            let col = Collector::new();
            let g = col.pin();
            let lp = Leaf::<OptLock, C>::alloc();
            let l = unsafe { as_leaf::<OptLock, C, u64>(lp) };
            for i in 0..C as u64 {
                l.insert(&(i * 2 + 1), i, &g);
            }
            for probe in 0..=(2 * C as u64 + 2) {
                let expect = (0..l.count())
                    .find(|&i| l.key_slot(i) >= probe)
                    .unwrap_or(l.count());
                assert_eq!(l.lower_bound(&probe), expect, "C={C} probe={probe}");
            }
            drop(unsafe { Box::from_raw(lp as *mut Leaf<OptLock, C>) });

            let ip = Inner::<OptLock, C>::alloc();
            let inner = unsafe { as_inner::<OptLock, C, u64>(ip) };
            let kid = Leaf::<OptLock, 4>::alloc();
            inner.init_root(2, kid, kid);
            for i in 1..(C - 1) as u64 {
                inner.insert_child(&((i + 1) * 2), kid, &g);
            }
            for probe in 0..=(2 * C as u64 + 2) {
                let expect = (0..inner.count())
                    .find(|&i| probe < inner.key_slot(i))
                    .unwrap_or(inner.count());
                assert_eq!(inner.child_index(&probe), expect, "C={C} probe={probe}");
            }
            drop(unsafe { Box::from_raw(kid as *mut Leaf<OptLock, 4>) });
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
    fn s256_nodes_are_272_and_288_bytes() {
        use crate::{DEFAULT_IC, DEFAULT_LC};
        use optiql::OptiQL;
        use std::mem::size_of;
        // 32 bytes of header (tag, lock, count, prefix) on top of the
        // slots: the "256-byte" preset names the slot arrays, not the node.
        assert_eq!((DEFAULT_IC, DEFAULT_LC), (16, 15));
        assert_eq!(size_of::<Leaf<OptiQL, DEFAULT_LC>>(), 32 + 15 * 16);
        assert_eq!(size_of::<Leaf<OptLock, DEFAULT_LC>>(), 272);
        assert_eq!(size_of::<Inner<OptLock, DEFAULT_IC>>(), 32 + 16 * 16);
        assert_eq!(size_of::<Inner<OptLock, DEFAULT_IC, Bytes>>(), 288);
    }

    #[test]
    fn lower_bound_on_empty_leaf() {
        let (l, p) = leaf();
        assert_eq!(l.lower_bound(&42), 0);
        assert_eq!(l.search(&42), None);
        assert_eq!(l.lookup(&42), None);
        free_leaf(p);
    }
}

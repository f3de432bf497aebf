//! ART node layout (Leis et al. \[27\]): four adaptively-sized node types,
//! path compression, and single-entry KV leaves reached through tagged
//! pointers (lazy expansion).
//!
//! As in the B+-tree crate, every mutable cell is an atomic accessed with
//! `Relaxed` ordering so optimistic readers are race-free; inconsistent
//! snapshots are rejected by lock-version validation.
//!
//! Keys are `u64`s whose radix digits are their 8 bytes, most significant
//! first (order preserving), taken from the key by shifts ([`digit`]). A
//! compressed path is at most 7 digits and packs into one atomic word in
//! the same order, so matching it against a key is one `xor` of two
//! words ([`ArtNode::prefix_match_len`]).
//!
//! Every node is a slot of one of its tree's [`Slabs`] — one per inner
//! kind, one for KV leaves — and stays a node of that kind until the tree
//! drops ([`Slot`]). A node's kind tag is written once, when its slot is
//! carved, so a descent may read it through a pointer it has not
//! validated, even one to a node freed since. A free inner node links
//! through its `prefix` word and a free KV leaf through its value, and a
//! recycled inner node is emptied under its own lock, whose version
//! therefore never goes back: a reader in a node that was freed and
//! reused fails validation.

use std::cmp;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

use optiql::slab::{Slab, Slot};
use optiql::IndexLock;

const R: Ordering = Ordering::Relaxed;

/// Digits in a key.
pub const KEY_LEN: usize = 8;

/// `key`'s digits from `depth` on, left-aligned: digit `depth` in the top
/// byte, zeros where the key has run out. A torn optimistic snapshot can
/// put `depth` past the key's end for a moment; the checked shift then
/// yields 0 instead of overflowing, and validation rejects whatever was
/// read.
#[inline]
pub(crate) fn digits_from(key: u64, depth: usize) -> u64 {
    key.checked_shl((depth as u32).saturating_mul(8))
        .unwrap_or(0)
}

/// Digit `depth` of `key` (0 past its end).
#[inline]
pub(crate) fn digit(key: u64, depth: usize) -> u8 {
    (digits_from(key, depth) >> 56) as u8
}

/// The mask of a word's top `n` digits.
#[inline]
pub(crate) fn top(n: usize) -> u64 {
    !u64::MAX
        .checked_shr((n as u32).saturating_mul(8))
        .unwrap_or(0)
}

/// First digit position ≥ `from` where two keys differ. Distinct keys
/// diverge inside their 8 digits; `None` means the digits agree from
/// `from` on, i.e. the caller's view of the shared path was stale.
#[inline]
pub(crate) fn fork_depth(a: u64, b: u64, from: usize) -> Option<usize> {
    let diff = digits_from(a ^ b, from);
    (diff != 0).then(|| from + diff.leading_zeros() as usize / 8)
}

/// Node kinds; fixed per slot (a node changes size by being replaced,
/// never in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeType {
    /// Up to 4 children, sorted key array.
    N4 = 0,
    /// Up to 16 children, sorted key array.
    N16 = 1,
    /// Up to 48 children via a 256-entry indirection table.
    N48 = 2,
    /// Direct 256-slot child table.
    N256 = 3,
}

/// Single-entry leaf: the full key plus the payload ("TID"). Reached via a
/// tagged pointer; the key is written before the leaf is published, the
/// value is an atomic cell so in-place updates need no reallocation. Both
/// are atomics because a reader may load them from a leaf freed and reused
/// since it read the pointer (its parent's validation then fails). A slot
/// of its tree's slab, never a `Box` of its own; 16-aligned, so no leaf
/// straddles a cache line.
#[repr(C, align(16))]
pub struct KvLeaf {
    /// The complete key (lazy expansion means inner nodes may not spell
    /// out every byte; the leaf is the source of truth).
    key: AtomicU64,
    val: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<KvLeaf>() == 16);

// SAFETY: a free leaf links through its value, a payload a reader returns
// but never follows; it has no tag or lock of its own, and needs no drop.
unsafe impl Slot for KvLeaf {
    fn fresh() -> Self {
        KvLeaf {
            key: AtomicU64::new(0),
            val: AtomicU64::new(0),
        }
    }

    fn link(&self) -> &AtomicU64 {
        &self.val
    }
}

impl KvLeaf {
    /// The complete key.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key.load(R)
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.val.load(R)
    }

    /// Replace the value (caller holds the parent node's exclusive lock).
    #[inline]
    pub fn set_value(&self, v: u64) -> u64 {
        let old = self.val.load(R);
        self.val.store(v, R);
        old
    }
}

/// True iff a child pointer is a tagged KV leaf.
#[inline]
pub fn is_kv<L: IndexLock>(p: *mut ArtNode<L>) -> bool {
    (p as usize) & 1 == 1
}

/// Untag a KV leaf pointer.
///
/// # Safety
/// `p` must be a tagged pointer to a slot of the tree's KV leaf slab.
#[inline]
pub unsafe fn as_kv<'a, L: IndexLock>(p: *mut ArtNode<L>) -> &'a KvLeaf {
    debug_assert!(is_kv(p));
    unsafe { &*(((p as usize) & !1) as *const KvLeaf) }
}

/// Branchless SSE2 probe of a `Node16` key array: compare all 16 bytes
/// against `b` in one shot, mask the compare result down to the `cnt` live
/// slots, and return the index of the match (key bytes are unique within a
/// node, so at most one bit survives the mask).
///
/// Consistency: `AtomicU8` is layout-identical to `u8`, so reading the
/// array as one 16-byte vector is layout-correct. The vector load is not a
/// single atomic operation, but like every other relaxed payload read in
/// this module it may only be torn by a concurrent writer, and the caller
/// discards the result through lock-version validation in that case. The
/// count mask keeps stale bytes beyond `cnt` (left behind by removals)
/// from ever matching.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn simd_find16(keys: &[AtomicU8; 16], b: u8, cnt: usize) -> Option<usize> {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8,
    };
    debug_assert!(cnt <= 16);
    // Safety: SSE2 is part of the x86_64 baseline; the 16-byte source is a
    // fully initialized `[AtomicU8; 16]` (unaligned load, no alignment
    // requirement).
    let eq = unsafe {
        let hay = _mm_loadu_si128(keys.as_ptr() as *const __m128i);
        _mm_movemask_epi8(_mm_cmpeq_epi8(hay, _mm_set1_epi8(b as i8))) as u32
    };
    let live = eq & ((1u32 << cnt) - 1);
    (live != 0).then(|| live.trailing_zeros() as usize)
}

/// Prefetch a child before it is entered: the leaf line for a tagged KV
/// pointer, the header + leading key/index lines for an inner node. Used
/// by the batched engine, which chooses a child one pipeline turn before
/// touching it.
#[inline(always)]
pub(crate) fn prefetch_child<L: IndexLock>(p: *mut ArtNode<L>) {
    #[cfg(target_arch = "x86_64")]
    // Safety: prefetch is a pure hint and never faults.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let addr = ((p as usize) & !1) as *const i8;
        _mm_prefetch::<_MM_HINT_T0>(addr);
        if !is_kv(p) {
            _mm_prefetch::<_MM_HINT_T0>(addr.wrapping_add(64));
            _mm_prefetch::<_MM_HINT_T0>(addr.wrapping_add(128));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Common header of every inner ART node.
#[repr(C)]
pub struct ArtNode<L: IndexLock> {
    /// Node kind; written once, when the slot is carved.
    typ: NodeType,
    /// Per-node lock (the paper uses the same lock type on *all* ART nodes,
    /// §6.2).
    pub lock: L,
    count: AtomicU16,
    /// Compressed-path length in digits (0..=7).
    prefix_len: AtomicU8,
    /// Compressed-path digits, left-aligned as in [`digits_from`]: digit
    /// `i` lives at bits `56 - 8 i`, and the bits past `prefix_len` are
    /// zero. A free slot's free-list link.
    prefix: AtomicU64,
    /// Contention counter for contention expansion (§6.2), incremented
    /// probabilistically on upgrade-based exclusive acquisitions.
    contention: AtomicU32,
}

/// Sorted-array node: up to `N` children, their key bytes kept in
/// ascending order. ART's `Node4` and `Node16` are this one layout at two
/// capacities.
#[repr(C)]
pub struct Sorted<L: IndexLock, const N: usize> {
    /// Common node header.
    pub hdr: ArtNode<L>,
    keys: [AtomicU8; N],
    children: [AtomicPtr<ArtNode<L>>; N],
}

/// Up to 4 children.
pub type Node4<L> = Sorted<L, 4>;
/// Up to 16 children, searched with one SSE2 compare on x86_64.
pub type Node16<L> = Sorted<L, 16>;

impl<L: IndexLock, const N: usize> Sorted<L, N> {
    /// The kind tag of capacity `N`; any other capacity fails to compile.
    const TYP: NodeType = match N {
        4 => NodeType::N4,
        16 => NodeType::N16,
        _ => panic!("a sorted node holds 4 or 16 children"),
    };

    /// Live children (the header's count, clamped to `N` for a torn read).
    #[inline]
    fn len(&self) -> usize {
        (self.hdr.count.load(R) as usize).min(N)
    }

    /// Index of key byte `b` among the live keys.
    #[inline]
    fn position(&self, b: u8) -> Option<usize> {
        (0..self.len()).find(|&i| self.keys[i].load(R) == b)
    }
}

/// 48-child node: a 256-entry table maps a key byte to `slot + 1`
/// (0 = empty), children live in 48 slots.
#[repr(C)]
pub struct Node48<L: IndexLock> {
    /// Common node header.
    pub hdr: ArtNode<L>,
    index: [AtomicU8; 256],
    children: [AtomicPtr<ArtNode<L>>; 48],
}

/// 256-child node: direct table. The tree root is a `Node256` and is never
/// replaced, which removes every root-swap race.
#[repr(C)]
pub struct Node256<L: IndexLock> {
    /// Common node header.
    pub hdr: ArtNode<L>,
    children: [AtomicPtr<ArtNode<L>>; 256],
}

/// The [`Slot`] of an inner node kind: carved with its kind tag, linked
/// through its `prefix` word while free.
macro_rules! inner_slot {
    ([$($g:tt)*] $ty:ty, $typ:expr, { $($field:ident: $init:expr),* }) => {
        // SAFETY: a free slot links through `hdr.prefix`, path digits a
        // reader compares but never follows; the kind tag, the lock and
        // the children stay as they were. A node needs no drop (its lock
        // is a word).
        unsafe impl<L: IndexLock, $($g)*> Slot for $ty {
            fn fresh() -> Self {
                Self {
                    hdr: ArtNode {
                        typ: $typ,
                        lock: L::default(),
                        count: AtomicU16::new(0),
                        prefix_len: AtomicU8::new(0),
                        prefix: AtomicU64::new(0),
                        contention: AtomicU32::new(0),
                    },
                    $($field: $init),*
                }
            }

            fn link(&self) -> &AtomicU64 {
                &self.hdr.prefix
            }
        }
    };
}

inner_slot!([const N: usize] Sorted<L, N>, Self::TYP, {
    keys: [const { AtomicU8::new(0) }; N],
    children: [const { AtomicPtr::new(ptr::null_mut()) }; N]
});
inner_slot!([] Node48<L>, NodeType::N48, {
    index: [const { AtomicU8::new(0) }; 256],
    children: [const { AtomicPtr::new(ptr::null_mut()) }; 48]
});
inner_slot!([] Node256<L>, NodeType::N256, {
    children: [const { AtomicPtr::new(ptr::null_mut()) }; 256]
});

/// The child operations of one node layout, written once per layout:
/// sorted ([`Sorted`]), indexed ([`Node48`]) and direct ([`Node256`]).
/// The header keeps the child count: these read it, and only
/// `ArtNode::insert_child` and `remove_child` write it. The writers need
/// the node's exclusive lock.
trait Layout<L: IndexLock> {
    /// Child for key byte `b`, or null.
    fn find(&self, b: u8) -> *mut ArtNode<L>;
    /// Add `child` under `b` (not full; `b` absent).
    fn insert(&self, b: u8, child: *mut ArtNode<L>);
    /// Swap `child` in under `b`: the previous child, or null if `b` is
    /// absent.
    fn replace(&self, b: u8, child: *mut ArtNode<L>) -> *mut ArtNode<L>;
    /// Take `b`'s child out: the child, or null if `b` is absent.
    fn remove(&self, b: u8) -> *mut ArtNode<L>;
    /// Every `(byte, child)` pair in ascending byte order.
    fn each(&self, f: impl FnMut(u8, *mut ArtNode<L>));
    /// Empty the tables of a recycled slot whose lookups do not stop at
    /// the count (a fresh slot's are empty already).
    fn clear(&self);
}

impl<L: IndexLock, const N: usize> Layout<L> for Sorted<L, N> {
    #[inline]
    fn find(&self, b: u8) -> *mut ArtNode<L> {
        #[cfg(target_arch = "x86_64")]
        if N == 16 {
            let keys = self.keys[..].try_into().expect("N == 16");
            return match simd_find16(keys, b, self.len()) {
                Some(i) => self.children[i].load(R),
                None => ptr::null_mut(),
            };
        }
        self.position(b)
            .map_or(ptr::null_mut(), |i| self.children[i].load(R))
    }

    fn insert(&self, b: u8, child: *mut ArtNode<L>) {
        // Keep keys sorted for deterministic iteration.
        let cnt = self.len();
        let mut pos = 0;
        while pos < cnt && self.keys[pos].load(R) < b {
            pos += 1;
        }
        for i in (pos..cnt).rev() {
            self.keys[i + 1].store(self.keys[i].load(R), R);
            self.children[i + 1].store(self.children[i].load(R), R);
        }
        self.keys[pos].store(b, R);
        self.children[pos].store(child, R);
    }

    fn replace(&self, b: u8, child: *mut ArtNode<L>) -> *mut ArtNode<L> {
        self.position(b)
            .map_or(ptr::null_mut(), |i| self.children[i].swap(child, R))
    }

    fn remove(&self, b: u8) -> *mut ArtNode<L> {
        let Some(i) = self.position(b) else {
            return ptr::null_mut();
        };
        let old = self.children[i].load(R);
        for j in i..self.len() - 1 {
            self.keys[j].store(self.keys[j + 1].load(R), R);
            self.children[j].store(self.children[j + 1].load(R), R);
        }
        old
    }

    fn each(&self, mut f: impl FnMut(u8, *mut ArtNode<L>)) {
        for i in 0..self.len() {
            f(self.keys[i].load(R), self.children[i].load(R));
        }
    }

    fn clear(&self) {}
}

impl<L: IndexLock> Layout<L> for Node48<L> {
    #[inline]
    fn find(&self, b: u8) -> *mut ArtNode<L> {
        match self.index[b as usize].load(R) {
            0 => ptr::null_mut(),
            slot => self.children[(slot - 1) as usize].load(R),
        }
    }

    fn insert(&self, b: u8, child: *mut ArtNode<L>) {
        let slot = (0..48)
            .find(|&i| self.children[i].load(R).is_null())
            .expect("Node48 full despite count");
        self.children[slot].store(child, R);
        self.index[b as usize].store((slot + 1) as u8, R);
    }

    fn replace(&self, b: u8, child: *mut ArtNode<L>) -> *mut ArtNode<L> {
        match self.index[b as usize].load(R) {
            0 => ptr::null_mut(),
            slot => self.children[(slot - 1) as usize].swap(child, R),
        }
    }

    fn remove(&self, b: u8) -> *mut ArtNode<L> {
        let slot = self.index[b as usize].load(R);
        if slot == 0 {
            return ptr::null_mut();
        }
        let old = self.children[(slot - 1) as usize].swap(ptr::null_mut(), R);
        self.index[b as usize].store(0, R);
        old
    }

    fn each(&self, mut f: impl FnMut(u8, *mut ArtNode<L>)) {
        for b in 0..256 {
            let slot = self.index[b].load(R);
            if slot != 0 {
                f(b as u8, self.children[(slot - 1) as usize].load(R));
            }
        }
    }

    fn clear(&self) {
        for i in &self.index {
            i.store(0, R);
        }
        for c in &self.children {
            c.store(ptr::null_mut(), R);
        }
    }
}

impl<L: IndexLock> Layout<L> for Node256<L> {
    #[inline]
    fn find(&self, b: u8) -> *mut ArtNode<L> {
        self.children[b as usize].load(R)
    }

    fn insert(&self, b: u8, child: *mut ArtNode<L>) {
        self.children[b as usize].store(child, R);
    }

    fn replace(&self, b: u8, child: *mut ArtNode<L>) -> *mut ArtNode<L> {
        self.children[b as usize].swap(child, R)
    }

    fn remove(&self, b: u8) -> *mut ArtNode<L> {
        self.children[b as usize].swap(ptr::null_mut(), R)
    }

    fn each(&self, mut f: impl FnMut(u8, *mut ArtNode<L>)) {
        for b in 0..256 {
            let c = self.children[b].load(R);
            if !c.is_null() {
                f(b as u8, c);
            }
        }
    }

    fn clear(&self) {
        for c in &self.children {
            c.store(ptr::null_mut(), R);
        }
    }
}

/// `$body` with `$n` bound to the node `$node` as the [`Layout`] of its
/// kind: the one place a header becomes a node of its kind.
macro_rules! with_layout {
    ($node:expr, |$n:ident| $body:expr) => {{
        let hdr: &ArtNode<L> = $node;
        let p = hdr as *const ArtNode<L>;
        // SAFETY: a node is a slot of its kind's slab, tagged with that
        // kind when the slot was carved and never retagged, and the
        // header is the first field of every kind's `repr(C)` layout.
        match hdr.typ {
            NodeType::N4 => {
                let $n = unsafe { &*(p as *const Node4<L>) };
                $body
            }
            NodeType::N16 => {
                let $n = unsafe { &*(p as *const Node16<L>) };
                $body
            }
            NodeType::N48 => {
                let $n = unsafe { &*(p as *const Node48<L>) };
                $body
            }
            NodeType::N256 => {
                let $n = unsafe { &*(p as *const Node256<L>) };
                $body
            }
        }
    }};
}

/// Where every node of one tree lives: a [`Slab`] per inner node kind and
/// one for KV leaves. A node goes back the moment it is unlinked, and the
/// chunks go when the tree drops.
#[derive(Default)]
pub struct Slabs<L: IndexLock> {
    n4: Slab<Node4<L>>,
    n16: Slab<Node16<L>>,
    n48: Slab<Node48<L>>,
    n256: Slab<Node256<L>>,
    kv: Slab<KvLeaf>,
}

impl<L: IndexLock> Slabs<L> {
    /// An empty inner node of kind `typ`, emptied under its own lock: a
    /// recycled slot keeps its lock word, so its version only moves on and
    /// a writer still queued on the slot's last life gets it in turn.
    pub fn node(&self, typ: NodeType) -> *mut ArtNode<L> {
        let p: NonNull<ArtNode<L>> = match typ {
            NodeType::N4 => self.n4.alloc().cast(),
            NodeType::N16 => self.n16.alloc().cast(),
            NodeType::N48 => self.n48.alloc().cast(),
            NodeType::N256 => self.n256.alloc().cast(),
        };
        // SAFETY: a slot of a node slab holds a node of its kind, whose
        // header is its first field.
        let n = unsafe { p.as_ref() };
        let t = n.lock.x_lock();
        n.count.store(0, R);
        n.set_prefix(0, 0);
        n.reset_contention();
        with_layout!(n, |k| k.clear());
        n.lock.x_unlock(t);
        p.as_ptr()
    }

    /// Return an inner node to its kind's slab. The slot stays a node of
    /// its kind: a reader still inside it fails validation once the node's
    /// holder unlocks (DESIGN §5.1, *Every node in a slab*).
    ///
    /// # Safety
    /// `node` came from these slabs, no node links it any more (nothing new
    /// can reach it), and it is freed once.
    pub unsafe fn free_node(&self, node: &ArtNode<L>) {
        let p = NonNull::from(node);
        unsafe {
            match node.typ {
                NodeType::N4 => self.n4.free(p.cast()),
                NodeType::N16 => self.n16.free(p.cast()),
                NodeType::N48 => self.n48.free(p.cast()),
                NodeType::N256 => self.n256.free(p.cast()),
            }
        }
    }

    /// A KV leaf holding `key` and `val`, as its *tagged* child pointer.
    /// Stale readers of a recycled slot are its old parent's, whose
    /// validation fails, so the leaf needs no lock of its own.
    pub fn kv(&self, key: u64, val: u64) -> *mut ArtNode<L> {
        let p = self.kv.alloc();
        // SAFETY: a slot of the KV slab holds a leaf.
        let leaf = unsafe { p.as_ref() };
        leaf.key.store(key, R);
        leaf.val.store(val, R);
        ((p.as_ptr() as usize) | 1) as *mut ArtNode<L>
    }

    /// Return a KV leaf to its slab.
    ///
    /// # Safety
    /// `p` is a tagged pointer from [`kv`](Self::kv) on these slabs that no
    /// node links any more, freed once.
    pub unsafe fn free_kv(&self, p: *mut ArtNode<L>) {
        debug_assert!(is_kv(p));
        let slot = ((p as usize) & !1) as *mut KvLeaf;
        unsafe { self.kv.free(NonNull::new_unchecked(slot)) }
    }
}

impl<L: IndexLock> ArtNode<L> {
    /// Node kind.
    #[inline]
    pub fn node_type(&self) -> NodeType {
        self.typ
    }

    /// Child count (clamped to the type's capacity).
    #[inline]
    pub fn count(&self) -> usize {
        (self.count.load(R) as usize).min(self.capacity())
    }

    /// Child count as the header holds it, unclamped: the structural
    /// check must see a count that overflowed its kind.
    #[inline]
    pub fn raw_count(&self) -> usize {
        self.count.load(R) as usize
    }

    /// Capacity by node type.
    #[inline]
    pub fn capacity(&self) -> usize {
        match self.typ {
            NodeType::N4 => 4,
            NodeType::N16 => 16,
            NodeType::N48 => 48,
            NodeType::N256 => 256,
        }
    }

    /// True iff another child cannot be added without growing.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count.load(R) as usize >= self.capacity()
    }

    /// Compressed-path length (digits).
    #[inline]
    pub fn prefix_len(&self) -> usize {
        (self.prefix_len.load(R) as usize).min(KEY_LEN - 1)
    }

    /// The compressed path, left-aligned as in [`digits_from`].
    #[inline]
    pub fn prefix(&self) -> u64 {
        self.prefix.load(R)
    }

    /// Install the top `len` digits of `path` as the compressed path
    /// (exclusive access).
    pub fn set_prefix(&self, path: u64, len: usize) {
        debug_assert!(len < KEY_LEN);
        self.prefix.store(path & top(len), R);
        self.prefix_len.store(len as u8, R);
    }

    /// How many digits of the compressed path match `key` from `depth`
    /// on: `prefix_len` on a full match. The key's end (a torn read's
    /// stale depth) is a mismatch at that point.
    #[inline]
    pub fn prefix_match_len(&self, key: u64, depth: usize) -> usize {
        let same = (self.prefix() ^ digits_from(key, depth)).leading_zeros() as usize / 8;
        same.min(self.prefix_len())
            .min(KEY_LEN.saturating_sub(depth))
    }

    /// How the compressed path orders against `key`'s digits from `depth`
    /// on, compared as two integers of `prefix_len` digits. A path running
    /// past the key's end (a torn read's stale depth) sorts above it, as
    /// a string above its own prefix, so it never compares equal.
    #[inline]
    pub fn prefix_cmp(&self, key: u64, depth: usize) -> cmp::Ordering {
        let pl = self.prefix_len();
        let keep = top(pl);
        (self.prefix() & keep)
            .cmp(&(digits_from(key, depth) & keep))
            .then(if KEY_LEN.saturating_sub(depth) < pl {
                cmp::Ordering::Greater
            } else {
                cmp::Ordering::Equal
            })
    }

    /// Contention counter (for contention expansion, §6.2).
    #[inline]
    pub fn contention(&self) -> u32 {
        self.contention.load(R)
    }

    /// Bump the contention counter, returning the new value.
    #[inline]
    pub fn bump_contention(&self) -> u32 {
        self.contention.fetch_add(1, R) + 1
    }

    /// Reset the contention counter (after an expansion).
    #[inline]
    pub fn reset_contention(&self) {
        self.contention.store(0, R);
    }

    // --- type-dispatched child operations --------------------------------

    /// Child for key byte `b`, or null.
    pub fn find_child(&self, b: u8) -> *mut ArtNode<L> {
        with_layout!(self, |n| n.find(b))
    }

    /// Add a child (exclusive access; must not be full; byte must be absent).
    pub fn insert_child(&self, b: u8, child: *mut ArtNode<L>) {
        debug_assert!(!self.is_full());
        debug_assert!(self.find_child(b).is_null());
        let cnt = self.count.load(R);
        with_layout!(self, |n| n.insert(b, child));
        self.count.store(cnt + 1, R);
    }

    /// Replace the child at byte `b` (exclusive access; byte must exist).
    /// Returns the previous pointer.
    pub fn replace_child(&self, b: u8, child: *mut ArtNode<L>) -> *mut ArtNode<L> {
        let old = with_layout!(self, |n| n.replace(b, child));
        assert!(!old.is_null(), "replace_child: byte {b} not present");
        old
    }

    /// Remove the child at byte `b` (exclusive access). Returns the removed
    /// pointer, or null if absent.
    pub fn remove_child(&self, b: u8) -> *mut ArtNode<L> {
        let old = with_layout!(self, |n| n.remove(b));
        if !old.is_null() {
            self.count.store(self.count.load(R) - 1, R);
        }
        old
    }

    /// Allocate the next-size-up node from `slabs` and copy prefix +
    /// children into it (exclusive access on `self`; the new node is
    /// private to the caller).
    pub fn grow(&self, slabs: &Slabs<L>) -> *mut ArtNode<L> {
        let next = match self.typ {
            NodeType::N4 => NodeType::N16,
            NodeType::N16 => NodeType::N48,
            NodeType::N48 => NodeType::N256,
            NodeType::N256 => unreachable!("Node256 cannot grow"),
        };
        let bigger_ptr = slabs.node(next);
        let bigger = unsafe { &*bigger_ptr };
        // Copy the compressed path.
        bigger.prefix.store(self.prefix.load(R), R);
        bigger.prefix_len.store(self.prefix_len.load(R), R);
        bigger.contention.store(self.contention.load(R), R);
        self.for_each_child(|b, c| bigger.insert_child(b, c));
        bigger_ptr
    }

    /// Iterate `(byte, child)` pairs in ascending byte order.
    pub fn for_each_child(&self, f: impl FnMut(u8, *mut ArtNode<L>)) {
        with_layout!(self, |n| n.each(f))
    }

    /// The single remaining child (exclusive access, count must be 1).
    pub fn only_child(&self) -> (u8, *mut ArtNode<L>) {
        debug_assert_eq!(self.count(), 1);
        let mut out = None;
        self.for_each_child(|b, c| {
            if out.is_none() {
                out = Some((b, c));
            }
        });
        out.expect("only_child on empty node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql::olc::OptimisticGuard;
    use optiql::OptLock;

    impl<L: IndexLock> ArtNode<L> {
        /// Overwrite the header's count (tests corrupting a node on
        /// purpose).
        pub(crate) fn set_raw_count(&self, n: u16) {
            self.count.store(n, R);
        }
    }

    type N = ArtNode<OptLock>;

    fn with_node(typ: NodeType, f: impl FnOnce(&N)) {
        let slabs = Slabs::default();
        f(unsafe { &*slabs.node(typ) });
    }

    fn fake_child(i: usize) -> *mut N {
        // Aligned, non-null, never dereferenced sentinel values.
        ((i + 1) * 16) as *mut N
    }

    /// Each kind's size, alignment and field offsets under the lock every
    /// served ART uses: the sorted capacities share one layout and keep the
    /// bytes `Node4` and `Node16` had as types of their own, so a tree's
    /// bytes per key do not move.
    #[test]
    fn every_kind_keeps_its_size_and_offsets() {
        use optiql::OptiQL;
        use std::mem::{align_of, offset_of, size_of};
        type S<const C: usize> = Sorted<OptiQL, C>;
        assert_eq!(
            (size_of::<ArtNode<OptiQL>>(), align_of::<ArtNode<OptiQL>>()),
            (40, 8)
        );
        assert_eq!((size_of::<S<4>>(), align_of::<S<4>>()), (80, 8));
        assert_eq!(
            (offset_of!(S<4>, keys), offset_of!(S<4>, children)),
            (40, 48)
        );
        assert_eq!((size_of::<S<16>>(), align_of::<S<16>>()), (184, 8));
        assert_eq!(
            (offset_of!(S<16>, keys), offset_of!(S<16>, children)),
            (40, 56)
        );
        type N48 = Node48<OptiQL>;
        assert_eq!((size_of::<N48>(), align_of::<N48>()), (680, 8));
        assert_eq!(
            (offset_of!(N48, index), offset_of!(N48, children)),
            (40, 296)
        );
        type N256 = Node256<OptiQL>;
        assert_eq!((size_of::<N256>(), align_of::<N256>()), (2088, 8));
        assert_eq!(offset_of!(N256, children), 40);
    }

    #[test]
    fn kv_tagging_roundtrip() {
        let slabs = Slabs::<OptLock>::default();
        let p = slabs.kv(0xDEADu64, 42);
        assert!(is_kv(p));
        let kv: &KvLeaf = unsafe { as_kv(p) };
        assert_eq!(kv.key(), 0xDEAD);
        assert_eq!(kv.value(), 42);
        assert_eq!(kv.set_value(43), 42);
        assert_eq!(kv.value(), 43);
        // SAFETY: the leaf came from `slabs` and is freed once.
        unsafe { slabs.free_kv(p) };
        // The freed slot is the next leaf's.
        let again = slabs.kv(1, 2);
        assert_eq!(again, p);
        assert_eq!((kv.key(), kv.value()), (1, 2));
    }

    #[test]
    fn inner_pointers_are_never_tagged() {
        let slabs = Slabs::default();
        for typ in [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256] {
            let p: *mut N = slabs.node(typ);
            assert!(!is_kv(p));
            assert_eq!(unsafe { &*p }.node_type(), typ);
        }
    }

    /// A recycled slot comes back empty, with the lock word it was freed
    /// with moved on by the emptying, and the big kinds' tables clear.
    #[test]
    fn a_recycled_node_is_empty_and_its_version_moved_on() {
        let slabs = Slabs::default();
        for typ in [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256] {
            let p: *mut N = slabs.node(typ);
            let n = unsafe { &*p };
            n.set_prefix(0x0102 << 48, 2);
            n.insert_child(9, fake_child(9));
            let v = OptimisticGuard::read(&n.lock).expect("unlocked");
            // SAFETY: from `slabs`, linked nowhere, freed once.
            unsafe { slabs.free_node(n) };
            assert_eq!(slabs.node(typ), p, "the freed slot comes back");
            assert!(!v.validate(), "{typ:?}: the old snapshot validated");
            assert_eq!((n.node_type(), n.count(), n.prefix_len()), (typ, 0, 0));
            assert!(n.find_child(9).is_null(), "{typ:?}");
        }
    }

    #[test]
    fn insert_find_remove_every_type() {
        for typ in [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256] {
            with_node(typ, |n| {
                let cap = n.capacity().min(8);
                for i in 0..cap {
                    n.insert_child((i * 7) as u8, fake_child(i));
                }
                assert_eq!(n.count(), cap);
                for i in 0..cap {
                    assert_eq!(n.find_child((i * 7) as u8), fake_child(i), "{typ:?}");
                }
                assert!(n.find_child(255).is_null());
                // Remove half.
                for i in (0..cap).step_by(2) {
                    assert_eq!(n.remove_child((i * 7) as u8), fake_child(i));
                }
                for i in 0..cap {
                    let expect = if i % 2 == 0 {
                        std::ptr::null_mut()
                    } else {
                        fake_child(i)
                    };
                    assert_eq!(n.find_child((i * 7) as u8), expect);
                }
            });
        }
    }

    #[test]
    fn replace_child_swaps_pointer() {
        with_node(NodeType::N4, |n| {
            n.insert_child(9, fake_child(0));
            assert_eq!(n.replace_child(9, fake_child(1)), fake_child(0));
            assert_eq!(n.find_child(9), fake_child(1));
        });
    }

    #[test]
    fn grow_preserves_children_and_prefix() {
        let slabs = Slabs::default();
        let p = slabs.node(NodeType::N4);
        let n: &N = unsafe { &*p };
        n.set_prefix(0x010203 << 40, 3);
        for i in 0..4 {
            n.insert_child(i as u8 * 50, fake_child(i));
        }
        assert!(n.is_full());
        let gp = n.grow(&slabs);
        let g = unsafe { &*gp };
        assert_eq!(g.node_type(), NodeType::N16);
        assert_eq!(g.count(), 4);
        assert_eq!(g.prefix_len(), 3);
        assert_eq!(g.prefix(), 0x010203 << 40);
        for i in 0..4 {
            assert_eq!(g.find_child(i as u8 * 50), fake_child(i));
        }
    }

    #[test]
    fn grow_chain_to_256() {
        let slabs = Slabs::default();
        let mut p: *mut N = slabs.node(NodeType::N4);
        let mut filled = 0usize;
        loop {
            let n = unsafe { &*p };
            while !n.is_full() && filled < 256 {
                n.insert_child(filled as u8, fake_child(filled));
                filled += 1;
            }
            if n.node_type() == NodeType::N256 {
                break;
            }
            let g = n.grow(&slabs);
            // SAFETY: replaced by `g`, freed once.
            unsafe { slabs.free_node(n) };
            p = g;
        }
        let n = unsafe { &*p };
        assert_eq!(n.count(), 256);
        for i in 0..256 {
            assert_eq!(n.find_child(i as u8), fake_child(i));
        }
    }

    #[test]
    fn prefix_match_detects_divergence() {
        with_node(NodeType::N4, |n| {
            n.set_prefix(0xAABBCC << 40, 3);
            assert_eq!(n.prefix_len(), 3);
            assert_eq!(n.prefix_match_len(0xAABBCCDD_00000000, 0), 3);
            assert_eq!(n.prefix_match_len(0xAABBFF00_00000000, 0), 2);
            // Depth shifts the comparison window.
            assert_eq!(n.prefix_match_len(0x00AABBCC_00000000, 1), 3);
        });
    }

    /// The integer digit helpers against the byte-string reference they
    /// replace: the key's `to_be_bytes`, walked one byte at a time. Every
    /// depth up to 15 is probed, as a torn snapshot may hold one past the
    /// key's end; there the helpers must not panic, and a key that has
    /// run out of digits matches no path.
    #[test]
    fn integer_digits_agree_with_the_byte_reference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xD161);
        let slabs = Slabs::<OptLock>::default();
        let n = unsafe { &*slabs.node(NodeType::N4) };
        for round in 0..20_000 {
            let key: u64 = rng.random();
            // Half the paths copy the key's digits at `depth`, so full
            // and partial matches are as common as early mismatches.
            let depth = rng.random_range(0..16usize);
            let pl = rng.random_range(0..KEY_LEN);
            let from_key = digits_from(key, depth);
            let path = if round % 2 == 0 {
                from_key ^ (rng.random::<u64>() >> rng.random_range(0..64u32))
            } else {
                rng.random()
            };
            n.set_prefix(path, pl);
            let kb = key.to_be_bytes();
            let pb = (path & top(pl)).to_be_bytes();
            let at = |d: usize| kb.get(d).copied();

            assert_eq!(
                digit(key, depth),
                at(depth).unwrap_or(0),
                "{key:#x} @{depth}"
            );
            let matched = (0..pl)
                .take_while(|&i| at(depth + i) == Some(pb[i]))
                .count();
            assert_eq!(n.prefix_match_len(key, depth), matched, "{key:#x} @{depth}");
            // Past the key's end a path never compares equal: a key that
            // is a strict prefix of it sorts below.
            let order = (0..pl)
                .map(|i| at(depth + i).map_or(cmp::Ordering::Greater, |b| pb[i].cmp(&b)))
                .find(|o| o.is_ne())
                .unwrap_or(cmp::Ordering::Equal);
            assert_eq!(n.prefix_cmp(key, depth), order, "{key:#x} @{depth}");
            if depth + pl > KEY_LEN && pl > 0 {
                assert!(n.prefix_match_len(key, depth) < pl);
                assert!(n.prefix_cmp(key, depth).is_ne());
            }

            let other = key ^ (rng.random::<u64>() >> rng.random_range(0..64u32));
            let ob = other.to_be_bytes();
            let fork = (depth..KEY_LEN).find(|&d| kb[d] != ob[d]);
            assert_eq!(
                fork_depth(key, other, depth),
                fork,
                "{key:#x}/{other:#x} @{depth}"
            );
        }
    }

    #[test]
    fn n4_keys_stay_sorted() {
        with_node(NodeType::N4, |n| {
            for b in [9u8, 3, 200, 90] {
                n.insert_child(b, fake_child(b as usize));
            }
            let mut seen = Vec::new();
            n.for_each_child(|b, _| seen.push(b));
            assert_eq!(seen, vec![3, 9, 90, 200]);
        });
    }

    #[test]
    fn node48_reuses_freed_slots() {
        // Slot allocation scans for null children; after remove + insert
        // cycles every byte must still resolve to its own child.
        with_node(NodeType::N48, |n| {
            for b in 0..48u16 {
                n.insert_child(b as u8, fake_child(b as usize));
            }
            assert!(n.is_full());
            // Free every third slot, then refill with new bytes.
            for b in (0..48u16).step_by(3) {
                assert_eq!(n.remove_child(b as u8), fake_child(b as usize));
            }
            for (next, b) in (100usize..).zip((0..48u16).step_by(3)) {
                n.insert_child((b + 64) as u8, fake_child(next));
                let got = n.find_child((b + 64) as u8);
                assert_eq!(got, fake_child(next));
            }
            assert!(n.is_full());
            // Untouched entries survived the churn.
            for b in (1..48u16).step_by(3) {
                assert_eq!(n.find_child(b as u8), fake_child(b as usize));
            }
        });
    }

    #[test]
    fn n16_find_child_matches_reference_for_every_byte() {
        // Fill a Node16 to capacity with spread-out key bytes, then probe
        // all 256 byte values against a reference built from child
        // iteration — exercises the SSE2 movemask path (and the portable
        // fallback elsewhere) at full occupancy.
        with_node(NodeType::N16, |n| {
            for i in 0..16usize {
                n.insert_child((i * 16 + 3) as u8, fake_child(i));
            }
            assert!(n.is_full());
            let mut reference = [std::ptr::null_mut(); 256];
            n.for_each_child(|b, c| reference[b as usize] = c);
            for b in 0..=255u8 {
                assert_eq!(n.find_child(b), reference[b as usize], "byte {b}");
            }
        });
    }

    #[test]
    fn n16_stale_tail_keys_beyond_count_never_match() {
        // Removing the largest key leaves its byte in the key array beyond
        // `count`; the count mask must keep it from matching.
        with_node(NodeType::N16, |n| {
            for i in 0..16usize {
                n.insert_child(i as u8 * 10, fake_child(i));
            }
            assert_eq!(n.remove_child(150), fake_child(15));
            assert_eq!(n.count(), 15);
            assert!(n.find_child(150).is_null());
            // Partial occupancy still finds everything that remains.
            for i in 0..15usize {
                assert_eq!(n.find_child(i as u8 * 10), fake_child(i));
            }
        });
    }

    #[test]
    fn only_child_finds_survivor() {
        with_node(NodeType::N4, |n| {
            n.insert_child(7, fake_child(1));
            n.insert_child(8, fake_child(2));
            n.remove_child(7);
            let (b, c) = n.only_child();
            assert_eq!(b, 8);
            assert_eq!(c, fake_child(2));
        });
    }
}

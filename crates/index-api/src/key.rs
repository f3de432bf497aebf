//! The key abstraction: [`IndexKey`] makes every index in the workspace
//! generic over its key type while keeping the fixed-width `u64` hot
//! path exactly as fast as it was before the generalization.
//!
//! Two representations have to meet:
//!
//! * the B+-tree stores keys in fixed `[AtomicU64]` node arrays so its
//!   branchless search kernel can stream them — a variable-length key
//!   must therefore fit in a 64-bit **slot word** (the key itself when
//!   it is a `u64`, the [`bslot`] inline-or-pointer word otherwise);
//! * the ART consumes keys as **digit strings** — `u64` keys as their 8
//!   big-endian bytes, byte-string keys through the order-preserving,
//!   prefix-free escape encoding in [`enc`].
//!
//! [`IndexKey`] carries both views plus the routing hint the sharded
//! facade partitions by. Two implementations exist: `u64` (inline
//! slots, fixed 8-byte digits, `Relaxed` slot ordering — the
//! monomorphized tree code is byte-for-byte the pre-generic code) and
//! [`Bytes`] (the [`bslot`] fast path: short keys inline in the word,
//! long keys in single-allocation heap blobs, published with
//! `Release`/`Acquire`).

use std::cmp::Ordering;
use std::sync::atomic::Ordering as MemOrd;

use optiql_reclaim::Guard;

/// Order-preserving, prefix-free byte-string encoding.
///
/// Content bytes are escaped so that `0x00` never appears inside an
/// encoding, then a single `0x00` terminator is appended:
///
/// ```text
/// 0x00 → 0x01 0x02      0x01 → 0x01 0x03      b ≥ 0x02 → b
/// terminator: 0x00
/// ```
///
/// Two properties follow, and both are load-bearing for the indexes:
///
/// * **prefix-free** — an encoding's only `0x00` is its final byte, so
///   no encoding is a proper prefix of another. The ART requires this:
///   a stored key must terminate at a leaf, never inside another key's
///   digit path.
/// * **order-preserving** — for raw strings `a < b` (lexicographic),
///   `enc(a) < enc(b)`. If `a` is a proper prefix of `b`, `enc(a)`
///   diverges with its terminator `0x00` against a content byte
///   `≥ 0x01`. Otherwise the first differing raw pair `(x, y)` with
///   `x < y` maps to escape pairs that preserve the order case by case
///   (`0x00 → 01 02` and `0x01 → 01 03` both start below any unescaped
///   `b ≥ 2`, and `01 02 < 01 03`).
///
/// The functions are pure and allocation-explicit so the module can run
/// under Miri as-is.
pub mod enc {
    /// Escape lead byte.
    pub const ESC: u8 = 0x01;
    /// `ESC` followed by this encodes a raw `0x00`.
    pub const ESC_ZERO: u8 = 0x02;
    /// `ESC` followed by this encodes a raw `0x01`.
    pub const ESC_ONE: u8 = 0x03;
    /// Terminator byte; never appears inside an encoding.
    pub const TERM: u8 = 0x00;

    /// Append the encoding of `raw` (escaped content + terminator) to
    /// `out`, reserving the exact encoded length up front so the append
    /// reallocates at most once regardless of escape density.
    pub fn encode_into(raw: &[u8], out: &mut Vec<u8>) {
        out.reserve(encoded_len(raw));
        for &b in raw {
            match b {
                0x00 => out.extend_from_slice(&[ESC, ESC_ZERO]),
                0x01 => out.extend_from_slice(&[ESC, ESC_ONE]),
                _ => out.push(b),
            }
        }
        out.push(TERM);
    }

    /// Decode one full encoding (as produced by [`encode_into`]) back to
    /// the raw bytes. Returns `None` on malformed input: missing or
    /// early terminator, dangling escape, unknown escape payload.
    pub fn decode(encoded: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(encoded.len().saturating_sub(1));
        let mut i = 0;
        loop {
            match *encoded.get(i)? {
                TERM => {
                    // The terminator must be the final byte.
                    return (i + 1 == encoded.len()).then_some(out);
                }
                ESC => {
                    match *encoded.get(i + 1)? {
                        ESC_ZERO => out.push(0x00),
                        ESC_ONE => out.push(0x01),
                        _ => return None,
                    }
                    i += 2;
                }
                b => {
                    out.push(b);
                    i += 1;
                }
            }
        }
    }

    /// Encoded length of `raw` (content with escapes, plus terminator).
    pub fn encoded_len(raw: &[u8]) -> usize {
        raw.iter().filter(|&&b| b <= 0x01).count() + raw.len() + 1
    }
}

/// Byte-string **slot words**: the inline-or-pointer representation
/// behind [`Bytes`] key slots and the B+-tree's per-node prefix words.
///
/// # Word format
///
/// Bit 0 is the tag. Heap pointers are 8-aligned so a real pointer
/// always has bit 0 clear; an **inline** word has it set:
///
/// ```text
/// inline:  [ b0 b1 b2 b3 b4 b5 b6 | (len << 1) | 1 ]   (big-endian bytes)
/// pointer: 8-aligned address of [len: u32][bytes: len] (bit 0 = 0)
/// ```
///
/// A byte string of raw length ≤ 7 packs its bytes big-endian into the
/// top 7 bytes (zero-padded) with the length in the low tag byte —
/// no allocation and no pointer chase. Longer strings live in a single
/// heap blob: a 4-byte length header directly followed by the bytes,
/// so a comparison is one pointer chase (the boxed-key representation
/// this replaces took two).
///
/// # Why one `u64` compare is a lexicographic compare
///
/// For two inline words, the plain integer compare is the tuple compare
/// `(padded bytes, len)`, and that tuple order *is* lexicographic
/// order: zero-padding extends a string with the minimal byte, so the
/// first differing padded byte decides correctly whenever the strings
/// are not prefix-related, and when one string is a prefix of the
/// other's padding the length tiebreak puts the shorter (smaller)
/// string first. This is the "SWAR compare": the byte-wise comparison
/// collapses into one register-width integer compare with the
/// first-difference resolved by hardware, no loop and no branches.
///
/// A probe longer than 7 bytes gets a **sort word** — its first 7
/// bytes with low byte `0xff`. Against any inline word the integer
/// compare still decides correctly: if the top 7 bytes differ the
/// verdict is the first differing byte; if they are equal the inline
/// key is a (proper) prefix of the probe and `0xff` outranks every
/// inline tag byte (max `0x0f`). Equality is only reportable between
/// two inline words, which is exactly when it is true.
///
/// # Concurrency
///
/// Words are published through the node arrays' atomics
/// (`Release`/`Acquire` per [`Bytes`]); blobs are immutable after
/// publication and released either immediately ([`free`]) or through
/// epoch reclamation ([`retire`]) so pinned optimistic readers never
/// dereference freed memory. Everything here is Miri-clean.
pub mod bslot {
    use optiql_reclaim::Guard;
    use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
    use std::cmp::Ordering;

    /// Longest raw byte string that packs inline.
    pub const MAX_INLINE: usize = 7;

    /// The inline word of the empty byte string: tag bit only.
    pub const EMPTY: u64 = 1;

    /// Blob header size (`u32` length) preceding the bytes.
    const HDR: usize = 4;

    /// True when `slot` is an inline word (no pointee).
    #[inline]
    pub fn is_inline(slot: u64) -> bool {
        slot & 1 != 0
    }

    /// Pack `raw` (length ≤ [`MAX_INLINE`]) into an inline word.
    #[inline]
    pub fn pack(raw: &[u8]) -> u64 {
        debug_assert!(raw.len() <= MAX_INLINE);
        let mut b = [0u8; 8];
        b[..raw.len()].copy_from_slice(raw);
        b[7] = ((raw.len() as u8) << 1) | 1;
        u64::from_be_bytes(b)
    }

    /// The order-preserving 64-bit projection of `raw`: its inline word
    /// when it fits, else its first 7 bytes over a `0xff` tag byte (see
    /// the module docs for why integer order on these words refines
    /// lexicographic order, with ties only between equal inline words).
    #[inline]
    pub fn sort_word(raw: &[u8]) -> u64 {
        if raw.len() <= MAX_INLINE {
            pack(raw)
        } else {
            let mut b = [0u8; 8];
            b[..MAX_INLINE].copy_from_slice(&raw[..MAX_INLINE]);
            b[7] = 0xff;
            u64::from_be_bytes(b)
        }
    }

    /// Hint the CPU to pull the line at `p` into cache. Prefetch is
    /// architecturally defined never to fault, whatever `p` points at,
    /// so it is safe on raw, not-yet-validated optimistic reads (a stale
    /// hint is just a wasted fetch).
    #[inline(always)]
    pub fn prefetch_read(p: *const u8) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }

    /// Hint the CPU to pull a heap slot's blob into cache; no-op for
    /// inline slots.
    #[inline(always)]
    pub fn prefetch(slot: u64) {
        if !is_inline(slot) {
            prefetch_read(slot as *const u8);
        }
    }

    fn blob_layout(len: usize) -> Layout {
        // 8-alignment keeps bit 0 of the address free for the tag.
        Layout::from_size_align(HDR + len, 8).expect("byte key too large")
    }

    /// Move `raw` into a fresh slot word: inline when it fits, else one
    /// heap blob.
    #[inline]
    pub fn make(raw: &[u8]) -> u64 {
        if raw.len() <= MAX_INLINE {
            pack(raw)
        } else {
            assert!(
                u32::try_from(raw.len()).is_ok(),
                "byte key exceeds u32 length"
            );
            let layout = blob_layout(raw.len());
            // SAFETY: layout has non-zero size (HDR > 0); header and
            // bytes are fully initialized before the pointer escapes.
            unsafe {
                let p = alloc(layout);
                if p.is_null() {
                    handle_alloc_error(layout);
                }
                (p as *mut u32).write(raw.len() as u32);
                std::ptr::copy_nonoverlapping(raw.as_ptr(), p.add(HDR), raw.len());
                debug_assert!(p as usize & 7 == 0);
                p as usize as u64
            }
        }
    }

    /// The bytes a pointer slot's blob holds.
    ///
    /// # Safety
    ///
    /// `slot` must be a live pointer slot (bit 0 clear) produced by
    /// [`make`] or [`clone_slot`]; the returned borrow must not outlive
    /// the slot's release.
    #[inline]
    pub unsafe fn heap_bytes<'a>(slot: u64) -> &'a [u8] {
        debug_assert!(!is_inline(slot) && slot != 0);
        let p = slot as usize as *const u8;
        let len = (p as *const u32).read() as usize;
        std::slice::from_raw_parts(p.add(HDR), len)
    }

    /// View the bytes a slot holds; inline bytes are unpacked into
    /// `tmp`, pointer slots borrow the blob.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word.
    #[inline]
    pub unsafe fn slot_bytes(slot: u64, tmp: &mut [u8; MAX_INLINE]) -> &[u8] {
        if is_inline(slot) {
            let n = ((slot as u8) >> 1) as usize;
            debug_assert!(n <= MAX_INLINE);
            tmp.copy_from_slice(&slot.to_be_bytes()[..MAX_INLINE]);
            &tmp[..n]
        } else {
            heap_bytes(slot)
        }
    }

    /// Append the bytes a slot holds to `out`.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word.
    #[inline]
    pub unsafe fn append_to(slot: u64, out: &mut Vec<u8>) {
        let mut tmp = [0u8; MAX_INLINE];
        out.extend_from_slice(slot_bytes(slot, &mut tmp));
    }

    /// Compare probe bytes (with their precomputed [`sort_word`])
    /// against the key a slot holds: one integer compare when the slot
    /// is inline, one memcmp after one pointer chase otherwise.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word.
    #[inline]
    pub unsafe fn cmp(probe: &[u8], probe_word: u64, slot: u64) -> Ordering {
        debug_assert_eq!(probe_word, sort_word(probe));
        if is_inline(slot) {
            probe_word.cmp(&slot)
        } else {
            probe.cmp(heap_bytes(slot))
        }
    }

    /// Compare the keys two slots hold.
    ///
    /// # Safety
    ///
    /// Both must be live slot words.
    #[inline]
    pub unsafe fn cmp_slots(a: u64, b: u64) -> Ordering {
        match (is_inline(a), is_inline(b)) {
            (true, true) => a.cmp(&b),
            // A blob always holds > MAX_INLINE bytes, so its sort word
            // (tag 0xff) never ties with an inline word.
            (true, false) => a.cmp(&sort_word(heap_bytes(b))),
            (false, true) => sort_word(heap_bytes(a)).cmp(&b),
            (false, false) => heap_bytes(a).cmp(heap_bytes(b)),
        }
    }

    /// Produce an independently-owned slot holding the same bytes.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word.
    #[inline]
    pub unsafe fn clone_slot(slot: u64) -> u64 {
        if is_inline(slot) {
            slot
        } else {
            make(heap_bytes(slot))
        }
    }

    /// Release a slot immediately (single-threaded contexts only).
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word no other thread can still read,
    /// and must not be released twice.
    #[inline]
    pub unsafe fn free(slot: u64) {
        if !is_inline(slot) {
            let p = slot as usize as *mut u8;
            let len = (p as *const u32).read() as usize;
            dealloc(p, blob_layout(len));
        }
    }

    /// Release a slot through epoch reclamation: pinned readers that
    /// loaded the word before it was unlinked may still dereference the
    /// blob until their epochs retire.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word no new reader can reach.
    #[inline]
    pub unsafe fn retire(slot: u64, g: &Guard) {
        if !is_inline(slot) {
            g.defer(move || free(slot));
        }
    }
}

/// A key type the index stack can store, search, scan and shard.
///
/// # Safety
///
/// The slot-word methods form a manual ownership protocol the B+-tree
/// holds raw `u64` words against; implementations must uphold it or the
/// tree dereferences garbage:
///
/// * [`into_slot`](Self::into_slot) transfers ownership of the key into
///   the word; every slot produced by it (or by
///   [`slot_clone`](Self::slot_clone)) must stay valid to read through
///   [`slot_key`](Self::slot_key) / [`cmp_slot`](Self::cmp_slot) until
///   released by exactly one [`slot_free`](Self::slot_free) or
///   [`slot_retire`](Self::slot_retire);
/// * for pointer-backed keys the pointee must never be mutated after
///   `into_slot`, so concurrent readers racing a release (but protected
///   by the epoch the retire went through) always observe a fully
///   initialized, immutable key;
/// * [`INLINE`](Self::INLINE) is the one constant an implementation
///   sets; it must be true only when the slot word *is* the key (nothing
///   owned, nothing to publish). Everything else about how slots are
///   stored follows from it and must not be overridden;
/// * if `INLINE` is false, every slot word must use the [`bslot`]
///   representation (the B+-tree then stores per-node key *suffixes*
///   and manipulates them through `bslot` directly), and
///   [`raw_bytes`](Self::raw_bytes) / [`from_raw`](Self::from_raw) /
///   [`probe_word`](Self::probe_word) must be implemented and mutually
///   consistent.
pub unsafe trait IndexKey:
    Ord + Eq + Clone + Send + Sync + std::fmt::Debug + 'static
{
    /// True when the key lives inline in the slot word (no heap, no
    /// pointer chase; the tree's fixed-width fast path).
    const INLINE: bool;

    /// Derived: every key that is not inline is stored by the B+-tree
    /// through the [`bslot`] representation with per-node common-prefix
    /// truncation (node slots hold suffixes; short suffixes pack inline).
    const TRUNCATE: bool = !Self::INLINE;

    /// Derived: memory ordering for loads of key-slot words. `Relaxed`
    /// for inline keys; `Acquire` for pointer slots so the pointee's
    /// bytes are visible.
    const SLOT_LOAD: MemOrd = if Self::INLINE {
        MemOrd::Relaxed
    } else {
        MemOrd::Acquire
    };

    /// Derived: memory ordering for stores of key-slot words. `Relaxed`
    /// for inline keys; `Release` for pointer slots.
    const SLOT_STORE: MemOrd = if Self::INLINE {
        MemOrd::Relaxed
    } else {
        MemOrd::Release
    };

    /// The digit-string view: what [`encode`](Self::encode) yields.
    type Enc: AsRef<[u8]>;

    /// Encode into an order-preserving, prefix-free digit string (the
    /// ART's descent alphabet). For `u64` this is the 8 big-endian
    /// bytes on the stack; for [`Bytes`] the escape encoding in [`enc`].
    fn encode(&self) -> Self::Enc;

    /// Append the digit-string encoding to `out` — the allocation-free
    /// variant of [`encode`](Self::encode) for hot loops that reuse a
    /// scratch buffer.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.encode().as_ref());
    }

    /// Rebuild a key from a digit string produced by
    /// [`encode`](Self::encode).
    ///
    /// # Panics
    ///
    /// May panic on byte strings no `encode` produced.
    fn from_encoded(encoded: &[u8]) -> Self;

    /// A 64-bit projection that preserves locality (nearby keys map to
    /// nearby hints) for the sharded facade's block router: `u64` keys
    /// map to themselves, byte strings to their precomputed
    /// [`bslot::sort_word`] — so a shared prefix keeps a key cluster on
    /// one shard, and for [`Bytes`] the hint is a field load, not a
    /// byte-shuffling loop.
    fn route_hint(&self) -> u64;

    /// The raw byte view behind the [`bslot`] representation. Never
    /// called on an [`INLINE`](Self::INLINE) key, which has none.
    fn raw_bytes(&self) -> &[u8] {
        unreachable!("inline keys have no byte view")
    }

    /// Rebuild a key from its raw bytes (never called for an
    /// [`INLINE`](Self::INLINE) key).
    fn from_raw(_raw: &[u8]) -> Self {
        unreachable!("inline keys have no byte view")
    }

    /// The precomputed [`bslot::sort_word`] of
    /// [`raw_bytes`](Self::raw_bytes) (never called on an
    /// [`INLINE`](Self::INLINE) key).
    fn probe_word(&self) -> u64 {
        unreachable!("inline keys have no byte view")
    }

    /// Hint the CPU to pull any heap payload an equality or ordering
    /// check on this key will read. No-op for fully inline keys; batched
    /// engines call it one pipeline turn before comparing so the fetch
    /// overlaps other work.
    #[inline]
    fn prefetch_payload(&self) {}

    /// Move the key into a slot word (see the trait-level safety
    /// contract).
    fn into_slot(self) -> u64;

    /// Clone the key a slot holds.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word of this key type.
    unsafe fn slot_key(slot: u64) -> Self;

    /// Produce a new, independently-owned slot with the same key.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word of this key type.
    unsafe fn slot_clone(slot: u64) -> u64;

    /// Release a slot immediately (single-threaded contexts: drops,
    /// failed publication).
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word of this key type, and no other
    /// thread may still read it.
    unsafe fn slot_free(slot: u64);

    /// Release a slot through the epoch-reclamation `g` (concurrent
    /// contexts: readers pinned in earlier epochs may still dereference
    /// it).
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word of this key type that no new
    /// reader can reach (unlinked under the owning node's lock).
    unsafe fn slot_retire(slot: u64, g: &Guard);

    /// Compare this key (the probe) against the key a slot holds.
    ///
    /// # Safety
    ///
    /// `slot` must be a live slot word of this key type.
    unsafe fn cmp_slot(&self, slot: u64) -> Ordering;

    /// Compare the keys two slots hold.
    ///
    /// # Safety
    ///
    /// Both must be live slot words of this key type.
    unsafe fn slot_cmp_slot(a: u64, b: u64) -> Ordering;
}

// SAFETY: the slot word is the key itself — always valid, nothing owned,
// `Relaxed` suffices because no pointee exists to publish.
unsafe impl IndexKey for u64 {
    const INLINE: bool = true;

    type Enc = [u8; 8];

    #[inline]
    fn encode(&self) -> [u8; 8] {
        self.to_be_bytes()
    }

    #[inline]
    fn from_encoded(encoded: &[u8]) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&encoded[..8]);
        u64::from_be_bytes(b)
    }

    #[inline]
    fn route_hint(&self) -> u64 {
        *self
    }

    #[inline]
    fn into_slot(self) -> u64 {
        self
    }
    #[inline]
    unsafe fn slot_key(slot: u64) -> u64 {
        slot
    }
    #[inline]
    unsafe fn slot_clone(slot: u64) -> u64 {
        slot
    }
    #[inline]
    unsafe fn slot_free(_slot: u64) {}
    #[inline]
    unsafe fn slot_retire(_slot: u64, _g: &Guard) {}
    #[inline]
    unsafe fn cmp_slot(&self, slot: u64) -> Ordering {
        self.cmp(&slot)
    }
    #[inline]
    unsafe fn slot_cmp_slot(a: u64, b: u64) -> Ordering {
        a.cmp(&b)
    }
}

/// An owned, immutable byte-string key.
///
/// Ordering is plain lexicographic byte order (the order every view of
/// the key preserves: `Ord`, the [`enc`] digit encoding, the [`bslot`]
/// slot words, and [`route_hint`](IndexKey::route_hint)).
///
/// The construction-time [`bslot::sort_word`] is cached alongside the
/// bytes: comparisons against inline slots and the derived `Ord` fast
/// path are then single integer compares, and `route_hint` is a field
/// load. The derived ordering compares `(word, raw)` — sound because
/// the word order refines the raw order (see [`bslot`]).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    word: u64,
    raw: Box<[u8]>,
}

impl Bytes {
    /// An empty key (the smallest byte string).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// The raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.raw
    }

    fn from_boxed(raw: Box<[u8]>) -> Bytes {
        Bytes {
            word: bslot::sort_word(&raw),
            raw,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            word: bslot::EMPTY,
            raw: Box::default(),
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.raw
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.raw
    }
}

impl From<&[u8]> for Bytes {
    fn from(b: &[u8]) -> Bytes {
        Bytes::from_boxed(b.into())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(b: Vec<u8>) -> Bytes {
        Bytes::from_boxed(b.into_boxed_slice())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from_boxed(s.as_bytes().into())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from_boxed(s.into_bytes().into_boxed_slice())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(b: [u8; N]) -> Bytes {
        Bytes::from_boxed(b.as_slice().into())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.raw.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

// SAFETY: slot words use the `bslot` representation — inline words own
// nothing, pointer slots own one immutable blob whose publication is
// ordered by `Release`/`Acquire` and whose free is epoch-deferred.
// `raw_bytes`/`from_raw`/`probe_word` are mutually consistent views of
// the same byte string, so INLINE = false is sound.
unsafe impl IndexKey for Bytes {
    const INLINE: bool = false;

    type Enc = Vec<u8>;

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(enc::encoded_len(&self.raw));
        enc::encode_into(&self.raw, &mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        enc::encode_into(&self.raw, out);
    }

    fn from_encoded(encoded: &[u8]) -> Bytes {
        Bytes::from(enc::decode(encoded).expect("malformed byte-key encoding"))
    }

    #[inline]
    fn route_hint(&self) -> u64 {
        self.word
    }

    #[inline]
    fn raw_bytes(&self) -> &[u8] {
        &self.raw
    }

    #[inline]
    fn from_raw(raw: &[u8]) -> Bytes {
        Bytes::from(raw)
    }

    #[inline]
    fn probe_word(&self) -> u64 {
        self.word
    }

    #[inline]
    fn prefetch_payload(&self) {
        bslot::prefetch_read(self.raw.as_ptr());
    }

    fn into_slot(self) -> u64 {
        bslot::make(&self.raw)
    }
    unsafe fn slot_key(slot: u64) -> Bytes {
        let mut tmp = [0u8; bslot::MAX_INLINE];
        Bytes::from(bslot::slot_bytes(slot, &mut tmp))
    }
    unsafe fn slot_clone(slot: u64) -> u64 {
        bslot::clone_slot(slot)
    }
    unsafe fn slot_free(slot: u64) {
        bslot::free(slot);
    }
    unsafe fn slot_retire(slot: u64, g: &Guard) {
        bslot::retire(slot, g);
    }
    #[inline]
    unsafe fn cmp_slot(&self, slot: u64) -> Ordering {
        bslot::cmp(&self.raw, self.word, slot)
    }
    unsafe fn slot_cmp_slot(a: u64, b: u64) -> Ordering {
        bslot::cmp_slots(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_of(raw: &[u8]) -> Vec<u8> {
        let mut v = Vec::new();
        enc::encode_into(raw, &mut v);
        v
    }

    /// A byte-string generator dense in the hard cases: empty,
    /// terminator-like and escape-like bytes, shared prefixes, and both
    /// sides of the 7-byte inline boundary.
    fn hard_cases() -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let alphabet = [0x00u8, 0x01, 0x02, b'a', 0xff];
        for &a in &alphabet {
            keys.push(vec![a]);
            for &b in &alphabet {
                keys.push(vec![a, b]);
                keys.push(vec![a, b, a]);
                let mut long = vec![a; 6];
                long.push(b);
                keys.push(long.clone()); // 7 bytes: last inline length
                long.push(a);
                keys.push(long.clone()); // 8 bytes: first heap length
                long.extend_from_slice(b"suffix-tail");
                keys.push(long);
            }
        }
        keys.push(Vec::new());
        keys.push(b"user0000000000000042".to_vec());
        keys.sort();
        keys.dedup();
        keys
    }

    #[test]
    fn encoding_round_trips() {
        let cases: &[&[u8]] = &[
            b"",
            b"a",
            b"user4823",
            &[0x00],
            &[0x01],
            &[0x00, 0x00, 0x01],
            &[0xff, 0x00, 0x7f, 0x01, 0x02],
            &[0x01, 0x02, 0x03],
        ];
        for &raw in cases {
            let e = enc_of(raw);
            assert_eq!(e.len(), enc::encoded_len(raw), "{raw:?}");
            assert_eq!(enc::decode(&e).as_deref(), Some(raw), "{raw:?}");
        }
    }

    #[test]
    fn encoding_is_prefix_free_and_order_preserving() {
        let keys = hard_cases();
        for x in &keys {
            for y in &keys {
                let (ex, ey) = (enc_of(x), enc_of(y));
                assert_eq!(x.cmp(y), ex.cmp(&ey), "order broken for {x:?} vs {y:?}");
                if x != y {
                    assert!(!ey.starts_with(&ex), "enc({x:?}) is a prefix of enc({y:?})");
                }
            }
        }
    }

    #[test]
    fn malformed_encodings_are_rejected() {
        assert_eq!(enc::decode(&[]), None, "missing terminator");
        assert_eq!(enc::decode(b"a"), None, "missing terminator");
        assert_eq!(enc::decode(&[0x01, 0x00]), None, "dangling escape");
        assert_eq!(enc::decode(&[0x01, 0x07, 0x00]), None, "unknown escape");
        assert_eq!(enc::decode(&[0x00, b'a']), None, "early terminator");
    }

    #[test]
    fn u64_digits_sort_and_round_trip() {
        let ks = [0u64, 1, 255, 256, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &a in &ks {
            assert_eq!(u64::from_encoded(&a.encode()), a);
            assert_eq!(a.route_hint(), a);
            for &b in &ks {
                assert_eq!(a.cmp(&b), a.encode().cmp(&b.encode()));
            }
        }
    }

    #[test]
    fn u64_slots_are_the_identity() {
        // u64 is the inline key type (INLINE = true): slots are the
        // keys themselves, every slot op below is the identity.
        let s = 7u64.into_slot();
        assert_eq!(s, 7);
        unsafe {
            assert_eq!(u64::slot_key(s), 7);
            assert_eq!(u64::slot_clone(s), s);
            assert_eq!(5u64.cmp_slot(s), Ordering::Less);
            assert_eq!(u64::slot_cmp_slot(9, 9), Ordering::Equal);
            u64::slot_free(s);
        }
    }

    #[test]
    fn inline_words_pack_round_trip_and_tag() {
        let cases: &[&[u8]] = &[
            b"",
            b"a",
            b"abcdef",  // 6 bytes
            b"abcdefg", // 7 bytes: longest inline
            &[0x00],
            &[0x00, 0x00, 0x01],
            &[0xff; 7],
        ];
        for &raw in cases {
            let w = bslot::pack(raw);
            assert!(bslot::is_inline(w), "{raw:?}");
            assert_eq!(w, bslot::sort_word(raw));
            assert_eq!(w, bslot::make(raw), "short keys must inline");
            let mut tmp = [0u8; bslot::MAX_INLINE];
            unsafe {
                assert_eq!(bslot::slot_bytes(w, &mut tmp), raw, "{raw:?}");
                assert_eq!(bslot::clone_slot(w), w);
                bslot::free(w); // no-op for inline words
            }
        }
        assert_eq!(bslot::pack(b""), bslot::EMPTY);
    }

    #[test]
    fn heap_blobs_round_trip_clone_and_free() {
        let raw = b"abcdefgh"; // 8 bytes: first heap length
        let s = bslot::make(raw);
        assert!(!bslot::is_inline(s));
        unsafe {
            assert_eq!(bslot::heap_bytes(s), raw);
            let mut tmp = [0u8; bslot::MAX_INLINE];
            assert_eq!(bslot::slot_bytes(s, &mut tmp), raw);
            let mut out = b"pfx-".to_vec();
            bslot::append_to(s, &mut out);
            assert_eq!(out, b"pfx-abcdefgh");
            let c = bslot::clone_slot(s);
            assert_ne!(c, s, "blob clone must own fresh storage");
            assert_eq!(bslot::cmp_slots(c, s), Ordering::Equal);
            bslot::free(c);
            bslot::free(s);
        }
    }

    #[test]
    fn heap_blobs_retire_through_epochs() {
        let col = optiql_reclaim::Collector::new();
        let g = col.pin();
        let s = bslot::make(b"a long enough byte key");
        let i = bslot::make(b"tiny");
        unsafe {
            bslot::retire(s, &g);
            bslot::retire(i, &g); // inline: no deferred work
        }
        drop(g);
        col.flush();
    }

    #[test]
    fn slot_compares_match_lexicographic_order_across_representations() {
        let keys = hard_cases();
        let slots: Vec<u64> = keys.iter().map(|k| bslot::make(k)).collect();
        for (x, &sx) in keys.iter().zip(&slots) {
            let wx = bslot::sort_word(x);
            assert_eq!(bslot::is_inline(sx), x.len() <= bslot::MAX_INLINE);
            for (y, &sy) in keys.iter().zip(&slots) {
                let want = x.cmp(y);
                unsafe {
                    assert_eq!(bslot::cmp(x, wx, sy), want, "cmp {x:?} vs {y:?}");
                    assert_eq!(bslot::cmp_slots(sx, sy), want, "slots {x:?} vs {y:?}");
                }
                // The sort word refines lexicographic order: strict word
                // inequality must agree, ties defer to the raw bytes.
                let wy2 = bslot::sort_word(y);
                if wx != wy2 {
                    assert_eq!(wx.cmp(&wy2), want, "sort words {x:?} vs {y:?}");
                }
            }
        }
        for s in slots {
            unsafe { bslot::free(s) };
        }
    }

    #[test]
    fn bytes_slots_inline_and_heap() {
        const { assert!(!Bytes::INLINE) };
        const { assert!(Bytes::TRUNCATE) };
        let short = Bytes::from("alpha"); // 5 bytes: inline
        let long = Bytes::from("alphabetical"); // 12 bytes: heap blob
        let ss = short.clone().into_slot();
        let sl = long.clone().into_slot();
        assert!(bslot::is_inline(ss));
        assert!(!bslot::is_inline(sl));
        unsafe {
            assert_eq!(Bytes::slot_key(ss), short);
            assert_eq!(Bytes::slot_key(sl), long);
            assert_eq!(short.cmp_slot(sl), Ordering::Less);
            assert_eq!(long.cmp_slot(sl), Ordering::Equal);
            assert_eq!(Bytes::slot_cmp_slot(ss, sl), Ordering::Less);
            let sc = Bytes::slot_clone(sl);
            assert_ne!(sc, sl, "blob clone must own fresh storage");
            assert_eq!(Bytes::slot_cmp_slot(sc, sl), Ordering::Equal);
            Bytes::slot_free(ss);
            Bytes::slot_free(sl);
            Bytes::slot_free(sc);
        }
    }

    #[test]
    fn bytes_ord_matches_raw_bytes() {
        // The derived `(word, raw)` ordering must be plain lexicographic
        // order on the raw bytes.
        let keys = hard_cases();
        for x in &keys {
            let bx = Bytes::from(x.as_slice());
            assert_eq!(bx.probe_word(), bslot::sort_word(x));
            assert_eq!(Bytes::from_raw(x), bx);
            for y in &keys {
                let by = Bytes::from(y.as_slice());
                assert_eq!(bx.cmp(&by), x.cmp(y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn bytes_encoding_matches_ord_and_routes_by_prefix() {
        let ks = [
            Bytes::new(),
            Bytes::from("a"),
            Bytes::from(&b"a\x00"[..]),
            Bytes::from(&b"a\x00\x01"[..]),
            Bytes::from("ab"),
            Bytes::from("user00000001"),
            Bytes::from("user00000002"),
        ];
        for a in &ks {
            assert_eq!(Bytes::from_encoded(a.encode().as_ref()), *a);
            let mut buf = b"seed".to_vec();
            a.encode_into(&mut buf);
            assert_eq!(&buf[4..], a.encode().as_slice());
            for b in &ks {
                assert_eq!(a.cmp(b), a.encode().cmp(&b.encode()), "{a:?} vs {b:?}");
            }
        }
        // Keys sharing a 7-byte prefix (and both overflowing the inline
        // word) share a routing hint — one shard per key cluster.
        assert_eq!(
            Bytes::from("user00000001").route_hint(),
            Bytes::from("user00000002").route_hint()
        );
        assert_ne!(
            Bytes::from("user0000").route_hint(),
            Bytes::from("item0000").route_hint()
        );
    }

    #[test]
    fn bytes_debug_is_readable() {
        assert_eq!(format!("{:?}", Bytes::from(&b"a\x00z"[..])), "b\"a\\x00z\"");
    }
}

//! A tree's node allocator: slots of one type cut from 64 KiB chunks,
//! each of which stays a node of that type for the slab's whole life.
//!
//! A node allocated by `Box` pays glibc's chunk header and rounding: a
//! 16-byte ART KV leaf takes a 32-byte chunk, a 256-byte B+-tree leaf a
//! 272-byte one at 16-byte alignment. A [`Slab<T>`] hands out slots of
//! exactly `T`'s size and alignment by bump from a chunk and recycles
//! freed ones through intrusive free lists, so a node costs its own
//! bytes, and a 64-aligned node of 256 bytes fills four cache lines and
//! no fifth.
//!
//! **Type-stable slots.** A slot is written whole once, as
//! [`Slot::fresh`], when it is first cut from its chunk. From then on it
//! holds a `T` until the slab drops: a free links it into a free list
//! with one atomic store into the word [`Slot::link`] names, and an
//! allocation hands it back as its last user left it, that word apart.
//! An optimistic reader still inside a node that was freed, or freed and
//! handed out again, therefore reads a `T` — its tag, its lock word —
//! and fails validation like any reader a writer overlapped, provided
//! the lock word is never reset (DESIGN §5.1, *Every node in a slab*).
//! A node is freed the moment it is unlinked, no free outlives the tree,
//! and dropping the slab releases every chunk (*Chunk reuse* below). The
//! slab never runs a `T`'s destructor: what it stores must not need one
//! (checked at compile time).
//!
//! **Stripes.** The slab keeps [`STRIPES`] cache-padded cursors — a free
//! list head, a bump position and a chunk end under one mutex — indexed
//! by the thread's [`stripe`]. Up to `STRIPES` threads, no allocation or
//! free writes a line another thread's stripe uses.
//!
//! **Bounded memory.** A free goes to the freeing thread's stripe. An
//! allocation whose stripe has neither a free slot nor room in its chunk
//! first takes another stripe's whole free list and only then carves a new
//! chunk, so a thread that only deletes cannot strand slots a thread that
//! only inserts needs: the slab holds the live nodes, the freed slots and
//! at most one part-used chunk per stripe.
//!
//! **Chunk reuse.** A dropped slab's chunks go to one process-wide spare
//! list, and a carve takes a spare before it asks `malloc` for a chunk, so
//! the next tree, of whatever node type, reuses a dropped tree's pages
//! instead of faulting them in again. The list never shrinks: a process
//! keeps the most chunk memory its trees held at once. Handed back to
//! `malloc` instead, a dropped tree's chunks are trimmed off the heap as
//! soon as nothing small is left above them, which is the case once every
//! node is a slot: a `serve-get` run of three 4 M-key set-ups took 80.6 k
//! page faults that way against 53.4 k when inner nodes were `Box`es.
//!
//! **Chunk size and alignment.** A chunk is one allocation of exactly
//! 64 KiB, under glibc's 128 KiB mmap threshold, at `malloc`'s own 16-byte
//! alignment, whatever `T` is. Its first slot is rounded up to `T`'s
//! alignment, which costs a 64-aligned `T` one slot per chunk (255 leaves
//! of 256 bytes, not 256). Asking `posix_memalign` for 64-aligned chunks,
//! or `malloc` for 48 bytes more to keep that slot, both let glibc trim a
//! dropped 4 M-key tree's chunks off the heap: 72 k page faults in a
//! `serve-get` run of three set-ups against 53 k.

use std::alloc::{alloc, handle_alloc_error, Layout};
use std::mem::{self, align_of, needs_drop, size_of};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::counters::{stripe, STRIPES};

/// Bytes per chunk.
const CHUNK_BYTES: usize = 64 << 10;

/// Alignment every chunk is requested with: `malloc`'s own (see the
/// module doc), the same for every slot type, so any slab can carve a
/// spare.
const CHUNK_ALIGN: usize = 16;

/// The one layout of a chunk.
const CHUNK: Layout = match Layout::from_size_align(CHUNK_BYTES, CHUNK_ALIGN) {
    Ok(l) => l,
    Err(_) => panic!("chunk layout"),
};

/// Chunks of dropped slabs, for the next carve (see *Chunk reuse*).
static SPARES: Mutex<Vec<Chunk>> = Mutex::new(Vec::new());

/// Sweeps over the other stripes a dry allocation makes while some of
/// them are busy, before it gives up and carves a chunk.
const STEAL_SWEEPS: usize = 64;

/// A type a [`Slab`] keeps: every slot of it is a `T` from the moment it
/// is carved until the slab drops.
///
/// # Safety
/// [`link`](Slot::link) must name a word inside `self` that a reader of a
/// `T` may load through a pointer it has not validated, but never
/// dereferences nor branches on as a tag, and that is neither the first
/// word of `T` nor part of its lock: a free stores the free list's next
/// slot there while stale readers may still be inside the slot. `T` must
/// not need a drop.
pub unsafe trait Slot: Sized {
    /// What a never-used slot is carved as.
    fn fresh() -> Self;

    /// The word a free slot links the next free slot through.
    fn link(&self) -> &AtomicU64;
}

/// One stripe's allocation state. A free slot's [`Slot::link`] word
/// holds the next free slot.
struct Cursor<T> {
    /// Head of this stripe's free list (null: empty).
    free: *mut T,
    /// Next never-used slot of this stripe's chunk; equal to `end` when
    /// the chunk is used up (both null before the first chunk).
    next: *mut T,
    end: *mut T,
}

// SAFETY: the pointers name slots of chunks the `Slab` owns, and a
// `Cursor` is only reached under its stripe's mutex.
unsafe impl<T> Send for Cursor<T> {}

impl<T: Slot> Cursor<T> {
    /// A recycled slot, else a never-used one, carved as a fresh `T`.
    fn take(&mut self) -> Option<NonNull<T>> {
        if let Some(p) = NonNull::new(self.free) {
            // SAFETY: a slot on a free list holds a `T` whose link word
            // names the next free slot; the stripe's mutex orders the
            // free's store before this load.
            self.free = unsafe { p.as_ref() }.link().load(Ordering::Relaxed) as usize as *mut T;
            return Some(p);
        }
        if self.next == self.end {
            return None;
        }
        let p = self.next;
        // SAFETY: `next < end`, so `p` is a never-used slot of the chunk,
        // sized and aligned for a `T`, that no pointer has reached yet; and
        // `p + 1` is at most one past the chunk.
        unsafe {
            p.write(T::fresh());
            self.next = p.add(1);
        }
        NonNull::new(p)
    }
}

/// One stripe's cursor under its mutex, alone on 128 bytes (two cache
/// lines, as [`crate::Counters`] pads its stripes).
#[repr(align(128))]
struct Stripe<T>(Mutex<Cursor<T>>);

impl<T> Stripe<T> {
    /// No critical section can panic, and each leaves the cursor valid
    /// after every store, so a poisoned lock's guard is taken as is.
    fn lock(&self) -> MutexGuard<'_, Cursor<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `None` while another thread holds it.
    fn try_lock(&self) -> Option<MutexGuard<'_, Cursor<T>>> {
        self.0.try_lock().ok()
    }
}

/// A chunk's base pointer as allocated (before the first slot's rounding),
/// owned by the slab.
struct Chunk(NonNull<u8>);

// SAFETY: a chunk is plain memory; only its owner deallocates it.
unsafe impl Send for Chunk {}

/// One tree's slab of `T` slots (see the module doc).
pub struct Slab<T> {
    stripes: [Stripe<T>; STRIPES],
    /// Every chunk ever carved; touched once per chunk.
    chunks: Mutex<Vec<Chunk>>,
}

/// The slab is gone, so no slot of its chunks is reachable, and no slot
/// needs a drop: the chunks are spares for the next carve.
impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        let chunks = self
            .chunks
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        SPARES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(chunks);
    }
}

impl<T: Slot> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Slots per chunk, after the first is rounded up to `T`'s alignment.
    const SLOTS: usize = {
        assert!(!needs_drop::<T>(), "the slab never drops a slot");
        let slots = (CHUNK_BYTES - align_of::<T>().saturating_sub(CHUNK_ALIGN)) / size_of::<T>();
        assert!(slots >= 1, "a slot must fit a chunk");
        slots
    };
}

impl<T: Slot> Slab<T> {
    /// An empty slab: no chunk is carved before the first allocation.
    pub fn new() -> Self {
        // Evaluating the slot count checks `T` fits the slab, at compile
        // time.
        let _ = Self::SLOTS;
        Slab {
            stripes: std::array::from_fn(|_| {
                Stripe(Mutex::new(Cursor {
                    free: ptr::null_mut(),
                    next: ptr::null_mut(),
                    end: ptr::null_mut(),
                }))
            }),
            chunks: Mutex::new(Vec::new()),
        }
    }

    /// A slot from the calling thread's stripe, else from another stripe's
    /// free list, else from a new chunk. It holds a `T`: a fresh one, or
    /// one as the slot's last user left it but for its link word. Stale
    /// readers and lockers may still be inside a recycled slot, so the
    /// caller initialises it under the slot's own lock.
    pub fn alloc(&self) -> NonNull<T> {
        let me = stripe();
        let mut own = self.stripes[me].lock();
        if let Some(p) = own.take() {
            return p;
        }
        match self.steal(me) {
            Some(list) => own.free = list.as_ptr(),
            None => {
                let base = self.carve();
                own.next = base.as_ptr();
                // SAFETY: one past the end of the chunk.
                own.end = unsafe { base.as_ptr().add(Self::SLOTS) };
            }
        }
        own.take().expect("a refilled stripe has a slot")
    }

    /// Return `p` to the calling thread's stripe: one atomic store into
    /// its link word, nothing else of the `T` changes.
    ///
    /// # Safety
    /// `p` came from [`alloc`](Self::alloc) on this slab, is freed once,
    /// and no new reader can reach it (a stale one may still be inside).
    pub unsafe fn free(&self, p: NonNull<T>) {
        // SAFETY: a slot of this slab holds a `T` until the slab drops.
        let link = unsafe { p.as_ref() }.link();
        debug_assert_ne!(
            link as *const AtomicU64 as usize,
            p.as_ptr() as usize,
            "a free slot links through its first word"
        );
        let mut own = self.stripes[stripe()].lock();
        link.store(own.free as usize as u64, Ordering::Relaxed);
        own.free = p.as_ptr();
    }

    /// Take the whole free list of another stripe. A busy stripe is
    /// skipped — waiting for it while holding our own could deadlock with
    /// a thread stealing the other way — but the sweep is repeated while
    /// one was busy, so a thread that frees in a tight loop does not make
    /// this one carve past the slots it frees.
    fn steal(&self, me: usize) -> Option<NonNull<T>> {
        for _ in 0..STEAL_SWEEPS {
            let mut busy = false;
            for i in 1..STRIPES {
                match self.stripes[(me + i) % STRIPES].try_lock() {
                    Some(mut other) => {
                        if let Some(list) =
                            NonNull::new(mem::replace(&mut other.free, ptr::null_mut()))
                        {
                            return Some(list);
                        }
                    }
                    None => busy = true,
                }
            }
            if !busy {
                return None;
            }
            std::hint::spin_loop();
        }
        None
    }

    /// A spare chunk, else a new one, recorded as this slab's; returns its
    /// first slot.
    #[cold]
    fn carve(&self) -> NonNull<T> {
        let spare = SPARES.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let base = spare.map_or_else(
            // SAFETY: `CHUNK` has a non-zero size.
            || NonNull::new(unsafe { alloc(CHUNK) }).unwrap_or_else(|| handle_alloc_error(CHUNK)),
            |Chunk(c)| c,
        );
        self.chunks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Chunk(base));
        // Bytes to the first `T`-aligned address (the alignment is a power
        // of two).
        let pad = (base.as_ptr() as usize).wrapping_neg() & (align_of::<T>() - 1);
        // SAFETY: `base` is `CHUNK_ALIGN`-aligned, so `pad` is at most
        // `align_of::<T>() - CHUNK_ALIGN` (0 for a smaller alignment), which
        // `SLOTS` leaves room for: the `SLOTS` slots from the first lie
        // inside the chunk.
        unsafe { NonNull::new_unchecked(base.as_ptr().add(pad).cast()) }
    }

    /// Chunks carved so far.
    #[cfg(test)]
    fn chunks(&self) -> usize {
        self.chunks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    const R: Ordering = Ordering::Relaxed;

    /// A 16-byte slot, as an ART KV leaf uses: a key, and a value it
    /// links through.
    #[repr(C, align(16))]
    struct Pair {
        key: AtomicU64,
        val: AtomicU64,
    }

    unsafe impl Slot for Pair {
        fn fresh() -> Self {
            Pair {
                key: AtomicU64::new(0),
                val: AtomicU64::new(0),
            }
        }
        fn link(&self) -> &AtomicU64 {
            &self.val
        }
    }

    /// A four-line slot with a node's header, as a default B+-tree leaf
    /// uses: a tag written once, a lock word, and keys it links through.
    #[repr(C, align(64))]
    struct Lines {
        tag: u64,
        lock: AtomicU64,
        keys: [AtomicU64; 30],
    }

    /// The tag every `Lines` is carved with.
    const TAG: u64 = 0x7a6;

    unsafe impl Slot for Lines {
        fn fresh() -> Self {
            Lines {
                tag: TAG,
                lock: AtomicU64::new(0),
                keys: [const { AtomicU64::new(0) }; 30],
            }
        }
        fn link(&self) -> &AtomicU64 {
            &self.keys[0]
        }
    }

    fn distinct_aligned_and_chunked<T: Slot>() {
        let slab = Slab::<T>::new();
        assert_eq!(slab.chunks(), 0);
        let slots = Slab::<T>::SLOTS;
        let n = if cfg!(miri) { 64 } else { slots + 1 };
        let mut seen = HashSet::new();
        for i in 0..n {
            let p = slab.alloc();
            assert_eq!(p.as_ptr() as usize % align_of::<T>(), 0);
            assert!(seen.insert(p.as_ptr() as usize), "slot handed out twice");
            // SAFETY: a fresh slot holds a `T`.
            unsafe { p.as_ref() }.link().store(i as u64, R);
        }
        assert_eq!(slab.chunks(), n.div_ceil(slots));
    }

    #[test]
    fn slots_are_distinct_aligned_and_fill_a_chunk_before_the_next() {
        distinct_aligned_and_chunked::<Pair>();
        distinct_aligned_and_chunked::<Lines>();
        assert_eq!(
            (Slab::<Pair>::SLOTS, Slab::<Lines>::SLOTS),
            (4096, 255),
            "a 64-aligned slot costs one slot per chunk"
        );
    }

    /// A free writes the link into the link word and nothing else: the
    /// tag and the lock word a stale reader may still load are as the
    /// slot's last user left them, through the free and the next
    /// allocation, and a recycled slot is not carved again.
    #[test]
    fn a_free_stores_only_the_link_and_a_realloc_keeps_the_lock_word() {
        let slab = Slab::<Lines>::new();
        let (a, b) = (slab.alloc(), slab.alloc());
        // SAFETY: both slots hold a `Lines` until the slab drops.
        let (sa, sb) = unsafe { (a.as_ref(), b.as_ref()) };
        for (s, version) in [(sa, 6), (sb, 8)] {
            s.lock.store(version, R);
            s.keys[0].store(11, R);
            s.keys[1].store(12, R);
        }
        // SAFETY: each slot came from `slab` and is freed once.
        unsafe { slab.free(a) };
        assert_eq!(sa.keys[0].load(R), 0, "the first free links to nothing");
        unsafe { slab.free(b) };
        assert_eq!(sb.keys[0].load(R), a.as_ptr() as usize as u64);
        for (s, version) in [(sa, 6), (sb, 8)] {
            assert_eq!((s.tag, s.lock.load(R)), (TAG, version));
            assert_eq!(s.keys[1].load(R), 12, "only the link word moved");
        }
        // Last freed, first handed out, each with its lock word.
        assert_eq!(slab.alloc(), b);
        assert_eq!(slab.alloc(), a);
        assert_eq!((sa.lock.load(R), sb.lock.load(R)), (6, 8));
        assert_eq!((sa.tag, sb.tag), (TAG, TAG));
        assert_eq!(slab.chunks(), 1);
    }

    /// A reader keeps loading a slot's tag, lock and link words while
    /// another thread frees it and takes it back, bumping its lock word
    /// each round as a writer would: every load is of a word that is
    /// atomic or never written after the carve (what Miri checks), the
    /// tag never changes, and the lock word only goes up.
    #[test]
    fn a_reader_inside_a_recycled_slot_sees_its_tag_and_a_rising_lock_word() {
        let rounds = if cfg!(miri) { 50 } else { 20_000 };
        let slab = Slab::<Lines>::new();
        let p = slab.alloc();
        let addr = p.as_ptr() as usize;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: the slot holds a `Lines` until the slab drops,
                // which is after the scope.
                let slot = unsafe { &*(addr as *const Lines) };
                let mut last = 0;
                while !stop.load(R) {
                    assert_eq!(slot.tag, TAG);
                    let v = slot.lock.load(R);
                    assert!(v >= last, "the lock word went back: {v} < {last}");
                    last = v;
                    let _ = slot.keys[0].load(R);
                }
            });
            for _ in 0..rounds {
                // SAFETY: `p` is freed once per allocation.
                unsafe { slab.free(p) };
                assert_eq!(slab.alloc(), p);
                // SAFETY: as above.
                unsafe { p.as_ref() }.lock.fetch_add(2, R);
            }
            stop.store(true, R);
        });
        // SAFETY: as above.
        assert_eq!(unsafe { p.as_ref() }.lock.load(R), 2 * rounds);
    }

    /// A slot freed on one thread is handed out again on another, whose
    /// own stripe is dry: stealing, not a new chunk.
    #[test]
    fn a_slot_freed_on_one_thread_is_handed_out_on_another() {
        let slab = Slab::<Pair>::new();
        let freed = std::thread::scope(|s| {
            s.spawn(|| {
                let p = slab.alloc();
                // SAFETY: `p` came from `slab` and is freed once.
                unsafe { slab.free(p) };
                p.as_ptr() as usize
            })
            .join()
            .unwrap()
        });
        let again =
            std::thread::scope(|s| s.spawn(|| slab.alloc().as_ptr() as usize).join().unwrap());
        assert_eq!(again, freed);
        assert_eq!(slab.chunks(), 1);
    }

    /// One thread only allocates, another only frees what it is sent, with
    /// at most `live` slots outstanding. The freed slots must feed the
    /// allocator: the chunk count stays within the live set plus one
    /// part-used chunk per stripe, however many slots pass through.
    #[test]
    fn a_free_only_thread_feeds_an_alloc_only_thread() {
        let (live, rounds) = if cfg!(miri) {
            (30, 300)
        } else {
            (4094, 200_000)
        };
        let slab = Slab::<Pair>::new();
        let (tx, rx) = mpsc::sync_channel::<usize>(live - 2);
        let slab = &slab;
        std::thread::scope(|s| {
            s.spawn(move || {
                for p in rx {
                    let p = NonNull::new(p as *mut Pair).unwrap();
                    // SAFETY: every slot is sent once and used by nobody.
                    unsafe { slab.free(p) };
                }
            });
            s.spawn(move || {
                for _ in 0..rounds {
                    tx.send(slab.alloc().as_ptr() as usize).unwrap();
                }
            });
        });
        let bound = live.div_ceil(Slab::<Pair>::SLOTS) + STRIPES + 1;
        assert!(
            slab.chunks() <= bound,
            "{} chunks for {live} live slots (bound {bound})",
            slab.chunks()
        );
    }
}

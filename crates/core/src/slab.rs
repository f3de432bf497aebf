//! A tree's node allocator: slots of one type cut from 64 KiB chunks.
//!
//! A node allocated by `Box` pays glibc's chunk header and rounding: a
//! 16-byte ART KV leaf takes a 32-byte chunk, a 256-byte B+-tree leaf a
//! 272-byte one at 16-byte alignment. A [`Slab<T>`] hands out slots of
//! exactly `T`'s size and alignment by bump from a chunk and recycles
//! freed ones through intrusive free lists (a free slot's first word
//! links to the next), so a node costs its own bytes, and a 64-aligned
//! node of 256 bytes fills four cache lines and no fifth.
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
//! only inserts needs: the slab holds the live nodes, the freed slots
//! still waiting for their epoch, and at most one part-used chunk per
//! stripe.
//!
//! **Lifetime.** A retired node is freed by the epoch collector, possibly
//! after its tree is gone: from another thread's bag, or from the orphan
//! list of a thread that exited. [`Slab`] is therefore a reference-counted
//! handle; each deferred free holds one, and the chunks are released when
//! the last handle drops. The slab never runs a `T`'s destructor: what it
//! stores must not need one.
//!
//! **Chunk size.** 64 KiB stays under glibc's 128 KiB mmap threshold, so
//! a dropped tree's chunks return to the heap and the next tree reuses
//! them instead of faulting in fresh pages.
//!
//! **Chunk alignment.** A chunk is one allocation of exactly 64 KiB at
//! `malloc`'s own 16-byte alignment, and its first slot is rounded up to
//! `T`'s alignment, which costs a 64-aligned `T` one slot per chunk (255
//! leaves of 256 bytes, not 256). Asking `posix_memalign` for 64-aligned
//! chunks, or `malloc` for 48 bytes more to keep that slot, both let glibc
//! trim a dropped 4 M-key tree's chunks off the heap, so the next tree
//! faulted its pages in again: 72 k page faults in a `serve-get` run of
//! three set-ups against 53 k this way.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::mem::{self, align_of, size_of};
use std::ptr::{self, NonNull};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::counters::{stripe, STRIPES};

/// Bytes per chunk.
const CHUNK_BYTES: usize = 64 << 10;

/// Sweeps over the other stripes a dry allocation makes while some of
/// them are busy, before it gives up and carves a chunk.
const STEAL_SWEEPS: usize = 64;

/// One stripe's allocation state. While a slot is free, its first word
/// links the next free slot.
struct Cursor<T> {
    /// Head of this stripe's free list (null: empty).
    free: *mut T,
    /// Next never-used slot of this stripe's chunk; equal to `end` when
    /// the chunk is used up (both null before the first chunk).
    next: *mut T,
    end: *mut T,
}

// SAFETY: the pointers name slots of chunks the `Shared` owns, and a
// `Cursor` is only reached under its stripe's mutex. No `T` is ever read
// or dropped through them: a slot is memory until its caller writes it.
unsafe impl<T> Send for Cursor<T> {}

impl<T> Cursor<T> {
    /// A recycled slot, else a never-used one.
    fn take(&mut self) -> Option<NonNull<T>> {
        if let Some(p) = NonNull::new(self.free) {
            // SAFETY: a free slot's first word holds the next link.
            self.free = unsafe { p.as_ptr().cast::<*mut T>().read() };
            return Some(p);
        }
        if self.next == self.end {
            return None;
        }
        let p = self.next;
        // SAFETY: `next < end`, so `next + 1` is at most one past the chunk.
        self.next = unsafe { p.add(1) };
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

struct Shared<T> {
    stripes: [Stripe<T>; STRIPES],
    /// Every chunk ever carved; touched once per chunk.
    chunks: Mutex<Vec<Chunk>>,
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        for Chunk(c) in self
            .chunks
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            // SAFETY: allocated in `carve` with `CHUNK`; the last handle is
            // gone, so no slot of it is reachable.
            unsafe { dealloc(c.as_ptr(), Slab::<T>::CHUNK) };
        }
    }
}

/// A reference-counted handle to one tree's slab of `T` slots (see the
/// module doc). Cloning it is how a deferred free keeps the chunks alive.
pub struct Slab<T>(Arc<Shared<T>>);

impl<T> Clone for Slab<T> {
    fn clone(&self) -> Self {
        Slab(Arc::clone(&self.0))
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Alignment a chunk is requested with: at most `malloc`'s own (see
    /// the module doc).
    const CHUNK_ALIGN: usize = if align_of::<T>() < 16 {
        align_of::<T>()
    } else {
        16
    };

    /// Slots per chunk, after the first is rounded up to `T`'s alignment.
    const SLOTS: usize = (CHUNK_BYTES - (align_of::<T>() - Self::CHUNK_ALIGN)) / size_of::<T>();

    /// A chunk, requested at `CHUNK_ALIGN`.
    const CHUNK: Layout = {
        assert!(
            size_of::<T>() >= size_of::<*mut T>() && align_of::<T>() >= align_of::<*mut T>(),
            "a free slot must hold its link"
        );
        assert!(Self::SLOTS >= 1, "a slot must fit a chunk");
        match Layout::from_size_align(CHUNK_BYTES, Self::CHUNK_ALIGN) {
            Ok(l) => l,
            Err(_) => panic!("chunk layout"),
        }
    };

    /// An empty slab: no chunk is carved before the first allocation.
    pub fn new() -> Self {
        // Evaluating the layout checks `T` fits the slab, at compile time.
        let _ = Self::CHUNK;
        Slab(Arc::new(Shared {
            stripes: std::array::from_fn(|_| {
                Stripe(Mutex::new(Cursor {
                    free: ptr::null_mut(),
                    next: ptr::null_mut(),
                    end: ptr::null_mut(),
                }))
            }),
            chunks: Mutex::new(Vec::new()),
        }))
    }

    /// An uninitialised slot, from the calling thread's stripe, else from
    /// another stripe's free list, else from a new chunk.
    pub fn alloc(&self) -> NonNull<T> {
        let me = stripe();
        let mut own = self.0.stripes[me].lock();
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

    /// Return `p` to the calling thread's stripe.
    ///
    /// # Safety
    /// `p` came from [`alloc`](Self::alloc) on this slab (or a clone of
    /// it), is freed once, and nothing reads it any more.
    pub unsafe fn free(&self, p: NonNull<T>) {
        let mut own = self.0.stripes[stripe()].lock();
        // SAFETY: the caller hands the slot over; its first word becomes
        // the link.
        unsafe { p.as_ptr().cast::<*mut T>().write(own.free) };
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
                match self.0.stripes[(me + i) % STRIPES].try_lock() {
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

    /// A fresh chunk, recorded for release; returns its first slot.
    #[cold]
    fn carve(&self) -> NonNull<T> {
        // SAFETY: `CHUNK` has a non-zero size.
        let base = NonNull::new(unsafe { alloc(Self::CHUNK) })
            .unwrap_or_else(|| handle_alloc_error(Self::CHUNK));
        self.0
            .chunks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Chunk(base));
        // Bytes to the first `T`-aligned address (the alignment is a power
        // of two).
        let pad = (base.as_ptr() as usize).wrapping_neg() & (align_of::<T>() - 1);
        // SAFETY: `base` is `CHUNK_ALIGN`-aligned, so `pad` is at most
        // `align_of::<T>() - CHUNK_ALIGN`, which `SLOTS` leaves room for:
        // the `SLOTS` slots from the first lie inside the chunk.
        unsafe { NonNull::new_unchecked(base.as_ptr().add(pad).cast()) }
    }

    /// Chunks carved so far.
    #[cfg(test)]
    fn chunks(&self) -> usize {
        self.0
            .chunks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;

    /// A 16-byte slot, as an ART KV leaf uses.
    #[repr(C, align(16))]
    struct Pair([u64; 2]);

    /// A four-line slot, as a default B+-tree leaf uses.
    #[repr(C, align(64))]
    struct Lines([u64; 32]);

    fn distinct_aligned_and_chunked<T>() {
        let slab = Slab::<T>::new();
        assert_eq!(slab.chunks(), 0);
        let slots = Slab::<T>::SLOTS;
        let n = if cfg!(miri) { 64 } else { slots + 1 };
        let mut seen = HashSet::new();
        for i in 0..n {
            let p = slab.alloc();
            assert_eq!(p.as_ptr() as usize % align_of::<T>(), 0);
            assert!(seen.insert(p.as_ptr() as usize), "slot handed out twice");
            // SAFETY: a fresh slot is ours to write.
            unsafe { p.as_ptr().cast::<u64>().write(i as u64) };
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

    /// A clone outliving the original keeps the chunks: a free through it
    /// writes into memory that is still allocated.
    #[test]
    fn a_clone_keeps_the_chunks_alive() {
        let slab = Slab::<Lines>::new();
        let p = slab.alloc();
        let late = slab.clone();
        drop(slab);
        // SAFETY: `p` came from the slab `late` shares, freed once.
        unsafe { late.free(p) };
        assert_eq!(late.alloc(), p);
    }
}

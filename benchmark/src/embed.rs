//! The embedded driver: threads calling an index through
//! `ConcurrentIndex` directly, no server in between.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use optiql_index_api::ConcurrentIndex;

use crate::driver::Slice;
use crate::rng::{Rng, Sampler};
use crate::stream::{plausible, set_value};
use crate::sys;

/// One in this many operations is timed; the clock reads around it cost
/// about as much as the operation itself.
pub const TIMED_EVERY: usize = 16;

/// A ring of packed operations: key in the high bits, bit 0 set for an
/// update, clear for a lookup. The length is a power of two.
pub fn embed_stream(
    seed: u64,
    salt: u64,
    len_log2: u32,
    sampler: &Sampler,
    update_pct: u64,
) -> Vec<u32> {
    let mut rng = Rng::new(seed, salt);
    (0..1usize << len_log2)
        .map(|_| {
            let key = sampler.key(&mut rng);
            let update = rng.below(100) < update_pct;
            u32::try_from(key << 1).expect("keys fit in 31 bits") | u32::from(update)
        })
        .collect()
}

#[derive(Default)]
pub struct EmbedResult {
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Most retired-but-unfreed objects seen in the reclamation domain.
    pub deferred_peak: u64,
}

struct ThreadOut {
    slices: Vec<Slice>,
    attempted: u64,
    failed: u64,
}

/// One operation; `false` when the index gave an impossible answer. No
/// key is ever removed, so every lookup and every update must find a
/// value some thread could have stored under that key.
#[inline]
fn apply<I: ConcurrentIndex>(idx: &I, word: u32, pos: usize) -> bool {
    let key = u64::from(word >> 1);
    let got = if word & 1 == 1 {
        idx.update(key, set_value(pos, key))
    } else {
        idx.lookup(key)
    };
    got.is_some_and(|v| plausible(key, v))
}

fn embed_thread<I: ConcurrentIndex>(
    idx: &I,
    ring: &[u32],
    window: Duration,
    slice: Duration,
    corrupt: bool,
) -> ThreadOut {
    let mask = ring.len() - 1;
    let mut out = ThreadOut {
        slices: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let deadline = start + window;
    let mut pos = 0usize;
    loop {
        for _ in 0..TIMED_EVERY - 1 {
            out.failed += u64::from(!apply(idx, ring[pos & mask], pos & mask));
            pos += 1;
        }
        let t0 = Instant::now();
        let ok = apply(idx, ring[pos & mask], pos & mask);
        let t1 = Instant::now();
        pos += 1;
        out.failed += u64::from(!ok);
        out.attempted += TIMED_EVERY as u64;
        if t1 >= deadline {
            break;
        }
        let i = ((t1 - start).as_nanos() / slice.as_nanos()) as usize;
        if out.slices.len() <= i {
            out.slices.resize_with(i + 1, Slice::default);
        }
        out.slices[i].hist.record((t1 - t0).as_nanos() as u64);
        out.slices[i].reqs += TIMED_EVERY as u64;
        out.slices[i].ops += TIMED_EVERY as u64;
    }
    // The test hook: one answer judged against a wrong expectation.
    out.failed += u64::from(corrupt);
    out
}

/// Run one thread per ring for `window`, thread `i` pinned to core `i`.
pub fn run_embed<I: ConcurrentIndex>(
    idx: &I,
    rings: &[Vec<u32>],
    window: Duration,
    slice: Duration,
    corrupt: bool,
) -> EmbedResult {
    assert!(rings.iter().all(|r| r.len().is_power_of_two()));
    let barrier = Barrier::new(rings.len() + 1);
    let mut res = EmbedResult {
        slice_s: slice.as_secs_f64(),
        ..EmbedResult::default()
    };
    let outs: Vec<ThreadOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(i, ring)| {
                let barrier = &barrier;
                sc.spawn(move || {
                    sys::pin_thread(i);
                    barrier.wait();
                    embed_thread(idx, ring, window, slice, corrupt && i == 0)
                })
            })
            .collect();
        barrier.wait();
        // Sample the reclamation backlog while the threads run.
        let end = Instant::now() + window;
        while Instant::now() < end {
            if let Some(h) = idx.reclaim_handle() {
                res.deferred_peak = res.deferred_peak.max(h.deferred() as u64);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    for o in outs {
        if res.slices.len() < o.slices.len() {
            res.slices.resize_with(o.slices.len(), Slice::default);
        }
        for (into, s) in res.slices.iter_mut().zip(&o.slices) {
            into.hist.merge(&s.hist);
            into.reqs += s.reqs;
            into.ops += s.ops;
        }
        res.attempted += o.attempted;
        res.failed += o.failed;
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::preload_value;
    use optiql_index_api::model::ModelIndex;

    #[test]
    fn embedded_run_counts_ops_and_flags_impossible_answers() {
        let keys = 1_000u64;
        let sampler = Sampler::self_similar(keys, 0.2);
        let rings: Vec<Vec<u32>> = (0..2)
            .map(|t| embed_stream(3, t, 10, &sampler, 50))
            .collect();
        let updates = rings[0].iter().filter(|w| *w & 1 == 1).count();
        assert!((400..=624).contains(&updates), "{updates} updates of 1024");
        assert!(rings[0].iter().all(|w| u64::from(w >> 1) < keys));

        let idx: ModelIndex = ModelIndex::new();
        for k in 0..keys {
            idx.insert(k, preload_value(k));
        }
        let (window, slice) = (Duration::from_millis(100), Duration::from_millis(20));
        let r = run_embed(&idx, &rings, window, slice, false);
        assert_eq!(r.failed, 0);
        assert!(r.attempted > 0 && r.attempted % TIMED_EVERY as u64 == 0);
        assert!(r.slices.len() <= 5);
        let timed: u64 = r.slices.iter().map(|s| s.hist.count()).sum();
        assert_eq!(
            timed * TIMED_EVERY as u64,
            r.slices.iter().map(|s| s.ops).sum::<u64>()
        );

        // A hole in the key space is an impossible answer.
        idx.remove(0);
        let r = run_embed(&idx, &rings, window, slice, false);
        assert!(
            r.failed > 0,
            "key 0 is the hottest key; its absence must show"
        );
        idx.insert(0, preload_value(0));
        assert_eq!(run_embed(&idx, &rings, window, slice, true).failed, 1);
    }
}

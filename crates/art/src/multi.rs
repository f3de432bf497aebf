//! Batched, software-pipelined ART operations (memory-level parallelism).
//!
//! Same execution model as the B+-tree's batched entry points: the tree's
//! descent steps (`ArtTree::read_step` / `ArtTree::write_step` — the
//! same functions the scalar entry points loop on) are handed to the
//! shared group scheduler, [`optiql::olc::run_grouped`], and every turn
//! ends right after prefetching the node the descent enters next, so one
//! group keeps up to `GROUP` cache misses outstanding instead of one.
//!
//! ART adds one wrinkle the B+-tree does not have — tagged KV-leaf
//! children. Comparing `kv.key` is itself a potential cache miss, and the
//! step enters a leaf like any other child: the turn that chooses it
//! prefetches the leaf line and parks, the next one compares and
//! validates. Byte-string keys get one more turn than `u64`: their key
//! payload lives behind a pointer in the leaf, so a parked leaf edge first
//! spends a turn prefetching that payload line.
//!
//! What the pipeline does not do itself — prefix splits and node growth
//! (both need the parent exclusively), operations that keep failing
//! validation, repeated keys — the scheduler completes through the scalar
//! driver, against cache-warm nodes.
//!
//! Each turn needs its key's radix digits. Inline keys re-derive them on
//! the stack (a byte swap); byte strings, whose escape coding is a pass
//! over the key, are encoded once per batch into one flat buffer that
//! every turn slices (see `Digits`).

use optiql::olc::{run_grouped, Step};
use optiql::IndexLock;
use optiql_index_api::IndexKey;

use crate::node::{as_kv, is_kv, prefetch_child};
use crate::tree::{ArtTree, Edge, WriteOp, LANES, SIZE};

/// A parked descent, and whether everything its next step compares is
/// already in flight (false only for a pointer-slot key about to be
/// compared with a KV leaf's out-of-line key).
type Parked<'t, L> = (Edge<'t, L>, bool);

/// The radix digits of a batch of pointer-slot keys, encoded back to back
/// in `flat`; `ends[i]` is where key `i`'s digits end. Empty for inline
/// keys.
struct Digits {
    flat: Vec<u8>,
    ends: Vec<usize>,
}

impl Digits {
    fn encode<'k, K: IndexKey>(keys: impl ExactSizeIterator<Item = &'k K>) -> Self {
        let mut d = Digits {
            flat: Vec::new(),
            ends: Vec::new(),
        };
        if !K::INLINE {
            d.ends.reserve_exact(keys.len());
            for key in keys {
                key.encode_into(&mut d.flat);
                d.ends.push(d.flat.len());
            }
        }
        d
    }

    /// Run `f` on the digits of `key`, the `i`-th key of the batch.
    #[inline]
    fn with<K: IndexKey, R>(&self, key: &K, i: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        if K::INLINE {
            f(key.encode().as_ref())
        } else {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            f(&self.flat[start..self.ends[i]])
        }
    }
}

impl<L: IndexLock, K: IndexKey> ArtTree<L, K> {
    /// Batched point lookups; `result[i] == lookup(keys[i])`, order
    /// preserved. Pipelines `GROUP` descents with interleaved prefetch.
    pub fn multi_lookup(&self, keys: &[K]) -> Vec<Option<u64>> {
        let _g = self.collector.pin();
        let digits = Digits::encode(keys.iter());
        run_grouped::<L, _, _, LANES>(
            &self.counters,
            keys.len(),
            |_, _| false,
            |i, parked| {
                let key = &keys[i];
                digits.with(key, i, |kb| {
                    self.turn(parked, |e| self.read_step(key, kb, e))
                })
            },
            |i| digits.with(&keys[i], i, |kb| self.lookup_impl(&keys[i], kb)),
        )
    }

    /// Batched inserts, equivalent to applying `pairs` in order (a
    /// duplicate key later in the batch observes the earlier write).
    pub fn multi_insert(&self, pairs: &[(K, u64)]) -> Vec<Option<u64>> {
        let g = self.collector.pin();
        let digits = Digits::encode(pairs.iter().map(|(k, _)| k));
        let out = run_grouped::<L, _, _, LANES>(
            &self.counters,
            pairs.len(),
            |e, i| pairs[e].0 == pairs[i].0,
            |i, parked| {
                let (key, val) = &pairs[i];
                digits.with(key, i, |kb| {
                    self.turn(parked, |e| {
                        // Restructuring above a node is the scalar
                        // driver's job; nothing is held (the pipeline runs
                        // optimistic locks only), so hand over — and for
                        // the same reason the link the step leaves in `up`
                        // for a remove's collapse can simply be dropped.
                        self.write_step(key, kb, WriteOp::Insert(*val), &mut None, e, &g)
                            .unwrap_or_else(|_smo| Step::Done(self.insert_impl(key, kb, *val)))
                    })
                })
            },
            |i| {
                let (key, val) = &pairs[i];
                digits.with(key, i, |kb| self.insert_impl(key, kb, *val))
            },
        );
        let added = out.iter().filter(|r| r.is_none()).count();
        if added > 0 {
            self.counters.add(SIZE, added as u64);
        }
        out
    }

    /// One turn of a parked descent: `step` over its edge, then prefetch
    /// what the new edge leads to. A descent not yet warm instead spends
    /// the turn prefetching the key payload of the leaf it is about to
    /// compare (the leaf line itself arrived during the last round).
    #[inline]
    fn turn<'t, R>(
        &'t self,
        parked: Option<Parked<'t, L>>,
        step: impl FnOnce(Edge<'t, L>) -> Step<Edge<'t, L>, R>,
    ) -> Step<Parked<'t, L>, R> {
        let edge = match parked {
            // The root is never replaced and always cache-hot.
            None => self.root_edge(),
            Some((edge, true)) => edge,
            Some((edge, false)) => {
                unsafe { as_kv::<L, K>(edge.child) }.key.prefetch_payload();
                return Step::Next((edge, true));
            }
        };
        match step(edge) {
            Step::Next(edge) => {
                prefetch_child(edge.child);
                let warm = K::INLINE || !is_kv(edge.child);
                Step::Next((edge, warm))
            }
            Step::Done(r) => Step::Done(r),
            Step::Restart => Step::Restart,
        }
    }
}

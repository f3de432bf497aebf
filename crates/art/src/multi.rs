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
//! validates.
//!
//! What the pipeline does not do itself — prefix splits and node growth
//! (both need the parent exclusively), operations that keep failing
//! validation, repeated keys — the scheduler completes through the scalar
//! driver, against cache-warm nodes. Each turn re-derives its key's radix
//! digits on the stack (a byte swap).

use optiql::olc::{run_grouped, Step};
use optiql::IndexLock;

use crate::node::{key_bytes, prefetch_child};
use crate::tree::{ArtTree, Edge, WriteOp, LANES, SIZE};

impl<L: IndexLock> ArtTree<L> {
    /// Batched point lookups; `result[i] == lookup(keys[i])`, order
    /// preserved. Pipelines `GROUP` descents with interleaved prefetch.
    pub fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let _g = self.collector.pin();
        run_grouped::<L, _, _, LANES>(
            &self.counters,
            keys.len(),
            |_, _| false,
            |i, parked| {
                let key = keys[i];
                self.turn(parked, |e| self.read_step(key, &key_bytes(key), e))
            },
            |i| self.lookup_impl(keys[i], &key_bytes(keys[i])),
        )
    }

    /// Batched inserts, equivalent to applying `pairs` in order (a
    /// duplicate key later in the batch observes the earlier write).
    pub fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let g = self.collector.pin();
        let out = run_grouped::<L, _, _, LANES>(
            &self.counters,
            pairs.len(),
            |e, i| pairs[e].0 == pairs[i].0,
            |i, parked| {
                let (key, val) = pairs[i];
                let kb = key_bytes(key);
                self.turn(parked, |e| {
                    // Restructuring above a node is the scalar driver's
                    // job; nothing is held (the pipeline runs optimistic
                    // locks only), so hand over — and for the same reason
                    // the link the step leaves in `up` for a remove's
                    // collapse can simply be dropped.
                    self.write_step(key, &kb, WriteOp::Insert(val), &mut None, e, &g)
                        .unwrap_or_else(|_smo| Step::Done(self.insert_impl(key, &kb, val)))
                })
            },
            |i| {
                let (key, val) = pairs[i];
                self.insert_impl(key, &key_bytes(key), val)
            },
        );
        let added = out.iter().filter(|r| r.is_none()).count();
        if added > 0 {
            self.counters.add(SIZE, added as u64);
        }
        out
    }

    /// One turn of a parked descent: `step` over its edge, then prefetch
    /// what the new edge leads to.
    #[inline]
    fn turn<'t, R>(
        &'t self,
        parked: Option<Edge<'t, L>>,
        step: impl FnOnce(Edge<'t, L>) -> Step<Edge<'t, L>, R>,
    ) -> Step<Edge<'t, L>, R> {
        // The root is never replaced and always cache-hot.
        let step = step(parked.unwrap_or_else(|| self.root_edge()));
        if let Step::Next(edge) = &step {
            prefetch_child(edge.child);
        }
        step
    }
}

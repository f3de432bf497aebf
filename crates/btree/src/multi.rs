//! Batched, software-pipelined B+-tree operations (memory-level
//! parallelism).
//!
//! A single OLC descent is a pointer chase: each level's node must arrive
//! from memory before the next child pointer can even be computed, so the
//! core stalls on one cache miss at a time while the memory system idles.
//! `multi_lookup`/`multi_insert` break that serialization by handing the
//! tree's descent steps (`BPlusTree::read_step` /
//! `BPlusTree::write_step` — the same functions the scalar entry points
//! loop on) to the shared group scheduler, [`optiql::olc::run_grouped`]:
//! each turn advances one operation by exactly one tree level and ends
//! right after choosing the node it will enter next. Choosing a child
//! prefetches every line of it (`Inner::find_child`), on this path and
//! the scalar one alike, so a group keeps up to `GROUP` nodes in flight
//! instead of one.
//!
//! Only the schedule differs from the scalar path, so correctness is the
//! scalar argument. What the pipeline does not do itself — full inner
//! nodes, operations that keep failing validation, repeated keys — the
//! scheduler completes through the scalar driver, which by then runs
//! against cache-warm nodes.
//!
//! An ascending insert batch has no misses to overlap: its keys land in
//! the leaf the key before them wrote. `multi_insert` runs such a batch
//! on the scalar driver instead, one descent per leaf (see
//! [`crate::tree`]'s `Run`), and keeps the pipeline for the part of a
//! sorted batch that is spread out.
//!
//! Per-op fixed costs are amortized across the batch: one add each to the
//! ops and restarts lanes of the tree's counters.

use optiql::olc::{run_grouped, Step, OPS};
use optiql::IndexLock;

use crate::tree::{BPlusTree, Edge, Run, Stepped, WriteOp, LANES, SIZE};

impl<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize> BPlusTree<IL, LL, IC, LC> {
    /// Batched point lookups; `result[i] == lookup(keys[i])`, order
    /// preserved. Pipelines `GROUP` descents with interleaved prefetch.
    pub fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        run_grouped::<LL, _, _, LANES>(
            &self.counters,
            keys.len(),
            |_, _| false,
            |i, parked| {
                let key = keys[i];
                self.turn(parked, |e| {
                    self.read_step(e, |n| n.find_child(key), |l| l.lookup(key))
                })
            },
            |i| self.lookup_impl(keys[i]),
        )
    }

    /// Batched inserts, equivalent to applying `pairs` in order (a
    /// duplicate key later in the batch observes the earlier write).
    ///
    /// A strictly ascending batch descends once per leaf: the scalar
    /// driver carries the rest of the batch down as a [`Run`], and the
    /// leaf takes every pair that lands in it. When the pair after the
    /// one that found a leaf lies beyond that leaf, the keys are spread
    /// out and the rest of the batch goes to the pipeline.
    pub fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        let mut at = 0;
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            out.resize(pairs.len(), None);
            while let Some(&(key, val)) = pairs.get(at) {
                let (first, rest) = out[at..].split_first_mut().expect("at < len");
                let mut run = Run::new(&pairs[at + 1..], rest);
                *first = self.write(key, WriteOp::Insert(val), Some(&mut run));
                at += 1 + run.taken;
                if run.taken == 0 && run.fenced_out {
                    break;
                }
            }
            self.counters.add(OPS, at as u64);
            out.truncate(at);
        }
        let rest = &pairs[at..];
        if !rest.is_empty() {
            let grouped = run_grouped::<LL, _, _, LANES>(
                &self.counters,
                rest.len(),
                |e, i| rest[e].0 == rest[i].0,
                |i, parked| {
                    let (key, val) = rest[i];
                    self.turn(parked, |e| {
                        // A full inner node is the scalar driver's to split;
                        // nothing is held (optimistic reads only), so hand over.
                        self.write_step(key, WriteOp::Insert(val), e, |n| n.find_child(key), None)
                            .unwrap_or_else(|_full| Step::Done(self.insert_impl(key, val)))
                    })
                },
                |i| self.insert_impl(rest[i].0, rest[i].1),
            );
            if out.is_empty() {
                out = grouped;
            } else {
                out.extend(grouped);
            }
        }
        let added = out.iter().filter(|r| r.is_none()).count();
        if added > 0 {
            self.counters.add(SIZE, added as u64);
        }
        out
    }

    /// One turn of a descent: `step` over its parked edge, or over the
    /// root edge when it starts. The step ends by choosing a child, which
    /// prefetches that node whole, so a parked descent finds every line of
    /// its next node in flight when its turn comes round.
    #[inline]
    fn turn<'t, R>(
        &'t self,
        parked: Option<Edge<'t, IL, IC>>,
        step: impl FnOnce(Edge<'t, IL, IC>) -> Stepped<'t, IL, IC, R>,
    ) -> Stepped<'t, IL, IC, R> {
        // No step chose the root, so nothing prefetched it: it is always
        // cache-hot.
        step(parked.unwrap_or_else(|| self.root_edge()))
    }
}

//! Concurrent B+-tree with optimistic lock coupling (paper §6.1).
//!
//! The tree is generic over two lock types:
//!
//! * `IL` — the lock on **inner** nodes. The paper keeps centralized
//!   optimistic locks on inner nodes even in the OptiQL configuration,
//!   because inner nodes see little contention and queue-based release is
//!   more expensive when uncontended (§6.1).
//! * `LL` — the lock on **leaf** nodes, where contention concentrates.
//!
//! Keys and values are `u64` (the paper's 8-byte-key / 8-byte-value
//! configuration).
//!
//! # One descent, two drivers
//!
//! The descent is written once, as two resumable step functions that each
//! move one level along an `Edge`: `BPlusTree::read_step` (lookups and
//! the range refill) and `BPlusTree::write_step` (insert, update and
//! remove). The scalar entry points loop on a step without
//! yielding (the batch of one); `multi_lookup` / `multi_insert` hand the
//! same step to `optiql::olc::run_grouped`, which parks its `Edge` between
//! turns after a prefetch (see [`crate::multi`]). A full inner node met by
//! an insert is a step outcome (`FullInner`) carried out by the scalar
//! driver. The scalar write driver also takes a run: a strictly ascending
//! `multi_insert` descends once per leaf, and the leaf takes every pair
//! of the run below the fence its descent recorded (`Run`).
//!
//! How the write step takes the leaf is the one thing a lock changes
//! (paper §6.1). It lives in one function, `acquire_leaf`, which
//! dispatches on `LL::STRATEGY`, a [`WriteStrategy`]:
//!
//! * `Upgrade` — classic OLC (Figure 2c): validate the leaf version, then
//!   CAS-upgrade it; restart from the root on failure.
//! * `DirectLock` — the paper's Algorithm 4: acquire the leaf lock
//!   directly (blocking, FIFO-queued), then validate the parent; avoids
//!   the retry-and-re-search of a failed upgrade.
//! * `DirectLockAor` — Algorithm 4 plus adjustable opportunistic read:
//!   readers keep being admitted while the writer locates its target slot
//!   (§5.3, §7.4).
//! * `Pessimistic` — traditional lock coupling: the same steps, whose
//!   guards are then real holds. Updates and removes couple shared locks
//!   down to an exclusive leaf; an insert, which may split any node on
//!   its path, enters every node with write intent and so couples
//!   exclusive locks top-down.
//!
//! Structural modifications are eager (BTreeOLC \[29\] style): a full node is
//! split while descending, which guarantees the parent always has room for
//! one more separator. Deletions unlink empty leaves and merge
//! under-quarter-full leaves with their right sibling best-effort (this is
//! the "two queue nodes per thread" case of §6.1); inner nodes shrink only
//! via root collapse.
//!
//! # Range scans
//!
//! [`BPlusTree::scan_chunk`] is the tree's one scan function: descend to
//! the leaf covering the cursor under optimistic reads, snapshot its
//! matching entries, validate, and report the tightest upper separator on
//! the path as the next cursor. `ConcurrentIndex::range` is its driver,
//! written once in `optiql-index-api`. Continuation is
//! loss- and duplicate-free because a leaf's keys are strictly below the
//! separator above it: restarting the descent at the separator
//! (inclusive) lands on the next leaf's first key, whatever splits or
//! merges happened in between.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

use optiql::counters::Counters;
use optiql::olc::{IndexStats, OptimisticGuard, RestartLoop, Step, INDEX_LANES, OPS};
use optiql::slab::Slab;
use optiql::stats::Event;
use optiql::{chaos, IndexLock, WriteStrategy, WriteToken};

use crate::node::{as_inner, as_leaf, is_leaf, Inner, Leaf, NodeBase};

// The tree's lanes of its counter block, after the OLC protocol's.
/// Entries: +1 per new key, -1 per removed one (see [`BPlusTree::len`]).
pub(crate) const SIZE: usize = INDEX_LANES;
const LEAF_SPLITS: usize = INDEX_LANES + 1;
const INNER_SPLITS: usize = INDEX_LANES + 2;
const ROOT_SPLITS: usize = INDEX_LANES + 3;
const LEAF_MERGES: usize = INDEX_LANES + 4;
const LEAF_UNLINKS: usize = INDEX_LANES + 5;
const ROOT_COLLAPSES: usize = INDEX_LANES + 6;
pub(crate) const LANES: usize = INDEX_LANES + 7;

/// Snapshot of a tree's event counters. Counters are updated with relaxed
/// atomics; under concurrency a snapshot is approximate but monotone.
/// Operation/restart accounting is the workspace-wide
/// [`IndexStats`]; the structural (SMO) counters are tree-specific.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Unified operation/restart accounting (`optiql::olc::IndexStats`).
    pub index: IndexStats,
    /// Leaf splits.
    pub leaf_splits: u64,
    /// Inner-node splits.
    pub inner_splits: u64,
    /// Root splits (tree grew one level).
    pub root_splits: u64,
    /// Leaf merges into the right sibling.
    pub leaf_merges: u64,
    /// Empty-leaf unlinks.
    pub leaf_unlinks: u64,
    /// Root collapses (tree shrank one level).
    pub root_collapses: u64,
}

/// An inner node under an open (not yet validated) read.
type InnerRef<'t, IL, const IC: usize> = (&'t Inner<IL, IC>, OptimisticGuard<'t, IL>);

/// Where a descent stands between two steps: `child` was chosen under the
/// open read of `parent` (`None`: it is the root pointer, just loaded) and
/// is entered by the next step. This is the state the batched driver parks.
pub(crate) struct Edge<'t, IL: IndexLock, const IC: usize> {
    parent: Option<InnerRef<'t, IL, IC>>,
    pub(crate) child: *mut NodeBase,
}

/// What a step reports: one level down (`Next`), finished, or restart.
pub(crate) type Stepped<'t, IL, const IC: usize, R> = Step<Edge<'t, IL, IC>, R>;

/// The structural outcome of the write step: an insert met full inner
/// `node` (at `ptr`), which must be split under `parent` (`None`: it is the
/// root) before the descent can go on. Both guards are still open.
pub(crate) struct FullInner<'t, IL: IndexLock, const IC: usize> {
    parent: Option<InnerRef<'t, IL, IC>>,
    node: InnerRef<'t, IL, IC>,
    ptr: *mut NodeBase,
}

/// What the write step does at the leaf.
#[derive(Clone, Copy)]
pub(crate) enum WriteOp {
    Insert(u64),
    Update(u64),
    Remove,
}

/// The rest of a strictly ascending insert run, carried down by the
/// descent of the pair before it (DESIGN §5.1, *One descent, two
/// drivers*): the leaf that descent reaches, held once, takes every
/// following pair below the run's fence that fits.
///
/// Why the fence holds: a leaf's key range shrinks only when the leaf
/// splits or is merged into its left neighbour; both take its lock and
/// write its parent, which `acquire_leaf` validates once the leaf is
/// held. Until the leaf is released its range can only grow (an empty
/// neighbour unlinked into it).
pub(crate) struct Run<'a> {
    /// The pairs after the descending one; `pairs[..taken]` are applied.
    pairs: &'a [(u64, u64)],
    /// Their answers, position for position.
    out: &'a mut [Option<u64>],
    /// How many of `pairs` the leaf took.
    pub(crate) taken: usize,
    /// The last fill stopped at a pair beyond its leaf's fence: the pairs
    /// are spread over leaves, not packed into one.
    pub(crate) fenced_out: bool,
    /// Tightest upper separator on the descent path (`None`: the
    /// rightmost leaf), recorded by the descent's `pick`.
    fence: Option<u64>,
}

impl<'a> Run<'a> {
    /// A run over `pairs`, strictly ascending, answering into `out`.
    pub(crate) fn new(pairs: &'a [(u64, u64)], out: &'a mut [Option<u64>]) -> Self {
        Run {
            pairs,
            out,
            taken: 0,
            fenced_out: false,
            fence: None,
        }
    }

    /// Insert the next pairs into `leaf` (held exclusively; its keys end
    /// below `fence`) while they land in it and fit: the leaf has room or
    /// holds the key already. Returns the first pair that lands but does
    /// not fit, left for the caller to split for.
    fn fill<LL: IndexLock, const LC: usize>(
        &mut self,
        leaf: &Leaf<LL, LC>,
        fence: Option<u64>,
    ) -> Option<(u64, u64)> {
        while let Some(&(key, val)) = self.pairs.get(self.taken) {
            if fence.is_some_and(|f| key >= f) {
                self.fenced_out = true;
                return None;
            }
            if leaf.is_full() && leaf.search(key).is_none() {
                return Some((key, val));
            }
            self.out[self.taken] = leaf.insert(key, val);
            self.taken += 1;
        }
        None
    }
}

/// Drop a parent guard on a path that does not validate it: free for
/// optimistic locks, releases the hold of pessimistic ones.
#[inline]
fn abandon<IL: IndexLock, const IC: usize>(parent: Option<InnerRef<'_, IL, IC>>) {
    if let Some((_, pg)) = parent {
        pg.abandon();
    }
}

/// A parent held exclusively for a split (`None`: the split node is the
/// root and has none).
type HeldParent<'t, IL, const IC: usize> = Option<(&'t Inner<IL, IC>, WriteToken)>;

/// Turn the parent guard a split needs into exclusive ownership. The outer
/// `None` means the upgrade lost a race: the guard is gone, restart.
#[inline]
fn upgrade<'t, IL: IndexLock, const IC: usize>(
    parent: Option<InnerRef<'t, IL, IC>>,
) -> Option<HeldParent<'t, IL, IC>> {
    match parent {
        None => Some(None),
        Some((p, pg)) => pg.try_upgrade().map(|pt| Some((p, pt))),
    }
}

/// Concurrent B+-tree mapping `u64` keys to `u64` payloads (the paper's
/// 8-byte-key / 8-byte-value configuration).
///
/// `IC` is the inner-node child capacity, `LC` the leaf entry capacity; see
/// [`crate::node_size`] for byte-size presets.
pub struct BPlusTree<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize> {
    pub(crate) root: AtomicPtr<NodeBase>,
    /// Where every node lives (see [`optiql::slab`]): an unlinked node
    /// goes straight back, and the slabs' chunks go when the tree drops.
    inners: Slab<Inner<IL, IC>>,
    leaves: Slab<Leaf<LL, LC>>,
    /// Every count the tree keeps, on cache lines of its own: no
    /// operation's accounting touches the line `root` is read from.
    pub(crate) counters: Counters<LANES>,
    _locks: std::marker::PhantomData<(IL, LL)>,
}

unsafe impl<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize> Send
    for BPlusTree<IL, LL, IC, LC>
{
}
unsafe impl<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize> Sync
    for BPlusTree<IL, LL, IC, LC>
{
}

impl<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize> Default
    for BPlusTree<IL, LL, IC, LC>
{
    fn default() -> Self {
        Self::new()
    }
}

impl<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize> BPlusTree<IL, LL, IC, LC> {
    /// Create an empty tree.
    ///
    /// Inner and leaf locks must come from the same family — both
    /// optimistic or both pessimistic. A descent couples them: a mixed
    /// pair would park real shared locks behind version checks (or upgrade
    /// locks that cannot be upgraded), so it does not compile:
    ///
    /// ```compile_fail
    /// use optiql::{McsRwLock, OptLock};
    /// use optiql_btree::BPlusTree;
    /// let _ = BPlusTree::<OptLock, McsRwLock, 16, 15>::new();
    /// ```
    pub fn new() -> Self {
        const {
            assert!(
                matches!(IL::STRATEGY, WriteStrategy::Pessimistic)
                    == matches!(LL::STRATEGY, WriteStrategy::Pessimistic),
                "inner and leaf locks must agree on coupling style"
            )
        };
        assert!(LC >= 2, "leaf capacity must be at least 2");
        assert!(IC >= 4, "inner capacity must be at least 4");
        let leaves = Slab::new();
        BPlusTree {
            root: AtomicPtr::new(Leaf::alloc(&leaves)),
            inners: Slab::new(),
            leaves,
            counters: Counters::new(),
            _locks: std::marker::PhantomData,
        }
    }

    /// Number of entries (maintained counter; exact when quiescent).
    pub fn len(&self) -> usize {
        self.counters.level(SIZE) as usize
    }

    /// True iff the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the structural-event counters.
    pub fn stats(&self) -> TreeStats {
        let sum = self.counters.sum();
        TreeStats {
            index: IndexStats::of(&sum),
            leaf_splits: sum[LEAF_SPLITS],
            inner_splits: sum[INNER_SPLITS],
            root_splits: sum[ROOT_SPLITS],
            leaf_merges: sum[LEAF_MERGES],
            leaf_unlinks: sum[LEAF_UNLINKS],
            root_collapses: sum[ROOT_COLLAPSES],
        }
    }

    /// Snapshot the unified operation/restart accounting.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats::of(&self.counters.sum())
    }

    #[inline]
    pub(crate) fn restart_loop(&self) -> RestartLoop<'_, LANES> {
        RestartLoop::new(&self.counters)
    }

    // --- the descent step and its scalar drivers ----------------------------
    //
    // The pieces of a step are `inline(always)`: a step has to fuse into
    // each driver's loop so the edge it returns never leaves registers.
    // Left to the inliner's judgement (it declined once the scalar write
    // driver had three callers), the out-of-line call cost scalar writes
    // up to 2x.

    /// Where every descent starts: the root pointer, no parent.
    #[inline(always)]
    pub(crate) fn root_edge(&self) -> Edge<'_, IL, IC> {
        Edge {
            parent: None,
            child: self.root.load(Ordering::Acquire),
        }
    }

    /// Is `child` still where the descent found it — unchanged `parent`,
    /// or still the root when there is none? Does not end the parent read.
    #[inline(always)]
    fn placed(&self, parent: &Option<InnerRef<'_, IL, IC>>, child: *mut NodeBase) -> bool {
        match parent {
            Some((_, pg)) => pg.recheck(),
            None => self.root.load(Ordering::Acquire) == child,
        }
    }

    /// The OLC coupling step, entered once `child` is under a read of its
    /// own: check it is still [`placed`](Self::placed), then end the
    /// parent read (which releases the shared lock of a pessimistic one).
    #[inline(always)]
    fn couple(&self, parent: Option<InnerRef<'_, IL, IC>>, child: *mut NodeBase) -> bool {
        let ok = self.placed(&parent, child);
        abandon(parent);
        ok
    }

    /// Second half of a step on an inner node: choose the child covering
    /// the probe (`pick` prefetches it) under the open read `ig`.
    #[inline(always)]
    fn choose<'t, R>(
        inner: &'t Inner<IL, IC>,
        ig: OptimisticGuard<'t, IL>,
        pick: impl FnOnce(&Inner<IL, IC>) -> *mut NodeBase,
    ) -> Stepped<'t, IL, IC, R> {
        let child = pick(inner);
        if child.is_null() || !ig.recheck() {
            ig.abandon();
            return Step::Restart;
        }
        Step::Next(Edge {
            parent: Some((inner, ig)),
            child,
        })
    }

    /// The read step: enter `edge.child` (read it, couple with the
    /// parent), then answer from a leaf via `at_leaf` or choose the next
    /// child via `pick`. Every read-only descent — `lookup`,
    /// `multi_lookup`, the range refill — is a driver of this function.
    #[inline(always)]
    pub(crate) fn read_step<'t, R>(
        &'t self,
        edge: Edge<'t, IL, IC>,
        pick: impl FnOnce(&Inner<IL, IC>) -> *mut NodeBase,
        at_leaf: impl FnOnce(&Leaf<LL, LC>) -> R,
    ) -> Stepped<'t, IL, IC, R> {
        let Edge { parent, child } = edge;
        // Until its version is read, `child` may be unlinked, freed and
        // reused; the parent recheck after that read catches it (DESIGN
        // §5.1, *Every node in a slab*). Chaos stretches the window.
        chaos::perturb(Event::ReadAdmit);
        if unsafe { is_leaf(child) } {
            let leaf = unsafe { as_leaf::<LL, LC>(child) };
            let Some(lg) = OptimisticGuard::read(&leaf.lock) else {
                abandon(parent);
                return Step::Restart;
            };
            if !self.couple(parent, child) {
                lg.abandon();
                return Step::Restart;
            }
            let res = at_leaf(leaf);
            return lg.done(res);
        }
        let inner = unsafe { as_inner::<IL, IC>(child) };
        let Some(ig) = OptimisticGuard::read(&inner.lock) else {
            abandon(parent);
            return Step::Restart;
        };
        if !self.couple(parent, child) {
            ig.abandon();
            return Step::Restart;
        }
        Self::choose(inner, ig, pick)
    }

    /// The write step: as [`read_step`](Self::read_step) through inner
    /// nodes (choosing the next child via `pick`), Algorithm 4 plus the
    /// write itself at the leaf, which also takes what of `run` lands
    /// there. An insert that meets a full inner node returns it as `Err`:
    /// splitting it is the scalar driver's job
    /// ([`split_full`](Self::split_full)). Only an insert writes above the
    /// leaf, so only an insert enters inner nodes with write intent.
    #[inline(always)]
    pub(crate) fn write_step<'t>(
        &'t self,
        key: u64,
        op: WriteOp,
        edge: Edge<'t, IL, IC>,
        pick: impl FnOnce(&Inner<IL, IC>) -> *mut NodeBase,
        run: Option<&mut Run<'_>>,
    ) -> Result<Stepped<'t, IL, IC, Option<u64>>, FullInner<'t, IL, IC>> {
        let Edge { parent, child } = edge;
        if unsafe { is_leaf(child) } {
            return Ok(self.write_leaf(key, op, parent, child, run));
        }
        let inner = unsafe { as_inner::<IL, IC>(child) };
        let intent = matches!(op, WriteOp::Insert(_));
        let Some(ig) = OptimisticGuard::read_for_write(&inner.lock, intent) else {
            abandon(parent);
            return Ok(Step::Restart);
        };
        if !self.placed(&parent, child) {
            ig.abandon();
            abandon(parent);
            return Ok(Step::Restart);
        }
        // Eager split (BTreeOLC): a full node is split on the way down, so
        // a parent always has room for one more separator. The parent guard
        // stays open for the split to upgrade.
        if intent && inner.is_full() {
            return Err(FullInner {
                parent,
                node: (inner, ig),
                ptr: child,
            });
        }
        abandon(parent);
        Ok(Self::choose(inner, ig, pick))
    }

    /// Paper Algorithm 4 — the one place a leaf is acquired for writing.
    /// `parent` is the open guard under which `leaf` was chosen (`None`:
    /// it is the root). Returns the exclusive token plus the result of
    /// searching `key`, when the strategy searched while readers were
    /// still admitted; `None` means restart, with nothing held.
    #[inline(always)]
    fn acquire_leaf(
        &self,
        parent: &Option<InnerRef<'_, IL, IC>>,
        ptr: *mut NodeBase,
        leaf: &Leaf<LL, LC>,
        key: u64,
    ) -> Option<(WriteToken, Option<Option<usize>>)> {
        match LL::STRATEGY {
            // Original OLC: read the leaf version, validate the parent,
            // search optimistically, then upgrade.
            WriteStrategy::Upgrade => {
                let lg = OptimisticGuard::read(&leaf.lock)?;
                if !self.placed(parent, ptr) {
                    return None;
                }
                let idx = leaf.search(key);
                Some((lg.try_upgrade()?, Some(idx)))
            }
            // Lock the leaf directly (blocking, FIFO-queued), then validate
            // the parent, whose release_sh is pure validation. A
            // pessimistic parent is held, so the leaf cannot change
            // identity and the same check trivially passes.
            WriteStrategy::DirectLock | WriteStrategy::Pessimistic => {
                let t = leaf.lock.x_lock();
                if !self.placed(parent, ptr) {
                    leaf.lock.x_unlock(t);
                    return None;
                }
                Some((t, None))
            }
            // As above, but keep admitting readers while we search.
            WriteStrategy::DirectLockAor => {
                let t = leaf.lock.x_lock_adjustable();
                if !self.placed(parent, ptr) {
                    leaf.lock.x_unlock(t);
                    return None;
                }
                let idx = leaf.search(key);
                Some((leaf.lock.x_finish_adjustable(t), Some(idx)))
            }
        }
    }

    /// Leaf half of the write step: acquire, apply, take along what of
    /// `run` lands here, and run the SMO the write calls for against the
    /// still-open parent guard.
    #[inline(always)]
    fn write_leaf(
        &self,
        key: u64,
        op: WriteOp,
        parent: Option<InnerRef<'_, IL, IC>>,
        ptr: *mut NodeBase,
        run: Option<&mut Run<'_>>,
    ) -> Stepped<'_, IL, IC, Option<u64>> {
        let leaf = unsafe { as_leaf::<LL, LC>(ptr) };
        let Some((t, searched)) = self.acquire_leaf(&parent, ptr, leaf, key) else {
            abandon(parent);
            return Step::Restart;
        };
        let old = match op {
            // Only an absent key needs room: an overwrite of a full leaf
            // stays in place (the arm below).
            WriteOp::Insert(val)
                if leaf.is_full() && searched.unwrap_or_else(|| leaf.search(key)).is_none() =>
            {
                return match self.split_insert(parent, ptr, leaf, t, (key, val), run) {
                    Some(old) => Step::Done(old),
                    None => Step::Restart,
                };
            }
            WriteOp::Insert(val) => {
                let old = leaf.insert(key, val);
                // The run met this leaf full: split it for the pair that
                // did not fit. A lost upgrade ends the run before that pair.
                if let Some(run) = run {
                    if let Some(pair) = run.fill(leaf, run.fence) {
                        let at = run.taken;
                        run.taken += 1;
                        match self.split_insert(parent, ptr, leaf, t, pair, Some(&mut *run)) {
                            Some(first) => run.out[at] = first,
                            None => run.taken = at,
                        }
                        return Step::Done(old);
                    }
                }
                old
            }
            // The search ran while readers were admitted and missed.
            _ if searched == Some(None) => None,
            WriteOp::Update(val) => leaf.update(key, val),
            WriteOp::Remove => leaf.remove(key),
        };
        match parent {
            // Deletion SMOs: unlink an emptied leaf / merge an
            // under-quarter leaf into its right sibling.
            Some((p, pg)) if matches!(op, WriteOp::Remove) && old.is_some() => {
                self.try_shrink(p, pg, ptr, leaf)
            }
            parent => abandon(parent),
        }
        leaf.lock.x_unlock(t);
        Step::Done(old)
    }

    /// Scalar read driver behind [`lookup`](Self::lookup): the batch of
    /// one — re-enter the step at once instead of parking — without the
    /// per-op accounting (the batched driver's fallback accounts once per
    /// batch).
    pub(crate) fn lookup_impl(&self, key: u64) -> Option<u64> {
        let mut rs = self.restart_loop();
        'restart: loop {
            rs.pause();
            let mut edge = self.root_edge();
            loop {
                match self.read_step(edge, |n| n.find_child(key), |l| l.lookup(key)) {
                    Step::Next(next) => edge = next,
                    Step::Done(res) => return res,
                    Step::Restart => continue 'restart,
                }
            }
        }
    }

    /// Scalar write driver behind `insert`, `update`, `remove` and an
    /// ascending `multi_insert`: the batch of one, and the one place full
    /// inner nodes are split. A scalar write is a run of one (`run` is
    /// `None`) and chooses children with `find_child`; an insert with a
    /// [`Run`] behind it also records the run's fence on the way down,
    /// and the leaf it reaches takes the run's next pairs along.
    #[inline(always)]
    pub(crate) fn write(
        &self,
        key: u64,
        op: WriteOp,
        mut run: Option<&mut Run<'_>>,
    ) -> Option<u64> {
        let fenced = run.is_some();
        let mut rs = self.restart_loop();
        'restart: loop {
            rs.pause();
            if let Some(r) = run.as_deref_mut() {
                r.fence = None;
            }
            let mut edge = self.root_edge();
            loop {
                // Tightest upper separator on the path, as in `scan_chunk`:
                // kept only once its node validated.
                let mut seen = None;
                let pick = |n: &Inner<IL, IC>| {
                    if !fenced {
                        return n.find_child(key);
                    }
                    let (child, up) = n.find_child_from(Some(key));
                    seen = up;
                    child
                };
                match self.write_step(key, op, edge, pick, run.as_deref_mut()) {
                    Ok(Step::Next(next)) => {
                        if let Some(r) = run.as_deref_mut() {
                            r.fence = seen.or(r.fence);
                        }
                        edge = next;
                    }
                    Ok(Step::Done(old)) => return old,
                    Ok(Step::Restart) => continue 'restart,
                    Err(full) => {
                        self.split_full(full, key);
                        continue 'restart;
                    }
                }
            }
        }
    }

    /// Insert body without op or size accounting (shared with the batched
    /// driver's fallback).
    pub(crate) fn insert_impl(&self, key: u64, val: u64) -> Option<u64> {
        self.write(key, WriteOp::Insert(val), None)
    }

    /// Point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        self.lookup_impl(key)
    }

    /// Replace the value of an existing key; returns the previous value or
    /// `None` if the key is absent.
    pub fn update(&self, key: u64, val: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        self.write(key, WriteOp::Update(val), None)
    }

    /// Remove a key; returns the removed value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        let old = self.write(key, WriteOp::Remove, None);
        if old.is_some() {
            self.counters.sub(SIZE, 1);
        }
        old
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn insert(&self, key: u64, val: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        let old = self.insert_impl(key, val);
        if old.is_none() {
            self.counters.add(SIZE, 1);
        }
        old
    }

    // --- structural modifications ---------------------------------------------

    /// Hook `right`, freshly split off `left` at `sep`, into `parent` (held
    /// exclusively, like `left`) — or, when `left` was the root, grow the
    /// tree by one level. `kind` is the split lane for the non-root case.
    fn install_split(
        &self,
        parent: Option<&Inner<IL, IC>>,
        left: *mut NodeBase,
        sep: u64,
        right: *mut NodeBase,
        kind: usize,
    ) {
        match parent {
            Some(p) => {
                self.counters.add(kind, 1);
                p.insert_child(sep, right);
            }
            None => {
                self.counters.add(ROOT_SPLITS, 1);
                let new_root = Inner::alloc(&self.inners);
                unsafe { as_inner::<IL, IC>(new_root) }.init_root(sep, left, right);
                self.root.store(new_root, Ordering::Release);
            }
        }
    }

    /// Split full `leaf`, held through `t`, for absent `(key, val)`: take
    /// the parent exclusively too, split and insert, release both. `None`:
    /// the upgrade lost a race, the leaf is released and nothing written.
    #[inline(always)]
    fn split_insert(
        &self,
        parent: Option<InnerRef<'_, IL, IC>>,
        ptr: *mut NodeBase,
        leaf: &Leaf<LL, LC>,
        t: WriteToken,
        (key, val): (u64, u64),
        run: Option<&mut Run<'_>>,
    ) -> Option<Option<u64>> {
        let Some(held) = upgrade(parent) else {
            leaf.lock.x_unlock(t);
            return None;
        };
        let old = self.split_leaf_insert(held.map(|(p, _)| p), ptr, leaf, key, val, run);
        leaf.lock.x_unlock(t);
        if let Some((p, pt)) = held {
            p.lock.x_unlock(pt);
        }
        Some(old)
    }

    /// The one leaf split-and-insert: split full `leaf` (held exclusively,
    /// as is `parent`; `None` when the leaf is the root) where absent
    /// `key` lands, put the entry into the proper half, fill that half
    /// from `run`, then publish the new sibling. Both halves are private
    /// until then: the left one is held, the right one unreachable.
    ///
    /// A split that fills `parent` takes nothing from `run`: the insert
    /// loop would split that parent at its next key, so the run's next
    /// pair gets a descent of its own, which does the same, and both
    /// drivers leave the same nodes behind.
    fn split_leaf_insert(
        &self,
        parent: Option<&Inner<IL, IC>>,
        ptr: *mut NodeBase,
        leaf: &Leaf<LL, LC>,
        key: u64,
        val: u64,
        run: Option<&mut Run<'_>>,
    ) -> Option<u64> {
        let (sep, right) = leaf.split(key, &self.leaves);
        let (half, fence) = if key >= sep {
            (unsafe { as_leaf::<LL, LC>(right) }, None)
        } else {
            (leaf, Some(sep))
        };
        let old = half.insert(key, val);
        let fills_parent = parent.is_some_and(|p| p.count() + 1 >= Inner::<IL, IC>::MAX_KEYS);
        if let Some(run) = run.filter(|_| !fills_parent) {
            // What does not fit waits for the run's next descent.
            let _ = run.fill(half, fence.or(run.fence));
        }
        self.install_split(parent, ptr, sep, right, LEAF_SPLITS);
        old
    }

    /// Scalar-driver half of the eager split: upgrade the two guards a
    /// [`FullInner`] carries (parent, then node) and split where the
    /// insert of `key` was heading. Best effort — the caller restarts
    /// either way.
    fn split_full(&self, full: FullInner<'_, IL, IC>, key: u64) {
        let FullInner {
            parent,
            node: (inner, ig),
            ptr,
        } = full;
        let Some(held) = upgrade(parent) else {
            return ig.abandon();
        };
        if let Some(t) = ig.try_upgrade() {
            let (sep, right) = inner.split(key, &self.inners);
            self.install_split(held.map(|(p, _)| p), ptr, sep, right, INNER_SPLITS);
            inner.lock.x_unlock(t);
        }
        if let Some((p, pt)) = held {
            p.lock.x_unlock(pt);
        }
    }

    /// Best-effort structural shrinking after a delete. Caller holds the
    /// leaf exclusively; `pg` is the parent guard under which the leaf was
    /// located. A pessimistic remove holds it shared, which cannot be
    /// upgraded: those trees never shrink.
    fn try_shrink(
        &self,
        parent: &Inner<IL, IC>,
        pg: OptimisticGuard<'_, IL>,
        leaf_ptr: *mut NodeBase,
        leaf: &Leaf<LL, LC>,
    ) {
        let n = leaf.count();
        if n >= LC / 4 && n != 0 {
            return pg.abandon();
        }
        // Exclusive on the parent via upgrade; abandoning on failure keeps
        // the delete itself correct (the shrink is opportunistic).
        let Some(pt) = pg.try_upgrade() else {
            return;
        };
        let Some(idx) = parent.position_of(leaf_ptr) else {
            parent.lock.x_unlock(pt);
            return;
        };
        if n == 0 && parent.count() >= 1 {
            // Unlink the empty leaf entirely.
            self.counters.add(LEAF_UNLINKS, 1);
            parent.remove_child(idx);
            // SAFETY: unlinked under the held parent, so freed once. The
            // caller still unlocks it through its token, which moves its
            // version past every reader inside it (DESIGN §5.1, *Every
            // node in a slab*).
            unsafe { self.leaves.free(NonNull::new_unchecked(leaf_ptr.cast())) };
            parent.lock.x_unlock(pt);
            return;
        }
        if idx < parent.count() {
            // Merge with the right sibling if the union fits.
            let sib_ptr = parent.child(idx + 1);
            debug_assert!(unsafe { is_leaf(sib_ptr) });
            let sib = unsafe { as_leaf::<LL, LC>(sib_ptr) };
            let st = sib.lock.x_lock();
            if leaf.count() + sib.count() <= LC {
                self.counters.add(LEAF_MERGES, 1);
                leaf.absorb(sib);
                parent.remove_child(idx + 1);
                sib.lock.x_unlock(st);
                // SAFETY: unlinked under the held parent, so freed once.
                unsafe { self.leaves.free(NonNull::new_unchecked(sib_ptr.cast())) };
            } else {
                sib.lock.x_unlock(st);
            }
        }
        parent.lock.x_unlock(pt);
        self.maybe_collapse_root();
    }

    /// Replace an inner root that has no separator left with its only child.
    fn maybe_collapse_root(&self) {
        let root = self.root.load(Ordering::Acquire);
        if unsafe { is_leaf(root) } {
            return;
        }
        let inner = unsafe { as_inner::<IL, IC>(root) };
        let Some(ig) = OptimisticGuard::read(&inner.lock) else {
            return;
        };
        if self.root.load(Ordering::Acquire) != root || inner.count() != 0 {
            return ig.abandon();
        }
        // Upgrade ⇒ unchanged since the read ⇒ still the root (replacing a
        // root bumps the old root's version first).
        let Some(t) = ig.try_upgrade() else {
            return;
        };
        self.counters.add(ROOT_COLLAPSES, 1);
        self.root.store(inner.child(0), Ordering::Release);
        inner.lock.x_unlock(t);
        // SAFETY: no longer the root, so unreachable, and freed once (the
        // upgrade above succeeds for one thread).
        unsafe { self.inners.free(NonNull::new_unchecked(root.cast())) };
    }

    // --- range scan -----------------------------------------------------------

    /// One scan chunk (`ConcurrentIndex::scan_chunk`): snapshot up to
    /// `limit` entries of the leaf covering `from` (keys ≥ `from`; the
    /// leftmost leaf when `None`) into `out` under a validated optimistic
    /// read, and return the inclusive cursor for the next chunk — the
    /// first key a full chunk left behind in the leaf, otherwise the
    /// tightest upper separator on the descent path, `None` at the
    /// rightmost leaf. `out` is cleared on entry and on every internal
    /// restart, so a validation failure never leaks a torn snapshot.
    pub fn scan_chunk(
        &self,
        from: Option<u64>,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<u64> {
        self.counters.add(OPS, 1);
        // Fresh ladder per chunk: a restart storm on one leaf must not
        // leave the loop escalated for the rest of the range.
        let mut rs = self.restart_loop();
        'restart: loop {
            rs.pause();
            out.clear();
            // Tightest upper separator on the path so far, kept only once
            // its node validated.
            let mut upper = None;
            let mut edge = self.root_edge();
            loop {
                let mut seen = None;
                let step = self.read_step(
                    edge,
                    |n| {
                        let (child, up) = n.find_child_from(from);
                        seen = up;
                        child
                    },
                    |l| l.collect_from(from, limit, out),
                );
                match step {
                    Step::Next(next) => {
                        upper = seen.or(upper);
                        edge = next;
                    }
                    Step::Done(left_behind) => return left_behind.or(upper),
                    Step::Restart => continue 'restart,
                }
            }
        }
    }

    // --- validation (test support) ---------------------------------------------

    /// Walk the tree single-threadedly and assert every structural
    /// invariant, and that no operation left a node locked; returns the
    /// entry count. Panics on violation.
    pub fn check_invariants(&self) -> usize {
        fn walk<IL: IndexLock, LL: IndexLock, const IC: usize, const LC: usize>(
            p: *mut NodeBase,
            lo: Option<u64>,
            hi: Option<u64>,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            let in_fences = |k: u64| lo.map_or(true, |lo| k >= lo) && hi.map_or(true, |hi| k < hi);
            unsafe {
                if is_leaf(p) {
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "leaves at unequal depth"),
                        None => *leaf_depth = Some(depth),
                    }
                    let l = as_leaf::<LL, LC>(p);
                    assert!(!l.lock.is_locked_ex(), "leaf left locked");
                    let n = l.count();
                    for i in 0..n {
                        let k = l.key_at(i);
                        if i > 0 {
                            assert!(l.key_at(i - 1) < k, "leaf keys out of order");
                        }
                        assert!(in_fences(k), "leaf key {k} outside its fences");
                    }
                    n
                } else {
                    let node = as_inner::<IL, IC>(p);
                    assert!(!node.lock.is_locked_ex(), "inner node left locked");
                    let n = node.count();
                    for i in 0..n {
                        let k = node.key_at(i);
                        if i > 0 {
                            assert!(node.key_at(i - 1) < k, "separators out of order");
                        }
                        assert!(in_fences(k), "separator {k} outside its fences");
                    }
                    let mut total = 0;
                    for i in 0..=n {
                        let c_lo = if i == 0 { lo } else { Some(node.key_at(i - 1)) };
                        let c_hi = if i == n { hi } else { Some(node.key_at(i)) };
                        let child = node.child(i);
                        assert!(!child.is_null(), "null child in inner node");
                        total += walk::<IL, LL, IC, LC>(child, c_lo, c_hi, depth + 1, leaf_depth);
                    }
                    total
                }
            }
        }
        let mut leaf_depth = None;
        walk::<IL, LL, IC, LC>(
            self.root.load(Ordering::Acquire),
            None,
            None,
            0,
            &mut leaf_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BTreeOptiQL, DEFAULT_IC, DEFAULT_LC};
    use optiql::{OptLock, OptiQL};

    /// The `i`th child of the root, which must be an inner node.
    fn root_child(t: &BTreeOptiQL, i: usize) -> *mut NodeBase {
        let root = t.root.load(Ordering::Acquire);
        unsafe { as_inner::<OptLock, DEFAULT_IC>(root) }.child(i)
    }

    fn leaf<'a>(p: *mut NodeBase) -> &'a Leaf<OptiQL, DEFAULT_LC> {
        unsafe { as_leaf::<OptiQL, DEFAULT_LC>(p) }
    }

    /// A leaf is unlinked and freed, and the next split takes its slot
    /// back: a snapshot of the leaf's version taken in its first life,
    /// before any write to it, no longer validates, because the slot kept
    /// its lock word and the reuse moved it on. A slab that reset the
    /// lock (or linked free slots through it) would hand back the
    /// version the snapshot holds.
    #[test]
    fn a_snapshot_of_a_freed_leaf_fails_in_its_reused_slot() {
        let lc = DEFAULT_LC as u64;
        let t = BTreeOptiQL::new();
        // An ascending load splits the full root leaf for `lc`, which
        // lands alone in a fresh right leaf.
        for k in 0..=lc {
            assert_eq!(t.insert(k, k), None);
        }
        let right = root_child(&t, 1);
        let v = OptimisticGuard::read(&leaf(right).lock).expect("unlocked");
        assert_eq!(leaf(right).lookup(lc), Some(lc));
        // Emptied, the right leaf is unlinked and freed on this thread.
        assert_eq!(t.remove(lc), Some(lc));
        assert_eq!(t.stats().leaf_unlinks, 1);
        // The full left leaf splits for `lc` again, taking the slot back.
        assert_eq!(t.insert(lc, 7), None);
        assert_eq!(root_child(&t, 1), right, "the freed slot was reused");
        assert!(
            !v.validate(),
            "a snapshot from the slot's first life validated"
        );
        for k in 0..lc {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.lookup(lc), Some(7));
        assert_eq!(t.check_invariants(), DEFAULT_LC + 1);
    }

    /// The same for a leaf merged into its left neighbour.
    #[test]
    fn a_snapshot_of_a_merged_leaf_fails_in_its_reused_slot() {
        let lc = DEFAULT_LC as u64;
        let t = BTreeOptiQL::new();
        for k in 0..=lc {
            assert_eq!(t.insert(k, k), None);
        }
        let right = root_child(&t, 1);
        let v = OptimisticGuard::read(&leaf(right).lock).expect("unlocked");
        // Drained below a quarter, the left leaf absorbs the right one.
        for k in 0..lc - 2 {
            assert_eq!(t.remove(k), Some(k));
        }
        assert_eq!(t.stats().leaf_merges, 1);
        for k in 0..lc - 2 {
            assert_eq!(t.insert(k, k + 1), None);
        }
        assert_eq!(root_child(&t, 1), right, "the freed slot was reused");
        assert!(!v.validate());
        for k in 0..=lc {
            let want = if k < lc - 2 { k + 1 } else { k };
            assert_eq!(t.lookup(k), Some(want), "key {k}");
        }
        assert_eq!(t.check_invariants(), DEFAULT_LC + 1);
    }
}

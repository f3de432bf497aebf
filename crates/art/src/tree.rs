//! Concurrent ART with optimistic lock coupling (paper §6.2).
//!
//! All nodes carry the same lock type `L` (unlike the B+-tree, ART cannot
//! split lock types by level because a node's role — inner vs. last-level —
//! is only known after reading it).
//!
//! # One descent, two drivers
//!
//! The descent is written once, as two resumable step
//! functions that each move one level along an `Edge`:
//! `ArtTree::read_step` and `ArtTree::write_step`. The scalar entry
//! points loop on a step without yielding (the batch of one);
//! `multi_lookup` / `multi_insert` hand the same step to
//! `optiql::olc::run_grouped`, which parks its `Edge` between turns after
//! a prefetch (see [`crate::multi`]). Inserts that must restructure above
//! the node they reached — prefix split, node growth — are a step outcome
//! (`Smo`) carried out by the scalar driver.
//!
//! How the write step takes a node adapts to `L::STRATEGY`:
//!
//! * Optimistic locks (`OptLock`, `OptiQL*`) use the **upgrade** interface:
//!   a reader that located its target CASes the version it observed into an
//!   exclusive acquisition (`OptimisticGuard::try_upgrade` at the call
//!   site). For OptiQL the upgrade leaves the queue intact, so later
//!   writers still line up instead of hammering the word (§6.2).
//! * With a `DirectLock` strategy, updates that provably target the last
//!   level (all key bytes consumed) acquire the lock directly — the
//!   queue-based path of Algorithm 4, `optiql::olc::lock_for_write`, which
//!   the B+-tree's leaf write calls too.
//! * **Contention expansion**: upgrade-acquired exclusive locks
//!   probabilistically bump a per-node contention counter; past a threshold
//!   the lazily-expanded leaf is materialized into a real last-level node so
//!   subsequent updates can use the direct path (§6.2, Figure 5).
//! * Pessimistic locks use lock coupling — the same two steps, whose
//!   guards are then real holds: shared ones down a read, and exclusive
//!   ones down a write, which enters every node with write intent (any
//!   node on the path may be the one written or restructured).
//!
//! The root is a `Node256` that is never replaced, removing root-swap races.
//!
//! # Keys
//!
//! Keys are `u64`s and their radix digits are the key's 8 bytes, most
//! significant first (order preserving). A digit is a shift of the key,
//! never a byte array: `digit(key, depth)` reads one, a node's compressed
//! path is a packed word matched against the shifted key with one `xor`,
//! two keys fork where their `xor`'s leading zeros end, and a scan bound
//! orders against a path as two integers. Every key has all 8 digits, so
//! no key's digits are a prefix of another's: two distinct keys always
//! diverge at a digit position inside both, and a descent never runs off
//! the end of its key while a sibling continues. A compressed path that
//! lazy expansion or contention expansion spells out is therefore at
//! most 7 digits, which one node header packs (`alloc_n4`).

use std::cell::Cell;

use optiql::counters::Counters;
use optiql::olc::{self, IndexStats, OptimisticGuard, RestartLoop, Step, INDEX_LANES, OPS};
use optiql::stats::Event;
use optiql::{chaos, IndexLock, WriteStrategy};

use crate::node::{
    as_kv, digit, digits_from, fork_depth, is_kv, top, ArtNode, NodeType, Slabs, KEY_LEN,
};

/// Default contention-expansion threshold (paper: 1024).
pub const DEFAULT_EXPANSION_THRESHOLD: u32 = 1024;
/// Default sampling denominator: the counter is bumped with probability
/// 1/10 (paper: 0.1).
pub const DEFAULT_SAMPLE_INV: u32 = 10;

// The tree's lanes of its counter block, after the OLC protocol's.
/// Entries: +1 per new key, -1 per removed one (see [`ArtTree::len`]).
pub(crate) const SIZE: usize = INDEX_LANES;
const GROWS: usize = INDEX_LANES + 1;
const PREFIX_SPLITS: usize = INDEX_LANES + 2;
const LAZY_EXPANSIONS: usize = INDEX_LANES + 3;
const CONTENTION_EXPANSIONS: usize = INDEX_LANES + 4;
const COLLAPSES: usize = INDEX_LANES + 5;
pub(crate) const LANES: usize = INDEX_LANES + 6;

/// Snapshot of an ART's structural-event counters (relaxed, monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtStats {
    /// Unified operation/restart accounting (shared OLC protocol).
    pub index: IndexStats,
    /// Node growths (N4→N16→N48→N256).
    pub grows: u64,
    /// Compressed-path splits on prefix mismatch.
    pub prefix_splits: u64,
    /// Lazy-expansion splits (two keys pushed below a fresh Node4).
    pub lazy_expansions: u64,
    /// Contention expansions (§6.2 materializations).
    pub contention_expansions: u64,
    /// Path collapses after deletes.
    pub collapses: u64,
}

thread_local! {
    static RNG: Cell<u64> = const { Cell::new(0x9E3779B97F4A7C15) };
}

/// Cheap thread-local xorshift for contention sampling.
#[inline]
fn sample(denominator: u32) -> bool {
    if denominator <= 1 {
        return true;
    }
    RNG.with(|c| {
        let mut x = c.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        (x % denominator as u64) == 0
    })
}

/// Build a `Node4` from `slabs` whose compressed path is the top `len`
/// digits of `path` and whose children are `kids`. A path is the digits
/// between a node and a fork below it, inside one 8-digit key, so it
/// always fits the 7 digits a header packs. The node is private to the
/// caller until published.
fn alloc_n4<L: IndexLock>(
    slabs: &Slabs<L>,
    path: u64,
    len: usize,
    kids: &[(u8, *mut ArtNode<L>)],
) -> *mut ArtNode<L> {
    let np = slabs.node(NodeType::N4);
    let n = unsafe { &*np };
    n.set_prefix(path, len);
    for &(b, c) in kids {
        n.insert_child(b, c);
    }
    np
}

/// An inner node under an open (not yet validated) guard, and the digit a
/// descent left it by.
pub(crate) struct Link<'t, L: IndexLock> {
    node: &'t ArtNode<L>,
    guard: OptimisticGuard<'t, L>,
    byte: u8,
}

/// Drop a link on a path that does not validate it: free for optimistic
/// locks, releases the hold of pessimistic ones.
#[inline]
fn release<L: IndexLock>(link: Option<Link<'_, L>>) {
    if let Some(link) = link {
        link.guard.abandon();
    }
}

/// Where a descent stands between two steps: `child` (at `depth`) was
/// chosen under the open read of `via` (`None`: it is the root) and is
/// entered by the next step. This is the state the batched driver parks.
pub(crate) struct Edge<'t, L: IndexLock> {
    via: Option<Link<'t, L>>,
    pub(crate) child: *mut ArtNode<L>,
    depth: usize,
}

/// The structural outcome of the write step: an insert must restructure
/// above `node`, i.e. needs its `parent` exclusively as well. Both guards
/// are still open.
pub(crate) struct Smo<'t, L: IndexLock> {
    parent: Link<'t, L>,
    node: &'t ArtNode<L>,
    guard: OptimisticGuard<'t, L>,
    kind: SmoKind,
}

enum SmoKind {
    /// `node`'s compressed path (compared from `depth`) matches the key
    /// for only `matched` digits.
    SplitPrefix { matched: usize, depth: usize },
    /// `node` is full and has no child under `byte`.
    Grow { byte: u8 },
}

/// What the write step does once it has found the key's place.
#[derive(Clone, Copy)]
pub(crate) enum WriteOp {
    Insert(u64),
    Update(u64),
    Remove,
}

/// After a remove: a Node4 left with at most one child is worth folding
/// into its parent.
#[inline]
fn collapsible<L: IndexLock>(node: &ArtNode<L>) -> bool {
    node.node_type() == NodeType::N4 && node.count() <= 1
}

/// Adaptive radix tree mapping `u64` keys to `u64` payloads.
pub struct ArtTree<L: IndexLock> {
    root: *mut ArtNode<L>,
    /// Where every node lives (see [`optiql::slab`]): an unlinked node
    /// goes straight back, and the chunks go when the tree drops.
    slabs: Slabs<L>,
    /// Every count the tree keeps, on cache lines of its own: no
    /// operation's accounting touches the line `root` is read from.
    pub(crate) counters: Counters<LANES>,
    expansion_threshold: u32,
    sample_inv: u32,
}

unsafe impl<L: IndexLock> Send for ArtTree<L> {}
unsafe impl<L: IndexLock> Sync for ArtTree<L> {}

impl<L: IndexLock> Default for ArtTree<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: IndexLock> ArtTree<L> {
    /// `L` queues its writers, so Algorithm 4's direct acquisition applies
    /// to an update at the last level.
    const DIRECT: bool = matches!(L::STRATEGY, WriteStrategy::DirectLock);

    /// Create an empty tree with default contention-expansion parameters.
    pub fn new() -> Self {
        Self::with_expansion(DEFAULT_EXPANSION_THRESHOLD, DEFAULT_SAMPLE_INV)
    }

    /// Create an empty tree with explicit contention-expansion parameters:
    /// the counter is sampled with probability `1 / sample_inv` and an
    /// expansion happens once it exceeds `threshold`. `threshold = 0`
    /// disables expansion.
    pub fn with_expansion(threshold: u32, sample_inv: u32) -> Self {
        let slabs = Slabs::default();
        ArtTree {
            root: slabs.node(NodeType::N256),
            slabs,
            counters: Counters::new(),
            expansion_threshold: threshold,
            sample_inv,
        }
    }

    /// Number of entries (maintained counter; exact when quiescent).
    pub fn len(&self) -> usize {
        self.counters.level(SIZE) as usize
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the structural-event counters.
    pub fn stats(&self) -> ArtStats {
        let sum = self.counters.sum();
        ArtStats {
            index: IndexStats::of(&sum),
            grows: sum[GROWS],
            prefix_splits: sum[PREFIX_SPLITS],
            lazy_expansions: sum[LAZY_EXPANSIONS],
            contention_expansions: sum[CONTENTION_EXPANSIONS],
            collapses: sum[COLLAPSES],
        }
    }

    /// Snapshot the unified operation/restart accounting.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats::of(&self.counters.sum())
    }

    #[inline]
    fn restart_loop(&self) -> RestartLoop<'_, LANES> {
        RestartLoop::new(&self.counters)
    }

    // --- the descent step and its scalar drivers ----------------------------
    //
    // The pieces of a step are `inline(always)`: a step has to fuse into
    // each driver's loop so the edge it returns never leaves registers (as
    // an out-of-line call it cost scalar writes up to 2x).

    /// Where every descent starts: the root (never replaced), no parent.
    #[inline(always)]
    pub(crate) fn root_edge(&self) -> Edge<'_, L> {
        Edge {
            via: None,
            child: self.root,
            depth: 0,
        }
    }

    /// The read step: enter `edge.child` — compare a KV leaf, or read an
    /// inner node, couple with its parent, match its compressed path and
    /// choose the next child. `lookup` and `multi_lookup` are the two
    /// drivers of this function.
    #[inline(always)]
    pub(crate) fn read_step<'t>(
        &'t self,
        key: u64,
        edge: Edge<'t, L>,
    ) -> Step<Edge<'t, L>, Option<u64>> {
        let Edge {
            via,
            child,
            mut depth,
        } = edge;
        // Until its version (or, for a KV leaf, its key and value) is read,
        // `child` may be unlinked, freed and reused; the parent validation
        // after that read catches it (DESIGN §5.1, *Every node in a slab*).
        // Chaos stretches the window.
        chaos::perturb(Event::ReadAdmit);
        if is_kv(child) {
            let link = via.expect("the root is an inner node");
            let kv = unsafe { as_kv(child) };
            let (hit, val) = (kv.key() == key, kv.value());
            return link.guard.done(hit.then_some(val));
        }
        let node = unsafe { &*child };
        let Some(g) = OptimisticGuard::read(&node.lock) else {
            release(via);
            return Step::Restart;
        };
        if via.is_some_and(|link| !link.guard.validate()) {
            g.abandon();
            return Step::Restart;
        }
        let pl = node.prefix_len();
        if pl > 0 {
            if node.prefix_match_len(key, depth) < pl {
                return g.done(None);
            }
            depth += pl;
        }
        let byte = digit(key, depth);
        let child = node.find_child(byte);
        if !g.recheck() {
            g.abandon();
            return Step::Restart;
        }
        if child.is_null() {
            return g.done(None);
        }
        Step::Next(Edge {
            via: Some(Link {
                node,
                guard: g,
                byte,
            }),
            child,
            depth: depth + 1,
        })
    }

    /// The write step: as [`read_step`](Self::read_step) down to the node
    /// that holds (or would hold) the key, then the write itself. Every
    /// node is entered with write intent, so under a pessimistic lock the
    /// step is exclusive lock coupling. Inserts that must restructure
    /// *above* the node they reached — split its compressed path, grow it
    /// — return as `Err` for the scalar driver
    /// ([`restructure`](Self::restructure)). `up` is the link above
    /// `edge.via`, still open: the step keeps it for the one level a
    /// remove's path collapse can need it, and leaves `None` behind
    /// whenever it does not return [`Step::Next`].
    #[inline(always)]
    pub(crate) fn write_step<'t>(
        &'t self,
        key: u64,
        op: WriteOp,
        up: &mut Option<Link<'t, L>>,
        edge: Edge<'t, L>,
    ) -> Result<Step<Edge<'t, L>, Option<u64>>, Smo<'t, L>> {
        let Edge {
            via,
            child,
            mut depth,
        } = edge;
        if is_kv(child) {
            let link = via.expect("the root is an inner node");
            return Ok(self.write_kv(key, op, up.take(), link, child, depth));
        }
        // Only the node right above a KV leaf is ever folded into its
        // parent: two levels up has served.
        release(up.take());
        let node = unsafe { &*child };
        let Some(ng) = OptimisticGuard::read_for_write(&node.lock, true) else {
            release(via);
            return Ok(Step::Restart);
        };
        // OLC coupling: re-validate the parent *after* reading the child.
        // Between choosing `child` and this read, a concurrent prefix split
        // may relocate `node` one level down (shortening its prefix); `ng`
        // was taken post-split, so nothing later would catch the stale
        // `depth`.
        #[cfg(not(feature = "bug-pr4-revert"))]
        if via.as_ref().is_some_and(|link| !link.guard.recheck()) {
            ng.abandon();
            release(via);
            return Ok(Step::Restart);
        }
        let pl = node.prefix_len();
        if pl > 0 {
            let matched = node.prefix_match_len(key, depth);
            if matched < pl {
                let WriteOp::Insert(_) = op else {
                    release(via);
                    return Ok(ng.done(None));
                };
                return Err(Smo {
                    parent: via.expect("root has an empty prefix, mismatch implies parent"),
                    node,
                    guard: ng,
                    kind: SmoKind::SplitPrefix { matched, depth },
                });
            }
            depth += pl;
        }
        let byte = digit(key, depth);

        if let WriteOp::Update(val) = op {
            if Self::DIRECT && depth + 1 == KEY_LEN {
                // Known last level: the remaining digit is the key's final
                // one, and every key has the same 8, so every child under
                // it is a leaf. Lock it directly, then validate the parent.
                ng.abandon();
                let placed = || via.as_ref().map_or(true, |link| link.guard.recheck());
                let locate = || {
                    let child = node.find_child(byte);
                    let kv = (!child.is_null() && is_kv(child)).then(|| unsafe { as_kv(child) });
                    kv.filter(|kv| kv.key() == key)
                };
                let locked = olc::lock_for_write(&node.lock, placed, locate);
                release(via);
                let Some((t, kv)) = locked else {
                    return Ok(Step::Restart);
                };
                let old = kv.map(|kv| kv.set_value(val));
                node.lock.x_unlock(t);
                return Ok(Step::Done(old));
            }
        }

        let child = node.find_child(byte);
        // Read the fill level *before* validating: after the recheck a
        // concurrent writer may fill the node, and a stale `is_full`
        // combined with the validated-null `child` would send the root (a
        // never-full Node256) down the grow path. Inside the validated
        // window the two reads are consistent: a full Node256 has no null
        // slot.
        let full = node.is_full();
        if !ng.recheck() {
            ng.abandon();
            release(via);
            return Ok(Step::Restart);
        }
        if child.is_null() {
            let WriteOp::Insert(val) = op else {
                release(via);
                return Ok(ng.done(None));
            };
            if full {
                return Err(Smo {
                    parent: via.expect("root Node256 never grows"),
                    node,
                    guard: ng,
                    kind: SmoKind::Grow { byte },
                });
            }
            release(via);
            let Some(t) = ng.try_upgrade() else {
                return Ok(Step::Restart);
            };
            node.insert_child(byte, self.slabs.kv(key, val));
            node.lock.x_unlock(t);
            return Ok(Step::Done(None));
        }
        *up = via;
        Ok(Step::Next(Edge {
            via: Some(Link {
                node,
                guard: ng,
                byte,
            }),
            child,
            depth: depth + 1,
        }))
    }

    /// KV half of the write step: `child` is the tagged leaf under
    /// `link.byte` of `link.node` (`depth` is the leaf's own), `up` the
    /// link above it.
    #[inline(always)]
    fn write_kv<'t>(
        &self,
        key: u64,
        op: WriteOp,
        up: Option<Link<'t, L>>,
        link: Link<'t, L>,
        child: *mut ArtNode<L>,
        depth: usize,
    ) -> Step<Edge<'t, L>, Option<u64>> {
        let Link { node, guard, byte } = link;
        let kv = unsafe { as_kv(child) };
        let kv_key = kv.key();
        if kv_key != key {
            release(up);
            let WriteOp::Insert(val) = op else {
                return guard.done(None);
            };
            // Lazy-expansion split: needs only this node.
            let Some(fork) = fork_depth(kv_key, key, depth) else {
                // Distinct keys that share the path down to `depth`
                // diverge below it; equal digits there mean the parked
                // state went stale (the upgrade below would fail anyway).
                guard.abandon();
                return Step::Restart;
            };
            let Some(t) = guard.try_upgrade() else {
                return Step::Restart;
            };
            self.expand_lazily(node, byte, child, kv_key, depth, fork, key, val);
            node.lock.x_unlock(t);
            return Step::Done(None);
        }
        let Some(t) = guard.try_upgrade() else {
            release(up);
            return Step::Restart;
        };
        let old = match op {
            WriteOp::Insert(val) => kv.set_value(val),
            WriteOp::Update(val) => {
                let old = kv.set_value(val);
                // Contention expansion (§6.2): this write used an upgrade
                // because the node is lazily expanded or sits at the end of
                // a compressed path. Under contention, materialize the last
                // level so future updates can lock directly.
                if Self::DIRECT
                    && self.expansion_threshold > 0
                    && depth < KEY_LEN
                    && sample(self.sample_inv)
                    && node.bump_contention() > self.expansion_threshold
                {
                    self.counters.add(CONTENTION_EXPANSIONS, 1);
                    self.materialize_leaf(node, byte, child, depth - 1);
                    node.reset_contention();
                }
                old
            }
            WriteOp::Remove => {
                let old = kv.value();
                node.remove_child(byte);
                // SAFETY: unlinked under the held node, so freed once.
                unsafe { self.slabs.free_kv(child) };
                old
            }
        };
        match up {
            // Opportunistic path collapse, if the parent can be had.
            Some(Link {
                node: p,
                guard: pg,
                byte: pb,
            }) if matches!(op, WriteOp::Remove) && collapsible(node) => {
                if let Some(pt) = pg.try_upgrade() {
                    self.collapse(p, pb, node);
                    p.lock.x_unlock(pt);
                }
            }
            up => release(up),
        }
        node.lock.x_unlock(t);
        Step::Done(Some(old))
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
                match self.read_step(key, edge) {
                    Step::Next(next) => edge = next,
                    Step::Done(res) => return res,
                    Step::Restart => continue 'restart,
                }
            }
        }
    }

    /// Scalar write driver behind `insert`, `update` and `remove`: the
    /// batch of one, and the one place the step's structural outcomes are
    /// carried out.
    #[inline(always)]
    fn write(&self, key: u64, op: WriteOp) -> Option<u64> {
        let mut rs = self.restart_loop();
        'restart: loop {
            rs.pause();
            let (mut up, mut edge) = (None, self.root_edge());
            loop {
                match self.write_step(key, op, &mut up, edge) {
                    Ok(Step::Next(next)) => edge = next,
                    Ok(Step::Done(old)) => return old,
                    Ok(Step::Restart) => continue 'restart,
                    Err(smo) => match op {
                        WriteOp::Insert(val) if self.restructure(smo, key, val) => {
                            return None;
                        }
                        _ => continue 'restart,
                    },
                }
            }
        }
    }

    /// Insert body without op or size accounting (shared with the batched
    /// driver's fallback).
    pub(crate) fn insert_impl(&self, key: u64, val: u64) -> Option<u64> {
        self.write(key, WriteOp::Insert(val))
    }

    /// Point lookup.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        self.lookup_impl(key)
    }

    /// Replace the value of an existing key; `None` if absent.
    pub fn update(&self, key: u64, val: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        self.write(key, WriteOp::Update(val))
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

    /// Remove a key; returns the removed value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.counters.add(OPS, 1);
        let old = self.write(key, WriteOp::Remove);
        if old.is_some() {
            self.counters.sub(SIZE, 1);
        }
        old
    }

    // --- structural modifications ---------------------------------------------
    //
    // Each helper runs with every node it names held exclusively, whichever
    // way (optimistic upgrade, pessimistic coupling) its guard got there.

    /// Scalar-driver half of an insert's [`Smo`]: upgrade the two guards it
    /// carries (parent, then node) and restructure. `false`: restart.
    fn restructure(&self, smo: Smo<'_, L>, key: u64, val: u64) -> bool {
        let Link {
            node: p,
            guard: pg,
            byte: pb,
        } = smo.parent;
        let Some(pt) = pg.try_upgrade() else {
            smo.guard.abandon();
            return false;
        };
        let Some(nt) = smo.guard.try_upgrade() else {
            p.lock.x_unlock(pt);
            return false;
        };
        let leaf = self.slabs.kv(key, val);
        match smo.kind {
            SmoKind::SplitPrefix { matched, depth } => {
                self.split_prefix(p, pb, smo.node, matched, digit(key, depth + matched), leaf)
            }
            SmoKind::Grow { byte } => self.grow_insert(p, pb, smo.node, byte, leaf),
        }
        smo.node.lock.x_unlock(nt);
        p.lock.x_unlock(pt);
        true
    }

    /// Prefix mismatch after `matched` digits: split `node`'s compressed
    /// path (Figure 5) under a fresh Node4 that takes its place at `pb` of
    /// `p` and holds `node` (under the path's digit `matched`, the rest of
    /// the path staying `node`'s) plus `leaf` (under `byte`).
    fn split_prefix(
        &self,
        p: &ArtNode<L>,
        pb: u8,
        node: &ArtNode<L>,
        matched: usize,
        byte: u8,
        leaf: *mut ArtNode<L>,
    ) {
        self.counters.add(PREFIX_SPLITS, 1);
        let (path, pl) = (node.prefix(), node.prefix_len());
        let moved = std::ptr::from_ref(node).cast_mut();
        let kids = [(digit(path, matched), moved), (byte, leaf)];
        let new4 = alloc_n4(&self.slabs, path, matched, &kids);
        node.set_prefix(digits_from(path, matched + 1), pl - matched - 1);
        p.replace_child(pb, new4);
    }

    /// Replace full `node` at `pb` of `p` by the next node size with
    /// `leaf` added under `byte` (the root Node256 is never full).
    fn grow_insert(
        &self,
        p: &ArtNode<L>,
        pb: u8,
        node: &ArtNode<L>,
        byte: u8,
        leaf: *mut ArtNode<L>,
    ) {
        self.counters.add(GROWS, 1);
        let bigger = node.grow(&self.slabs);
        unsafe { &*bigger }.insert_child(byte, leaf);
        p.replace_child(pb, bigger);
        // SAFETY: unlinked under the held parent, so freed once.
        unsafe { self.slabs.free_node(node) };
    }

    /// Lazy-expansion split: `old` (key `old_key`) sits under `byte` of
    /// `node` where `key` wants to go; push both below a fresh `Node4`
    /// whose path is their shared digits `depth..fork`.
    #[allow(clippy::too_many_arguments)]
    fn expand_lazily(
        &self,
        node: &ArtNode<L>,
        byte: u8,
        old: *mut ArtNode<L>,
        old_key: u64,
        depth: usize,
        fork: usize,
        key: u64,
        val: u64,
    ) {
        self.counters.add(LAZY_EXPANSIONS, 1);
        let kids = [
            (digit(old_key, fork), old),
            (digit(key, fork), self.slabs.kv(key, val)),
        ];
        let n4 = alloc_n4(&self.slabs, digits_from(key, depth), fork - depth, &kids);
        node.replace_child(byte, n4);
    }

    /// Fold [`collapsible`] `node` into its parent `p` (at `pb`): a lone KV
    /// child takes its place (undoing lazy expansion), a drained node is
    /// unlinked.
    fn collapse(&self, p: &ArtNode<L>, pb: u8, node: &ArtNode<L>) {
        if node.count() == 1 {
            let (_, rc) = node.only_child();
            if !is_kv(rc) {
                return;
            }
            p.replace_child(pb, rc);
        } else {
            p.remove_child(pb);
        }
        self.counters.add(COLLAPSES, 1);
        // SAFETY: unlinked under the held parent, so freed once.
        unsafe { self.slabs.free_node(node) };
    }

    /// Replace a lazily-expanded leaf with a materialized last-level node
    /// (caller holds `node` exclusively; `child` is the KV at byte `b`,
    /// itself a digit at `depth`).
    fn materialize_leaf(&self, node: &ArtNode<L>, b: u8, child: *mut ArtNode<L>, depth: usize) {
        let key = unsafe { as_kv(child) }.key();
        let last = KEY_LEN - 1;
        if depth >= last {
            // The leaf's final digit is already spelled out above it:
            // nothing left to materialize.
            return;
        }
        // The new node spans digits `depth + 1 .. last` as compressed
        // path and discriminates on the final digit.
        let path = digits_from(key, depth + 1);
        let kids = [(digit(key, last), child)];
        let n4 = alloc_n4(&self.slabs, path, last - depth - 1, &kids);
        node.replace_child(b, n4);
    }

    // --- range scan -----------------------------------------------------------

    /// One scan chunk (`ConcurrentIndex::scan_chunk`): up to `limit`
    /// entries with keys ≥ `from` (`None`: from the leftmost key), in
    /// ascending key order, and the key to resume from — the first key
    /// the chunk left behind, read in the same snapshot; `None` once the
    /// tree is drained.
    ///
    /// Each node's children are snapshotted under version validation, so
    /// every returned pair existed in the tree at some point during the
    /// chunk; like other optimistically-synchronized range scans, the scan
    /// as a whole is not a serializable snapshot (matching the range-query
    /// semantics index benchmarks such as YCSB-E assume).
    pub fn scan_chunk(
        &self,
        from: Option<u64>,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<u64> {
        self.counters.add(OPS, 1);
        // One entry past the chunk: the resume key.
        let want = limit.saturating_add(1);
        let mut rs = self.restart_loop();
        loop {
            out.clear();
            // No bound is the bound 0, below every key.
            if self.scan_node(self.root, from.unwrap_or(0), 0, true, want, out, None) {
                return if out.len() == want {
                    out.pop().map(|(k, _)| k)
                } else {
                    None
                };
            }
            rs.pause();
        }
    }

    /// DFS collector; `bounded` is true while the subtree may still contain
    /// keys below `start` (i.e. we are on the lower-bound path). The scan
    /// couples: after reading a node, the `parent` guard is re-validated
    /// so a concurrent prefix split (which shifts the child's effective
    /// depth) forces a restart instead of misinterpreting bounds. A node's
    /// guard stays open while its subtree is visited — for a pessimistic
    /// lock that is the shared hold — and this is the one place it ends.
    /// Returns false when validation failed and the whole scan should
    /// restart.
    #[allow(clippy::too_many_arguments)]
    fn scan_node(
        &self,
        p: *mut ArtNode<L>,
        start: u64,
        depth: usize,
        bounded: bool,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
        parent: Option<&OptimisticGuard<'_, L>>,
    ) -> bool {
        if is_kv(p) {
            let kv = unsafe { as_kv(p) };
            let (k, v) = (kv.key(), kv.value());
            // The pointer snapshot was validated by the caller; re-validate
            // the parent so the value read pairs with a live membership.
            if parent.is_some_and(|pg| !pg.recheck()) {
                return false;
            }
            if !bounded || k >= start {
                out.push((k, v));
            }
            return true;
        }
        let node = unsafe { &*p };
        let Some(ng) = OptimisticGuard::read(&node.lock) else {
            return false;
        };
        // Couple with the parent: if it changed since its children were
        // snapshotted, this node may have been relocated (prefix split or
        // growth) and `depth` is no longer its effective depth.
        let ok = parent.map_or(true, |pg| pg.recheck())
            && self.scan_children(node, &ng, start, depth, bounded, limit, out);
        ng.abandon();
        ok
    }

    /// The subtree of `node`, entered at `depth` under the open guard `ng`.
    #[allow(clippy::too_many_arguments)]
    fn scan_children(
        &self,
        node: &ArtNode<L>,
        ng: &OptimisticGuard<'_, L>,
        start: u64,
        depth: usize,
        bounded: bool,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> bool {
        let pl = node.prefix_len();
        let prefix_cmp = if bounded {
            node.prefix_cmp(start, depth)
        } else {
            std::cmp::Ordering::Equal
        };
        // Snapshot prefix + children under version validation.
        let mut kids = Vec::with_capacity(node.count());
        node.for_each_child(|b, c| kids.push((b, c)));
        if !ng.recheck() {
            return false;
        }
        if bounded && prefix_cmp == std::cmp::Ordering::Less {
            // Whole subtree < start.
            return true;
        }
        // Whole subtree > start: collect it unbounded.
        let bounded = bounded && prefix_cmp == std::cmp::Ordering::Equal;
        let next_depth = depth + pl;
        let pivot = if bounded { digit(start, next_depth) } else { 0 };
        for &(b, c) in &kids {
            if out.len() >= limit {
                break;
            }
            if b < pivot {
                continue;
            }
            let child_bounded = bounded && b == pivot;
            if !self.scan_node(
                c,
                start,
                next_depth + 1,
                child_bounded,
                limit,
                out,
                Some(ng),
            ) {
                return false;
            }
        }
        true
    }

    // --- validation (test support) -----------------------------------------

    /// Single-threaded structural check, including that no operation left
    /// a node locked; returns the entry count.
    pub fn check_invariants(&self) -> usize {
        // `path` holds the `len` digits above `p`, left-aligned.
        fn walk<L: IndexLock>(p: *mut ArtNode<L>, path: u64, len: usize) -> usize {
            if is_kv(p) {
                let key = unsafe { as_kv(p) }.key();
                assert_eq!(
                    (key ^ path) & top(len),
                    0,
                    "leaf key {key:#x} does not match its path {path:#x} ({len} digits)"
                );
                return 1;
            }
            let n = unsafe { &*p };
            assert!(!n.lock.is_locked_ex(), "node left locked");
            // The raw count: `count()` clamps to the capacity.
            let count = n.raw_count();
            assert!(count <= n.capacity(), "count exceeds node capacity");
            let pl = n.prefix_len();
            assert!(len + pl < KEY_LEN, "path runs past the key's last digit");
            let path = path | n.prefix() >> (8 * len);
            let len = len + pl;
            let mut total = 0;
            let mut kids = Vec::new();
            n.for_each_child(|b, c| kids.push((b, c)));
            assert_eq!(kids.len(), count, "child iteration disagrees with count");
            let mut prev: Option<u8> = None;
            for (b, c) in kids {
                if let Some(pb) = prev {
                    assert!(pb < b, "child bytes out of order");
                }
                prev = Some(b);
                total += walk(c, path | (b as u64) << (56 - 8 * len), len + 1);
            }
            total
        }
        walk(self.root, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArtOptiQL;

    /// A Node4 grown to a Node16 is freed, and the next Node4 takes its
    /// slot back: a snapshot of the Node4's version taken in its first
    /// life, before any write to it, no longer validates, because the
    /// slot kept its lock word and the reuse moved it on. A slab that
    /// reset the lock (or linked free slots through it) would hand back
    /// the version the snapshot holds.
    #[test]
    fn a_snapshot_of_a_grown_node4_fails_in_its_reused_slot() {
        let t = ArtOptiQL::new();
        let root = unsafe { &*t.root };
        // Two keys under root digit 0 expand into a fresh Node4 on the
        // compressed path 0.0.0.0.0.1.
        assert_eq!(t.insert(0x100, 0), None);
        assert_eq!(t.insert(0x101, 1), None);
        let n4p = root.find_child(0);
        let n4 = unsafe { &*n4p };
        assert_eq!(n4.node_type(), NodeType::N4);
        let v = OptimisticGuard::read(&n4.lock).expect("unlocked");
        // A fifth child grows it into a Node16 and frees it.
        for k in 0x102..=0x104 {
            assert_eq!(t.insert(k, k - 0x100), None);
        }
        assert_eq!(t.stats().grows, 1);
        assert_eq!(unsafe { &*root.find_child(0) }.node_type(), NodeType::N16);
        // A key leaving the path at its fifth digit splits it under a new
        // Node4: the freed slot.
        assert_eq!(t.insert(0x1_0000, 9), None);
        assert_eq!(root.find_child(0), n4p, "the freed slot was reused");
        assert!(
            !v.validate(),
            "a snapshot from the slot's first life validated"
        );
        for k in 0x100..=0x104 {
            assert_eq!(t.lookup(k), Some(k - 0x100));
        }
        assert_eq!(t.lookup(0x1_0000), Some(9));
        assert_eq!(t.check_invariants(), 6);
    }

    /// A Node4 whose header count overflowed its capacity fails the
    /// structural walk, though every read clamps the count to 4.
    #[test]
    #[should_panic(expected = "count exceeds node capacity")]
    fn check_invariants_sees_an_overflowed_count() {
        let t = ArtOptiQL::new();
        for k in 0x100..0x104 {
            assert_eq!(t.insert(k, k), None);
        }
        let n4 = unsafe { &*(*t.root).find_child(0) };
        assert_eq!(n4.node_type(), NodeType::N4);
        assert_eq!(t.check_invariants(), 4);
        n4.set_raw_count(5);
        t.check_invariants();
    }

    /// A removed key's leaf goes back to the slab, and the next key's
    /// leaf takes its slot: a snapshot of the parent that linked the old
    /// leaf fails, the slot holds the new key, and the tree answers for
    /// both.
    #[test]
    fn a_removed_kv_leaf_is_reused_and_its_parent_snapshot_fails() {
        let t = ArtOptiQL::new();
        for k in 0x200..0x204 {
            assert_eq!(t.insert(k, k), None);
        }
        let parent = unsafe { &*(*t.root).find_child(0) };
        let v = OptimisticGuard::read(&parent.lock).expect("unlocked");
        let old = parent.find_child(1);
        assert!(is_kv(old));
        assert_eq!(t.remove(0x201), Some(0x201));
        assert_eq!(t.insert(0x205, 5), None);
        assert_eq!(parent.find_child(5), old, "the freed slot was reused");
        let kv = unsafe { as_kv(old) };
        assert_eq!((kv.key(), kv.value()), (0x205, 5));
        assert!(!v.validate());
        assert_eq!(t.lookup(0x201), None);
        assert_eq!(t.lookup(0x205), Some(5));
        assert_eq!(t.check_invariants(), 4);
    }
}

//! # optiql-art — Adaptive Radix Tree with optimistic lock coupling
//!
//! The ART index the paper adapts in §6.2: adaptive node sizes
//! (Node4/16/48/256), path compression, lazy expansion via tagged
//! single-entry leaves, optimistic lock coupling for traversal, an
//! upgrade-based write path that keeps OptiQL's writer queue intact, and
//! **contention expansion** — materializing lazily-expanded leaves under
//! contention so updates can acquire the queue-based lock directly. That
//! direct acquisition is Algorithm 4 as the B+-tree's leaf write runs it,
//! one function for both trees (`optiql::olc::lock_for_write`); with
//! `OptiQLAor` it keeps readers admitted until the update has found its
//! key, with every other lock it closes the window at the grant.
//!
//! Every node is a slot of one of its tree's slabs (64 KiB chunks, one
//! slab per node kind): a key's leaf is 16 bytes of key and value, not an
//! allocation of its own, and a node a remove or a growth unlinks goes
//! straight back to its slab, so no operation pins an epoch.
//!
//! ```
//! use optiql_art::ArtOptiQL;
//!
//! let art: ArtOptiQL = ArtOptiQL::new();
//! art.insert(7, 70);
//! assert_eq!(art.lookup(7), Some(70));
//! art.update(7, 71);
//! assert_eq!(art.remove(7), Some(71));
//! assert!(art.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod multi;
pub mod node;
pub mod tree;

pub use tree::{ArtStats, ArtTree, DEFAULT_EXPANSION_THRESHOLD, DEFAULT_SAMPLE_INV};

use optiql::{McsRwLock, OptLock, OptiQL, OptiQLNor, PthreadRwLock};

optiql_index_api::impl_concurrent_index! {
    impl [L: optiql::IndexLock] for ArtTree<L>
}

/// ART with centralized optimistic locks (the paper's OptLock baseline).
pub type ArtOptLock = ArtTree<OptLock>;
/// ART with OptiQL on every node (§6.2).
pub type ArtOptiQL = ArtTree<OptiQL>;
/// ART with OptiQL without opportunistic read.
pub type ArtOptiQLNor = ArtTree<OptiQLNor>;
/// ART with the fair queue-based reader-writer MCS lock (pessimistic).
pub type ArtMcsRw = ArtTree<McsRwLock>;
/// ART with a pthread-style pessimistic reader-writer lock.
pub type ArtPthread = ArtTree<PthreadRwLock>;

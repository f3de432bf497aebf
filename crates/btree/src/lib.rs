//! # optiql-btree — memory-optimized B+-tree with optimistic lock coupling
//!
//! The B+-tree the paper adapts in §6.1: small cache-friendly nodes, a lock
//! embedded in every node header, optimistic lock coupling for traversals,
//! and a write path chosen by the leaf lock's [`optiql::WriteStrategy`]:
//!
//! | Configuration | Inner lock | Leaf lock | Write path |
//! |---|---|---|---|
//! | [`BTreeOptLock`] | OptLock | OptLock | classic OLC upgrade |
//! | [`BTreeOptiQL`] | OptLock | OptiQL | Algorithm 4 (direct leaf lock) |
//! | [`BTreeOptiQLNor`] | OptLock | OptiQL-NOR | Algorithm 4 |
//! | [`BTreeOptiQLAor`] | OptLock | OptiQL-AOR | Algorithm 4 + AOR |
//! | [`BTreeMcsRw`] | MCS-RW | MCS-RW | pessimistic lock coupling |
//! | [`BTreePthread`] | pthread | pthread | pessimistic lock coupling |
//!
//! ```
//! use optiql_btree::BTreeOptiQL;
//!
//! let tree: BTreeOptiQL = BTreeOptiQL::new();
//! tree.insert(42, 4200);
//! assert_eq!(tree.lookup(42), Some(4200));
//! tree.update(42, 4300);
//! assert_eq!(tree.remove(42), Some(4300));
//! assert!(tree.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod multi;
pub mod node;
pub mod tree;

pub use tree::{BPlusTree, TreeStats};

use optiql::{McsRwLock, OptLock, OptiQL, OptiQLAor, OptiQLNor, PthreadRwLock};

optiql_index_api::impl_concurrent_index! {
    impl [IL: optiql::IndexLock, LL: optiql::IndexLock, const IC: usize, const LC: usize]
        for BPlusTree<IL, LL, IC, LC>
}

/// Capacity presets named after nominal node sizes (paper §7.4 sweeps
/// 256 B – 16 KB). An entry is 16 bytes (8-byte key + 8-byte value /
/// child pointer) and the preset allows one entry's worth of header,
/// which is the header a node has: 16 bytes (tag and count in one word,
/// the lock in the next). A leaf of every preset is exactly its nominal
/// size on whole lines (an `S256` leaf is 16 + 15 × 16 = 256 bytes);
/// an inner node holds one child more (`S256`: 16 + 16 × 16 = 272) —
/// pinned by `node::tests::s256_nodes_are_256_and_272_bytes` and
/// `every_preset_leaf_is_its_nominal_size_on_whole_lines`.
pub mod node_size {
    /// Inner-node child capacity for a nominal node size.
    pub const fn inner_cap(bytes: usize) -> usize {
        (bytes - 16) / 16 + 1
    }
    /// Leaf entry capacity for a nominal node size.
    pub const fn leaf_cap(bytes: usize) -> usize {
        (bytes - 16) / 16
    }

    /// Nominal 256-byte nodes (default; 16 children / 15 entries, the
    /// paper's "fanout of 14"; 272 / 256 bytes with the header).
    pub const S256: (usize, usize) = (inner_cap(256), leaf_cap(256));
    /// 512-byte nodes.
    pub const S512: (usize, usize) = (inner_cap(512), leaf_cap(512));
    /// 1 KiB nodes.
    pub const S1K: (usize, usize) = (inner_cap(1024), leaf_cap(1024));
    /// 2 KiB nodes.
    pub const S2K: (usize, usize) = (inner_cap(2048), leaf_cap(2048));
    /// 4 KiB nodes.
    pub const S4K: (usize, usize) = (inner_cap(4096), leaf_cap(4096));
    /// 8 KiB nodes.
    pub const S8K: (usize, usize) = (inner_cap(8192), leaf_cap(8192));
    /// 16 KiB nodes.
    pub const S16K: (usize, usize) = (inner_cap(16384), leaf_cap(16384));
}

/// Default inner capacity (256-byte nodes).
pub const DEFAULT_IC: usize = node_size::S256.0;
/// Default leaf capacity (256-byte nodes).
pub const DEFAULT_LC: usize = node_size::S256.1;

/// B+-tree with centralized optimistic locks everywhere (the paper's
/// "OptLock" baseline).
pub type BTreeOptLock<const IC: usize = DEFAULT_IC, const LC: usize = DEFAULT_LC> =
    BPlusTree<OptLock, OptLock, IC, LC>;

/// B+-tree with OptiQL leaves and OptLock inner nodes (paper §6.1).
pub type BTreeOptiQL<const IC: usize = DEFAULT_IC, const LC: usize = DEFAULT_LC> =
    BPlusTree<OptLock, OptiQL, IC, LC>;

/// As [`BTreeOptiQL`] but without opportunistic read ("OptiQL-NOR").
pub type BTreeOptiQLNor<const IC: usize = DEFAULT_IC, const LC: usize = DEFAULT_LC> =
    BPlusTree<OptLock, OptiQLNor, IC, LC>;

/// As [`BTreeOptiQL`] with adjustable opportunistic read ("OptiQL-AOR").
pub type BTreeOptiQLAor<const IC: usize = DEFAULT_IC, const LC: usize = DEFAULT_LC> =
    BPlusTree<OptLock, OptiQLAor, IC, LC>;

/// B+-tree with the fair queue-based reader-writer MCS lock (pessimistic).
pub type BTreeMcsRw<const IC: usize = DEFAULT_IC, const LC: usize = DEFAULT_LC> =
    BPlusTree<McsRwLock, McsRwLock, IC, LC>;

/// B+-tree with a pthread-style pessimistic reader-writer lock.
pub type BTreePthread<const IC: usize = DEFAULT_IC, const LC: usize = DEFAULT_LC> =
    BPlusTree<PthreadRwLock, PthreadRwLock, IC, LC>;

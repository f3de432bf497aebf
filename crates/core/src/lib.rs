//! # OptiQL — robust optimistic locking for memory-optimized indexes
//!
//! A from-scratch Rust implementation of **OptiQL** (Shi, Yan & Wang,
//! SIGMOD 2024): an optimistic lock that extends the classic MCS queue lock
//! with optimistic and *opportunistic* read capabilities, achieving
//!
//! * **high performance** (D1): readers never write shared memory;
//! * **robustness** (D2): writers queue and spin locally, so throughput
//!   plateaus instead of collapsing under contention;
//! * **fairness** (D3): writers are granted in FIFO order;
//! * **compactness** (D4): the lock is a single 8-byte word;
//! * **index-locking amenability** (D5): readers keep the exact
//!   `acquire_sh`/`release_sh` interface of centralized optimistic locks.
//!
//! The crate also contains every baseline lock from the paper's evaluation
//! (centralized optimistic "OptLock", TTS, MCS, a fair queue-based
//! reader-writer MCS packed into 8 bytes, a pthread-style pessimistic
//! rwlock, and the backoff variants of OptLock and TTS), the queue-node
//! pool with compact ID ↔ pointer translation, the unified
//! [`traits::IndexLock`] interface that the companion index crates
//! (`optiql-btree`, `optiql-art`) build their lock-coupling protocols on,
//! the shared OLC restart protocol ([`olc`]: restart pacing,
//! optimistic read guards, unified per-index accounting) those crates
//! drive their `'restart:` loops with, and the striped node allocator
//! ([`slab`]) their nodes live in.
//!
//! ## Quick start
//!
//! ```
//! use optiql::{OptiQL, IndexLock, ExclusiveLock};
//!
//! let lock = OptiQL::new();
//!
//! // Optimistic read: snapshot, read data, validate.
//! let v = lock.r_lock().expect("lock is free");
//! // ... read the protected data ...
//! assert!(lock.r_unlock(v), "no concurrent writer: validation passes");
//!
//! // Exclusive write: queue-based, FIFO among writers.
//! let token = lock.x_lock();
//! // ... modify the protected data ...
//! lock.x_unlock(token);
//!
//! // The version moved on, so the old snapshot no longer validates.
//! assert!(!lock.r_unlock(v));
//! ```
//!
//! ## Protecting data
//!
//! Optimistic readers run concurrently with writers and only detect the
//! conflict afterwards, so data protected by these locks must tolerate
//! concurrent reads. Store fields in atomic cells (`AtomicU64` etc.) and
//! access them with `Relaxed` ordering — that compiles to plain loads and
//! stores, and validation discards every inconsistent snapshot. The index
//! crates in this workspace follow exactly this pattern.
//!
//! ## Observability
//!
//! Every lock records admission, validation, queueing, handover and
//! upgrade events through [`stats`]. The slow-path ones (queue waits,
//! handovers, window closes, `OPREAD` admissions, rejections, failed
//! validations and upgrades) are relaxed adds on the calling thread's
//! stripe of one [`Counters`] block in every build, readable via
//! [`stats::snapshot`]; the fast-path ones cost nothing.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backoff;
pub mod chaos;
pub mod counters;
pub mod mcs;
pub mod mcs_rw;
pub mod olc;
pub mod optiql;
pub mod optlock;
pub mod pthread;
pub mod qnode;
pub mod slab;
pub mod spin;
pub mod stats;
pub mod traits;
pub mod tts;
pub mod word;

pub use crate::counters::Counters;
pub use crate::mcs::McsLock;
pub use crate::mcs_rw::McsRwLock;
pub use crate::olc::{IndexStats, OptimisticGuard, RestartLoop};
pub use crate::optiql::{OptiQL, OptiQLAor, OptiQLCore, OptiQLNor};
pub use crate::optlock::{OptLock, OptLockBackoff, OptLockCore};
pub use crate::pthread::PthreadRwLock;
pub use crate::traits::{ExclusiveLock, IndexLock, WriteStrategy, WriteToken};
pub use crate::tts::{TtsBackoff, TtsCore, TtsLock};

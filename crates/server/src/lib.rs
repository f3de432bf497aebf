//! # optiql-server — a thread-per-core pipelined KV front end
//!
//! The workspace's indexes got fast in layers: software-pipelined
//! `multi_lookup`/`multi_insert` descents (3.9× B+-tree / 1.9× ART over
//! scalar at batch 8), a block-routed sharded facade with per-shard
//! reclamation domains, and core affinity. This crate is the layer that
//! lets network traffic reach all of that: a TCP server speaking a
//! pipelined length-prefixed binary protocol
//! ([`proto`]) whose workers execute each frame where they decode it,
//! gathering a connection's in-flight request window into exactly the
//! dense operation batches the engines want ([`server`]), and the one
//! blocking client that speaks it ([`client`]).
//!
//! Layering: `optiql-server` sits *above* the index crates and beside
//! the harness, which does not know it —
//!
//! ```text
//! optiql-index-api ── optiql-btree / optiql-art / optiql-sharded ── optiql-wal
//!         └── optiql-server (this crate: proto + server + client)
//!                 └── optiql-bench (`closed_loop` over `Client`: server, wal sweeps)
//! ```
//!
//! The binary lives at `src/main.rs` (`cargo run -p optiql-server --
//! --help`). End-to-end numbers come from `benchmark/`, which carries
//! its own wire reader so the instrument does not move with the program.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{FrameDecoder, ProtoError, Request, Response};
pub use server::{start, BackendKind, Dispatch, ServerConfig, ServerHandle, StatsSnapshot};
// Re-exported so server embedders configure durability without naming
// the wal crate themselves.
pub use optiql_wal::{FsyncPolicy, RecoveryReport, Wal, WalStatsSnapshot};

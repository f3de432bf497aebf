//! The sweep driver: every lock, every index, one seeded harness.
//!
//! A [`Target`] is a named constructor for some [`ConcurrentIndex`]
//! under test. [`targets`] enumerates the full matrix:
//!
//! * both trees (tiny-node B+-tree and ART) under each of the nine
//!   [`IndexLock`](optiql::IndexLock) implementations,
//! * [`OptRegister`] under the same nine (isolating the lock protocol
//!   from tree structure),
//! * [`LockRegister`] under the five writer-only locks (MCS, TTS,
//!   TTS-Backoff, Ticket, Ticket-Split),
//! * the sharded facade, and the batched `multi_*` paths,
//! * streaming-scan cells (`stream-*`) whose scan arm drives the lazy
//!   [`ConcurrentIndex::range`] iterator instead of `scan_count`, so
//!   per-leaf/per-chunk OLC revalidation races structural churn under
//!   the same seeded perturbation,
//! * crash-replay cells (`crash-*`): phase one runs through a
//!   wal-logged wrapper and is stopped at a seeded tick (with a
//!   checkpoint-by-scan fired mid-churn at half that tick), the wal is
//!   recovered into a fresh instance, and phase two plus a full-keyspace
//!   lookup sweep extend the *same* recorded history — the Wing–Gong
//!   checker over the stitched pre-crash + post-recovery history
//!   certifies recovery lost nothing and invented nothing.
//!
//! [`run_target`] runs one `(target, seed)` cell: workers execute
//! deterministic op scripts derived from `(seed, worker slot)` through a
//! [`ThreadRecorder`]-over-[`ChaosIndex`] stack while the seeded chaos
//! layer perturbs lock-level schedules; the merged history then goes to
//! the Wing–Gong checker. Everything a run did is reconstructible from
//! its seed — [`Failure`] carries exactly that, and [`sweep`] re-runs a
//! failing seed verbatim to demonstrate replay.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use optiql_index_api::ConcurrentIndex;
use optiql_wal::{DurableIndex, FsyncPolicy, Wal, WalConfig};

use crate::chaos::ChaosIndex;
use crate::history::{Recorder, ThreadRecorder};
use crate::linearize::{check_logs, CheckSummary, Violation};
use crate::register::{LockRegister, OptRegister};

/// Key capacity of the register targets; sweeps must keep
/// `key_space <= REGISTER_CAP`.
pub const REGISTER_CAP: usize = 4096;

/// Workload shape for one run. The same config + seed reproduces the
/// same per-worker op scripts and the same chaos schedule.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Worker threads.
    pub threads: usize,
    /// Operations issued per worker.
    pub ops_per_thread: usize,
    /// Keys are drawn uniformly from `0..key_space`. Sized so per-key
    /// histories stay far below [`crate::linearize::MAX_OPS_PER_KEY`].
    pub key_space: u64,
    /// Spread each drawn key's bits across byte positions (see
    /// [`spread_key`]) so the ART sees a sparse multi-level radix
    /// structure whose compressed prefixes split and collapse
    /// continuously, instead of a dense last-byte-only cluster that goes
    /// structurally quiet after warmup.
    pub clustered: bool,
    /// Enable the seeded chaos layer (disable to measure the recorder
    /// alone or to bisect whether a failure needs perturbation).
    pub chaos: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            threads: 4,
            ops_per_thread: 1000,
            key_space: 128,
            clustered: false,
            chaos: true,
        }
    }
}

/// One named index-under-test.
pub struct Target {
    /// Stable name, usable with the CLI's `--target` substring filter.
    pub name: &'static str,
    /// Coarse family: `btree`, `art`, `optreg`, `lockreg`, `sharded`,
    /// `batched`.
    pub group: &'static str,
    /// Batch size for `multi_*` issue; 1 means scalar ops.
    pub batch: usize,
    /// Drive the scan arm through the streaming `range` iterator instead
    /// of `scan_count`: the iterator is opened, partially drained, and
    /// dropped mid-stream half the time — the lifecycle a server-side
    /// paginated SCAN produces.
    pub stream_scans: bool,
    /// Run the crash-replay schedule (see [`run_crash_target`]): log
    /// phase one through a wal, stop it at a seeded tick, recover into a
    /// fresh instance, and check the stitched two-phase history.
    pub crash: bool,
    make: fn() -> Arc<dyn ConcurrentIndex>,
}

impl Target {
    /// Construct a fresh instance of the index under test.
    pub fn build(&self) -> Arc<dyn ConcurrentIndex> {
        (self.make)()
    }
}

// Tiny nodes (fanout 4) keep structural modifications constant under the
// small checkable keyspace: 128 keys split a 4-entry leaf tree dozens of
// levels-and-times over, which is the whole point.
type TinyTree<IL, LL> = optiql_btree::BPlusTree<IL, LL, 4, 4>;

fn mk_btree<LL: optiql::IndexLock>() -> Arc<dyn ConcurrentIndex> {
    Arc::new(TinyTree::<optiql::OptLock, LL>::new())
}
fn mk_btree_pess<L: optiql::IndexLock>() -> Arc<dyn ConcurrentIndex> {
    Arc::new(TinyTree::<L, L>::new())
}
fn mk_art<L: optiql::IndexLock>() -> Arc<dyn ConcurrentIndex> {
    Arc::new(optiql_art::ArtTree::<L>::new())
}
fn mk_optreg<L: optiql::IndexLock>() -> Arc<dyn ConcurrentIndex> {
    Arc::new(OptRegister::<L>::new(REGISTER_CAP))
}
fn mk_lockreg<L: optiql::ExclusiveLock>() -> Arc<dyn ConcurrentIndex> {
    Arc::new(LockRegister::<L>::new(REGISTER_CAP))
}
// 4-key blocks: the default block granularity (64Ki keys, sized for
// bench keyspaces) would drop the checker's whole 128-key space into one
// shard; 2 block bits stripe it as 32 blocks over all four shards.
const SHARD_BLOCK_BITS: u32 = 2;

fn mk_sharded_btree() -> Arc<dyn ConcurrentIndex> {
    Arc::new(optiql_sharded::ShardedIndex::with_config(
        4,
        SHARD_BLOCK_BITS,
        |_| TinyTree::<optiql::OptLock, optiql::OptiQL>::new(),
    ))
}
fn mk_sharded_art() -> Arc<dyn ConcurrentIndex> {
    Arc::new(optiql_sharded::ShardedIndex::with_config(
        4,
        SHARD_BLOCK_BITS,
        |_| optiql_art::ArtTree::<optiql::OptiQL>::new(),
    ))
}

/// The full target matrix.
pub fn targets() -> Vec<Target> {
    macro_rules! t {
        ($name:literal, $group:literal, $batch:expr, $make:expr) => {
            t!($name, $group, $batch, $make, false)
        };
        ($name:literal, $group:literal, $batch:expr, $make:expr, $stream:expr) => {
            t!($name, $group, $batch, $make, $stream, false)
        };
        ($name:literal, $group:literal, $batch:expr, $make:expr, $stream:expr, $crash:expr) => {
            Target {
                name: $name,
                group: $group,
                batch: $batch,
                stream_scans: $stream,
                crash: $crash,
                make: $make,
            }
        };
    }
    use ::optiql::*;
    vec![
        // B+-tree: each optimistic leaf lock over OptLock inners, plus
        // the two pessimistic all-the-way-down configurations.
        t!("btree-optlock", "btree", 1, mk_btree::<OptLock>),
        t!(
            "btree-optlock-backoff",
            "btree",
            1,
            mk_btree::<OptLockBackoff>
        ),
        t!("btree-optiql", "btree", 1, mk_btree::<OptiQL>),
        t!("btree-optiql-nor", "btree", 1, mk_btree::<OptiQLNor>),
        t!("btree-optiql-aor", "btree", 1, mk_btree::<OptiQLAor>),
        t!("btree-opticlh", "btree", 1, mk_btree::<OptiCLH>),
        t!("btree-opticlh-nor", "btree", 1, mk_btree::<OptiCLHNor>),
        t!("btree-mcs-rw", "btree", 1, mk_btree_pess::<McsRwLock>),
        t!("btree-pthread", "btree", 1, mk_btree_pess::<PthreadRwLock>),
        // ART under all nine index locks.
        t!("art-optlock", "art", 1, mk_art::<OptLock>),
        t!("art-optlock-backoff", "art", 1, mk_art::<OptLockBackoff>),
        t!("art-optiql", "art", 1, mk_art::<OptiQL>),
        t!("art-optiql-nor", "art", 1, mk_art::<OptiQLNor>),
        t!("art-optiql-aor", "art", 1, mk_art::<OptiQLAor>),
        t!("art-opticlh", "art", 1, mk_art::<OptiCLH>),
        t!("art-opticlh-nor", "art", 1, mk_art::<OptiCLHNor>),
        t!("art-mcs-rw", "art", 1, mk_art::<McsRwLock>),
        t!("art-pthread", "art", 1, mk_art::<PthreadRwLock>),
        // Register arrays: the lock protocol in isolation.
        t!("optreg-optlock", "optreg", 1, mk_optreg::<OptLock>),
        t!(
            "optreg-optlock-backoff",
            "optreg",
            1,
            mk_optreg::<OptLockBackoff>
        ),
        t!("optreg-optiql", "optreg", 1, mk_optreg::<OptiQL>),
        t!("optreg-optiql-nor", "optreg", 1, mk_optreg::<OptiQLNor>),
        t!("optreg-optiql-aor", "optreg", 1, mk_optreg::<OptiQLAor>),
        t!("optreg-opticlh", "optreg", 1, mk_optreg::<OptiCLH>),
        t!("optreg-opticlh-nor", "optreg", 1, mk_optreg::<OptiCLHNor>),
        t!("optreg-mcs-rw", "optreg", 1, mk_optreg::<McsRwLock>),
        t!("optreg-pthread", "optreg", 1, mk_optreg::<PthreadRwLock>),
        // Writer-only locks, reachable by no index: register arrays make
        // "every lock" literal.
        t!("lockreg-mcs", "lockreg", 1, mk_lockreg::<McsLock>),
        t!("lockreg-tts", "lockreg", 1, mk_lockreg::<TtsLock>),
        t!(
            "lockreg-tts-backoff",
            "lockreg",
            1,
            mk_lockreg::<TtsBackoff>
        ),
        t!("lockreg-ticket", "lockreg", 1, mk_lockreg::<TicketLock>),
        t!(
            "lockreg-ticket-split",
            "lockreg",
            1,
            mk_lockreg::<TicketLockSplit>
        ),
        // The sharded facade over both trees.
        t!("sharded-btree-optiql", "sharded", 1, mk_sharded_btree),
        t!("sharded-art-optiql", "sharded", 1, mk_sharded_art),
        // Batched multi_* paths (group prefetch pipeline), plain and
        // split by the facade's router over each tree.
        t!("batched-btree-optiql", "batched", 8, mk_btree::<OptiQL>),
        t!("batched-art-optiql", "batched", 8, mk_art::<OptiQL>),
        t!("batched-sharded-btree", "batched", 8, mk_sharded_btree),
        t!("batched-sharded-art", "batched", 8, mk_sharded_art),
        // Streaming-scan cells: the scan arm opens the lazy range
        // iterator (partially drained, sometimes dropped mid-stream)
        // against the same mutation script, on both trees, their
        // pessimistic baselines, and the merged sharded fan-out.
        t!("stream-btree-optiql", "stream", 1, mk_btree::<OptiQL>, true),
        t!(
            "stream-btree-mcs-rw",
            "stream",
            1,
            mk_btree_pess::<McsRwLock>,
            true
        ),
        t!("stream-art-optiql", "stream", 1, mk_art::<OptiQL>, true),
        t!("stream-art-mcs-rw", "stream", 1, mk_art::<McsRwLock>, true),
        t!("stream-sharded-btree", "stream", 1, mk_sharded_btree, true),
        t!("stream-sharded-art", "stream", 1, mk_sharded_art, true),
        // Crash-replay cells: phase one is wal-logged and stopped at a
        // seeded tick with a checkpoint racing the churn; recovery
        // replays into a fresh instance, phase two and a full-keyspace
        // sweep extend the same history, and the checker certifies the
        // stitched pre-crash + post-recovery run. Both trees and the
        // sharded facade (wal shards mirror index shards).
        t!(
            "crash-btree-optiql",
            "crash",
            1,
            mk_btree::<OptiQL>,
            false,
            true
        ),
        t!(
            "crash-art-optiql",
            "crash",
            1,
            mk_art::<OptiQL>,
            false,
            true
        ),
        t!(
            "crash-sharded-btree",
            "crash",
            1,
            mk_sharded_btree,
            false,
            true
        ),
    ]
}

/// A failed `(target, seed)` cell: everything needed to replay it.
#[derive(Debug)]
pub struct Failure {
    /// Name of the failing target.
    pub target: &'static str,
    /// Seed of the failing run.
    pub seed: u64,
    /// Config of the failing run.
    pub cfg: CheckConfig,
    /// The checker's counterexample.
    pub violation: Box<Violation>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FAIL {} seed={} (threads={} ops={} keys={} clustered={} chaos={})",
            self.target,
            self.seed,
            self.cfg.threads,
            self.cfg.ops_per_thread,
            self.cfg.key_space,
            self.cfg.clustered,
            self.cfg.chaos,
        )?;
        write!(f, "{}", self.violation)?;
        write!(
            f,
            "replay: cargo run -p optiql-check -- --target {} --seed {} \
             --threads {} --ops {} --keys {}{}{}",
            self.target,
            self.seed,
            self.cfg.threads,
            self.cfg.ops_per_thread,
            self.cfg.key_space,
            if self.cfg.clustered {
                " --clustered"
            } else {
                ""
            },
            if self.cfg.chaos { "" } else { " --no-chaos" },
        )
    }
}

/// A passed `(target, seed)` cell.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Checker aggregates for the run.
    pub summary: CheckSummary,
    /// Total ticks the recorder issued (2 per recorded event).
    pub ticks: u64,
}

// The chaos configuration is process-global (one seed, one generation),
// so concurrent run_target calls — e.g. `cargo test` running two
// #[test]s in parallel — would perturb each other's schedules and break
// seed determinism. One run at a time, process-wide.
static RUN_GATE: Mutex<()> = Mutex::new(());

/// Injectively spread `k`'s bits two-per-byte across the key's byte
/// positions, producing a sparse radix-4 trie shape: 128 dense indices
/// become keys diverging at bytes 7, 6, 5 and 4 of the big-endian
/// encoding. Under a mixed insert/remove workload the ART's compressed
/// paths for these keys split and collapse continuously — the structural
/// churn the dense mapping (divergence only in the last byte) settles
/// out of after warmup.
pub fn spread_key(k: u64) -> u64 {
    let mut key = 0u64;
    for byte in 0..8 {
        key |= ((k >> (2 * byte)) & 0x3) << (8 * byte);
    }
    key
}

/// SplitMix64: the workload generator's only randomness. Deterministic
/// per `(seed, worker slot)`, independent of thread interleaving.
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One worker's deterministic op script: ~40% lookups, ~30% inserts,
/// ~15% updates, ~14% removes, ~1% scans, with `multi_*` buffering when
/// `batch > 1`. Values are globally unique (`slot << 40 | op index`) so
/// the checker can distinguish every write. With `stream` set, the scan
/// arm opens the lazy `range` iterator instead of calling `scan_count`,
/// draining 1–8 entries and dropping the iterator early half the time.
/// A set `stop` flag ends the script between ops — the crash driver's
/// simulated power cut, always on an operation boundary so every
/// recorded event also finished its wal append.
fn run_script<I: ConcurrentIndex>(
    ix: &I,
    slot: usize,
    seed: u64,
    batch: usize,
    stream: bool,
    cfg: &CheckConfig,
    stop: Option<&AtomicBool>,
) {
    let mut state =
        seed ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut lookups: Vec<u64> = Vec::new();
    let mut inserts: Vec<(u64, u64)> = Vec::new();
    for i in 0..cfg.ops_per_thread {
        if let Some(flag) = stop {
            if flag.load(Ordering::Acquire) {
                break;
            }
        }
        let r = splitmix(&mut state);
        let mut key = (r >> 32) % cfg.key_space;
        if cfg.clustered {
            key = spread_key(key);
        }
        let v = ((slot as u64) << 40) | i as u64;
        match r % 100 {
            0..=39 => {
                if batch > 1 {
                    lookups.push(key);
                    if lookups.len() >= batch {
                        ix.multi_lookup(&lookups);
                        lookups.clear();
                    }
                } else {
                    ix.lookup(key);
                }
            }
            40..=69 => {
                if batch > 1 {
                    inserts.push((key, v));
                    if inserts.len() >= batch {
                        ix.multi_insert(&inserts);
                        inserts.clear();
                    }
                } else {
                    ix.insert(key, v);
                }
            }
            70..=84 => {
                ix.update(key, v);
            }
            85..=98 => {
                ix.remove(key);
            }
            _ => {
                // Unrecorded; exercises range traversal concurrently
                // with structural modifications, and perturbs timing.
                if stream {
                    let take = (r >> 8) as usize % 8 + 1;
                    let start = if r & 1 << 16 == 0 {
                        std::ops::Bound::Included(key)
                    } else {
                        std::ops::Bound::Excluded(key)
                    };
                    // `take` cuts the stream short half the time on
                    // average: dropping a live iterator mid-leaf is the
                    // paginated-SCAN lifecycle and must leave no state
                    // behind (no held locks, no leaked pins).
                    for kv in ix.range(start, std::ops::Bound::Unbounded).take(take) {
                        std::hint::black_box(kv);
                    }
                } else {
                    ix.scan_count(key, 8);
                }
            }
        }
    }
    if !lookups.is_empty() {
        ix.multi_lookup(&lookups);
    }
    if !inserts.is_empty() {
        ix.multi_insert(&inserts);
    }
}

/// Run one `(target, seed)` cell and check the history it records.
pub fn run_target(t: &Target, seed: u64, cfg: &CheckConfig) -> Result<RunReport, Failure> {
    assert!(cfg.threads >= 1, "need at least one worker");
    assert!(
        cfg.key_space >= 1 && cfg.key_space as usize <= REGISTER_CAP,
        "key_space must be in 1..={REGISTER_CAP}"
    );
    assert!(
        !cfg.clustered || cfg.key_space <= 1 << 16,
        "spread_key covers 16 index bits"
    );
    if t.crash {
        return run_crash_target(t, seed, cfg);
    }
    let _gate = RUN_GATE.lock().unwrap_or_else(|e| e.into_inner());
    if cfg.chaos {
        crate::chaos::configure(seed);
    } else {
        crate::chaos::disable();
    }

    // Spread keys overflow the register targets' direct-mapped capacity;
    // clustering only changes radix structure anyway, which registers
    // don't have. Dense keys there, deterministically.
    let cfg = CheckConfig {
        clustered: cfg.clustered && !matches!(t.group, "optreg" | "lockreg"),
        ..cfg.clone()
    };
    let cfg = &cfg;

    let index = t.build();
    let chaosed = Arc::new(ChaosIndex::new(index));
    let recorder = Recorder::new();
    let barrier = Arc::new(Barrier::new(cfg.threads));

    let logs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|slot| {
                let chaosed = Arc::clone(&chaosed);
                let recorder = Arc::clone(&recorder);
                let barrier = Arc::clone(&barrier);
                let batch = t.batch;
                let stream = t.stream_scans;
                s.spawn(move || {
                    crate::chaos::register_thread(slot as u64);
                    let tr = ThreadRecorder::new(chaosed, recorder, slot as u32);
                    barrier.wait();
                    run_script(&tr, slot, seed, batch, stream, cfg, None);
                    tr.into_log()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    crate::chaos::disable();
    let ticks = recorder.now();
    match check_logs(logs) {
        Ok(summary) => Ok(RunReport { summary, ticks }),
        Err(violation) => Err(Failure {
            target: t.name,
            seed,
            cfg: cfg.clone(),
            violation,
        }),
    }
}

/// Run one crash-replay cell: the `CrashReplay` schedule for targets
/// with [`Target::crash`] set (dispatched from [`run_target`]).
///
/// 1. **Phase one (pre-crash)**: workers run their chaos-perturbed
///    scripts through `ThreadRecorder → ChaosIndex → DurableIndex →
///    index`, so every mutation is redo-logged exactly as the server
///    stack logs it. A controller thread watches the recorder's tick
///    clock: at a seeded *checkpoint tick* it runs checkpoint-by-scan
///    against the live churn, and at a seeded *crash tick* (in the
///    middle half of the run) it raises the stop flag. Workers stop on
///    operation boundaries — the recorded history and the log agree at
///    the cut, which is exactly what fsync-before-ack guarantees a real
///    crash (the subprocess SIGKILL test covers mid-append cuts).
/// 2. **Recovery**: the wal directory is reopened and replayed into a
///    *fresh* instance of the same target, checkpoint first, log tail
///    on top.
/// 3. **Phase two (post-recovery)**: new workers (distinct recorder
///    thread ids and chaos slots, half-length scripts) hammer the
///    recovered index under the same seed's chaos schedule, then a
///    final sweep thread looks up every key in the keyspace so each
///    key's recovered value is certified, not just the ones phase two
///    happened to touch.
///
/// The stitched phase-one + phase-two + sweep history goes through the
/// same Wing–Gong checker as every other cell. A write recovery lost
/// surfaces as a stale lookup no linearization can explain; a phantom
/// surfaces as a value nobody wrote.
fn run_crash_target(t: &Target, seed: u64, cfg: &CheckConfig) -> Result<RunReport, Failure> {
    let _gate = RUN_GATE.lock().unwrap_or_else(|e| e.into_inner());
    if cfg.chaos {
        crate::chaos::configure(seed);
    } else {
        crate::chaos::disable();
    }

    let dir = std::env::temp_dir().join(format!(
        "optiql-check-crash-{}-{seed:x}-{}",
        t.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_cfg = || WalConfig {
        router: optiql_sharded::Router::new(4, SHARD_BLOCK_BITS),
        policy: FsyncPolicy::Group,
        ..WalConfig::new(&dir)
    };

    // Both crash points are pure functions of the seed. Two ticks per
    // recorded op bounds the run's tick budget; the crash lands in its
    // middle half, the checkpoint halfway to the crash.
    let mut rng = seed ^ 0xC4A5_4C4A_5C4A_54C4;
    let est_ticks = (cfg.threads * cfg.ops_per_thread * 2) as u64;
    let crash_tick = est_ticks / 4 + splitmix(&mut rng) % (est_ticks / 2).max(1);
    let ckpt_tick = crash_tick / 2;

    let recorder = Recorder::new();
    let stop = AtomicBool::new(false);
    let done = AtomicUsize::new(0);

    // Phase one: chaos over the wal-logged wrapper over the index.
    let wal = Arc::new(Wal::open(wal_cfg()).expect("open wal for crash cell"));
    let raw = t.build();
    let chaosed = Arc::new(ChaosIndex::new(DurableIndex::new(
        Arc::clone(&raw),
        Arc::clone(&wal),
    )));
    let barrier = Arc::new(Barrier::new(cfg.threads));
    let mut logs: Vec<Vec<crate::history::HistEvent>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|slot| {
                let chaosed = Arc::clone(&chaosed);
                let recorder = Arc::clone(&recorder);
                let barrier = Arc::clone(&barrier);
                let batch = t.batch;
                let (stop, done) = (&stop, &done);
                s.spawn(move || {
                    crate::chaos::register_thread(slot as u64);
                    let tr = ThreadRecorder::new(chaosed, recorder, slot as u32);
                    barrier.wait();
                    run_script(&tr, slot, seed, batch, false, cfg, Some(stop));
                    done.fetch_add(1, Ordering::Release);
                    tr.into_log()
                })
            })
            .collect();
        // The controller: checkpoint mid-churn, then pull the plug.
        s.spawn(|| {
            let mut ckpt_done = false;
            loop {
                if done.load(Ordering::Acquire) == cfg.threads {
                    break;
                }
                let now = recorder.now();
                if !ckpt_done && now >= ckpt_tick {
                    wal.checkpoint(&*raw).expect("checkpoint under churn");
                    ckpt_done = true;
                }
                if now >= crash_tick {
                    stop.store(true, Ordering::Release);
                    break;
                }
                std::thread::yield_now();
            }
        });
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    drop(chaosed);
    drop(raw);
    drop(wal);

    // Recovery: reopen the logs, replay into a fresh instance. Nothing
    // here may be torn — phase one cut on op boundaries only (the
    // subprocess kill test owns mid-append tails).
    let wal2 = Arc::new(Wal::open(wal_cfg()).expect("reopen wal after crash"));
    assert!(
        wal2.mount_report().iter().all(|m| m.torn.is_none()),
        "op-boundary crash left a torn frame: wal append is buggy"
    );
    let fresh = t.build();
    wal2.recover_into(&*fresh).expect("recover crash cell");
    drop(wal2);

    // Phase two: fresh workers (new recorder threads, new chaos slots,
    // half-length scripts) extend the same history over the recovered
    // index — no wal this time; recovery fidelity is the property.
    let cfg2 = CheckConfig {
        ops_per_thread: (cfg.ops_per_thread / 2).max(1),
        ..cfg.clone()
    };
    let chaosed2 = Arc::new(ChaosIndex::new(fresh));
    let barrier2 = Arc::new(Barrier::new(cfg.threads));
    logs.extend(std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|slot| {
                let chaosed2 = Arc::clone(&chaosed2);
                let recorder = Arc::clone(&recorder);
                let barrier2 = Arc::clone(&barrier2);
                let batch = t.batch;
                let cfg2 = &cfg2;
                s.spawn(move || {
                    let slot = cfg2.threads + slot;
                    crate::chaos::register_thread(slot as u64);
                    let tr = ThreadRecorder::new(chaosed2, recorder, slot as u32);
                    barrier2.wait();
                    run_script(&tr, slot, seed, batch, false, cfg2, None);
                    tr.into_log()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    }));

    // Final sweep: one recorded lookup per key, so *every* key's
    // recovered value must be explainable by the stitched history, not
    // only the keys phase two happened to revisit.
    let sweeper = ThreadRecorder::new(
        Arc::clone(&chaosed2),
        Arc::clone(&recorder),
        (2 * cfg.threads) as u32,
    );
    for k in 0..cfg.key_space {
        let key = if cfg.clustered { spread_key(k) } else { k };
        sweeper.lookup(key);
    }
    logs.push(sweeper.into_log());

    crate::chaos::disable();
    let _ = std::fs::remove_dir_all(&dir);
    let ticks = recorder.now();
    match check_logs(logs) {
        Ok(summary) => Ok(RunReport { summary, ticks }),
        Err(violation) => Err(Failure {
            target: t.name,
            seed,
            cfg: cfg.clone(),
            violation,
        }),
    }
}

/// Sweep `targets × seeds`. On a failure, the failing seed is re-run
/// verbatim (same target, same seed, same config) to demonstrate
/// deterministic replay; both the original and the replay outcome are
/// reported through `progress`.
///
/// Returns all failures (original runs only — replays are advisory).
pub fn sweep(
    targets: &[Target],
    seeds: &[u64],
    cfg: &CheckConfig,
    mut progress: impl FnMut(SweepEvent<'_>),
) -> Vec<Failure> {
    let mut failures = Vec::new();
    for t in targets {
        for &seed in seeds {
            match run_target(t, seed, cfg) {
                Ok(report) => progress(SweepEvent::Pass {
                    target: t.name,
                    seed,
                    report,
                }),
                Err(failure) => {
                    progress(SweepEvent::Fail { failure: &failure });
                    let replay = run_target(t, seed, cfg);
                    progress(SweepEvent::Replay {
                        target: t.name,
                        seed,
                        reproduced: replay.is_err(),
                    });
                    failures.push(failure);
                }
            }
        }
    }
    failures
}

/// Progress callbacks from [`sweep`].
pub enum SweepEvent<'a> {
    /// A cell passed.
    Pass {
        /// Target name.
        target: &'static str,
        /// Seed checked.
        seed: u64,
        /// Checker aggregates.
        report: RunReport,
    },
    /// A cell failed; the violation is attached.
    Fail {
        /// The failure (also returned from [`sweep`]).
        failure: &'a Failure,
    },
    /// The verbatim re-run of a failing cell finished.
    Replay {
        /// Target name.
        target: &'static str,
        /// Seed replayed.
        seed: u64,
        /// Whether the replay failed again.
        reproduced: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_are_unique_and_groups_known() {
        let ts = targets();
        let mut names: Vec<&str> = ts.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ts.len(), "duplicate target name");
        for t in &ts {
            assert!(
                ["btree", "art", "optreg", "lockreg", "sharded", "batched", "stream", "crash"]
                    .contains(&t.group),
                "unknown group {} on {}",
                t.group,
                t.name
            );
            assert!(t.batch >= 1);
        }
        // "All ten locks": 9 index locks + 5 writer-only locks appear.
        assert_eq!(ts.iter().filter(|t| t.group == "btree").count(), 9);
        assert_eq!(ts.iter().filter(|t| t.group == "art").count(), 9);
        assert_eq!(ts.iter().filter(|t| t.group == "optreg").count(), 9);
        assert_eq!(ts.iter().filter(|t| t.group == "lockreg").count(), 5);
        // Facade coverage: the facade over both trees, and the batched
        // paths plain and sharded over both trees.
        assert_eq!(ts.iter().filter(|t| t.group == "sharded").count(), 2);
        assert_eq!(ts.iter().filter(|t| t.group == "batched").count(), 4);
        // Streaming-scan cells: both trees, both pessimistic baselines
        // and both sharded fan-outs; every one named for what it does.
        assert_eq!(ts.iter().filter(|t| t.group == "stream").count(), 6);
        for t in &ts {
            assert_eq!(
                t.stream_scans,
                t.group == "stream",
                "stream_scans out of sync with group on {}",
                t.name
            );
            if t.stream_scans {
                assert!(t.name.starts_with("stream-"));
            }
        }
        // Crash-replay cells: both trees and the sharded facade.
        assert_eq!(ts.iter().filter(|t| t.group == "crash").count(), 3);
        for t in &ts {
            assert_eq!(
                t.crash,
                t.group == "crash",
                "crash out of sync with group on {}",
                t.name
            );
            if t.crash {
                assert!(t.name.starts_with("crash-"));
            }
        }
        assert_eq!(ts.len(), 47, "the chaos matrix has 47 cells");
    }

    #[test]
    fn scripts_are_seed_deterministic() {
        // Two single-threaded runs of the same seed against the model
        // index must record identical histories (modulo tick values).
        let cfg = CheckConfig {
            threads: 1,
            ops_per_thread: 200,
            key_space: 16,
            clustered: false,
            chaos: false,
        };
        let run = || {
            let rec = Recorder::new();
            let tr = ThreadRecorder::new(
                optiql_index_api::model::ModelIndex::new(),
                Arc::clone(&rec),
                0,
            );
            run_script(&tr, 0, 99, 1, false, &cfg, None);
            tr.into_log()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!((x.key, x.op, x.out), (y.key, y.op, y.out));
        }
    }

    #[test]
    fn model_index_passes_a_cell() {
        // The reference implementation must sail through the harness.
        let t = Target {
            name: "model",
            group: "sharded",
            batch: 1,
            stream_scans: true,
            crash: false,
            make: || Arc::new(optiql_index_api::model::ModelIndex::new()),
        };
        let cfg = CheckConfig {
            threads: 3,
            ops_per_thread: 300,
            key_space: 32,
            clustered: true,
            chaos: true,
        };
        let report = run_target(&t, 7, &cfg).expect("model index is linearizable");
        assert!(report.summary.events > 0);
        assert!(report.summary.keys > 0);
        assert!(report.summary.max_ops_per_key <= crate::linearize::MAX_OPS_PER_KEY);
    }

    #[test]
    fn crash_replay_cell_recovers_and_passes() {
        let ts = targets();
        let t = ts
            .iter()
            .find(|t| t.name == "crash-btree-optiql")
            .expect("crash cell exists");
        let cfg = CheckConfig {
            threads: 3,
            ops_per_thread: 400,
            key_space: 64,
            clustered: false,
            chaos: true,
        };
        let report = run_target(t, 11, &cfg).expect("recovery history is linearizable");
        // Phase one + phase two + the full-keyspace sweep all recorded.
        assert!(report.summary.events as u64 > cfg.key_space);
        assert_eq!(report.summary.keys as u64, cfg.key_space);
    }
}

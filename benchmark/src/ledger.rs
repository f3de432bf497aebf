//! The cost ledger: each layer's public functions timed from outside on
//! the workload's own request stream, one span per stage, so that
//! per-layer ns/op falls out by subtraction. Nothing here touches a
//! socket; the served windows give the end-to-end side of the ledger.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use optiql::{IndexLock, OptiQL};
use optiql_art::ArtOptiQL;
use optiql_btree::BTreeOptiQL;
use optiql_index_api::{ConcurrentIndex, ReclaimHandle};
use optiql_reclaim::Collector;
use optiql_server::{FrameDecoder, Request, Response};
use optiql_sharded::ShardedIndex;
use optiql_wal::{DurableIndex, FsyncPolicy, Wal, WalConfig};

use crate::hist::median;
use crate::metrics::Report;
use crate::stream::{preload_value, set_value, Stream, MGET_KEYS};
use crate::trace::Tracer;
use crate::wire;

pub struct Ledger<'a> {
    pub tracer: &'a mut Tracer,
    /// The span every stage hangs under.
    pub root: u64,
    pub report: &'a mut Report,
}

impl Ledger<'_> {
    /// Run `f` over `items` items as one span; nanoseconds per item.
    fn stage(&mut self, name: &'static str, items: usize, f: impl FnOnce()) -> f64 {
        let start = Instant::now();
        f();
        let end = Instant::now();
        self.tracer.push(name, self.root, 0, start, end);
        (end - start).as_nanos() as f64 / items.max(1) as f64
    }

    /// Median of three runs of a stage that leaves no state behind.
    fn stage3(&mut self, name: &'static str, items: usize, mut f: impl FnMut()) -> f64 {
        let runs: Vec<f64> = (0..3).map(|_| self.stage(name, items, &mut f)).collect();
        median(&runs)
    }
}

/// Requests of the stream as the program's own type.
fn requests(s: &Stream, n: usize) -> Vec<Request> {
    (0..n.min(s.len()))
        .map(|pos| {
            let op = s.ops[pos];
            match op.kind {
                wire::OP_GET => Request::Get { key: op.key },
                wire::OP_SET => Request::Set {
                    key: op.key,
                    value: set_value(pos, op.key),
                },
                wire::OP_DEL => Request::Del { key: op.key },
                _ => Request::MGet {
                    keys: s.mget(op).to_vec(),
                },
            }
        })
        .collect()
}

/// A reply of the right shape for each request (values do not matter to
/// the codec).
fn responses(reqs: &[Request]) -> Vec<Response> {
    reqs.iter()
        .map(|r| match r {
            Request::Get { key } => Response::Value(Some(preload_value(*key))),
            Request::MGet { keys } => {
                Response::MValues(keys.iter().map(|k| Some(preload_value(*k))).collect())
            }
            Request::Set { key, .. } | Request::Del { key } => {
                Response::Old(Some(preload_value(*key)))
            }
            _ => Response::Ok,
        })
        .collect()
}

/// `proto.*`: the workload's requests and replies through the program's
/// codec in bursts of `burst`, as a socket read would deliver them.
/// Returns the server's share: decode a request + encode its reply.
pub fn proto(l: &mut Ledger<'_>, s: &Stream, n: usize, burst: usize) -> f64 {
    let reqs = requests(s, n);
    let resps = responses(&reqs);
    let n = reqs.len();
    let mut out = Vec::with_capacity(64 * burst);

    let enc_req = l.stage3("ledger.proto.encode_req", n, || {
        for chunk in reqs.chunks(burst) {
            out.clear();
            for r in chunk {
                r.encode(&mut out);
            }
            black_box(&out);
        }
    });
    let req_bursts: Vec<Vec<u8>> = reqs
        .chunks(burst)
        .map(|c| {
            let mut b = Vec::new();
            c.iter().for_each(|r| r.encode(&mut b));
            b
        })
        .collect();
    let dec_req = l.stage3("ledger.proto.decode_req", n, || {
        let mut d = FrameDecoder::new();
        for b in &req_bursts {
            d.feed(b);
            while let Ok(Some(r)) = d.next_request() {
                black_box(r);
            }
        }
    });
    let enc_resp = l.stage3("ledger.proto.encode_resp", n, || {
        for chunk in resps.chunks(burst) {
            out.clear();
            for r in chunk {
                r.encode(&mut out);
            }
            black_box(&out);
        }
    });
    let resp_bursts: Vec<Vec<u8>> = resps
        .chunks(burst)
        .map(|c| {
            let mut b = Vec::new();
            c.iter().for_each(|r| r.encode(&mut b));
            b
        })
        .collect();
    let dec_resp = l.stage3("ledger.proto.decode_resp", n, || {
        let mut d = FrameDecoder::new();
        for b in &resp_bursts {
            d.feed(b);
            while let Ok(Some(r)) = d.next_response() {
                black_box(r);
            }
        }
    });
    let bytes: usize = req_bursts.iter().chain(&resp_bursts).map(Vec::len).sum();
    l.report.set("proto.encode_req_ns", enc_req);
    l.report.set("proto.decode_req_ns", dec_req);
    l.report.set("proto.encode_resp_ns", enc_resp);
    l.report.set("proto.decode_resp_ns", dec_resp);
    l.report.set("proto.bytes_per_req", bytes as f64 / n as f64);
    dec_req + enc_resp
}

/// Index operations in the first `n` requests.
fn index_ops(s: &Stream, n: usize) -> usize {
    (0..n.min(s.len())).map(|p| s.index_ops(p) as usize).sum()
}

/// Every key the first `n` requests touch, MGET keys included.
pub fn keys_of(s: &Stream, n: usize) -> Vec<u64> {
    let mut keys = Vec::with_capacity(n);
    for &op in &s.ops[..n.min(s.len())] {
        if op.kind == wire::OP_MGET {
            keys.extend_from_slice(s.mget(op));
        } else {
            keys.push(op.key);
        }
    }
    keys
}

/// `index-api.stream_ns`: walking the pre-generated stream and nothing
/// else. Every replay below pays this too; it bounds the ledger's own
/// error.
pub fn stream_baseline<T: Copy>(l: &mut Ledger<'_>, items: &[T], word: impl Fn(T) -> u64) {
    let ns = l.stage3("ledger.index-api.stream", items.len(), || {
        let mut sum = 0u64;
        for &it in items {
            sum = sum.wrapping_add(word(it));
        }
        black_box(sum);
    });
    l.report.set("index-api.stream_ns", ns);
}

/// Bursts the replays cut the stream into: the closed loop's depth.
const BURST: usize = 32;

/// Replay requests `from..to` against `idx` the way the server's grouped
/// dispatch calls it: bursts of [`BURST`], each under one pin per domain,
/// maximal GET runs through `multi_lookup`, SET runs through
/// `multi_insert`, the rest scalar.
pub fn dispatch_replay(
    idx: &dyn ConcurrentIndex,
    pins: &[ReclaimHandle],
    s: &Stream,
    from: usize,
    to: usize,
) {
    let n = to.min(s.len());
    let mut gets: Vec<u64> = Vec::with_capacity(BURST);
    let mut sets: Vec<(u64, u64)> = Vec::with_capacity(BURST);
    let mut at = from;
    while at < n {
        let end = (at + BURST).min(n);
        let _pins: Vec<_> = pins.iter().map(|h| h.pin()).collect();
        let mut i = at;
        while i < end {
            let op = s.ops[i];
            match op.kind {
                wire::OP_GET => {
                    gets.clear();
                    while i < end && s.ops[i].kind == wire::OP_GET {
                        gets.push(s.ops[i].key);
                        i += 1;
                    }
                    if gets.len() == 1 {
                        black_box(idx.lookup(gets[0]));
                    } else {
                        black_box(idx.multi_lookup(&gets));
                    }
                }
                wire::OP_SET => {
                    sets.clear();
                    while i < end && s.ops[i].kind == wire::OP_SET {
                        sets.push((s.ops[i].key, set_value(i, s.ops[i].key)));
                        i += 1;
                    }
                    if sets.len() == 1 {
                        black_box(idx.insert(sets[0].0, sets[0].1));
                    } else {
                        black_box(idx.multi_insert(&sets));
                    }
                }
                wire::OP_DEL => {
                    black_box(idx.remove(op.key));
                    i += 1;
                }
                _ => {
                    black_box(idx.multi_lookup(s.mget(op)));
                    i += 1;
                }
            }
        }
        at = end;
    }
}

fn pins_of(idx: &dyn ConcurrentIndex) -> Vec<ReclaimHandle> {
    idx.reclaim_handle().into_iter().collect()
}

/// Give `idx` the server's preload: dense keys `0..keys`.
pub fn preload(idx: &impl ConcurrentIndex, keys: u64) {
    for k in 0..keys {
        idx.insert(k, preload_value(k));
    }
}

/// A fresh index holding the server's preload.
pub fn preloaded<I: ConcurrentIndex + Default>(keys: u64) -> I {
    let t = I::default();
    preload(&t, keys);
    t
}

/// `btree.lookup_ns`, `btree.multi_lookup_ns_b32` on `idx` (the served
/// tree itself, idle). Returns the batched figure: the index share of a
/// GET under grouped dispatch.
pub fn btree_reads(l: &mut Ledger<'_>, idx: &dyn ConcurrentIndex, keys: &[u64]) -> f64 {
    let scalar = l.stage3("ledger.btree.lookup", keys.len(), || {
        for &k in keys {
            black_box(idx.lookup(k));
        }
    });
    let pins = pins_of(idx);
    let batched = l.stage3("ledger.btree.multi_lookup_b32", keys.len(), || {
        for chunk in keys.chunks(BURST) {
            let _pins: Vec<_> = pins.iter().map(|h| h.pin()).collect();
            black_box(idx.multi_lookup(chunk));
        }
    });
    l.report.set("btree.lookup_ns", scalar);
    l.report.set("btree.multi_lookup_ns_b32", batched);
    batched
}

/// `btree.insert_ns` and `btree.update_ns`: `writes` (key, value) against
/// a fresh preloaded tree, scalar, one thread.
pub fn btree_writes(l: &mut Ledger<'_>, writes: &[(u64, u64)], keys_preloaded: u64) {
    let t: BTreeOptiQL = preloaded(keys_preloaded);
    let insert = l.stage("ledger.btree.insert", writes.len(), || {
        for &(k, v) in writes {
            black_box(t.insert(k, v));
        }
    });
    // Every key written is present now: pure updates.
    let update = l.stage("ledger.btree.update", writes.len(), || {
        for &(k, v) in writes {
            black_box(t.update(k, v));
        }
    });
    l.report.set("btree.insert_ns", insert);
    l.report.set("btree.update_ns", update);
}

/// What the WAL stages found, in ns per SET.
pub struct WalShares {
    pub index_ns: f64,
    pub append_ns: f64,
    pub fsync_us: f64,
}

/// `wal.append_ns_per_op` and `wal.fsync_us`: the SET stream through
/// grouped dispatch against a bare tree, the same tree behind
/// `DurableIndex` that never syncs, and behind one that commits every
/// `commit_every` requests as a server round does.
pub fn wal(
    l: &mut Ledger<'_>,
    s: &Stream,
    n: usize,
    n_sync: usize,
    commit_every: usize,
    keys_preloaded: u64,
    dir: &Path,
) -> std::io::Result<WalShares> {
    let n = n.min(s.len());
    let bare: BTreeOptiQL = preloaded(keys_preloaded);
    let bare_ns = l.stage("ledger.wal.bare", n, || {
        dispatch_replay(&bare, &pins_of(&bare), s, 0, n);
    });
    drop(bare);

    let mount = |policy: FsyncPolicy,
                 sub: &str|
     -> std::io::Result<(DurableIndex<BTreeOptiQL>, Arc<Wal>)> {
        let wal = Arc::new(Wal::open(WalConfig {
            policy,
            ..WalConfig::new(dir.join(sub))
        })?);
        Ok((
            DurableIndex::new(preloaded(keys_preloaded), Arc::clone(&wal)),
            wal,
        ))
    };

    let (none, _) = mount(FsyncPolicy::None, "ledger-none")?;
    let none_ns = l.stage("ledger.wal.none", n, || {
        dispatch_replay(&none, &pins_of(&none), s, 0, n);
    });
    drop(none);

    let n_sync = n_sync.min(n);
    let (group, wal) = mount(FsyncPolicy::Group, "ledger-group")?;
    let pins = pins_of(&group);
    let group_ns = l.stage("ledger.wal.group", n_sync, || {
        let mut at = 0;
        while at < n_sync {
            let end = (at + commit_every).min(n_sync);
            dispatch_replay(&group, &pins, s, at, end);
            group.commit();
            at = end;
        }
    });
    let fsyncs = wal.stats().fsyncs.max(1);
    let fsync_us = ((group_ns - none_ns) * n_sync as f64 / fsyncs as f64 / 1e3).max(0.0);
    let append_ns = (none_ns - bare_ns).max(0.0);
    l.report.set("wal.append_ns_per_op", append_ns);
    l.report.set("wal.fsync_us", fsync_us);
    Ok(WalShares {
        index_ns: bare_ns,
        append_ns,
        fsync_us,
    })
}

/// `art.*` and `sharded.*`: the stream's keys against a bare ART and a
/// two-shard facade over ARTs, both holding the preload. Returns the
/// facade's grouped-dispatch cost per index operation: the index share
/// of the mixed workload.
pub fn art_and_sharded(
    l: &mut Ledger<'_>,
    s: &Stream,
    n: usize,
    keys_preloaded: u64,
    shards: usize,
) -> f64 {
    let n = n.min(s.len());
    let bare: ArtOptiQL = preloaded(keys_preloaded);
    let sharded: ShardedIndex<ArtOptiQL> = ShardedIndex::new(shards);
    preload(&sharded, keys_preloaded);
    let keys = keys_of(s, n);
    let lookup = |idx: &dyn ConcurrentIndex| {
        for &k in &keys {
            black_box(idx.lookup(k));
        }
    };
    let multi8 = |idx: &dyn ConcurrentIndex| {
        for chunk in keys.chunks(MGET_KEYS) {
            black_box(idx.multi_lookup(chunk));
        }
    };
    let art_lookup = l.stage3("ledger.art.lookup", keys.len(), || lookup(&bare));
    let sh_lookup = l.stage3("ledger.sharded.lookup", keys.len(), || lookup(&sharded));
    let art_multi = l.stage3("ledger.art.multi_lookup_b8", keys.len(), || multi8(&bare));
    let sh_multi = l.stage3("ledger.sharded.multi_lookup_b8", keys.len(), || {
        multi8(&sharded)
    });

    // Writes: the stream's own SET and DEL keys, then put back what the
    // removes took so the next stage sees the preload again.
    let sets: Vec<(usize, u64)> = (0..n)
        .filter(|&p| s.ops[p].kind == wire::OP_SET)
        .map(|p| (p, s.ops[p].key))
        .collect();
    let dels: Vec<u64> = s.ops[..n]
        .iter()
        .filter(|o| o.kind == wire::OP_DEL)
        .map(|o| o.key)
        .collect();
    let insert = l.stage("ledger.art.insert", sets.len(), || {
        for &(pos, k) in &sets {
            black_box(bare.insert(k, set_value(pos, k)));
        }
    });
    let remove = l.stage("ledger.art.remove", dels.len(), || {
        for &k in &dels {
            black_box(bare.remove(k));
        }
    });

    let mut pins = Vec::new();
    sharded.for_each_shard(|_, sh| pins.extend(sh.reclaim_handle()));
    let ops = index_ops(s, n);
    let dispatch = l.stage("ledger.sharded.dispatch", ops, || {
        dispatch_replay(&sharded, &pins, s, 0, n);
    });

    l.report.set("art.lookup_ns", art_lookup);
    l.report.set("art.multi_lookup_ns_b8", art_multi);
    l.report.set("art.insert_ns", insert);
    l.report.set("art.remove_ns", remove);
    l.report
        .set("sharded.route_ns_per_op", (sh_lookup - art_lookup).max(0.0));
    l.report
        .set("sharded.multi_ns_per_op", (sh_multi - art_multi).max(0.0));
    dispatch
}

const LOCK_ROUNDS: usize = 2_000_000;

/// `core.optiql_xlock_ns`, `core.optiql_read_validate_ns`,
/// `reclaim.pin_unpin_ns`: the primitives every index operation pays,
/// uncontended, on one thread.
pub fn primitives(l: &mut Ledger<'_>) {
    let lock = OptiQL::default();
    let xlock = l.stage3("ledger.core.xlock", LOCK_ROUNDS, || {
        for _ in 0..LOCK_ROUNDS {
            let t = optiql::ExclusiveLock::x_lock(black_box(&lock));
            optiql::ExclusiveLock::x_unlock(&lock, t);
        }
    });
    let read = l.stage3("ledger.core.read_validate", LOCK_ROUNDS, || {
        for _ in 0..LOCK_ROUNDS {
            let v = black_box(&lock).r_lock().expect("no writer holds the lock");
            black_box(lock.r_unlock(v));
        }
    });
    let collector = Collector::new();
    let pin = l.stage3("ledger.reclaim.pin_unpin", LOCK_ROUNDS, || {
        for _ in 0..LOCK_ROUNDS {
            drop(black_box(collector.pin()));
        }
    });
    l.report.set("core.optiql_xlock_ns", xlock);
    l.report.set("core.optiql_read_validate_ns", read);
    l.report.set("reclaim.pin_unpin_ns", pin);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Sampler};
    use crate::stream::Mix;
    use optiql_index_api::model::ModelIndex;

    #[test]
    fn dispatch_replay_leaves_the_state_a_scalar_replay_leaves() {
        let keys = 2_000u64;
        let sampler = Sampler::scrambled_zipf(keys, 0.99);
        let mix = Mix {
            mget: 10,
            set: 15,
            del: 5,
        };
        let s = Stream::generate(Rng::new(5, 0), 5_000, &sampler, keys, mix, 0, 1);
        let (a, b): (ModelIndex, ModelIndex) = (ModelIndex::new(), ModelIndex::new());
        for k in 0..keys {
            a.insert(k, preload_value(k));
            b.insert(k, preload_value(k));
        }
        dispatch_replay(&a, &[], &s, 0, s.len());
        for (pos, op) in s.ops.iter().enumerate() {
            match op.kind {
                wire::OP_SET => drop(b.insert(op.key, set_value(pos, op.key))),
                wire::OP_DEL => drop(b.remove(op.key)),
                _ => {}
            }
        }
        assert_eq!(a.scan(0, usize::MAX), b.scan(0, usize::MAX));
        assert_eq!(index_ops(&s, s.len()), keys_of(&s, s.len()).len());
    }

    #[test]
    fn proto_stage_reports_the_frame_sizes() {
        let sampler = Sampler::uniform(100);
        let s = Stream::generate(Rng::new(1, 0), 64, &sampler, 100, Mix::GET_ONLY, 0, 1);
        let mut report = Report::default();
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut l = Ledger {
            tracer: &mut tracer,
            root: 0,
            report: &mut report,
        };
        let share = proto(&mut l, &s, 64, 32);
        assert!(share > 0.0);
        // GET is 13 bytes on the wire, its VALUE reply 14.
        assert_eq!(report.get("proto.bytes_per_req"), Some(27.0));
        assert_eq!(tracer.spans.len(), 12, "four stages, three runs each");
    }
}

//! Request streams generated from the seed during set-up, and the model
//! that says what each reply must be.
//!
//! A stream is a ring: a connection walks it from position 0 and wraps.
//! Request bytes are encoded here, once, so the timed path only copies
//! them into a socket.
//!
//! Writes are deterministic without any cross-connection ordering: a
//! connection only ever writes keys of its own residue class
//! (`key % connections == connection`), and the server executes one
//! connection's requests in order, so the owner's model of an owned key
//! is exact. Keys owned by another connection are checked more weakly:
//! absent, or a value some writer could have stored there.

use std::collections::VecDeque;

use crate::rng::{Rng, Sampler};
use crate::wire::{self, Reply};

/// Keys per MGET request.
pub const MGET_KEYS: usize = 8;

/// One request of a stream. For an MGET, `key` is the index of its first
/// key in [`Stream::mget_keys`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: u8,
    pub key: u64,
}

/// Request mix in percent; the rest are GETs.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub mget: u8,
    pub set: u8,
    pub del: u8,
}

impl Mix {
    pub const GET_ONLY: Mix = Mix {
        mget: 0,
        set: 0,
        del: 0,
    };
    pub const SET_ONLY: Mix = Mix {
        mget: 0,
        set: 100,
        del: 0,
    };
}

/// The value every key holds after the server's preload.
pub fn preload_value(key: u64) -> u64 {
    key + 1
}

/// The value the SET at ring position `pos` stores: the preload value in
/// the low half, so any reader can tell it belongs to `key`, and the
/// position in the high half, so successive writes differ.
pub fn set_value(pos: usize, key: u64) -> u64 {
    ((pos as u64 + 1) << 32) | (preload_value(key) & 0xFFFF_FFFF)
}

/// Could some request of this benchmark have stored `v` under `key`?
pub fn plausible(key: u64, v: u64) -> bool {
    v & 0xFFFF_FFFF == preload_value(key) & 0xFFFF_FFFF
}

pub struct Stream {
    pub ops: Vec<Op>,
    pub mget_keys: Vec<u64>,
    /// All request frames, back to back.
    pub bytes: Vec<u8>,
    /// `offsets[i]..offsets[i + 1]` is request `i` in `bytes`.
    pub offsets: Vec<u32>,
}

impl Stream {
    /// `len` requests for connection `conn` of `nconn`, keys drawn with
    /// `rng` from `sampler` over `0..keys`. SET and DEL keys are moved
    /// into the connection's residue class.
    pub fn generate(
        mut rng: Rng,
        len: usize,
        sampler: &Sampler,
        keys: u64,
        mix: Mix,
        conn: usize,
        nconn: usize,
    ) -> Stream {
        assert!(
            keys >= nconn as u64 && keys < 1 << 32,
            "values keep keys in 32 bits"
        );
        let own = |k: u64| {
            let k = k - k % nconn as u64 + conn as u64;
            if k >= keys {
                k - nconn as u64
            } else {
                k
            }
        };
        let mut s = Stream {
            ops: Vec::with_capacity(len),
            mget_keys: Vec::new(),
            bytes: Vec::with_capacity(len * 16),
            offsets: Vec::with_capacity(len + 1),
        };
        s.offsets.push(0);
        for pos in 0..len {
            let roll = rng.below(100) as u8;
            let op = if roll < mix.set {
                let key = own(sampler.key(&mut rng));
                wire::put_set(&mut s.bytes, key, set_value(pos, key));
                Op {
                    kind: wire::OP_SET,
                    key,
                }
            } else if roll < mix.set + mix.del {
                let key = own(sampler.key(&mut rng));
                wire::put_del(&mut s.bytes, key);
                Op {
                    kind: wire::OP_DEL,
                    key,
                }
            } else if roll < mix.set + mix.del + mix.mget {
                let at = s.mget_keys.len();
                for _ in 0..MGET_KEYS {
                    s.mget_keys.push(sampler.key(&mut rng));
                }
                wire::put_mget(&mut s.bytes, &s.mget_keys[at..]);
                Op {
                    kind: wire::OP_MGET,
                    key: at as u64,
                }
            } else {
                let key = sampler.key(&mut rng);
                wire::put_get(&mut s.bytes, key);
                Op {
                    kind: wire::OP_GET,
                    key,
                }
            };
            s.ops.push(op);
            s.offsets
                .push(u32::try_from(s.bytes.len()).expect("stream under 4 GiB"));
        }
        s
    }

    /// One GET per key, in order: the read-back after a restart.
    pub fn gets(keys: impl Iterator<Item = u64>) -> Stream {
        let mut s = Stream {
            ops: Vec::new(),
            mget_keys: Vec::new(),
            bytes: Vec::new(),
            offsets: vec![0],
        };
        for key in keys {
            wire::put_get(&mut s.bytes, key);
            s.ops.push(Op {
                kind: wire::OP_GET,
                key,
            });
            s.offsets
                .push(u32::try_from(s.bytes.len()).expect("stream under 4 GiB"));
        }
        s
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Index operations request `pos` performs.
    pub fn index_ops(&self, pos: usize) -> u64 {
        if self.ops[pos].kind == wire::OP_MGET {
            MGET_KEYS as u64
        } else {
            1
        }
    }

    pub fn mget(&self, op: Op) -> &[u64] {
        &self.mget_keys[op.key as usize..op.key as usize + MGET_KEYS]
    }
}

/// What a reply must look like, fixed when its request is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// GET of a key whose value this connection knows exactly.
    Value(Option<u64>),
    /// GET of a key another connection may be writing.
    Foreign(u64),
    /// SET or DEL of an owned key: the previous value.
    Old(Option<u64>),
    /// An MGET; the next [`MGET_KEYS`] entries are its keys' expectations.
    MGet,
}

/// One connection's view of the store.
pub struct Model {
    conn: u64,
    nconn: u64,
    preloaded: u64,
    /// Whether any connection of the workload writes. Without writers
    /// every key keeps its preload value and `vals` stays empty.
    writers: bool,
    /// Current value of owned key `k` at `k / nconn`; 0 is absent.
    vals: Vec<u64>,
    /// Test hook: corrupt the expectation of this many requests from now.
    corrupt_in: Option<u64>,
}

impl Model {
    pub fn new(conn: usize, nconn: usize, keys: u64, preloaded: u64, writers: bool) -> Model {
        let (conn, nconn) = (conn as u64, nconn as u64);
        let vals = if writers {
            (0..keys.div_ceil(nconn))
                .map(|i| {
                    let k = i * nconn + conn;
                    if k < preloaded {
                        preload_value(k)
                    } else {
                        0
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        Model {
            conn,
            nconn,
            preloaded,
            writers,
            vals,
            corrupt_in: None,
        }
    }

    /// Make the expectation of the `n`-th request from now wrong, so a
    /// run can show that a wrong value fails the benchmark.
    pub fn corrupt_in(&mut self, n: u64) {
        self.corrupt_in = Some(n);
    }

    fn owns(&self, key: u64) -> bool {
        key % self.nconn == self.conn
    }

    fn current(&self, key: u64) -> Option<u64> {
        if self.writers {
            let v = self.vals[(key / self.nconn) as usize];
            (v != 0).then_some(v)
        } else {
            (key < self.preloaded).then(|| preload_value(key))
        }
    }

    fn read(&self, key: u64) -> Expect {
        if !self.writers || self.owns(key) {
            Expect::Value(self.current(key))
        } else {
            Expect::Foreign(key)
        }
    }

    /// Queue the expectation for the request at `pos` and apply it to the
    /// model. Call in send order.
    pub fn send(&mut self, stream: &Stream, pos: usize, out: &mut VecDeque<Expect>) {
        let op = stream.ops[pos];
        let mut e = match op.kind {
            wire::OP_GET => self.read(op.key),
            wire::OP_SET | wire::OP_DEL => {
                debug_assert!(self.owns(op.key));
                let old = self.current(op.key);
                self.vals[(op.key / self.nconn) as usize] = if op.kind == wire::OP_SET {
                    set_value(pos, op.key)
                } else {
                    0
                };
                Expect::Old(old)
            }
            _ => {
                out.push_back(Expect::MGet);
                for &k in stream.mget(op) {
                    out.push_back(self.read(k));
                }
                return;
            }
        };
        if let Some(n) = self.corrupt_in.as_mut() {
            match (*n, e) {
                // Stays armed over a foreign-key GET, which has no exact
                // value to spoil.
                (0, Expect::Value(v) | Expect::Old(v)) => {
                    self.corrupt_in = None;
                    e = Expect::Value(Some(v.unwrap_or(0) ^ 1));
                }
                (0, _) => {}
                _ => *n -= 1,
            }
        }
        out.push_back(e);
    }

    /// Every owned key with its final value (`None` = absent), for the
    /// read-back after a restart.
    pub fn owned(&self) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as u64 * self.nconn + self.conn, (v != 0).then_some(v)))
    }
}

fn read_ok(e: Expect, got: Option<u64>) -> bool {
    match e {
        Expect::Value(want) => got == want,
        Expect::Foreign(key) => got.is_none_or(|v| plausible(key, v)),
        _ => false,
    }
}

/// Check `reply` against the head of `expects`, consuming what belongs
/// to it. `false` is a failed request.
pub fn check(reply: &Reply<'_>, expects: &mut VecDeque<Expect>) -> bool {
    let Some(head) = expects.pop_front() else {
        return false;
    };
    if head == Expect::MGet {
        let mut ok = matches!(reply, Reply::MValues(b) if wire::mvalues_len(b) == MGET_KEYS);
        for i in 0..MGET_KEYS {
            let e = expects
                .pop_front()
                .expect("MGET expectations are queued whole");
            if let (true, Reply::MValues(b)) = (ok, reply) {
                ok = read_ok(e, wire::mvalue(b, i));
            }
        }
        return ok;
    }
    match (head, reply) {
        (Expect::Old(want), Reply::Old(got)) => *got == want,
        (e, Reply::Value(got)) => read_ok(e, *got),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const KEYS: u64 = 10_000;
    const MIX: Mix = Mix {
        mget: 10,
        set: 15,
        del: 5,
    };

    fn streams(seed: u64) -> Vec<Stream> {
        let s = Sampler::scrambled_zipf(KEYS, 0.99);
        (0..2)
            .map(|c| Stream::generate(Rng::new(seed, 100 + c as u64), 20_000, &s, KEYS, MIX, c, 2))
            .collect()
    }

    /// Apply one op to a plain map, as the server would.
    fn apply(store: &mut BTreeMap<u64, u64>, s: &Stream, pos: usize) {
        let op = s.ops[pos];
        match op.kind {
            wire::OP_SET => {
                store.insert(op.key, set_value(pos, op.key));
            }
            wire::OP_DEL => {
                store.remove(&op.key);
            }
            _ => {}
        }
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let (a, b, c) = (streams(1), streams(1), streams(2));
        assert_eq!(a[0].ops, b[0].ops);
        assert_eq!(a[0].bytes, b[0].bytes);
        assert_ne!(a[0].ops, c[0].ops);
        assert_ne!(a[0].ops, a[1].ops, "connections draw different streams");
    }

    #[test]
    fn mix_is_close_to_what_was_asked() {
        let s = &streams(3)[0];
        let share = |k: u8| s.ops.iter().filter(|o| o.kind == k).count() as f64 / s.len() as f64;
        assert!((share(wire::OP_SET) - 0.15).abs() < 0.01);
        assert!((share(wire::OP_DEL) - 0.05).abs() < 0.01);
        assert!((share(wire::OP_MGET) - 0.10).abs() < 0.01);
        assert!((share(wire::OP_GET) - 0.70).abs() < 0.015);
    }

    #[test]
    fn residue_class_ownership_makes_the_final_state_deterministic() {
        let ss = streams(4);
        for (c, s) in ss.iter().enumerate() {
            for op in &s.ops {
                if matches!(op.kind, wire::OP_SET | wire::OP_DEL) {
                    assert_eq!(op.key % 2, c as u64, "connection {c} wrote a foreign key");
                    assert!(op.key < KEYS);
                }
            }
        }
        let preload: BTreeMap<u64, u64> = (0..KEYS).map(|k| (k, preload_value(k))).collect();
        // Three server-side interleavings of the two connections.
        let mut one_then_other = preload.clone();
        for s in &ss {
            for pos in 0..s.len() {
                apply(&mut one_then_other, s, pos);
            }
        }
        let mut other_then_one = preload.clone();
        for s in ss.iter().rev() {
            for pos in 0..s.len() {
                apply(&mut other_then_one, s, pos);
            }
        }
        let mut alternating = preload.clone();
        for pos in 0..ss[0].len() {
            apply(&mut alternating, &ss[0], pos);
            apply(&mut alternating, &ss[1], pos);
        }
        assert_eq!(one_then_other, other_then_one);
        assert_eq!(one_then_other, alternating);
        // And the per-connection models, which never see each other,
        // add up to that state.
        let mut from_models = BTreeMap::new();
        for (c, s) in ss.iter().enumerate() {
            let mut m = Model::new(c, 2, KEYS, KEYS, true);
            let mut q = VecDeque::new();
            for pos in 0..s.len() {
                m.send(s, pos, &mut q);
            }
            from_models.extend(m.owned().filter_map(|(k, v)| v.map(|v| (k, v))));
        }
        assert_eq!(from_models, alternating);
    }

    #[test]
    fn check_accepts_right_replies_and_rejects_wrong_ones() {
        let sampler = Sampler::uniform(100);
        let s = Stream::generate(Rng::new(9, 0), 200, &sampler, 100, MIX, 0, 2);
        let mut m = Model::new(0, 2, 100, 100, true);
        let mut store: BTreeMap<u64, u64> = (0..100).map(|k| (k, preload_value(k))).collect();
        let mut q = VecDeque::new();
        for pos in 0..s.len() {
            m.send(&s, pos, &mut q);
            let op = s.ops[pos];
            // The reply a correct single-connection server would give.
            let mut body = Vec::new();
            let reply = match op.kind {
                wire::OP_GET => Reply::Value(store.get(&op.key).copied()),
                wire::OP_SET => Reply::Old(store.insert(op.key, set_value(pos, op.key))),
                wire::OP_DEL => Reply::Old(store.remove(&op.key)),
                _ => {
                    for k in s.mget(op) {
                        let v = store.get(k).copied();
                        body.push(u8::from(v.is_some()));
                        body.extend_from_slice(&v.unwrap_or(0).to_le_bytes());
                    }
                    Reply::MValues(&body)
                }
            };
            assert!(check(&reply, &mut q), "pos {pos} {op:?}");
            assert!(q.is_empty());
        }
        // Wrong value, wrong shape, wrong arity, ERR.
        let mut m = Model::new(0, 1, 100, 100, false);
        let gets = Stream::generate(Rng::new(9, 0), 4, &sampler, 100, Mix::GET_ONLY, 0, 1);
        for (pos, bad) in [
            Reply::Value(Some(0)),
            Reply::Value(None),
            Reply::Old(Some(preload_value(gets.ops[2].key))),
            Reply::Bad,
        ]
        .iter()
        .enumerate()
        {
            m.send(&gets, pos, &mut q);
            assert!(!check(bad, &mut q), "{bad:?} must fail");
        }
        let mgets = Stream::generate(
            Rng::new(9, 0),
            1,
            &sampler,
            100,
            Mix {
                mget: 100,
                set: 0,
                del: 0,
            },
            0,
            1,
        );
        m.send(&mgets, 0, &mut q);
        assert!(
            !check(&Reply::MValues(&[0u8; 9 * 7]), &mut q),
            "7 of 8 values"
        );
        assert!(
            q.is_empty(),
            "a failed MGET still consumes its expectations"
        );
    }

    #[test]
    fn corrupt_hook_fails_exactly_one_request() {
        let sampler = Sampler::uniform(100);
        let s = Stream::generate(Rng::new(1, 0), 10, &sampler, 100, Mix::GET_ONLY, 0, 1);
        let mut m = Model::new(0, 1, 100, 100, false);
        m.corrupt_in(3);
        let mut q = VecDeque::new();
        let mut bad = Vec::new();
        for pos in 0..s.len() {
            m.send(&s, pos, &mut q);
            if !check(&Reply::Value(Some(preload_value(s.ops[pos].key))), &mut q) {
                bad.push(pos);
            }
        }
        assert_eq!(bad, [3]);
    }

    #[test]
    fn foreign_keys_accept_any_plausible_value() {
        assert!(plausible(5, preload_value(5)));
        assert!(plausible(5, set_value(77, 5)));
        assert!(!plausible(5, set_value(77, 6)));
        assert!(read_ok(Expect::Foreign(5), None));
        assert!(!read_ok(Expect::Foreign(5), Some(1)));
    }
}

//! Invoke/return history recording for [`ConcurrentIndex`] operations.
//!
//! Linearizability checking needs, for every completed operation, the
//! *real-time window* `[invoke, return]` within which its linearization
//! point must fall. This module produces those windows with as little
//! probe effect as the property allows:
//!
//! * **One global tick counter** ([`Recorder`]) stamps invocations and
//!   returns. A single `fetch_add` per boundary is the minimum that
//!   still yields a sound real-time order: ticks are unique and two
//!   non-overlapping operations always observe `a.ret < b.invoke`.
//! * **Per-thread epochs**: each worker owns its own
//!   [`ThreadRecorder`], so log appends touch only thread-local memory
//!   (the `Mutex` inside exists solely to satisfy the trait's `&self`
//!   signature — it is never contended). Logs are merged after the
//!   workers join.
//! * **Per-key partitioning**: [`partition_by_key`] splits the merged
//!   log into independent single-register histories, which is what keeps
//!   checking cheap — the Wing–Gong search runs per key over dozens of
//!   events, never over the full run.
//!
//! Range scans and `len` are deliberately *not* recorded: they are not
//! per-key register operations, so the checker cannot judge them (the
//! dedicated scan-bounds tests cover them instead). They still execute —
//! and still perturb the schedule — when a workload issues them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use optiql_index_api::ConcurrentIndex;

/// A recorded operation kind, with the value argument where there is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `insert(key, v)` — upsert; returns the previous value.
    Insert(u64),
    /// `update(key, v)` — write only if present; returns the previous
    /// value (`None` means "was absent, did nothing").
    Update(u64),
    /// `remove(key)` — returns the removed value.
    Remove,
    /// `lookup(key)` — returns the current value.
    Lookup,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Insert(v) => write!(f, "insert({v})"),
            Op::Update(v) => write!(f, "update({v})"),
            Op::Remove => write!(f, "remove"),
            Op::Lookup => write!(f, "lookup"),
        }
    }
}

/// One completed operation: what ran, what it observed, and the tick
/// window it ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistEvent {
    /// Worker slot that issued the operation.
    pub thread: u32,
    /// Key the operation targeted.
    pub key: u64,
    /// Operation kind and argument.
    pub op: Op,
    /// The `Option<u64>` the index returned.
    pub out: Option<u64>,
    /// Global tick taken immediately before the call.
    pub invoke: u64,
    /// Global tick taken immediately after the return.
    pub ret: u64,
}

impl std::fmt::Display for HistEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>6}..{:<6}] t{} key {} {} -> {:?}",
            self.invoke, self.ret, self.thread, self.key, self.op, self.out
        )
    }
}

/// The shared tick source for one recorded run.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
}

impl Recorder {
    /// A fresh recorder with the clock at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder::default())
    }

    /// Next unique tick. `SeqCst` so the tick cannot be reordered with
    /// the operation it brackets.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Ticks issued so far.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }
}

/// A per-worker recording wrapper: every [`ConcurrentIndex`] call on it
/// is forwarded to `inner` and logged with its invoke/return ticks.
///
/// One instance per worker thread; call [`into_log`](Self::into_log)
/// after joining to harvest that worker's epoch of events.
pub struct ThreadRecorder<I> {
    inner: I,
    recorder: Arc<Recorder>,
    thread: u32,
    log: Mutex<Vec<HistEvent>>,
}

impl<I: ConcurrentIndex> ThreadRecorder<I> {
    /// Wrap `inner` for worker `thread`, stamping ticks from `recorder`.
    pub fn new(inner: I, recorder: Arc<Recorder>, thread: u32) -> Self {
        ThreadRecorder {
            inner,
            recorder,
            thread,
            log: Mutex::new(Vec::new()),
        }
    }

    /// This worker's recorded epoch, in issue order.
    pub fn into_log(self) -> Vec<HistEvent> {
        self.log.into_inner().unwrap()
    }

    #[inline]
    fn record(&self, key: u64, op: Op, out: Option<u64>, invoke: u64, ret: u64) {
        self.log.lock().unwrap().push(HistEvent {
            thread: self.thread,
            key,
            op,
            out,
            invoke,
            ret,
        });
    }

    #[inline]
    fn run_one(&self, key: u64, op: Op, f: impl FnOnce(&I) -> Option<u64>) -> Option<u64> {
        let invoke = self.recorder.tick();
        let out = f(&self.inner);
        let ret = self.recorder.tick();
        self.record(key, op, out, invoke, ret);
        out
    }
}

impl<I: ConcurrentIndex> ConcurrentIndex for ThreadRecorder<I> {
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.run_one(k, Op::Insert(v), |i| i.insert(k, v))
    }
    fn update(&self, k: u64, v: u64) -> Option<u64> {
        self.run_one(k, Op::Update(v), |i| i.update(k, v))
    }
    fn lookup(&self, k: u64) -> Option<u64> {
        self.run_one(k, Op::Lookup, |i| i.lookup(k))
    }
    fn remove(&self, k: u64) -> Option<u64> {
        self.run_one(k, Op::Remove, |i| i.remove(k))
    }
    /// Not recorded (not a per-key register op); still forwarded.
    fn scan_chunk(
        &self,
        from: Option<u64>,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<u64> {
        self.inner.scan_chunk(from, limit, out)
    }
    /// Not recorded, like `scan_chunk`: the per-key checker cannot judge
    /// multi-key reads, and the differential range tests cover them. The
    /// stream still executes — and still perturbs the schedule — when a
    /// chaos workload drives it.
    fn range(
        &self,
        start: std::ops::Bound<u64>,
        end: std::ops::Bound<u64>,
    ) -> optiql_index_api::RangeIter<'_> {
        self.inner.range(start, end)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn index_stats(&self) -> optiql_index_api::IndexStats {
        self.inner.index_stats()
    }
    /// Each constituent lookup is recorded with the whole batch's tick
    /// window: its linearization point provably lies inside the batch's
    /// execution, so the wider window is sound (never rejects a correct
    /// run) while still ordering the batch against non-overlapping ops.
    fn multi_lookup(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let invoke = self.recorder.tick();
        let out = self.inner.multi_lookup(keys);
        let ret = self.recorder.tick();
        for (&k, &o) in keys.iter().zip(out.iter()) {
            self.record(k, Op::Lookup, o, invoke, ret);
        }
        out
    }
    /// As [`multi_lookup`](Self::multi_lookup): per-element events
    /// sharing the batch window. Duplicate keys inside one batch yield
    /// same-window events whose observed results force the checker to
    /// order them correctly.
    fn multi_insert(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let invoke = self.recorder.tick();
        let out = self.inner.multi_insert(pairs);
        let ret = self.recorder.tick();
        for (&(k, v), &o) in pairs.iter().zip(out.iter()) {
            self.record(k, Op::Insert(v), o, invoke, ret);
        }
        out
    }
}

/// Merge per-thread epochs and split them into per-key histories, each
/// sorted by invoke tick (the order the checker expects).
pub fn partition_by_key(logs: Vec<Vec<HistEvent>>) -> Vec<(u64, Vec<HistEvent>)> {
    let mut map: std::collections::HashMap<u64, Vec<HistEvent>> = std::collections::HashMap::new();
    for log in logs {
        for e in log {
            map.entry(e.key).or_default().push(e);
        }
    }
    let mut keys: Vec<(u64, Vec<HistEvent>)> = map.into_iter().collect();
    for (_, h) in keys.iter_mut() {
        h.sort_by_key(|e| e.invoke);
    }
    keys.sort_by_key(|(k, _)| *k);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiql_index_api::model::ModelIndex;

    #[test]
    fn windows_nest_and_ticks_are_unique() {
        let rec = Recorder::new();
        let tr = ThreadRecorder::new(ModelIndex::new(), Arc::clone(&rec), 0);
        assert_eq!(tr.insert(1, 10), None);
        assert_eq!(tr.lookup(1), Some(10));
        assert_eq!(tr.remove(1), Some(10));
        assert_eq!(tr.update(1, 11), None);
        let log = tr.into_log();
        assert_eq!(log.len(), 4);
        let mut ticks: Vec<u64> = log.iter().flat_map(|e| [e.invoke, e.ret]).collect();
        ticks.sort_unstable();
        ticks.dedup();
        assert_eq!(ticks.len(), 8, "every tick unique");
        for w in log.windows(2) {
            assert!(w[0].ret < w[1].invoke, "same-thread ops never overlap");
        }
    }

    #[test]
    fn multi_ops_share_one_window() {
        let rec = Recorder::new();
        let tr = ThreadRecorder::new(ModelIndex::new(), Arc::clone(&rec), 3);
        tr.multi_insert(&[(1, 10), (2, 20), (1, 11)]);
        let got = tr.multi_lookup(&[2, 1]);
        assert_eq!(got, vec![Some(20), Some(11)]);
        let log = tr.into_log();
        assert_eq!(log.len(), 5);
        assert!(log[..3].iter().all(|e| e.invoke == log[0].invoke));
        assert!(log[3..].iter().all(|e| e.invoke == log[3].invoke));
        assert_eq!(log[2].out, Some(10), "in-batch duplicate saw first write");
    }

    #[test]
    fn partition_groups_and_sorts() {
        let rec = Recorder::new();
        let a = ThreadRecorder::new(ModelIndex::new(), Arc::clone(&rec), 0);
        a.insert(7, 1);
        a.insert(9, 2);
        a.lookup(7);
        let log_a = a.into_log();
        let keys = partition_by_key(vec![log_a]);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, 7);
        assert_eq!(keys[0].1.len(), 2);
        assert!(keys[0].1[0].invoke < keys[0].1[1].invoke);
        assert_eq!(keys[1].0, 9);
    }
}

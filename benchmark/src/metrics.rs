//! Every metric the benchmark reports, under the names `BENCHMARK.json`
//! lists, and the report one run produces.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The gated metrics: every workload reports every one of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_bytes_per_key",
        unit: "B/key",
        better: Better::Lower,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The ledger: per-layer metrics of the traced run. A workload that
/// bypasses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[PerLayer] = &[
    // The benchmark's own driver. The first eight are end-to-end
    // numbers that cannot be gated by a relative bound: 0 or constant
    // when all is well, measured on one workload only, or (the tails)
    // not repeatable on a shared host. README has the measured spreads.
    layer("client.fail_ratio", "ratio", Lower),
    layer("client.p99_us", "us", Lower),
    layer("client.recovery_s", "s", Lower),
    layer("client.log_bytes_per_user_byte", "ratio", Lower),
    layer("client.open_p99_us_r1", "us", Lower),
    layer("client.open_p99_us_r2", "us", Lower),
    layer("client.open_p99_us_r3", "us", Lower),
    layer("client.max_rate_ok", "req/s", Higher),
    layer("client.p999_us", "us", Lower),
    layer("client.gen_late_p99_us", "us", Lower),
    layer("client.backlog_max", "count", Lower),
    layer("proto.encode_req_ns", "ns/req", Lower),
    layer("proto.decode_req_ns", "ns/req", Lower),
    layer("proto.encode_resp_ns", "ns/req", Lower),
    layer("proto.decode_resp_ns", "ns/req", Lower),
    layer("proto.bytes_per_req", "B/req", Lower),
    layer("server.self_ns_per_op", "ns/op", Lower),
    layer("server.proto_share_ns", "ns/op", Lower),
    layer("server.index_share_ns", "ns/op", Lower),
    layer("server.wal_share_ns", "ns/op", Lower),
    layer("server.group_mean", "req/group", Higher),
    layer("server.batched_frac", "ratio", Higher),
    layer("server.proto_errors", "count", Lower),
    layer("wal.append_ns_per_op", "ns/op", Lower),
    layer("wal.fsync_us", "us", Lower),
    layer("wal.fsyncs_per_req", "ratio", Lower),
    layer("wal.bytes_per_record", "B", Lower),
    layer("wal.recover_records_per_s", "1/s", Higher),
    layer("sharded.route_ns_per_op", "ns/op", Lower),
    layer("sharded.multi_ns_per_op", "ns/op", Lower),
    layer("btree.lookup_ns", "ns/op", Lower),
    layer("btree.multi_lookup_ns_b32", "ns/op", Lower),
    layer("btree.update_ns", "ns/op", Lower),
    layer("btree.insert_ns", "ns/op", Lower),
    layer("btree.restarts_per_op", "ratio", Lower),
    layer("btree.escalations_per_op", "ratio", Lower),
    layer("art.lookup_ns", "ns/op", Lower),
    layer("art.multi_lookup_ns_b8", "ns/op", Lower),
    layer("art.insert_ns", "ns/op", Lower),
    layer("art.remove_ns", "ns/op", Lower),
    layer("art.restarts_per_op", "ratio", Lower),
    layer("core.optiql_xlock_ns", "ns", Lower),
    layer("core.optiql_read_validate_ns", "ns", Lower),
    layer("core.optiql_vs_optlock", "ratio", Higher),
    layer("reclaim.pin_unpin_ns", "ns", Lower),
    layer("reclaim.deferred_peak", "count", Lower),
    layer("index-api.stream_ns", "ns/op", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve-get",
        "loopback TCP, B+-tree of 4M keys, 2 conns x depth 32, 100% GET uniform: codec, grouped dispatch and multi_lookup do the work; WAL, sharding, ART and lock contention are bypassed",
    ),
    (
        "serve-set-durable",
        "loopback TCP, B+-tree behind a group-commit WAL, fixed count of uniform SETs, then restart and read back every acked key: log append and fsync dominate, the tree does little",
    ),
    (
        "serve-mixed-art",
        "loopback TCP, 2-shard ART, 70/10/15/5 GET/MGET/SET/DEL scrambled-Zipfian 0.99, closed loop gated, Poisson open loop at three fixed rates when traced: short mixed runs, router and ART in the path",
    ),
    (
        "embed-contend",
        "no server: 2 threads call the OptiQL B+-tree directly, 1M keys, 50/50 lookup/update, self-similar skew 0.2: lock hand-over, reader restarts and epoch pins do the work",
    ),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks on outputs that failed, beyond per-request failures.
    pub broken: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form facts printed with the table (sample counts, host).
    pub notes: Vec<String>,
    /// Per-name span totals of a traced run.
    pub span_table: Vec<crate::trace::NameRow>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric { name, value }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

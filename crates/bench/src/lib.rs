//! # optiql-bench — the evaluation layer of the OptiQL reproduction
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`dist`] — uniform, self-similar (Gray et al.) and Zipfian key
//!   distributions plus dense/sparse key-space mappings;
//! * [`latency`] — log-bucketed histograms up to p99.999 (Figure 12);
//! * [`micro`] — the §7.1 lock microbenchmark driver (Figures 6–8,
//!   Table 1);
//! * [`workload`] — the PiBench-style index workload driver and the one
//!   index [`Sweep`] every index figure (1, 9–13, YCSB) runs, with each
//!   tree's lock configurations listed once ([`BTREE_LOCKS`],
//!   [`ART_LOCKS`]);
//! * [`report`] — machine-readable `BENCH_<name>.json` reports shared by
//!   every bench target, so PRs can diff performance mechanically;
//! * [`mod@env`] — environment-variable knobs that let the bench binaries
//!   scale to the host.
//!
//! Every `benches/*.rs` target is a `harness = false` binary that prints
//! the same rows/series the paper's corresponding figure or table
//! reports, in a uniform tab-separated format:
//!
//! ```text
//! figNN <TAB> <series> <TAB> <x> <TAB> <value> [<TAB> extra…]
//! ```
//!
//! and mirrors each row into `BENCH_<fig>.json`; see EXPERIMENTS.md for
//! the mapping from each target to the paper's figure. The lock layer's
//! slow-path event counts (`optiql::stats`) are read from every build.
//!
//! The two targets that measure a served index (`server`, `wal`) drive it
//! with [`closed_loop`], over the server crate's own [`Client`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod latency;
pub mod micro;
pub mod report;
pub mod workload;

use std::fmt::Display;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use dist::{KeyDist, KeySpace, Sampler};
pub use latency::Histogram;
pub use micro::{cs_work, run_exclusive, run_mixed, Contention, MicroConfig, MicroResult};
pub use report::{BenchJson, JsonValue, LatencySummary};
pub use workload::{
    only, preload, run, sweep, Mix, Point, Sweep, SweepFn, WorkloadConfig, WorkloadResult,
    ART_LOCKS, BTREE_LOCKS,
};

use optiql_server::{Client, Request, Response};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of logical CPUs visible to this process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Environment-variable knobs for the bench binaries.
pub mod env {
    use std::time::Duration;

    fn var_u64(name: &str) -> Option<u64> {
        std::env::var(name).ok()?.trim().parse().ok()
    }

    /// True when `OPTIQL_BENCH_FULL=1`: longer runs, more thread points.
    pub fn full() -> bool {
        var_u64("OPTIQL_BENCH_FULL") == Some(1)
    }

    /// Thread counts to sweep. Default: powers of two up to
    /// `max(4, 2 × cores)` (the paper sweeps 1..80 on its 40-core box);
    /// override with `OPTIQL_BENCH_THREADS="1,2,4,8"`.
    pub fn thread_counts() -> Vec<usize> {
        if let Ok(s) = std::env::var("OPTIQL_BENCH_THREADS") {
            let v: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect();
            if !v.is_empty() {
                return v;
            }
        }
        let cap = (2 * crate::num_cpus()).max(4);
        let mut v = vec![1];
        let mut t = 2;
        while t <= cap {
            v.push(t);
            t *= 2;
        }
        v
    }

    /// Per-point measurement duration. Default 300 ms, 2 s with
    /// `OPTIQL_BENCH_FULL=1` (paper: 10 s × 20 runs); override with
    /// `OPTIQL_BENCH_MILLIS` (minimum 10).
    pub fn duration() -> Duration {
        if let Some(ms) = var_u64("OPTIQL_BENCH_MILLIS") {
            return Duration::from_millis(ms.max(10));
        }
        if full() {
            Duration::from_secs(2)
        } else {
            Duration::from_millis(300)
        }
    }

    /// Preloaded record count for index benches. Default 1M (paper: 100M);
    /// override with `OPTIQL_BENCH_KEYS`.
    pub fn preload_keys() -> u64 {
        var_u64("OPTIQL_BENCH_KEYS").unwrap_or(if full() { 10_000_000 } else { 1_000_000 })
    }

    /// Lookups per batched call for the YCSB workload benches. Default 1
    /// (scalar); override with `OPTIQL_BENCH_BATCH` to route the lookup
    /// share of the mix through `multi_lookup`.
    pub fn batch_size() -> usize {
        var_u64("OPTIQL_BENCH_BATCH").unwrap_or(1).max(1) as usize
    }
}

/// JSON report mirroring the rows printed by [`row`]/[`row_extra`].
/// Initialized by [`banner`] from the figure name, so every bench target
/// emits `BENCH_<fig>.json` alongside its stdout rows for free.
static JSON: Mutex<Option<BenchJson>> = Mutex::new(None);

/// Print a run banner with the active scaling knobs and open the
/// machine-readable `BENCH_<fig>.json` report for this target. Exits
/// with status 2 instead if the build carries the chaos hooks
/// ([`optiql::chaos::COMPILED`]), whose flag loads at every lock event
/// would be measured.
pub fn banner(fig: &str, title: &str) {
    if optiql::chaos::COMPILED {
        eprintln!(
            "{fig}: built with optiql's `chaos` feature, which `optiql-check` turns on \
             when a command builds the whole workspace; run `cargo bench -p optiql-bench`"
        );
        std::process::exit(2);
    }
    let threads = env::thread_counts();
    let dur = env::duration();
    println!("# ===================================================================");
    println!("# {fig}: {title}");
    println!(
        "# host_cpus={} threads={threads:?} secs_per_point={:.2} full={}",
        num_cpus(),
        dur.as_secs_f64(),
        env::full(),
    );
    println!("# ===================================================================");
    *JSON.lock().unwrap() = Some(BenchJson::new(fig));
}

/// Append a free-form record to the active JSON report (no-op before
/// [`banner`] runs). `x` and `value` are stringified by the caller's
/// `Display`; numeric-looking values are stored as JSON numbers.
fn json_row(fig: &str, series: &str, x: &str, value: &str, extra: Option<&str>) {
    json_row_lat(fig, series, x, value, extra, None);
}

/// Like [`json_row`] but with the shared tail-latency columns appended
/// (`p50_ns`/`p95_ns`/`p99_ns`/`p999_ns`; `null` when not sampled).
fn json_row_lat(
    fig: &str,
    series: &str,
    x: &str,
    value: &str,
    extra: Option<&str>,
    lat: Option<&LatencySummary>,
) {
    let mut g = JSON.lock().unwrap();
    let Some(rep) = g.as_mut() else { return };
    let mut fields = vec![
        ("bench", JsonValue::Str(fig.to_string())),
        ("series", JsonValue::Str(series.to_string())),
        ("x", json_auto(x)),
        ("value", json_auto(value)),
    ];
    if let Some(e) = extra {
        fields.push(("extra", json_auto(e)));
    }
    fields.extend(LatencySummary::fields(lat));
    rep.record_kv(&fields);
}

/// Store numbers as numbers, everything else as strings.
fn json_auto(s: &str) -> JsonValue {
    match s.parse::<f64>() {
        Ok(v) => JsonValue::Num(v),
        Err(_) => JsonValue::Str(s.to_string()),
    }
}

/// Print a column header comment.
pub fn header(cols: &[&str]) {
    println!("# {}", cols.join("\t"));
}

/// Print one data row (and mirror it into the JSON report).
pub fn row(fig: &str, series: &str, x: impl Display, value: impl Display) {
    let (x, value) = (x.to_string(), value.to_string());
    println!("{fig}\t{series}\t{x}\t{value}");
    json_row(fig, series, &x, &value, None);
}

/// Print one data row with an extra column (mirrored into the JSON report).
pub fn row_extra(
    fig: &str,
    series: &str,
    x: impl Display,
    value: impl Display,
    extra: impl Display,
) {
    let (x, value, extra) = (x.to_string(), value.to_string(), extra.to_string());
    println!("{fig}\t{series}\t{x}\t{value}\t{extra}");
    json_row(fig, series, &x, &value, Some(&extra));
}

/// Print one data row with an extra column plus the shared tail-latency
/// columns (p50/p95/p99/p999 in nanoseconds; `-`/`null` when the run did
/// not sample latency). JSON rows gain `p50_ns`…`p999_ns` fields.
pub fn row_latency(
    fig: &str,
    series: &str,
    x: impl Display,
    value: impl Display,
    extra: impl Display,
    lat: Option<&LatencySummary>,
) {
    let (x, value, extra) = (x.to_string(), value.to_string(), extra.to_string());
    let fmt = |v: f64| {
        if v.is_finite() {
            format!("{}", r2(v))
        } else {
            "-".into()
        }
    };
    let cols = match lat {
        Some(l) => format!(
            "{}\t{}\t{}\t{}",
            fmt(l.p50_ns),
            fmt(l.p95_ns),
            fmt(l.p99_ns),
            fmt(l.p999_ns)
        ),
        None => "-\t-\t-\t-".into(),
    };
    println!("{fig}\t{series}\t{x}\t{value}\t{extra}\t{cols}");
    json_row_lat(fig, series, &x, &value, Some(&extra), lat);
}

/// Million operations per second.
pub fn mops(ops_per_sec: f64) -> f64 {
    ops_per_sec / 1e6
}

/// Round to two decimals for stable-looking output.
pub fn r2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// What [`closed_loop`] measured, summed over its connections.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    /// Requests answered (one index operation each).
    pub ops: u64,
    /// GETs that found their key.
    pub hits: u64,
    /// Responses of the wrong kind for their request (`VALUE` answers a
    /// GET, `OLD` a SET), ERR frames included.
    pub errors: u64,
    /// Wall-clock time of the slowest connection.
    pub elapsed: Duration,
    /// Per-request latency in nanoseconds, from the write of a request's
    /// window to the read of its response.
    pub hist: Histogram,
}

impl LoopResult {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// A closed loop of `conns` connections (one thread each) against the
/// server at `addr`: each writes a window of `depth` requests as one
/// burst, reads the `depth` responses, and only then sends the next
/// window, `ops_per_conn` requests in all. A request is a GET with
/// probability `read_pct` %, else a SET of a random value; keys are
/// uniform over the dense range `0..keys` (the server's preload, so every
/// GET hits). Each connection derives its own stream from `seed`.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    depth: usize,
    ops_per_conn: u64,
    read_pct: u32,
    keys: u64,
    seed: u64,
) -> io::Result<LoopResult> {
    let one = |conn: u64| -> io::Result<LoopResult> {
        let mut client = Client::connect(addr)?;
        let mut rng = SmallRng::seed_from_u64(seed ^ ((conn + 1) << 32));
        let mut out = LoopResult::default();
        let mut window = Vec::with_capacity(depth);
        let started = Instant::now();
        while out.ops < ops_per_conn {
            window.clear();
            // `max(1)`: a depth of 0 would never finish.
            for _ in 0..(depth.max(1) as u64).min(ops_per_conn - out.ops) {
                let key = rng.random_range(0..keys);
                window.push(if rng.random_range(0u32..100) < read_pct {
                    Request::Get { key }
                } else {
                    let value = rng.random();
                    Request::Set { key, value }
                });
            }
            let sent = Instant::now();
            client.send(&window)?;
            for req in &window {
                let resp = client.recv()?.ok_or(io::ErrorKind::UnexpectedEof)?;
                out.hist.record(sent.elapsed().as_nanos() as u64);
                match (req, resp) {
                    (Request::Get { .. }, Response::Value(v)) => out.hits += u64::from(v.is_some()),
                    (Request::Set { .. }, Response::Old(_)) => {}
                    _ => out.errors += 1,
                }
            }
            out.ops += window.len() as u64;
        }
        out.elapsed = started.elapsed();
        Ok(out)
    };
    std::thread::scope(|s| {
        let one = &one;
        let handles: Vec<_> = (0..conns as u64).map(|c| s.spawn(move || one(c))).collect();
        let mut total = LoopResult::default();
        for h in handles {
            let r = h.join().expect("closed_loop connection panicked")?;
            total.ops += r.ops;
            total.hits += r.hits;
            total.errors += r.errors;
            total.elapsed = total.elapsed.max(r.elapsed);
            total.hist.merge(&r.hist);
        }
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_start_at_one() {
        let v = env::thread_counts();
        assert_eq!(v[0], 1);
        assert!(v.iter().all(|&n| n >= 1));
    }

    #[test]
    fn duration_is_positive() {
        assert!(env::duration().as_millis() > 0);
    }

    #[test]
    fn num_cpus_is_positive() {
        assert!(num_cpus() >= 1);
    }
    use optiql_server::{start, BackendKind, ServerConfig, ServerHandle};

    fn serve(preload: u64) -> ServerHandle {
        start(&ServerConfig {
            backend: BackendKind::Btree,
            workers: 1,
            preload,
            max_group: 64,
            ..ServerConfig::default()
        })
        .expect("server start")
    }

    #[test]
    fn pipelined_read_load_hits_every_preloaded_key() {
        let preload = 10_000;
        let h = serve(preload);
        // A dense preload: every uniform key hits.
        let r = closed_loop(&h.addr().to_string(), 2, 8, 2_000, 100, preload, 0x10AD)
            .expect("closed loop");
        assert_eq!((r.ops, r.hits, r.errors), (4_000, 4_000, 0));
        assert_eq!(r.hist.count(), 4_000);
        assert!(r.throughput() > 0.0);
        let stats = h.shutdown();
        assert!(stats.requests >= 4_000);
        assert!(
            stats.batched_ops > 0,
            "depth-8 windows must reach the batch engines: {stats:?}"
        );
    }

    #[test]
    fn write_load_is_acked_with_old_values() {
        let h = serve(1_000);
        // 1 001 is not a multiple of the depth: the last window is short.
        let r = closed_loop(&h.addr().to_string(), 2, 16, 1_001, 0, 1_000, 7).expect("closed loop");
        // No response was anything but OLD: a VALUE or an ERR is an error.
        assert_eq!((r.ops, r.hits, r.errors), (2_002, 0, 0));
        assert_eq!(r.hist.count(), 2_002);
        assert_eq!(h.shutdown().proto_errors, 0);
    }
}

//! Machine-readable benchmark reports (`BENCH_<name>.json`).
//!
//! Every bench target writes one JSON-lines file, one self-contained
//! object per data point, all in one row shape:
//!
//! ```json
//! {"bench":"wal","series":"group/depth32","x":8,"value":0.84,"extra":0.009,"p50_ns":253952,"p95_ns":null,"p99_ns":null,"p999_ns":null,"rev":"dev","host_cpus":2}
//! ```
//!
//! The file lands in the repository's `results/` directory by default
//! (resolved relative to this crate's manifest, so it works from any
//! working directory); set `OPTIQL_BENCH_OUT` to redirect, e.g. to a CI
//! artifact directory.
//!
//! **One file per run.** Opening a [`BenchJson`] truncates the target
//! file, so a file always holds exactly one complete run, and every row
//! carries that run's `rev` (`OPTIQL_BENCH_REV`, default `"dev"`) and
//! `host_cpus`. To compare two revisions, point `OPTIQL_BENCH_OUT` at a
//! directory per revision and compare the directories.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory where `BENCH_<name>.json` files are written.
///
/// `OPTIQL_BENCH_OUT` wins when set; otherwise the workspace `results/`
/// directory (located relative to this crate so benches can run from
/// anywhere inside the repo).
pub fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("OPTIQL_BENCH_OUT") {
        if !dir.trim().is_empty() {
            return PathBuf::from(dir);
        }
    }
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Writer for one `BENCH_<name>.json` report file (JSON lines).
pub struct BenchJson {
    file: Option<File>,
    /// What ends every row: `"rev":…,"host_cpus":…}` and a newline.
    tail: String,
}

impl BenchJson {
    /// Start a fresh report for `name`, truncating any previous file.
    ///
    /// I/O failures (read-only checkout, missing directory) are reported
    /// once on stderr and then ignored: a bench must never fail because the
    /// report file is unwritable.
    pub fn new(name: &str) -> Self {
        Self::create(&out_dir(), name)
    }

    fn create(dir: &Path, name: &str) -> Self {
        let path = dir.join(format!("BENCH_{name}.json"));
        let _ = std::fs::create_dir_all(dir);
        let file = match OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("# bench_json: cannot open {}: {e}", path.display());
                None
            }
        };
        let rev = std::env::var("OPTIQL_BENCH_REV")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .unwrap_or_else(|| "dev".into());
        let tail = format!(
            "\"rev\":{},\"host_cpus\":{}}}\n",
            json_str(&rev),
            crate::pin::num_cpus()
        );
        BenchJson { file, tail }
    }

    /// Append one row: `fields`, then the run's `rev` and `host_cpus`.
    pub fn record_kv(&mut self, fields: &[(&str, JsonValue)]) {
        let mut line = String::from("{");
        for (k, v) in fields {
            line.push_str(&json_str(k));
            line.push(':');
            line.push_str(&v.render());
            line.push(',');
        }
        line.push_str(&self.tail);
        self.write_line(&line);
    }

    fn write_line(&mut self, line: &str) {
        if let Some(f) = self.file.as_mut() {
            if f.write_all(line.as_bytes()).is_err() {
                self.file = None;
            }
        }
    }
}

/// Tail-latency summary shared by the bench targets: the log-bucket
/// [`Histogram`](crate::latency::Histogram) percentiles every BENCH JSON
/// carries when latency was sampled (p50/p95/p99/p999, nanoseconds).
///
/// One type, one field order, one naming scheme — so `BENCH_server.json`
/// and `BENCH_sharded_mt.json` rows are mechanically comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency in nanoseconds.
    pub p50_ns: f64,
    /// 95th percentile.
    pub p95_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// 99.9th percentile.
    pub p999_ns: f64,
}

impl LatencySummary {
    /// Summarize a histogram; `None` when nothing was recorded (so
    /// callers emit `null` columns instead of fake zeros).
    pub fn from_histogram(h: &crate::latency::Histogram) -> Option<LatencySummary> {
        if h.count() == 0 {
            return None;
        }
        Some(LatencySummary {
            p50_ns: h.quantile(0.50) as f64,
            p95_ns: h.quantile(0.95) as f64,
            p99_ns: h.quantile(0.99) as f64,
            p999_ns: h.quantile(0.999) as f64,
        })
    }

    /// The summary as JSON fields for [`BenchJson::record_kv`]. Pass
    /// `None` to emit the same columns as `null` (row shapes stay
    /// uniform whether or not latency was sampled).
    pub fn fields(this: Option<&LatencySummary>) -> [(&'static str, JsonValue); 4] {
        let num = |v: Option<f64>| v.map_or(JsonValue::Num(f64::NAN), JsonValue::Num);
        [
            ("p50_ns", num(this.map(|s| s.p50_ns))),
            ("p95_ns", num(this.map(|s| s.p95_ns))),
            ("p99_ns", num(this.map(|s| s.p99_ns))),
            ("p999_ns", num(this.map(|s| s.p999_ns))),
        ]
    }
}

/// Minimal JSON value for [`BenchJson::record_kv`].
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// A string value.
    Str(String),
    /// A finite (or not: mapped to `null`) floating-point value.
    Num(f64),
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::Str(s) => json_str(s),
            JsonValue::Num(v) => json_num(*v),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trippable form Rust prints is valid JSON.
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("optiql_report_{tag}_{}", std::process::id()))
    }

    fn lines_of(dir: &Path, name: &str) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).unwrap();
        text.lines().map(str::to_owned).collect()
    }

    #[test]
    fn record_lines_are_valid_shape() {
        // The default output directory is the workspace results/ dir.
        assert!(out_dir().ends_with("results"));
        let dir = temp("shape");
        let mut rep = BenchJson::create(&dir, "selftest");
        rep.record_kv(&[
            ("bench", JsonValue::Str("fig".into())),
            ("series", JsonValue::Str("c\"x".into())),
            ("x", JsonValue::Num(8.0)),
            ("value", JsonValue::Num(2.25)),
            ("p99_ns", JsonValue::Num(f64::NAN)),
        ]);
        let lines = lines_of(&dir, "selftest");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"bench\":\"fig\",\"series\":\"c\\\"x\",\"x\":8,"));
        assert!(lines[0].contains("\"value\":2.25,\"p99_ns\":null,\"rev\":\""));
        assert!(lines[0].ends_with(&format!("\"host_cpus\":{}}}", crate::pin::num_cpus())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One file per run: the second run's file holds nothing of the first,
    /// and every row says which run and what host it came from.
    #[test]
    fn a_second_run_replaces_the_first_and_every_row_is_tagged() {
        let dir = temp("rerun");
        let mut first = BenchJson::create(&dir, "x");
        first.record_kv(&[("series", JsonValue::Str("first".into()))]);
        first.record_kv(&[("series", JsonValue::Str("first".into()))]);
        drop(first);
        let mut second = BenchJson::create(&dir, "x");
        second.record_kv(&[("series", JsonValue::Str("second".into()))]);
        let lines = lines_of(&dir, "x");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"second\"") && lines[0].ends_with(second.tail.trim_end()));
        assert!(second.tail.starts_with("\"rev\":\"") && second.tail.contains("\",\"host_cpus\":"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

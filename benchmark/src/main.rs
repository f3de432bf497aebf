//! `optiql-sysbench` — the repository's system benchmark.
//!
//! ```text
//! optiql-sysbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                 [--quick] [--corrupt] [--out-dir DIR]
//! optiql-sysbench [--runs K] [--seed N] [--seconds S] [--quick] [--out FILE]
//! optiql-sysbench compare A.json B.json
//! ```
//!
//! With `--workload` it runs that workload once, prints every metric by
//! name with its unit, and ends with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//! Without it, it runs all four workloads `K` times untraced (seeds `N`,
//! `N+1`, ...) and once traced, each in a process of its own, and writes
//! the result set `compare` reads. Any failed check makes the exit code
//! non-zero. See `benchmark/README.md`.

mod compare;
mod driver;
mod embed;
mod hist;
mod json;
mod ledger;
mod metrics;
mod rng;
mod stream;
mod sys;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{unit_of, Report, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::RunCfg;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick` caps the window here so a whole smoke run stays short.
const QUICK_SECONDS: f64 = 1.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: optiql-sysbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--corrupt] [--out-dir DIR]\n\
         \x20      optiql-sysbench [--runs K] [--seed N] [--seconds S] [--quick] [--out FILE]\n\
         \x20      optiql-sysbench compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt: bool,
    runs: u64,
    out_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        corrupt: false,
        runs: 1,
        out_dir: PathBuf::from("out"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?.to_string()),
            "--seed" => a.seed = val()?.parse().ok()?,
            "--seconds" => a.seconds = val()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => a.trace = matches!(val()?, "1" | "true"),
            "--runs" => a.runs = val()?.parse().ok().filter(|r| *r > 0)?,
            "--out-dir" => a.out_dir = val()?.into(),
            "--out" => a.out = Some(val()?.into()),
            "--quick" => a.quick = true,
            "--corrupt" => a.corrupt = true,
            _ => return None,
        }
    }
    if a.quick {
        a.seconds = a.seconds.min(QUICK_SECONDS);
    }
    Some(a)
}

/// The JSON object a run ends with: the end-to-end metrics of an
/// untraced run, the per-layer metrics of a traced one.
fn result_json(rep: &Report, trace: bool) -> Json {
    let listed = |name: &str| {
        if trace {
            PER_LAYER.iter().any(|m| m.name == name)
        } else {
            END_TO_END.iter().any(|m| m.name == name)
        }
    };
    let metrics = rep
        .metrics
        .iter()
        .filter(|m| listed(m.name))
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit_of(m.name).into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(rep.correct())),
        ("attempted", Json::Num(rep.attempted.max(1) as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run_one(a: &Args, workload: &str) -> ExitCode {
    let cfg = RunCfg {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        corrupt: a.corrupt,
        out_dir: a.out_dir.clone(),
    };
    println!(
        "# {workload} seed={} seconds={} trace={} quick={}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.quick
    );
    let mut rep = match workloads::run(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("optiql-sysbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &mut rep.metrics {
        if !m.value.is_finite() {
            rep.broken.push(format!("{} is not a number", m.name));
            m.value = 0.0;
        }
    }
    for n in &rep.notes {
        println!("# {n}");
    }
    if !rep.span_table.is_empty() {
        trace::print_table(&rep.span_table);
    }
    for m in &rep.metrics {
        println!("{:<34} {:>18.4} {}", m.name, m.value, unit_of(m.name));
    }
    println!(
        "# attempted {} failed {} fail_ratio {:.6}",
        rep.attempted,
        rep.failed,
        rep.failed as f64 / rep.attempted.max(1) as f64
    );
    for b in &rep.broken {
        println!("# CHECK FAILED: {b}");
    }
    println!("{}", result_json(&rep, a.trace).render());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process each (so resident-set growth
/// starts from a fresh heap) and write the result set.
fn suite(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("optiql-sysbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let plan = (0..a.runs)
            .map(|i| (a.seed + i, false))
            .chain([(a.seed, true)]);
        for (seed, trace) in plan {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&a.out_dir)
                .stdout(Stdio::piped());
            if a.quick {
                cmd.arg("--quick");
            }
            if a.corrupt {
                cmd.arg("--corrupt");
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("optiql-sysbench: cannot run {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            all_ok &= out.status.success();
            let Some(Json::Obj(mut fields)) = text.lines().last().and_then(|l| Json::parse(l).ok())
            else {
                eprintln!("optiql-sysbench: {workload} printed no result");
                all_ok = false;
                continue;
            };
            fields.insert(0, ("workload".into(), Json::Str(workload.to_string())));
            fields.insert(1, ("seed".into(), Json::Num(seed as f64)));
            fields.insert(2, ("trace".into(), Json::Num(f64::from(u8::from(trace)))));
            runs.push(Json::Obj(fields));
        }
    }
    let set = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("claim", Json::Null),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("quick", Json::Bool(a.quick)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| a.out_dir.join("results.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, set.render() + "\n"));
    if let Err(e) = written {
        eprintln!("optiql-sysbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# result set written to {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: at least one run failed a check");
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        return match (load(a), load(b)) {
            (Ok(a), Ok(b)) => {
                if compare::compare(&a, &b) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("optiql-sysbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(a) = parse(&args) else {
        return usage();
    };
    match a.workload.clone() {
        Some(w) => run_one(&a, &w),
        None => suite(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_file(name: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The `[profile.release]` table of a manifest, comments and blank
    /// lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn release_profile_matches_root() {
        let ours = release_profile(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")).unwrap(),
        );
        let theirs = release_profile(&root_file("Cargo.toml"));
        assert!(ours.iter().any(|l| l == "opt-level=3"), "{ours:?}");
        assert_eq!(
            ours, theirs,
            "benchmark/Cargo.toml [profile.release] drifted from the root's"
        );
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let b = Json::parse(&root_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let listed = |key: &str| {
            b.get(key)
                .and_then(Json::as_arr)
                .expect("an array")
                .to_vec()
        };
        let text = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .expect("a string")
                .to_string()
        };
        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let e2e: Vec<(String, String, String, f64)> = listed("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);
        assert!(ours.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(ours
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        let widest = ours.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(ours.iter().find(|m| m.0 == "setup_s").unwrap().3, widest);

        let layers: Vec<(String, String, String)> = listed("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, ours);
        assert!(ours.len() <= 128);

        // The contract's character sets.
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
            .all(unit_ok));
    }

    #[test]
    fn flags_parse_and_quick_caps_the_window() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&args("--workload serve-get --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve-get"), 7, 3.0, true)
        );
        let q = parse(&args("--quick --runs 2")).unwrap();
        assert_eq!((q.seconds, q.runs, q.workload), (QUICK_SECONDS, 2, None));
        assert!(parse(&args("--seconds 0")).is_none());
        assert!(parse(&args("--frobnicate")).is_none());
        assert!(parse(&args("--seed")).is_none());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut rep = Report {
            attempted: 10,
            ..Report::default()
        };
        rep.set("p50_us", 1.25);
        rep.set("client.p99_us", 9.0);
        let j = result_json(&rep, false);
        let keys: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            j.render(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"p50_us\":{\"value\":1.25,\"unit\":\"us\"}}}"
        );
        rep.failed = 1;
        assert_eq!(
            result_json(&rep, true).render(),
            "{\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":{\"client.p99_us\":{\"value\":9,\"unit\":\"us\"}}}"
        );
    }
}

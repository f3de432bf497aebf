//! Result sets: the file `suite` writes, and `compare A.json B.json`,
//! which is how two sets of runs are shown to agree or not.
//!
//! A result set is `{"schema":1,"claim":null,"runs":[...]}`, each run the
//! object a single run prints as its last line plus `workload`, `seed`
//! and `trace`.

use crate::hist::{median, quartiles};
use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// Values of one metric on one workload over the runs of a set.
fn values(set: &Json, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(trace))))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance rule uses. 0 for fewer than two runs.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Either side's spread is wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge `b` against the baseline `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `true` when nothing regressed.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut clean = true;
    println!("# B against base A: ratio = median B / median A; spread = (Q3 - Q1) / median");
    for (workload, _) in WORKLOADS {
        println!("{workload}");
        for m in END_TO_END {
            let (va, vb) = (
                values(a, workload, false, m.name),
                values(b, workload, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!(
                    "  {:<32} missing from a set ({} vs {} runs)",
                    m.name,
                    va.len(),
                    vb.len()
                );
                clean = false;
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            clean &= v != Verdict::Regressed;
            println!(
                "  {:<32} A {:>14.4} B {:>14.4} {:<6} ratio {:.4} (base A, {} is better) spread A {:.4} B {:.4} bound {:.2} n {}/{} {}",
                m.name,
                median(&va),
                median(&vb),
                m.unit,
                median(&vb) / median(&va),
                m.better.as_str(),
                spread(&va),
                spread(&vb),
                m.bound,
                va.len(),
                vb.len(),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for m in PER_LAYER {
            let (va, vb) = (
                values(a, workload, true, m.name),
                values(b, workload, true, m.name),
            );
            if va.is_empty() || vb.is_empty() || (median(&va) == 0.0 && median(&vb) == 0.0) {
                continue;
            }
            println!(
                "  {:<32} A {:>14.4} B {:>14.4} {:<6} ratio {:.4} (base A, {} is better, ungated)",
                m.name,
                median(&va),
                median(&vb),
                m.unit,
                median(&vb) / median(&va),
                m.better.as_str()
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops: &[f64]) -> Json {
        let runs = ops
            .iter()
            .map(|&v| {
                Json::obj(vec![
                    ("workload", Json::Str("serve-get".into())),
                    ("trace", Json::Num(0.0)),
                    (
                        "metrics",
                        Json::obj(vec![(
                            "ops_per_s",
                            Json::obj(vec![("value", Json::Num(v))]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Num(1.0)),
            ("claim", Json::Null),
            ("runs", Json::Arr(runs)),
        ])
    }

    #[test]
    fn reads_values_per_workload_and_mode() {
        let s = set(&[1.0, 2.0, 3.0]);
        assert_eq!(values(&s, "serve-get", false, "ops_per_s"), [1.0, 2.0, 3.0]);
        assert!(values(&s, "serve-get", true, "ops_per_s").is_empty());
        assert!(values(&s, "embed-contend", false, "ops_per_s").is_empty());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.9, 99.1, 100.0];
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &same, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // The same numbers are an improvement when lower is better.
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&slower, &base, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compare_fails_only_on_regression() {
        // Other workloads and metrics are missing from these toy sets, so
        // `compare` itself reports them; judge the one metric directly.
        let (a, b) = (set(&[100.0, 101.0, 99.0]), set(&[80.0, 81.0, 79.0]));
        assert!(!compare(&a, &b));
        let va = values(&a, "serve-get", false, "ops_per_s");
        let vb = values(&b, "serve-get", false, "ops_per_s");
        assert_eq!(verdict(&va, &vb, Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&va, &va, Better::Higher, 0.10), Verdict::Ok);
    }
}

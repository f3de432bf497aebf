//! Bounded chaos smoke: a representative slice of the full sweep that
//! runs on every `cargo test` (the full matrix is the binary's job; CI
//! runs it with more seeds in the chaos-smoke workflow job).

use std::sync::{Mutex, MutexGuard};

use optiql_check::{run_target, sweep, targets, CheckConfig, SweepEvent};

/// The chaos switch is process-global and `sweep_without_chaos_is_clean`
/// asserts on it after its run, so the tests of this file run one at a
/// time (the driver's own gate covers a run, not what a test does after).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn smoke_cfg() -> CheckConfig {
    CheckConfig {
        threads: 4,
        ops_per_thread: 400,
        key_space: 128,
        clustered: false,
        chaos: true,
    }
}

/// One target per family, two seeds each, checked in-process.
#[test]
fn representative_targets_linearize_under_chaos() {
    let _serial = serial();
    let picks = [
        "btree-optiql",
        "btree-mcs-rw",
        "art-optiql",
        "art-pthread",
        "optreg-optiql-aor",
        "lockreg-mcs",
        "sharded-btree-optiql",
        "batched-art-optiql",
    ];
    let all = targets();
    let selected: Vec<_> = all
        .into_iter()
        .filter(|t| picks.contains(&t.name))
        .collect();
    assert_eq!(selected.len(), picks.len(), "a pick went missing");

    let mut cells = 0;
    let failures = sweep(&selected, &[0, 1], &smoke_cfg(), |ev| {
        if let SweepEvent::Pass { report, .. } = ev {
            cells += 1;
            assert!(report.summary.events > 0, "recorder saw nothing");
        }
    });
    for f in &failures {
        eprintln!("{f}");
    }
    assert!(failures.is_empty(), "{} smoke cells failed", failures.len());
    assert_eq!(cells, picks.len() * 2);
}

/// The clustered key shape keeps ART prefix paths splitting and
/// collapsing; both trees must stay linearizable under it.
#[test]
fn clustered_keys_linearize_on_both_trees() {
    let _serial = serial();
    let cfg = CheckConfig {
        clustered: true,
        ..smoke_cfg()
    };
    let all = targets();
    for name in ["btree-optiql", "art-optiql", "art-optlock-backoff"] {
        let t = all.iter().find(|t| t.name == name).unwrap();
        for seed in [0, 1] {
            if let Err(f) = run_target(t, seed, &cfg) {
                panic!("{f}");
            }
        }
    }
}

/// The sharded facade over both trees under both key shapes: uniform
/// dense, and the clustered radix-4 spread that keeps ART prefixes
/// churning inside each shard. Tier-1's only clustered sharded cells.
#[test]
fn sharded_targets_linearize_under_both_key_shapes() {
    let _serial = serial();
    let all = targets();
    for name in ["sharded-btree-optiql", "sharded-art-optiql"] {
        let t = all.iter().find(|t| t.name == name).unwrap();
        for clustered in [false, true] {
            let cfg = CheckConfig {
                clustered,
                ..smoke_cfg()
            };
            for seed in [0, 1] {
                if let Err(f) = run_target(t, seed, &cfg) {
                    panic!("clustered={clustered}: {f}");
                }
            }
        }
    }
}

/// Chaos off must also pass (the recorder alone perturbs very little,
/// so this doubles as a plain stress pass) and must leave the chaos
/// layer disabled for whoever runs next.
#[test]
fn sweep_without_chaos_is_clean() {
    let _serial = serial();
    let cfg = CheckConfig {
        chaos: false,
        ..smoke_cfg()
    };
    let all = targets();
    let t = all.iter().find(|t| t.name == "btree-optiql").unwrap();
    run_target(t, 3, &cfg).expect("chaos-off cell failed");
    assert!(!optiql_check::chaos::enabled());
}

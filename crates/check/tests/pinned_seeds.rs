//! Pinned chaos seeds: regression cells that must keep their verdict.
//!
//! The PR 4 ART bug (missing parent re-validation after locking the
//! child during OLC coupling) is kept alive behind the
//! `bug-pr4-revert` feature as a permanent sensitivity check for this
//! harness. The same sweeps run in both builds:
//!
//! * on main (fix present), every sweep is clean — the control, without
//!   which a sweep that fails for an unrelated reason would pass for
//!   "detection" (before PR 12 the sweep filter `art-opt` also matched
//!   `crash-art-optiql`, whose checker overflows its per-key budget at
//!   this cell shape and exits non-zero with or without the bug);
//! * with the fix backed out (`--features bug-pr4-revert`), every sweep
//!   must detect the bug.
//!
//! Both run the `optiql-check` binary as a subprocess: the reverted bug
//! does not merely lose updates, it descends with a stale depth and can
//! corrupt the tree and wedge on it — which counts as detection, and
//! should not take the test runner down with it.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Cell shape shared by the sweeps.
const SHAPE: [&str; 8] = [
    "--threads",
    "8",
    "--ops",
    "1500",
    "--keys",
    "128",
    "--clustered",
    "--quiet",
];

/// One sweep per driver of the ART write step (the fix is a single line of
/// that step, so each driver must be seen to depend on it). The exact
/// interleaving is schedule-dependent even under seeded chaos, so a sweep
/// covers a neighborhood of seeds, not one:
///
/// * scalar — 12 seeds of the two OptLock ART targets. The pinned cell,
///   seed 7 on `art-optlock-backoff`, lost an insert (`insert -> None`
///   twice in a row with no remove between) when the fix was first
///   reverted; locally the reverted sweep flags 2-5 cells per run and
///   never zero.
/// * batched — 4 seeds of `batched-art-optiql`. The pipelined driver does
///   not even need a second thread: one operation of a group splits a
///   prefix while another is parked on the edge into the relocated node,
///   so with the fix reverted each of these seeds fails alone (of seeds
///   0..12, ten wedged on the corrupted tree and one reported a violation).
///
/// A clean sweep takes under a second; a wedged tree never exits, so the
/// timeout is what bounds the reverted run.
const SWEEPS: [([&str; 4], Duration); 2] = [
    (
        ["--target", "art-optlock", "--seeds", "12"],
        Duration::from_secs(20),
    ),
    (
        ["--target", "batched-art-optiql", "--seeds", "4"],
        Duration::from_secs(20),
    ),
];

fn run_checker(cell: &[&str], timeout: Duration) -> Outcome {
    let mut child: Child = Command::new(env!("CARGO_BIN_EXE_optiql-check"))
        .args(cell)
        .args(SHAPE)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optiql-check");
    let start = Instant::now();
    loop {
        match child.try_wait().expect("wait on optiql-check") {
            Some(status) if status.success() => return Outcome::Clean,
            Some(status) => return Outcome::Detected(format!("{status}")),
            None if start.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Outcome::Detected("hung past timeout".into());
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

enum Outcome {
    /// Exit 0 within the timeout: every cell linearizable.
    Clean,
    /// Non-zero exit (violation, abort, segfault) or hang: the harness
    /// flagged the run.
    Detected(String),
}

#[test]
fn sweeps_are_clean_with_the_fix_and_detect_its_revert() {
    for (sweep, timeout) in &SWEEPS {
        match (
            run_checker(sweep, *timeout),
            cfg!(feature = "bug-pr4-revert"),
        ) {
            (Outcome::Clean, false) | (Outcome::Detected(_), true) => {}
            (Outcome::Detected(how), false) => panic!(
                "sweep {sweep:?} failed with the fix present ({how}); either \
                 the fix regressed or the harness grew a false positive"
            ),
            (Outcome::Clean, true) => panic!(
                "fix is reverted (bug-pr4-revert) but sweep {sweep:?} found \
                 nothing; the harness lost its sensitivity to the PR 4 bug"
            ),
        }
    }
}

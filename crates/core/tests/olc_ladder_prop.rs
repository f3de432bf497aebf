//! Property-based state-machine coverage for the [`RestartLoop`]
//! escalation ladder (free → spin → backoff → yield).
//!
//! A shadow model replays arbitrary `Pause`/`Reset` command sequences
//! and checks, after every command:
//!
//! * the phase is a pure function of attempts-since-reset, with the
//!   documented budget boundaries (`FREE_ATTEMPTS`, `SPIN_BUDGET`,
//!   `BACKOFF_BUDGET`);
//! * escalation is **monotone** between resets — the ladder never steps
//!   down on its own;
//! * `reset` restores the bottom rung exactly (attempts 0, phase Free);
//! * the accounting in the index's [`Counters`] block matches the model: every pause
//!   beyond the free attempt counts one restart, every yield-phase pause
//!   counts one scheduler escalation, and `reset` never erases history.

use proptest::prelude::*;

use optiql::olc::{RestartPhase, BACKOFF_BUDGET, FREE_ATTEMPTS, INDEX_LANES, SPIN_BUDGET};
use optiql::{stats::Event, Counters, IndexStats, RestartLoop};

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Pause,
    Reset,
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    // Pause-heavy so runs regularly climb past BACKOFF_BUDGET into the
    // yield rung instead of resetting right back down.
    prop_oneof![
        5 => Just(Cmd::Pause),
        1 => Just(Cmd::Reset),
    ]
}

fn rank(p: RestartPhase) -> u32 {
    match p {
        RestartPhase::Free => 0,
        RestartPhase::Spin => 1,
        RestartPhase::Backoff => 2,
        RestartPhase::Yield => 3,
    }
}

fn expected_phase(attempts: u32) -> RestartPhase {
    if attempts <= FREE_ATTEMPTS {
        RestartPhase::Free
    } else if attempts <= SPIN_BUDGET {
        RestartPhase::Spin
    } else if attempts <= BACKOFF_BUDGET {
        RestartPhase::Backoff
    } else {
        RestartPhase::Yield
    }
}

proptest! {
    #[test]
    fn ladder_matches_shadow_model(cmds in proptest::collection::vec(cmd_strategy(), 1..200)) {
        let stats = Counters::<INDEX_LANES>::new();
        let mut rs = RestartLoop::new(&stats, Event::IndexRestartBtree);

        let mut attempts: u32 = 0; // since last reset
        let mut restarts: u64 = 0; // cumulative, never reset
        let mut escalations: u64 = 0;
        let mut last_rank = 0;

        prop_assert_eq!(rs.phase(), RestartPhase::Free);
        prop_assert_eq!(rs.attempts(), 0);

        for cmd in &cmds {
            match cmd {
                Cmd::Pause => {
                    rs.pause();
                    attempts += 1;
                    let want = expected_phase(attempts);
                    if want != RestartPhase::Free {
                        restarts += 1;
                    }
                    if want == RestartPhase::Yield {
                        escalations += 1;
                    }
                    prop_assert_eq!(rs.phase(), want, "attempts={}", attempts);
                    // Monotone escalation between resets.
                    prop_assert!(
                        rank(rs.phase()) >= last_rank,
                        "ladder stepped down without reset: {} -> {}",
                        last_rank,
                        rank(rs.phase())
                    );
                    last_rank = rank(rs.phase());
                }
                Cmd::Reset => {
                    rs.reset();
                    attempts = 0;
                    last_rank = 0;
                    prop_assert_eq!(rs.phase(), RestartPhase::Free);
                }
            }
            prop_assert_eq!(rs.attempts(), attempts);
            let snap = IndexStats::of(&stats.sum());
            prop_assert_eq!(snap.restarts, restarts);
            prop_assert_eq!(snap.escalations, escalations);
        }
    }

    #[test]
    fn budgets_partition_every_attempt_count(attempts in 0u32..64) {
        // Boundary sanity independent of the command machine: exactly one
        // rung claims each attempt count, in ladder order.
        let want = expected_phase(attempts);
        let budgets = [
            (RestartPhase::Free, attempts <= FREE_ATTEMPTS),
            (RestartPhase::Spin, attempts > FREE_ATTEMPTS && attempts <= SPIN_BUDGET),
            (RestartPhase::Backoff, attempts > SPIN_BUDGET && attempts <= BACKOFF_BUDGET),
            (RestartPhase::Yield, attempts > BACKOFF_BUDGET),
        ];
        for (phase, claims) in budgets {
            prop_assert_eq!(claims, phase == want);
        }
    }
}

/// Reset-on-success in context: drive a loop deep into the yield rung,
/// reset it, and require the next pause to behave like a fresh loop's.
#[test]
fn reset_restores_fresh_loop_pacing() {
    let stats = Counters::<INDEX_LANES>::new();
    let mut rs = RestartLoop::new(&stats, Event::IndexRestartBtree);
    for _ in 0..16 {
        rs.pause();
    }
    assert_eq!(rs.phase(), RestartPhase::Yield);
    let deep = IndexStats::of(&stats.sum());

    rs.reset();
    assert_eq!(rs.attempts(), 0);
    assert_eq!(rs.phase(), RestartPhase::Free);
    assert_eq!(
        IndexStats::of(&stats.sum()),
        deep,
        "reset must not rewrite history"
    );

    rs.pause();
    assert_eq!(
        rs.phase(),
        RestartPhase::Free,
        "first post-reset try is free"
    );
    assert_eq!(
        IndexStats::of(&stats.sum()).restarts,
        deep.restarts,
        "free attempt after reset must not count a restart"
    );
}

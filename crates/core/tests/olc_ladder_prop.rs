//! Property-based coverage for the [`RestartLoop`] escalation ladder
//! (free → spin → spin → yield), read through the lanes it feeds.
//!
//! A shadow model replays arbitrary sequences of pauses spread over
//! several loops (operations) sharing one index's [`Counters`] block and
//! checks, after every pause, that the [`RESTARTS`] and [`ESCALATIONS`]
//! lanes equal what the pause counts imply: every pause beyond a loop's
//! free first attempt counts one restart, and every pause beyond its
//! third counts one scheduler escalation.

use proptest::prelude::*;

use optiql::olc::{ESCALATIONS, INDEX_LANES, RESTARTS};
use optiql::{Counters, RestartLoop};

/// Loops sharing the block: enough that runs interleave fresh and deep
/// operations.
const LOOPS: usize = 4;

/// The lanes `pauses` pauses of one fresh loop add: `(restarts,
/// escalations)`.
fn lanes_for(pauses: u64) -> (u64, u64) {
    (pauses.saturating_sub(1), pauses.saturating_sub(3))
}

proptest! {
    #[test]
    fn ladder_matches_shadow_model(picks in proptest::collection::vec(0..LOOPS, 1..200)) {
        let stats = Counters::<INDEX_LANES>::new();
        let mut loops: Vec<RestartLoop<'_, INDEX_LANES>> =
            (0..LOOPS).map(|_| RestartLoop::new(&stats)).collect();
        let mut pauses = [0u64; LOOPS];

        for &i in &picks {
            loops[i].pause();
            pauses[i] += 1;
            let (restarts, escalations) = pauses
                .iter()
                .map(|&n| lanes_for(n))
                .fold((0, 0), |(r, e), (dr, de)| (r + dr, e + de));
            let lanes = stats.sum();
            prop_assert_eq!(lanes[RESTARTS], restarts, "pauses {:?}", pauses);
            prop_assert_eq!(lanes[ESCALATIONS], escalations, "pauses {:?}", pauses);
        }
    }

    #[test]
    fn budgets_partition_every_attempt_count(pauses in 0u64..64) {
        // Every pause lands on exactly one rung: the free first try, one
        // of the two spin bursts, or a yield. Restarts are the spins and
        // yields, escalations the yields.
        let stats = Counters::<INDEX_LANES>::new();
        let mut rs = RestartLoop::new(&stats);
        for _ in 0..pauses {
            rs.pause();
        }
        let free = pauses.min(1);
        let spins = pauses.saturating_sub(1).min(2);
        let yields = pauses.saturating_sub(3);
        prop_assert_eq!(free + spins + yields, pauses);
        let lanes = stats.sum();
        prop_assert_eq!(lanes[RESTARTS], spins + yields);
        prop_assert_eq!(lanes[ESCALATIONS], yields);
        prop_assert_eq!((lanes[RESTARTS], lanes[ESCALATIONS]), lanes_for(pauses));
    }
}

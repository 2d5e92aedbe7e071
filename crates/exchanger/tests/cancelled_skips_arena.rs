//! A transfer whose token is already tripped is refused by the stack
//! without a visit to the elimination arena (`--features stats`): a visit
//! installs a node and spins for a partner, and a partner that came by in
//! that window would pair with a caller that was already cancelled.
//!
//! Probe counters are process-wide, so this binary holds a single test.

#![cfg(feature = "stats")]

use synq::{CancelToken, Deadline, TimedSyncChannel, TransferOutcome};
use synq_exchanger::EliminationSyncStack;
use synq_obs::{Probe, StatsSnapshot};

const ROUNDS: usize = 100;

#[test]
fn a_tripped_token_skips_the_arena() {
    let q = EliminationSyncStack::new();
    let tripped = CancelToken::new();
    tripped.cancel();
    let before = StatsSnapshot::take();
    for _ in 0..ROUNDS {
        assert_eq!(
            q.put_with(7u32, Deadline::Never, Some(&tripped)),
            TransferOutcome::Cancelled(Some(7))
        );
        assert_eq!(
            q.take_with(Deadline::Never, Some(&tripped)),
            TransferOutcome::Cancelled(None)
        );
    }
    let d = StatsSnapshot::take().delta(&before);
    assert_eq!(
        (d.get(Probe::ElimHits), d.get(Probe::ElimMisses)),
        (0, 0),
        "a cancelled caller visited the arena"
    );
    assert_eq!(q.eliminated(), 0);
}

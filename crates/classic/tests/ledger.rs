//! `DualQueue` and `DualStack` retire an unlinked node through the epoch
//! backend's ledger: the closure that releases it counts in
//! `Epoch::pending()` from the unlink until it has run.
//!
//! The ledger is process-wide, so this binary holds a single test.

use std::time::Duration;
use synq_classic::{DualQueue, DualStack};
use synq_reclaim::{Epoch, Reclaimer};

/// Collects until `pending` reads `target`, or gives up after about two
/// seconds; returns it.
fn collect_to(target: usize) -> usize {
    for _ in 0..2_000 {
        if Epoch::pending() == target {
            break;
        }
        Epoch::collect();
        std::thread::sleep(Duration::from_millis(1));
    }
    Epoch::pending()
}

/// Runs `unlink`, which must unlink `nodes` nodes, under a pin that keeps
/// their releases from running, then lets the releases run.
fn releases_are_pending_until_they_run(name: &str, nodes: usize, unlink: impl FnOnce()) {
    let baseline = collect_to(0);
    let guard = Epoch::pin();
    unlink();
    for _ in 0..8 {
        // Nested in `guard`: the epoch cannot advance twice past the unlink.
        Epoch::collect();
    }
    assert_eq!(
        Epoch::pending(),
        baseline + nodes,
        "{name}: the deferred releases are not counted"
    );
    drop(guard);
    assert_eq!(
        collect_to(baseline),
        baseline,
        "{name}: the releases did not run"
    );
}

#[test]
fn a_deferred_node_release_counts_as_pending_until_it_runs() {
    let queue = DualQueue::new();
    queue.enqueue(1);
    // Taking the item advances the head past the old dummy, which retires.
    releases_are_pending_until_they_run("DualQueue", 1, || {
        assert_eq!(queue.try_dequeue(), Some(1));
    });

    let stack = DualStack::new();
    stack.push(1);
    // The taker pushes a fulfilling node onto the data node, and the pair
    // pops together.
    releases_are_pending_until_they_run("DualStack", 2, || {
        assert_eq!(stack.try_pop(), Some(1));
    });
}

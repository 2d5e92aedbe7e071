//! Property tests for the epoch collector: under arbitrary sequences of
//! pin/retire/flush operations, every retired closure runs exactly once,
//! and never while a guard from before its retirement is still alive.
//!
//! Both properties run on the process-wide collector, which the two tests
//! share: each counts only its own closures, and waits for them by
//! collecting in a bounded loop.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synq_reclaim::{pin, Epoch, Guard, Reclaimer, Shield};

#[derive(Debug, Clone)]
enum Op {
    Pin,
    Unpin,
    Defer,
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Pin),
        Just(Op::Unpin),
        Just(Op::Defer),
        Just(Op::Flush),
    ]
}

/// Retires a closure that counts its run on `counter`.
fn retire_counting(guard: &Guard, counter: &Arc<AtomicUsize>) {
    let c = Arc::clone(counter);
    // SAFETY: the closure owns what it touches.
    unsafe {
        guard.defer_retire(0, move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
    };
}

/// Collects until `counter` reads `expected`, or gives up after about two
/// seconds; returns it. Other tests pin the same collector meanwhile.
fn collect_until(counter: &AtomicUsize, expected: usize) -> usize {
    for _ in 0..2_000 {
        if counter.load(Ordering::SeqCst) == expected {
            break;
        }
        Epoch::collect();
        std::thread::sleep(Duration::from_millis(1));
    }
    counter.load(Ordering::SeqCst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_deferral_runs_exactly_once(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut deferred_total = 0usize;
        let mut guards = Vec::new();

        for op in ops {
            match op {
                Op::Pin => {
                    if guards.len() < 8 {
                        guards.push(pin());
                    }
                }
                Op::Unpin => {
                    guards.pop();
                }
                Op::Defer => {
                    if guards.is_empty() {
                        guards.push(pin());
                    }
                    retire_counting(guards.last().unwrap(), &counter);
                    deferred_total += 1;
                }
                Op::Flush => {
                    // Flushing while pinned is allowed; it just may not be
                    // able to advance the epoch.
                    Epoch::collect();
                }
            }
            // Retired closures must never run more often than retired.
            prop_assert!(counter.load(Ordering::SeqCst) <= deferred_total);
        }

        drop(guards);
        prop_assert_eq!(collect_until(&counter, deferred_total), deferred_total);
    }

    #[test]
    fn guards_protect_against_running_deferrals(
        pre_defers in 1usize..40,
        flushes in 1usize..8,
    ) {
        // While an *older* guard is alive, retirements made after it pinned
        // must not run, no matter how hard another thread flushes.
        let blocker = pin();

        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let counter = &counter;
            s.spawn(move || {
                {
                    let g = pin();
                    for _ in 0..pre_defers {
                        retire_counting(&g, counter);
                    }
                }
                for _ in 0..flushes {
                    Epoch::collect();
                }
            });
        });
        prop_assert_eq!(counter.load(Ordering::SeqCst), 0, "freed under an older pin");

        drop(blocker);
        prop_assert_eq!(collect_until(&counter, pre_defers), pre_defers);
    }
}

//! Elimination and exchange: pairing threads off *away* from the hot spot.
//!
//! Run with `cargo run --example work_stealing_rendezvous`.
//!
//! Two demonstrations of the paper's §5 extension machinery:
//!
//! 1. An [`Exchanger`] lets a pair of threads swap work batches
//!    symmetrically — here, a "hot" worker with a surplus trades half its
//!    backlog for an idle worker's empty batch (the classic
//!    work-rebalancing rendezvous).
//! 2. An [`EliminationSyncStack`] serves a burst of producer/consumer
//!    traffic; some pairs meet in its one-slot elimination arena and
//!    never touch the stack head at all.

use std::sync::Arc;
use std::thread;
use synq_suite::core::{SyncChannel, TimedSyncChannel};
use synq_suite::exchanger::{EliminationSyncStack, Exchanger};

fn main() {
    // --- 1. Work rebalancing through an Exchanger -------------------------
    let exchanger: Arc<Exchanger<Vec<u32>>> = Arc::new(Exchanger::new());

    let busy = {
        let x = Arc::clone(&exchanger);
        thread::spawn(move || {
            let backlog: Vec<u32> = (0..100).collect();
            let (keep, give): (Vec<u32>, Vec<u32>) = backlog.into_iter().partition(|v| v % 2 == 0);
            // Swap our surplus for whatever the partner offers (an empty
            // batch, in this case).
            let received = x.exchange(give);
            (keep.len(), received.len())
        })
    };
    let idle = {
        let x = Arc::clone(&exchanger);
        thread::spawn(move || {
            let received = x.exchange(Vec::new());
            received.len()
        })
    };
    let (kept, got_back) = busy.join().unwrap();
    let stolen = idle.join().unwrap();
    println!("busy worker kept {kept}, idle worker took over {stolen} (busy got {got_back} back)");
    assert_eq!(kept, 50);
    assert_eq!(stolen, 50);
    assert_eq!(got_back, 0);

    // --- 2. Elimination-backoff synchronous stack -------------------------
    let stack: Arc<EliminationSyncStack<u64>> = Arc::new(EliminationSyncStack::new());
    const THREADS: usize = 4;
    const PER: usize = 5_000;

    let producers: Vec<_> = (0..THREADS)
        .map(|p| {
            let s = Arc::clone(&stack);
            thread::spawn(move || {
                for i in 0..PER {
                    s.put((p * PER + i) as u64);
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..THREADS)
        .map(|_| {
            let s = Arc::clone(&stack);
            thread::spawn(move || (0..PER).map(|_| s.take()).sum::<u64>())
        })
        .collect();

    for p in producers {
        p.join().unwrap();
    }
    let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    let expected: u64 = (0..(THREADS * PER) as u64).sum();
    assert_eq!(total, expected);
    println!(
        "elimination stack moved {} items; {} transfers met in the arena",
        THREADS * PER,
        stack.eliminated()
    );
    assert_eq!(stack.poll(), None);

    println!("rendezvous example complete");
}

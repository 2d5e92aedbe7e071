//! Quickstart: the synchronous queue API in five minutes.
//!
//! Run with `cargo run --example quickstart`.
//!
//! A synchronous queue has no internal capacity: every `put` waits for a
//! `take` and vice versa — producers and consumers "shake hands and leave
//! in pairs". This example walks through the core API surface: blocking
//! transfer, non-blocking `offer`/`poll`, timed variants, fair vs. unfair
//! pairing, and cancellation.

use std::sync::Arc;
use std::thread;
use std::time::Duration;
use synq_suite::core::{
    CancelToken, Deadline, SyncChannel, SyncDualQueue, SynchronousQueue, TimedSyncChannel,
    TransferOutcome,
};
use synq_suite::reclaim::Hazard;

fn main() {
    // --- 1. Blocking rendezvous -----------------------------------------
    let q = Arc::new(SynchronousQueue::new()); // unfair (stack) mode, like Java
    let q2 = Arc::clone(&q);
    let consumer = thread::spawn(move || {
        let v: String = q2.take(); // blocks until a producer arrives
        println!("consumer received: {v}");
        v
    });
    q.put("hello, rendezvous".to_string()); // blocks until taken
    assert_eq!(consumer.join().unwrap(), "hello, rendezvous");

    // --- 2. Non-blocking probes ------------------------------------------
    // Nobody is waiting, so both fail immediately and hand the item back.
    assert_eq!(q.poll(), None);
    assert_eq!(
        q.offer("nobody is listening".into()),
        Err("nobody is listening".into())
    );

    // --- 3. Patience (timed offer/poll) ----------------------------------
    let started = std::time::Instant::now();
    assert_eq!(q.poll_timeout(Duration::from_millis(50)), None);
    println!("timed poll gave up after {:?}", started.elapsed());

    // --- 4. Fair mode ------------------------------------------------------
    // Fair queues pair strictly FIFO: the longest-waiting producer goes
    // first. (Unfair/stack mode would pair LIFO — better cache locality.)
    let fair = Arc::new(SynchronousQueue::fair());
    let mut producers = Vec::new();
    for i in 0..3u32 {
        let fq = Arc::clone(&fair);
        producers.push(thread::spawn(move || fq.put(i)));
        // Wait until producer i is enqueued so arrival order is fixed.
        while fair.linked_nodes() < (i + 1) as usize {
            thread::yield_now();
        }
    }
    let order: Vec<u32> = (0..3).map(|_| fair.take()).collect();
    println!("fair mode delivered in arrival order: {order:?}");
    assert_eq!(order, vec![0, 1, 2]);
    for p in producers {
        p.join().unwrap();
    }

    // --- 5. Cancellation ("interrupts") ----------------------------------
    let q3: Arc<SynchronousQueue<u32>> = Arc::new(SynchronousQueue::new());
    let token = CancelToken::new();
    let canceller = token.clone();
    let q4 = Arc::clone(&q3);
    let waiter = thread::spawn(move || q4.take_with(Deadline::Never, Some(&token)));
    thread::sleep(Duration::from_millis(30));
    canceller.cancel(); // asynchronously interrupt the blocked take
    match waiter.join().unwrap() {
        TransferOutcome::Cancelled(None) => println!("blocked take was interrupted cleanly"),
        other => panic!("unexpected outcome: {other:?}"),
    }

    // --- 6. Picking a reclamation backend --------------------------------
    // Every structure takes a memory-reclamation backend as a defaulted
    // type parameter: the plain constructors use epoch reclamation (the
    // fastest common case), while the `_in` constructors accept any
    // `Reclaimer` — here hazard pointers, whose unreclaimed garbage stays
    // bounded even if a thread stalls mid-operation (DESIGN.md §4.12).
    let epoch_q: SyncDualQueue<u32> = SyncDualQueue::new(); // default: Epoch
    let hazard_q: Arc<SyncDualQueue<u32, Hazard>> = Arc::new(SyncDualQueue::new_in());
    assert_eq!(epoch_q.poll(), None);
    let hq = Arc::clone(&hazard_q);
    let consumer = thread::spawn(move || hq.take());
    hazard_q.put(42);
    assert_eq!(consumer.join().unwrap(), 42);
    println!("same rendezvous semantics under the hazard-pointer backend");

    println!("quickstart complete");
}

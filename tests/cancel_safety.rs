//! Cancel-safety: dropping a transfer future at *every* protocol state
//! must drop each in-flight item exactly once — never zero times (leak),
//! never twice (double free).
//!
//! The states, in the wait-node protocol's terms:
//!
//! * **unstarted** — future never polled; no node exists yet.
//! * **waiting**  — node published, no counterpart yet; dropping must win
//!   the cancel CAS and retract the reservation.
//! * **claimed/matched** — a fulfiller got there first (its claim can be
//!   mid-flight when the drop runs); dropping must concede and still
//!   settle the deposited item exactly once.
//! * **completed** — the future resolved; dropping it is inert.
//!
//! Every test is a drop-count conservation check on an instrumented
//! payload. These tests run under miri in CI (they use short bounded
//! iterations and no timer thread).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;
use synq::TimedSyncChannel;
use synq_async::{AsyncSyncQueue, AsyncSyncStack, AsyncTransferQueue};

/// Payload whose drops are counted; cloning the counter is not counted.
struct Payload(Arc<AtomicUsize>);

impl Drop for Payload {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("Payload")
    }
}

fn payload() -> (Payload, Arc<AtomicUsize>) {
    let c = Arc::new(AtomicUsize::new(0));
    (Payload(Arc::clone(&c)), c)
}

fn noop_waker() -> Waker {
    struct W;
    impl Wake for W {
        fn wake(self: Arc<Self>) {}
    }
    Waker::from(Arc::new(W))
}

/// Polls `fut` exactly once.
fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    Pin::new(fut).poll(&mut cx)
}

/// Runs epoch collection cycles until deferred releases (and with them
/// `drop_pending_item`) have executed.
fn flush_epochs() {
    for _ in 0..16 {
        synq_reclaim::pin().flush();
    }
}

// ---------------------------------------------------------------- unstarted

#[test]
fn queue_drop_unpolled_send_drops_item_once() {
    let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
    let (p, drops) = payload();
    drop(q.send(p)); // never polled: the item never left the future
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(q.try_recv().is_none(), "no node may have been published");
}

#[test]
fn stack_drop_unpolled_send_drops_item_once() {
    let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
    let (p, drops) = payload();
    drop(s.send(p));
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(s.try_recv().is_none());
}

// ------------------------------------------------------------------ waiting

#[test]
fn queue_drop_waiting_send_drops_item_once() {
    let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
    let (p, drops) = payload();
    let mut fut = q.send(p);
    assert!(poll_once(&mut fut).is_pending(), "no consumer: must wait");
    drop(fut); // cancel CAS wins; the unsent item is settled on the spot
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(q.try_recv().is_none(), "reservation must be retracted");
    drop(q);
    flush_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), 1, "no double drop later");
}

#[test]
fn stack_drop_waiting_send_drops_item_once() {
    let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
    let (p, drops) = payload();
    let mut fut = s.send(p);
    assert!(poll_once(&mut fut).is_pending());
    drop(fut);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(s.try_recv().is_none());
    drop(s);
    flush_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn queue_drop_waiting_recv_retracts_reservation() {
    let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
    let mut fut = q.recv();
    assert!(poll_once(&mut fut).is_pending());
    drop(fut);
    let (p, drops) = payload();
    assert!(
        q.try_send(p).is_err(),
        "the dropped recv's reservation must be gone"
    );
    assert_eq!(drops.load(Ordering::SeqCst), 1, "rejected item came back");
}

#[test]
fn stack_drop_waiting_recv_retracts_reservation() {
    let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
    let mut fut = s.recv();
    assert!(poll_once(&mut fut).is_pending());
    drop(fut);
    let (p, drops) = payload();
    assert!(s.try_send(p).is_err());
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

// --------------------------------------------------------- claimed/matched

#[test]
fn queue_drop_matched_recv_consumes_deposited_item_once() {
    let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
    let mut fut = q.recv();
    assert!(poll_once(&mut fut).is_pending());
    // A producer fulfills the pending reservation...
    let (p, drops) = payload();
    q.try_send(p).expect("reservation is waiting");
    // ...and the consumer is dropped without ever being re-polled: the
    // deposited item must still be dropped exactly once (via the node's
    // final, epoch-deferred release).
    drop(fut);
    drop(q);
    flush_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn stack_drop_matched_recv_consumes_deposited_item_once() {
    let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
    let mut fut = s.recv();
    assert!(poll_once(&mut fut).is_pending());
    let (p, drops) = payload();
    s.try_send(p).expect("reservation is waiting");
    drop(fut);
    drop(s);
    flush_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

/// The one drop rule's middle case, timed: a `recv` whose reservation a
/// producer already fulfilled leaves as that match when it is dropped, so
/// the deposited item goes with the future, at once, not later with the
/// node's retirement.
#[test]
fn drop_fulfilled_recv_drops_deposited_item_at_once() {
    let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
    let mut fut = q.recv();
    assert!(poll_once(&mut fut).is_pending());
    let (p, drops) = payload();
    q.try_send(p).expect("reservation is waiting");
    drop(fut);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "queue: dropped with the recv"
    );

    let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
    let mut fut = s.recv();
    assert!(poll_once(&mut fut).is_pending());
    let (p, drops) = payload();
    s.try_send(p).expect("reservation is waiting");
    drop(fut);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "stack: dropped with the recv"
    );
}

/// Why buffered receivers are *woken to retry* from a wait list instead of
/// being handed their item in a linked reservation, as blocked threads
/// are: a `RecvFuture` can be dropped after it was fulfilled. The dual
/// queue above settles that by dropping the deposited item with the node;
/// a buffered queue may not, because the item is still queued data that
/// the next receiver is owed, in order. So the item stays in the queue
/// until some receiver polls, and a woken future that is dropped instead
/// hands its wakeup to the next pending one.
#[test]
fn buffered_drop_woken_recv_loses_nothing_and_passes_the_wakeup_on() {
    struct CountingWaker(AtomicUsize);
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let wakes = [0, 1].map(|_| Arc::new(CountingWaker(AtomicUsize::new(0))));
    let count = |i: usize| wakes[i].0.load(Ordering::SeqCst);
    let wakers = [0, 1].map(|i| Waker::from(Arc::clone(&wakes[i])));

    let q: AsyncTransferQueue<Payload> = AsyncTransferQueue::bounded(4);
    let mut first = q.recv();
    let mut second = q.recv();
    assert!(Pin::new(&mut first)
        .poll(&mut Context::from_waker(&wakers[0]))
        .is_pending());
    assert!(Pin::new(&mut second)
        .poll(&mut Context::from_waker(&wakers[1]))
        .is_pending());

    let (p, drops) = payload();
    q.try_send(p).expect("the ring has room");
    assert_eq!(
        (count(0), count(1)),
        (1, 0),
        "one item wakes the oldest receiver"
    );
    drop(first); // woken, never re-polled
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "the item is in the queue, not in the dropped future"
    );
    assert_eq!(count(1), 1, "the unused wakeup goes to the next receiver");
    match Pin::new(&mut second).poll(&mut Context::from_waker(&wakers[1])) {
        Poll::Ready(item) => drop(item),
        Poll::Pending => panic!("the buffered item must still be there"),
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(!q.inner().queue().has_waiting_consumer());
}

// ---------------------------------------------------------------- completed

#[test]
fn queue_completed_recv_then_drop_is_single_drop() {
    let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
    let mut fut = q.recv();
    assert!(poll_once(&mut fut).is_pending());
    let (p, drops) = payload();
    q.try_send(p).expect("reservation is waiting");
    match poll_once(&mut fut) {
        Poll::Ready(received) => drop(received),
        Poll::Pending => panic!("matched recv must resolve"),
    }
    drop(fut); // inert: the item already left through Ready
    drop(q);
    flush_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn stack_completed_send_then_drop_is_single_drop() {
    let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
    let mut recv = s.recv();
    assert!(poll_once(&mut recv).is_pending());
    let (p, drops) = payload();
    let mut send = s.send(p);
    assert!(
        poll_once(&mut send).is_ready(),
        "waiting consumer: immediate"
    );
    drop(send);
    match poll_once(&mut recv) {
        Poll::Ready(received) => drop(received),
        Poll::Pending => panic!("fulfilled recv must resolve"),
    }
    drop(recv);
    drop(s);
    flush_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

// ------------------------------------------------- racing drop vs. fulfill

/// The probabilistic sweep over the claim window: a consumer future is
/// dropped *concurrently* with a producer's fulfillment, so the cancel CAS
/// races the claim CAS — sometimes hitting the `CLAIMED` (mid-deposit)
/// state. Whatever interleaving occurs, the payload is dropped exactly
/// once per round.
#[test]
fn queue_racing_drop_vs_fulfill_conserves_items() {
    let rounds = if cfg!(miri) { 8 } else { 400 };
    for _ in 0..rounds {
        let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let mut fut = q.recv();
        assert!(poll_once(&mut fut).is_pending());
        let q2 = q.clone();
        let d2 = Arc::clone(&drops);
        let producer = std::thread::spawn(move || {
            // Timed: if the consumer retracts first, hand the item back
            // (and drop it on return) instead of waiting forever.
            let _ = q2
                .inner()
                .offer_timeout(Payload(d2), Duration::from_millis(10));
        });
        drop(fut);
        producer.join().unwrap();
        drop(q);
        flush_epochs();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}

#[test]
fn stack_racing_drop_vs_fulfill_conserves_items() {
    let rounds = if cfg!(miri) { 8 } else { 400 };
    for _ in 0..rounds {
        let s: AsyncSyncStack<Payload> = AsyncSyncStack::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let mut fut = s.recv();
        assert!(poll_once(&mut fut).is_pending());
        let s2 = s.clone();
        let d2 = Arc::clone(&drops);
        let producer = std::thread::spawn(move || {
            let _ = s2
                .inner()
                .offer_timeout(Payload(d2), Duration::from_millis(10));
        });
        drop(fut);
        producer.join().unwrap();
        drop(s);
        flush_epochs();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}

/// Symmetric race: a *send* future is dropped while a consumer thread
/// tries to claim its published item.
#[test]
fn queue_racing_drop_send_vs_take_conserves_items() {
    let rounds = if cfg!(miri) { 8 } else { 400 };
    for _ in 0..rounds {
        let q: AsyncSyncQueue<Payload> = AsyncSyncQueue::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let p = Payload(Arc::clone(&drops));
        let mut fut = q.send(p);
        assert!(poll_once(&mut fut).is_pending());
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || {
            // Drop any claimed item immediately: it counts as its one drop.
            let _ = q2.inner().poll_timeout(Duration::from_millis(10));
        });
        drop(fut);
        consumer.join().unwrap();
        drop(q);
        flush_epochs();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}

// ------------------------------------------------ bounded buffered sends
//
// A bounded `send` that finds the ring full is a linked waiting put, the
// same node a blocked `put` waits on: dropping its future withdraws it by
// the cancel CAS, or, if a refill or a consumer already claimed it,
// concedes. Either way the item is dropped exactly once: the unsent item
// with the future, a moved one by whoever takes it from the ring, and one
// handed back (its node completed with the item still in it) with the
// node.

/// A bounded(2) async queue holding two counted items: a send now waits.
fn full_bounded() -> (AsyncTransferQueue<Payload>, Arc<AtomicUsize>) {
    let q: AsyncTransferQueue<Payload> = AsyncTransferQueue::bounded(2);
    let drops = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        q.try_send(Payload(Arc::clone(&drops)))
            .expect("the ring has room");
    }
    (q, drops)
}

#[test]
fn transfer_bounded_drop_waiting_send_drops_item_once() {
    let (q, drops) = full_bounded();
    let mut send = q.send(Payload(Arc::clone(&drops)));
    assert!(poll_once(&mut send).is_pending(), "full ring: must wait");
    drop(send); // cancel CAS wins: the unsent item is settled on the spot
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert_eq!(q.inner().queue().len(), 2, "the waiting put is withdrawn");
    for _ in 0..2 {
        drop(q.try_recv().expect("ring item"));
    }
    assert!(q.try_recv().is_none());
    assert_eq!(drops.load(Ordering::SeqCst), 3);
}

#[test]
fn transfer_bounded_drop_moved_send_leaves_its_item_queued() {
    let (q, drops) = full_bounded();
    let mut send = q.send(Payload(Arc::clone(&drops)));
    assert!(poll_once(&mut send).is_pending(), "full ring: must wait");
    // A take frees a slot, and the pop's refill moves the waiting put's
    // item into it and completes the node ...
    drop(q.try_recv().expect("ring item"));
    // ... so the future, dropped without a re-poll, concedes.
    drop(send);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "only the taken item");
    assert_eq!(q.inner().queue().len(), 2, "the sent item is in the ring");
    for _ in 0..2 {
        drop(q.try_recv().expect("ring item"));
    }
    assert_eq!(drops.load(Ordering::SeqCst), 3);
}

/// The hand-back cannot be forced through the public API: it takes a
/// producer that read the linked-data count as 0 just before the waiting
/// put was counted, and whose push lands between a refill's room check
/// and its own push. (`synq-transfer`'s unit tests force it by hand, send
/// future included.) This sweep drives that race: producers hammer the
/// full ring while a consumer frees slots and the pending send is dropped
/// at once, so the future goes in whichever state it was in, the
/// handed-back one among them; every item must be dropped exactly once.
#[test]
fn transfer_bounded_racing_drop_send_vs_refill_conserves_items() {
    let rounds = if cfg!(miri) { 4 } else { 300 };
    for _ in 0..rounds {
        let (q, drops) = full_bounded();
        let mut send = q.send(Payload(Arc::clone(&drops)));
        assert!(poll_once(&mut send).is_pending(), "full ring: must wait");
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let (q, drops) = (q.clone(), Arc::clone(&drops));
                std::thread::spawn(move || {
                    let _ = q
                        .inner()
                        .offer_timeout(Payload(drops), Duration::from_millis(5));
                })
            })
            .collect();
        let taker = {
            let q = q.clone();
            std::thread::spawn(move || {
                while q.try_recv().is_none() {
                    std::hint::spin_loop();
                }
            })
        };
        drop(send);
        taker.join().unwrap();
        for r in racers {
            r.join().unwrap();
        }
        let sent = drops.load(Ordering::SeqCst);
        let queued = q.inner().queue().len();
        drop(q);
        // Two buffered, the send and two racers: five items in all. One
        // left in a retired node goes when the epoch lets it, which tests
        // pinning beside this one can hold up for a while.
        let patience = std::time::Instant::now() + Duration::from_secs(10);
        while drops.load(Ordering::SeqCst) < 5 && std::time::Instant::now() < patience {
            flush_epochs();
            std::thread::yield_now();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            5,
            "{sent} dropped, {queued} queued"
        );
    }
}

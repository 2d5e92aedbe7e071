//! Layer probes: direct timed loops over each layer's public functions, run
//! after the traced workload in the same process. They give the unit costs
//! the ledger multiplies counters by, measured on the same host in the same
//! minute as the counters. Every call the probes make into the workspace
//! crates is in this file.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Poll, Wake, Waker};
use std::time::{Duration, Instant};

use synq::{
    Deadline, PendingTransfer, PollTransferer, SpinPolicy, StartTransfer, SyncChannel,
    SyncDualQueue, SyncDualStack, TimedSyncChannel, TransferOutcome,
};
use synq_async::wheel::TimerWheel;
use synq_async::AsyncSyncQueue;
use synq_baselines::Java5SQ;
use synq_primitives::{Parker, WaitSlot, WaitStrategy};
use synq_reclaim::{Epoch, Reclaimer, Shield};
use synq_transfer::{RingBuffer, TransferQueue};

use crate::host::{spawn_pinned, Clock, Usage};
use crate::report::Values;
use crate::stats::{median, percentile};
use crate::sut::{self, Handoff, Item};
use crate::workloads;

/// Median over batches of the time one call of `f` takes, in ns. Runs
/// batches of `batch` calls until `budget` is spent.
fn time_ns(budget: Duration, batch: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f();
    }
    let mut per_call = Vec::new();
    let end = Instant::now() + budget;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        if Instant::now() >= end {
            break;
        }
    }
    median(&per_call).unwrap_or(0.0)
}

/// Like `time_ns`, and also how often each `synq-obs` counter moved per
/// call (traced build; empty otherwise).
fn time_and_count(
    budget: Duration,
    batch: u64,
    mut f: impl FnMut(),
) -> (f64, BTreeMap<&'static str, f64>) {
    let before: BTreeMap<_, _> = sut::counters().into_iter().collect();
    let mut calls = 0u64;
    let ns = time_ns(budget, batch, || {
        calls += 1;
        f()
    });
    let per_call = sut::counters()
        .into_iter()
        .map(|(name, now)| {
            let delta = now - before.get(name).copied().unwrap_or(0);
            (name, delta as f64 / calls as f64)
        })
        .collect();
    (ns, per_call)
}

/// What the ledger needs beyond the published probe values: how many
/// counted events one probe iteration contains.
#[derive(Debug, Default)]
pub struct UnitCounts {
    pub queue_pair: BTreeMap<&'static str, f64>,
    pub stack_pair: BTreeMap<&'static str, f64>,
    pub linked_pair: BTreeMap<&'static str, f64>,
    pub asynq_pair: BTreeMap<&'static str, f64>,
}

const ITEM: Item = Item {
    seq: 1,
    check: 2,
    stamp_ns: 0,
};

fn pair_1t<Q: PollTransferer<Item>>(q: &Arc<Q>) {
    let StartTransfer::Pending(mut permit) = Q::start_transfer(q, None) else {
        panic!("a reservation on an empty structure must pend");
    };
    match Q::start_transfer(q, Some(ITEM)) {
        StartTransfer::Complete(out) if out.is_success() => {}
        _ => panic!("a producer must fulfil the waiting reservation"),
    }
    let Poll::Ready(TransferOutcome::Transferred(Some(item))) =
        permit.poll_transfer(Waker::noop(), Deadline::Never, None)
    else {
        panic!("a fulfilled reservation must resolve with the item");
    };
    black_box(item);
}

fn cancel_1t<Q: PollTransferer<Item>>(q: &Arc<Q>) {
    let StartTransfer::Pending(permit) = Q::start_transfer(q, None) else {
        panic!("a reservation on an empty structure must pend");
    };
    drop(permit);
}

/// A strategy that spins `0` times and never parks: `await_match` under it
/// spins exactly the budget and gives up.
struct SpinOnly(u32);

impl WaitStrategy for SpinOnly {
    fn spin_budget(&self, _timed: bool) -> u32 {
        self.0
    }
    fn parks(&self) -> bool {
        false
    }
}

struct Java5(Java5SQ<Item>);

impl Handoff for Java5 {
    fn put(&self, item: Item) {
        SyncChannel::put(&self.0, item)
    }
    fn take(&self) -> Item {
        SyncChannel::take(&self.0)
    }
}

/// A bounded transfer queue of one slot: a put finds it full and a take
/// finds it empty unless the other side has just been there, so items go
/// through the waiter lists that `buffered_ring`, in turns, never enters.
/// Waiters spin and never park: at the default policy this ping-pong has two
/// regimes, every wait parked (18 us an item) or every wait caught spinning
/// (0.9 us), and a run lands in either; parking has probes of its own.
struct OneSlot(TransferQueue<Item>);

impl OneSlot {
    fn new() -> OneSlot {
        let spin = SpinPolicy::fixed(sut::UNFAIR_SPINS);
        OneSlot(TransferQueue::bounded_with_spin(1, spin))
    }
}

impl Handoff for OneSlot {
    fn put(&self, item: Item) {
        self.0.put(item)
    }
    fn take(&self) -> Item {
        self.0.take()
    }
}

/// A waker that stamps when it fired and unparks the probing thread.
struct StampWaker {
    fired_ns: AtomicU64,
    clock: Clock,
    thread: std::thread::Thread,
}

impl Wake for StampWaker {
    fn wake(self: Arc<Self>) {
        self.fired_ns.store(self.clock.now_ns(), Ordering::Release);
        self.thread.unpark();
    }
}

/// Runs every probe. `budget` is what one timed loop may spend; the probes
/// that need two threads use `pins`, the others run on `pins[0]`.
pub fn run(pins: [usize; 2], budget: Duration) -> (Values, UnitCounts) {
    let one_thread = spawn_pinned(pins[0], move || single_thread_probes(budget));
    let (mut v, units) = one_thread.join().expect("a probe panicked");
    two_thread_probes(pins, budget, &mut v);
    (v, units)
}

fn single_thread_probes(budget: Duration) -> (Values, UnitCounts) {
    let mut v = Values::new();
    let mut units = UnitCounts::default();
    let clock = Clock::start();
    v.insert(
        "bench.clock_read_ns",
        time_ns(budget, 1024, || {
            black_box(clock.now_ns());
        }),
    );

    // reclaim
    let pin_ns = time_ns(budget, 1024, || drop(black_box(Epoch::pin())));
    v.insert("reclaim.epoch_pin_ns", pin_ns);
    let alloc_only = time_ns(budget, 1024, || {
        let guard = Epoch::pin();
        drop(black_box(Box::new(0u64)));
        drop(guard);
    });
    let mut since_collect = 0u32;
    let retire = time_ns(budget, 1024, || {
        let guard = Epoch::pin();
        let raw = Box::into_raw(Box::new(0u64));
        // SAFETY: `raw` is a fresh allocation nothing else points to; the
        // closure frees it exactly once, on whichever thread runs it.
        unsafe { guard.defer_retire(raw as usize, move || drop(Box::from_raw(raw))) };
        drop(guard);
        since_collect += 1;
        if since_collect == 64 {
            since_collect = 0;
            Epoch::collect();
        }
    });
    v.insert("reclaim.epoch_retire_ns", (retire - alloc_only).max(0.0));

    // primitives (the single-thread part)
    const SPINS: u32 = 100_000;
    let slot: WaitSlot<()> = WaitSlot::new();
    let spin_total = time_ns(budget, 1, || {
        black_box(slot.await_match(Deadline::Never, &SpinOnly(SPINS)));
    });
    v.insert("primitives.spin_iter_ns", spin_total / SPINS as f64);

    // core
    let queue = Arc::new(SyncDualQueue::<Item>::new());
    let (ns, counts) = time_and_count(budget, 256, || pair_1t(&queue));
    v.insert("core.queue_pair_1t_ns", ns);
    units.queue_pair = counts;
    v.insert(
        "core.queue_cancel_1t_ns",
        time_ns(budget, 256, || cancel_1t(&queue)),
    );
    v.insert(
        "core.offer_miss_ns",
        time_ns(budget, 256, || {
            black_box(queue.offer(ITEM).is_err());
        }),
    );
    let stack = Arc::new(SyncDualStack::<Item>::new());
    let (ns, counts) = time_and_count(budget, 256, || pair_1t(&stack));
    v.insert("core.stack_pair_1t_ns", ns);
    units.stack_pair = counts;
    v.insert(
        "core.stack_cancel_1t_ns",
        time_ns(budget, 256, || cancel_1t(&stack)),
    );

    // transfer
    let ring = RingBuffer::<Item>::new(sut::RING_CAPACITY);
    v.insert(
        "transfer.ring_push_pop_ns",
        time_ns(budget, 1024, || {
            black_box(ring.try_push(ITEM).is_ok());
            black_box(ring.try_pop());
        }),
    );
    let (mut batch, mut out) = (Vec::with_capacity(8), Vec::with_capacity(8));
    let batch8 = time_ns(budget, 256, || {
        batch.extend([ITEM; 8]);
        black_box(ring.try_push_batch(&mut batch));
        black_box(ring.try_pop_batch(&mut out, 8));
        out.clear();
    });
    v.insert("transfer.ring_batch8_item_ns", batch8 / 8.0);
    let bounded = TransferQueue::<Item>::bounded(sut::RING_CAPACITY);
    v.insert(
        "transfer.bounded_put_poll_1t_ns",
        time_ns(budget, 1024, || {
            bounded.put(ITEM);
            black_box(bounded.poll());
        }),
    );
    let linked = TransferQueue::<Item>::new();
    let (ns, counts) = time_and_count(budget, 256, || {
        linked.put(ITEM);
        black_box(linked.poll());
    });
    v.insert("transfer.linked_put_poll_1t_ns", ns);
    units.linked_pair = counts;

    // asynq
    let aq = AsyncSyncQueue::<Item>::new();
    let mut cx = std::task::Context::from_waker(Waker::noop());
    let (ns, counts) = time_and_count(budget, 256, || {
        use std::future::Future;
        use std::pin::Pin;
        let mut recv = aq.recv();
        assert!(Pin::new(&mut recv).poll(&mut cx).is_pending());
        let mut send = aq.send(ITEM);
        assert!(Pin::new(&mut send).poll(&mut cx).is_ready());
        let Poll::Ready(item) = Pin::new(&mut recv).poll(&mut cx) else {
            panic!("a fulfilled recv must resolve");
        };
        black_box(item);
    });
    v.insert("asynq.pair_1t_ns", ns);
    units.asynq_pair = counts;
    wheel_probes(&mut v);
    timer_lateness(clock, &mut v);
    (v, units)
}

/// `TimerWheel::insert` and `advance`, timed per entry: 4,096 deadlines
/// spread over the next 400 ms (levels 0 and 1), then one advance past them.
fn wheel_probes(v: &mut Values) {
    const ENTRIES: u32 = 4096;
    let (mut insert, mut fire) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        let origin = Instant::now();
        let wheel = TimerWheel::new(origin);
        let t0 = Instant::now();
        for i in 1..=ENTRIES {
            let at = origin + Duration::from_micros(100 * i as u64);
            black_box(wheel.insert(at, Waker::noop().clone()));
        }
        insert.push(t0.elapsed().as_nanos() as f64 / ENTRIES as f64);
        let t1 = Instant::now();
        let fired = wheel.advance(origin + Duration::from_millis(500));
        fire.push(t1.elapsed().as_nanos() as f64 / ENTRIES as f64);
        assert_eq!(fired.len(), ENTRIES as usize, "every armed entry fires");
    }
    v.insert("asynq.wheel_insert_ns", median(&insert).unwrap_or(0.0));
    v.insert("asynq.wheel_advance_fire_ns", median(&fire).unwrap_or(0.0));
}

/// `timer::wake_at` on an otherwise idle process: how long after its
/// instant each of 100 wakers fired.
fn timer_lateness(clock: Clock, v: &mut Values) {
    let mut late_ns = Vec::new();
    for _ in 0..100 {
        let stamp = Arc::new(StampWaker {
            fired_ns: AtomicU64::new(0),
            clock,
            thread: std::thread::current(),
        });
        let at_ns = clock.now_ns() + 300_000;
        synq_async::timer::wake_at(clock.instant_at(at_ns), Waker::from(stamp.clone()));
        let fired = loop {
            std::thread::park_timeout(Duration::from_millis(100));
            let fired = stamp.fired_ns.load(Ordering::Acquire);
            if fired != 0 {
                break fired;
            }
            assert!(
                clock.now_ns() < at_ns + 1_000_000_000,
                "the timer never fired"
            );
        };
        late_ns.push(fired.saturating_sub(at_ns));
    }
    let us = |p: f64| percentile(&mut late_ns.clone(), p).unwrap_or(0) as f64 / 1e3;
    v.insert("asynq.timer_lateness_p50_us", us(50.0));
    v.insert("asynq.timer_lateness_p99_us", us(99.0));
}

fn two_thread_probes(pins: [usize; 2], budget: Duration, v: &mut Values) {
    // Park ping-pong: each side unparks the other, then parks.
    let clock = Clock::start();
    let (pa, pb) = (Parker::new(), Parker::new());
    let (ua, ub) = (pa.unparker(), pb.unparker());
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let stop = stop.clone();
        spawn_pinned(pins[1], move || {
            while !stop.load(Ordering::Relaxed) {
                pb.park();
                ua.unpark();
            }
        })
    };
    let ping = spawn_pinned(pins[0], move || {
        let (mut trips, mut unparks) = (Vec::new(), Vec::new());
        let end = clock.now_ns() + budget.as_nanos() as u64 * 2;
        let cpu_before = Usage::now().cpu_ns;
        loop {
            let t0 = clock.now_ns();
            ub.unpark();
            let t1 = clock.now_ns();
            pa.park();
            let t2 = clock.now_ns();
            trips.push(t2 - t0);
            unparks.push(t1 - t0);
            if t2 >= end {
                break;
            }
        }
        // One trip is two park/unpark cycles, one on each thread.
        let cycle_cpu_ns = (Usage::now().cpu_ns - cpu_before) as f64 / (2 * trips.len()) as f64;
        stop.store(true, Ordering::Relaxed);
        ub.unpark();
        // Timed park with nobody to unpark it: how far past the time-out.
        let mut overshoot = Vec::new();
        for _ in 0..50 {
            let t0 = clock.now_ns();
            pa.park_timeout(Duration::from_micros(200));
            overshoot.push((clock.now_ns() - t0).saturating_sub(200_000));
        }
        (trips, unparks, overshoot, cycle_cpu_ns)
    });
    let (mut trips, mut unparks, mut overshoot, cycle_cpu_ns) =
        ping.join().expect("park probe panicked");
    echo.join().expect("park echo panicked");
    let clock_ns = v.get("bench.clock_read_ns").copied().unwrap_or(0.0);
    let p50 = |s: &mut Vec<u64>| percentile(s, 50.0).unwrap_or(0) as f64;
    v.insert(
        "primitives.park_roundtrip_ns",
        (p50(&mut trips) - 2.0 * clock_ns).max(0.0),
    );
    v.insert(
        "primitives.unpark_call_ns",
        (p50(&mut unparks) - clock_ns).max(0.0),
    );
    v.insert(
        "primitives.park_timeout_overshoot_us",
        p50(&mut overshoot) / 1e3,
    );
    v.insert("primitives.park_cycle_cpu_ns", cycle_cpu_ns);

    // The paper's reference: the same handoff loop over the Java 5 queue.
    let pair_ns = budget.as_nanos() as u64 * 4;
    let rate = workloads::pair_rate(|| Java5(Java5SQ::fair()), pins, pair_ns);
    v.insert("baselines.java5_fair_ops_per_s", rate);

    // The bounded queue's full/empty waits, through the same loop: time per
    // item, and the share of the puts and takes that waited on a waiter list.
    let before: BTreeMap<_, _> = sut::counters().into_iter().collect();
    let rate = workloads::pair_rate(OneSlot::new, pins, pair_ns);
    let after: BTreeMap<_, _> = sut::counters().into_iter().collect();
    let moved = |name: &str| {
        if !sut::counter_exists(name) {
            println!("warning: this build defines no counter {name:?}; transfer.ring_fallback_share is off");
        }
        let count = |m: &BTreeMap<&str, u64>| m.get(name).copied().unwrap_or(0);
        (count(&after) - count(&before)) as f64
    };
    v.insert("transfer.full_empty_wait_roundtrip_ns", 1e9 / rate);
    let calls = moved("ring.push_items") + moved("ring.pop_items");
    if calls > 0.0 {
        let waits = moved("ring.full_waits") + moved("ring.empty_waits");
        v.insert("transfer.ring_fallback_share", waits / calls);
    }
}

//! A steady defer/collect load on the epoch collector allocates nothing:
//! bags are inline arrays that move into pooled garbage-node skeletons,
//! and inline-sized closures are stored in place. A counting global
//! allocator (per thread, so the test harness's own threads do not count)
//! proves it over 10 k retirements after a warm-up, once with collections
//! on the pin path and once with every collection taken and run by
//! `Reclaimer::reclaim_step`, as a waiter does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use synq_reclaim::{Epoch, Reclaimer, Shield};

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: forwards to the system allocator; the count is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static RAN: AtomicUsize = AtomicUsize::new(0);

/// Both cases read the process-wide `RAN` and `Epoch::pending`.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One pin that retires one closure capturing a word: through the ledger
/// (`defer_retire`) for even `i`, as a plain deferral for odd.
fn retire_one(i: usize) -> <Epoch as Reclaimer>::Guard {
    let guard = Epoch::pin();
    let f = move || {
        RAN.fetch_add(1, Ordering::Relaxed);
    };
    // SAFETY: the closure touches only a static.
    unsafe {
        if i.is_multiple_of(2) {
            guard.defer_retire(8 * (i + 1), f);
        } else {
            guard.defer_unchecked(f);
        }
    }
    guard
}

/// `n` retirements, with an explicit seal-and-collect every 256 on top of
/// the collections the pins make due. The load repeats every 256 items, so
/// a warm-up of many periods has already allocated every garbage-node
/// skeleton it needs.
fn churn(n: usize) {
    for i in 0..n {
        let guard = retire_one(i);
        if i % 256 == 255 {
            guard.flush();
        }
    }
}

/// `n` retirements, each followed by reclamation steps until none is
/// left: every collection a pin makes due is taken by a step, so the pin
/// path never collects, and no seal-and-collect is asked for. Returns how
/// many closures the steps ran.
fn churn_by_steps(n: usize) -> usize {
    let mut stepped = 0;
    for i in 0..n {
        drop(retire_one(i));
        while Epoch::reclaim_step() {
            stepped += 1;
        }
    }
    stepped
}

fn bytes() -> usize {
    BYTES.with(Cell::get)
}

/// Collects until every closure retired so far has run.
fn settle(retired: usize) {
    for _ in 0..8 {
        Epoch::collect();
    }
    assert_eq!(RAN.load(Ordering::Relaxed), retired, "every closure ran");
    assert_eq!(Epoch::pending(), 0);
}

#[test]
fn steady_defer_and_collect_allocate_nothing() {
    let _serial = ONE_AT_A_TIME.lock().unwrap();
    let ran = RAN.load(Ordering::Relaxed);
    churn(10_000);
    let before = bytes();
    churn(10_000);
    assert_eq!(
        bytes() - before,
        0,
        "10 k deferrals plus collections allocated after warm-up"
    );
    settle(ran + 20_000);
}

#[test]
fn steady_defer_drained_by_reclaim_steps_allocates_nothing() {
    const N: usize = 10_000;
    let _serial = ONE_AT_A_TIME.lock().unwrap();
    let ran = RAN.load(Ordering::Relaxed);
    churn_by_steps(N);
    let before = (bytes(), RAN.load(Ordering::Relaxed));
    let stepped = churn_by_steps(N);
    assert_eq!(
        bytes() - before.0,
        0,
        "10 k deferrals drained by reclamation steps allocated after warm-up"
    );
    assert_eq!(
        RAN.load(Ordering::Relaxed) - before.1,
        stepped,
        "a closure ran outside a step"
    );
    // The steps keep up: what is left is the open bag and the bags sealed
    // in the last two epochs, a few hundred closures.
    let behind = ran + 2 * N - RAN.load(Ordering::Relaxed);
    assert!(behind < 512, "{behind} closures left behind the steps");
    settle(ran + 2 * N);
}

//! A steady defer/collect load on the epoch collector allocates nothing:
//! bags are inline arrays that move into pooled garbage-node skeletons,
//! and inline-sized closures are stored in place. A counting global
//! allocator (per thread, so the test harness's own threads do not count)
//! proves it over 10 k retirements after a warm-up, once with collections
//! on the pin path and once with every collection taken and run by
//! `Reclaimer::reclaim_step`, as a waiter does. The same allocator shows
//! that a thread's participant record, freed when it exits, is reused by
//! the next thread rather than allocated again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use synq_reclaim::{Epoch, Reclaimer, Shield};

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Allocations aligned to 128 bytes, process-wide: in this binary, only
/// the epoch collector's per-thread participant records ask for that.
static RECORDS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator; the count is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
        if layout.align() >= 128 {
            RECORDS.fetch_add(1, Ordering::Relaxed);
        }
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

/// The cases read the process-wide `RAN`, `Epoch::pending` and registry.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One pin that retires one closure capturing a word.
fn retire_one(i: usize) -> <Epoch as Reclaimer>::Guard {
    let guard = Epoch::pin();
    // SAFETY: the closure touches only a static.
    unsafe {
        guard.defer_retire(8 * (i + 1), move || {
            RAN.fetch_add(1, Ordering::Relaxed);
        })
    };
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

#[test]
fn an_exited_threads_record_is_reused_not_allocated_again() {
    let _serial = ONE_AT_A_TIME.lock().unwrap();
    let pin_on_a_new_thread = || thread::spawn(|| drop(Epoch::pin())).join().unwrap();
    // The first threads may find every record in use: they leave one free.
    for _ in 0..4 {
        pin_on_a_new_thread();
    }
    let before = RECORDS.load(Ordering::Relaxed);
    for _ in 0..64 {
        pin_on_a_new_thread();
    }
    assert_eq!(
        RECORDS.load(Ordering::Relaxed) - before,
        0,
        "64 threads that pinned one after another allocated records"
    );
}

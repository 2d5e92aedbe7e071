//! A steady defer/collect load on the epoch collector allocates nothing:
//! bags are inline arrays that move into pooled garbage-node skeletons,
//! and inline-sized closures are stored in place. A counting global
//! allocator (per thread, so the test harness's own threads do not count)
//! proves it over 10 k retirements after a warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// `n` pins, each retiring one closure that captures a word, half of them
/// through the ledger (`defer_retire`) and half as plain deferrals; an
/// explicit seal-and-collect every 256 on top of the collector's own every
/// 128 pins. The load repeats every 256 items, so a warm-up of many
/// periods has already allocated every garbage-node skeleton it needs.
fn churn(n: usize) {
    for i in 0..n {
        let guard = Epoch::pin();
        let f = move || {
            RAN.fetch_add(i & 1, Ordering::Relaxed);
        };
        // SAFETY: the closure touches only a static.
        unsafe {
            if i % 2 == 0 {
                guard.defer_retire(8 * (i + 1), f);
            } else {
                guard.defer_unchecked(f);
            }
        }
        if i % 256 == 255 {
            guard.flush();
        }
    }
}

fn bytes() -> usize {
    BYTES.with(Cell::get)
}

#[test]
fn steady_defer_and_collect_allocate_nothing() {
    churn(10_000);
    let before = bytes();
    churn(10_000);
    assert_eq!(
        bytes() - before,
        0,
        "10 k deferrals plus collections allocated after warm-up"
    );
    for _ in 0..8 {
        Epoch::collect();
    }
    assert_eq!(RAN.load(Ordering::Relaxed), 10_000, "every closure ran");
    assert_eq!(Epoch::pending(), 0);
}

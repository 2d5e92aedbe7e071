//! Every node `DualStack` allocates is freed once its releases have run.
//! A pop that finds data on top pushes a fulfilling request node onto it,
//! and the pair pops together; this binary's allocator counts the live
//! nodes, which a 256-byte-aligned item gives a layout nothing else here
//! allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;
use synq_classic::DualStack;
use synq_reclaim::{Epoch, Reclaimer};

#[repr(align(256))]
struct Aligned(usize);

static LIVE_NODES: AtomicIsize = AtomicIsize::new(0);

struct CountAlignedNodes;

// SAFETY: forwards to `System` unchanged.
unsafe impl GlobalAlloc for CountAlignedNodes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.align() == 256 {
            LIVE_NODES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.align() == 256 {
            LIVE_NODES.fetch_sub(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountAlignedNodes = CountAlignedNodes;

#[test]
fn a_pop_that_takes_data_frees_both_nodes() {
    let stack = DualStack::new();
    for i in 0..100 {
        stack.push(Aligned(i));
        assert_eq!(stack.try_pop().map(|a| a.0), Some(i));
    }
    drop(stack);
    // About two seconds for the deferred releases to run.
    for _ in 0..2_000 {
        if LIVE_NODES.load(Ordering::SeqCst) == 0 {
            break;
        }
        Epoch::collect();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(LIVE_NODES.load(Ordering::SeqCst), 0, "nodes leaked");
}

//! Type-erased deferred closures.
//!
//! A `Deferred` stores an arbitrary `FnOnce()` without allocating when the
//! closure fits in three words (the common case: "free this node pointer").
//! Larger closures spill to a `Box`. This mirrors crossbeam-epoch's design;
//! avoiding an allocation per retired node matters because retirement sits
//! on the queue's per-transfer path.

use std::fmt;
use std::mem::{self, MaybeUninit};
use std::ptr;

/// Number of words of inline closure storage.
const DATA_WORDS: usize = 3;

type Data = [usize; DATA_WORDS];

/// A boxed-or-inline `FnOnce()` that can be called exactly once.
pub(crate) struct Deferred {
    call: unsafe fn(*mut u8),
    data: MaybeUninit<Data>,
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Deferred { .. }")
    }
}

// SAFETY: the closure is required to be Send at construction (enforced by
// the caller contract of `Deferred::new` — see `Shield::defer_retire`).
unsafe impl Send for Deferred {}

impl Deferred {
    /// Wraps `f`. The caller promises `f` is safe to call from any thread
    /// (the public API funnels through `unsafe` guard methods that state
    /// this requirement).
    pub(crate) fn new<F: FnOnce()>(f: F) -> Self {
        let size = mem::size_of::<F>();
        let align = mem::align_of::<F>();

        if size <= mem::size_of::<Data>() && align <= mem::align_of::<Data>() {
            let mut data = MaybeUninit::<Data>::uninit();
            // SAFETY: F fits in Data with compatible alignment; we write it
            // and never touch it again until `call` reads it back out.
            unsafe {
                ptr::write(data.as_mut_ptr().cast::<F>(), f);
            }

            unsafe fn call<F: FnOnce()>(raw: *mut u8) {
                // SAFETY: `raw` points at the inline storage holding F,
                // written by `new`; we move it out and call it once.
                let f: F = unsafe { ptr::read(raw.cast::<F>()) };
                f();
            }

            Deferred {
                call: call::<F>,
                data,
            }
        } else {
            let b: Box<F> = Box::new(f);
            let mut data = MaybeUninit::<Data>::uninit();
            // SAFETY: a thin Box pointer always fits in one word.
            unsafe {
                ptr::write(data.as_mut_ptr().cast::<Box<F>>(), b);
            }

            unsafe fn call<F: FnOnce()>(raw: *mut u8) {
                // SAFETY: `raw` holds the Box<F> written by `new`.
                let b: Box<F> = unsafe { ptr::read(raw.cast::<Box<F>>()) };
                (*b)();
            }

            Deferred {
                call: call::<F>,
                data,
            }
        }
    }

    /// Runs the deferred closure, consuming it.
    pub(crate) fn call(mut self) {
        let call = self.call;
        // SAFETY: `self` is consumed, so the closure is called exactly once.
        unsafe { call(self.data.as_mut_ptr().cast::<u8>()) };
        mem::forget(self);
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        // A Deferred that is dropped without being called would leak the
        // closure's captures. This only happens if a Bag is dropped without
        // running (we never do — Bag::drop calls everything), but guard
        // against it by running the closure here too.
        let call = self.call;
        // SAFETY: drop runs at most once and `call` consumes the storage.
        unsafe { call(self.data.as_mut_ptr().cast::<u8>()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn small_closure_runs_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let d = Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        d.call();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn large_closure_spills_to_box_and_runs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let big = [7usize; 16];
        let d = Deferred::new(move || {
            c.fetch_add(big.iter().sum::<usize>(), Ordering::SeqCst);
        });
        d.call();
        assert_eq!(counter.load(Ordering::SeqCst), 7 * 16);
    }

    #[test]
    fn drop_without_call_still_runs_closure() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let d = Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        drop(d);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn captures_are_dropped_exactly_once() {
        struct DropCount(Arc<AtomicUsize>);
        impl Drop for DropCount {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let payload = DropCount(Arc::clone(&drops));
        let d = Deferred::new(move || {
            let _keep = &payload;
        });
        d.call();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}

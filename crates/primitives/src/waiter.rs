//! A lock-free single-slot mailbox for handing a [`Waker`] to a fulfilling
//! thread.
//!
//! Every node in the synchronous dual queue/stack owns one `WaiterCell`. The
//! waiting side *registers* how it wants to be woken just before suspending;
//! the thread that matches (or cancels) the node *takes* the waker and wakes
//! the waiter. A blocked thread registers its parker's waker
//! ([`Parker::waker`](crate::Parker::waker), whose wake is an unpark) and a
//! pending task the waker of its `Context`, so the cell is where the two
//! wait modes converge: a fulfiller never needs to know *what* is waiting
//! on the other side.
//!
//! Both sides race freely: registration and take are single `AtomicPtr`
//! swaps, so the cell never blocks and never loses a wakeup — if `take`
//! runs before `register`, the waiter's post-register re-check of the node
//! state observes the match and skips suspending (and if it does suspend,
//! the matcher's subsequent `take`+wake wakes it). A matcher may instead
//! check [`WaiterCell::is_empty`] first and take only a registered waker,
//! leaving a spinning waiter's line alone: the registration swap and the
//! check are `SeqCst` for that, and the matcher's state write and the
//! waiter's re-check must be too (`WaitSlot::try_fulfill_token`).

use core::task::Waker;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Single-slot, lock-free waker mailbox.
///
/// # Examples
///
/// ```
/// use synq_primitives::{Parker, WaiterCell};
///
/// let cell = WaiterCell::new();
/// let parker = Parker::new();
/// cell.register(parker.waker());
/// if let Some(waker) = cell.take() {
///     waker.wake();
/// }
/// parker.park();
/// ```
#[derive(Debug)]
pub struct WaiterCell {
    slot: AtomicPtr<Waker>,
}

impl Default for WaiterCell {
    fn default() -> Self {
        Self::new()
    }
}

impl WaiterCell {
    /// Creates an empty cell.
    pub fn new() -> Self {
        WaiterCell {
            slot: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Publishes `waker` so a matching thread can wake us. If a waker was
    /// already registered it is replaced (and dropped) — the poll
    /// contract's "only the most recent waker need be woken".
    pub fn register(&self, waker: Waker) {
        let new = Box::into_raw(Box::new(waker));
        // `SeqCst` for a matcher that checks `is_empty` before taking.
        let old = self.slot.swap(new, Ordering::SeqCst);
        if !old.is_null() {
            // SAFETY: non-null slot values are always Box::into_raw results
            // and the swap transferred exclusive ownership to us.
            drop(unsafe { Box::from_raw(old) });
        }
    }

    /// Removes and returns the registered waker, if any. At most one
    /// caller obtains it.
    pub fn take(&self) -> Option<Waker> {
        let old = self.slot.swap(ptr::null_mut(), Ordering::AcqRel);
        if old.is_null() {
            None
        } else {
            // SAFETY: as in `register`, ownership transferred by the
            // swap.
            Some(*unsafe { Box::from_raw(old) })
        }
    }

    /// Takes the waker and wakes the waiter if one was registered.
    /// Convenience for the matcher/canceller side.
    pub fn wake(&self) {
        if let Some(w) = self.take() {
            w.wake();
        }
    }

    /// True if no waker is currently registered. The load is `SeqCst`,
    /// so a matcher whose own state write is `SeqCst` may skip the take
    /// when it finds the cell empty (module docs).
    pub fn is_empty(&self) -> bool {
        self.slot.load(Ordering::SeqCst).is_null()
    }
}

impl Drop for WaiterCell {
    fn drop(&mut self) {
        let old = *self.slot.get_mut();
        if !old.is_null() {
            // SAFETY: exclusive access in Drop; slot values are boxed.
            drop(unsafe { Box::from_raw(old) });
        }
    }
}

// SAFETY: the cell hands `Waker`s (Send + Sync) across threads through an atomic pointer with AcqRel
// transfer-of-ownership.
unsafe impl Send for WaiterCell {}
unsafe impl Sync for WaiterCell {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parker::Parker;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn take_from_empty_is_none() {
        let c = WaiterCell::new();
        assert!(c.take().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn register_then_take() {
        let c = WaiterCell::new();
        let p = Parker::new();
        c.register(p.waker());
        assert!(!c.is_empty());
        let h = c.take().expect("registered");
        assert!(c.is_empty());
        h.wake();
        p.park();
    }

    #[test]
    fn second_take_is_none() {
        let c = WaiterCell::new();
        let p = Parker::new();
        c.register(p.waker());
        assert!(c.take().is_some());
        assert!(c.take().is_none());
    }

    #[test]
    fn reregistration_replaces() {
        let c = WaiterCell::new();
        let p1 = Parker::new();
        let p2 = Parker::new();
        c.register(p1.waker());
        c.register(p2.waker());
        c.wake();
        // p2 got the permit, p1 did not.
        assert!(p2.park_timeout(Duration::from_millis(100)));
        assert!(!p1.park_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn dropping_nonempty_cell_frees_waker() {
        let c = WaiterCell::new();
        let p = Parker::new();
        c.register(p.waker());
        drop(c); // must not leak or double-free (asserted by miri/asan runs)
    }

    #[test]
    fn concurrent_takers_get_at_most_one() {
        for _ in 0..200 {
            let c = Arc::new(WaiterCell::new());
            let p = Parker::new();
            c.register(p.waker());
            let mut handles = Vec::new();
            let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let hits = Arc::clone(&hits);
                handles.push(thread::spawn(move || {
                    if c.take().is_some() {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(hits.load(Ordering::Relaxed), 1);
        }
    }

    /// A countable waker for the task arm.
    fn counting_waker(hits: Arc<std::sync::atomic::AtomicUsize>) -> Waker {
        struct W(Arc<std::sync::atomic::AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        Waker::from(Arc::new(W(hits)))
    }

    #[test]
    fn waker_registration_wakes_task() {
        let c = WaiterCell::new();
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        c.register(counting_waker(Arc::clone(&hits)));
        assert!(!c.is_empty());
        c.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // One-shot: the waker is consumed.
        c.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_thread_parked_through_its_waker_is_woken_exactly_once() {
        let rounds = if cfg!(miri) { 4 } else { 100 };
        for _ in 0..rounds {
            let c = Arc::new(WaiterCell::new());
            let registered = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let waiter = {
                let (c, registered) = (Arc::clone(&c), Arc::clone(&registered));
                thread::spawn(move || {
                    let p = Parker::new();
                    c.register(p.waker());
                    registered.store(true, Ordering::SeqCst);
                    assert!(p.park_timeout(Duration::from_secs(10)), "woken");
                    assert!(!p.park_timeout(Duration::from_millis(5)), "only once");
                })
            };
            while !registered.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            c.wake();
            assert!(c.is_empty(), "the waker was consumed");
            c.wake();
            waiter.join().unwrap();
        }
    }
}

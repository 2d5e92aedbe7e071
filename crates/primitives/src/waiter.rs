//! A lock-free single-slot mailbox for handing a wake handle to a
//! fulfilling thread.
//!
//! Every node in the synchronous dual queue/stack owns one `WaiterCell`. The
//! waiting side *registers* how it wants to be woken just before suspending;
//! the thread that matches (or cancels) the node *takes* the handle and
//! wakes the waiter. Since PR 3 the registered handle is a [`WakeHandle`]:
//! either a thread [`Unparker`] (the blocking wait loop) or a
//! [`core::task::Waker`] (the poll-mode wait loop used by `synq-async`) —
//! the cell itself is the point where the two wait modes converge, so a
//! fulfiller never needs to know *what* is waiting on the other side.
//!
//! Both sides race freely: registration and take are single `AtomicPtr`
//! swaps, so the cell never blocks and never loses a wakeup — if `take`
//! runs before `register`, the waiter's post-register re-check of the node
//! state observes the match and skips suspending (and if it does suspend,
//! the matcher's subsequent `take`+wake wakes it). A matcher may instead
//! check [`WaiterCell::is_empty`] first and take only a registered handle,
//! leaving a spinning waiter's line alone: the registration swap and the
//! check are `SeqCst` for that, and the matcher's state write and the
//! waiter's re-check must be too (`WaitSlot::try_fulfill_token`).

use crate::parker::Unparker;
use core::task::Waker;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// How to wake a waiter: unpark its thread or wake its task.
///
/// The two arms are the paper's `LockSupport.unpark` and the async world's
/// `Waker::wake` — same role, different scheduler.
#[derive(Debug, Clone)]
pub enum WakeHandle {
    /// A blocked thread; waking unparks it.
    Thread(Unparker),
    /// A suspended async task; waking schedules it for re-poll.
    Task(Waker),
}

impl WakeHandle {
    /// Wakes the waiter this handle stands for.
    pub fn wake(self) {
        match self {
            WakeHandle::Thread(u) => u.unpark(),
            WakeHandle::Task(w) => w.wake(),
        }
    }
}

impl From<Unparker> for WakeHandle {
    fn from(u: Unparker) -> Self {
        WakeHandle::Thread(u)
    }
}

impl From<Waker> for WakeHandle {
    fn from(w: Waker) -> Self {
        WakeHandle::Task(w)
    }
}

/// Single-slot, lock-free wake-handle mailbox.
///
/// # Examples
///
/// ```
/// use synq_primitives::{Parker, WaiterCell};
///
/// let cell = WaiterCell::new();
/// let parker = Parker::new();
/// cell.register(parker.unparker());
/// if let Some(handle) = cell.take() {
///     handle.wake();
/// }
/// parker.park();
/// ```
#[derive(Debug)]
pub struct WaiterCell {
    slot: AtomicPtr<WakeHandle>,
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

    /// Publishes `unparker` so a matching thread can wake us. If a handle
    /// was already registered it is replaced (and dropped).
    pub fn register(&self, unparker: Unparker) {
        self.register_handle(WakeHandle::Thread(unparker));
    }

    /// Publishes a clone of `waker` so a matching thread can reschedule our
    /// task. If a handle was already registered it is replaced (and
    /// dropped) — the poll contract's "only the most recent waker need be
    /// woken".
    pub fn register_waker(&self, waker: &Waker) {
        self.register_handle(WakeHandle::Task(waker.clone()));
    }

    /// Publishes an explicit [`WakeHandle`].
    pub fn register_handle(&self, handle: WakeHandle) {
        let new = Box::into_raw(Box::new(handle));
        // `SeqCst` for a matcher that checks `is_empty` before taking.
        let old = self.slot.swap(new, Ordering::SeqCst);
        if !old.is_null() {
            // SAFETY: non-null slot values are always Box::into_raw results
            // and the swap transferred exclusive ownership to us.
            drop(unsafe { Box::from_raw(old) });
        }
    }

    /// Removes and returns the registered handle, if any. At most one
    /// caller obtains it.
    pub fn take(&self) -> Option<WakeHandle> {
        let old = self.slot.swap(ptr::null_mut(), Ordering::AcqRel);
        if old.is_null() {
            None
        } else {
            // SAFETY: as in `register_handle`, ownership transferred by the
            // swap.
            Some(*unsafe { Box::from_raw(old) })
        }
    }

    /// Takes the handle and wakes the waiter if one was registered.
    /// Convenience for the matcher/canceller side.
    pub fn wake(&self) {
        if let Some(h) = self.take() {
            h.wake();
        }
    }

    /// True if no handle is currently registered. The load is `SeqCst`,
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

// SAFETY: the cell hands `WakeHandle`s (Unparker and Waker are both
// Send + Sync) across threads through an atomic pointer with AcqRel
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
        c.register(p.unparker());
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
        c.register(p.unparker());
        assert!(c.take().is_some());
        assert!(c.take().is_none());
    }

    #[test]
    fn reregistration_replaces() {
        let c = WaiterCell::new();
        let p1 = Parker::new();
        let p2 = Parker::new();
        c.register(p1.unparker());
        c.register(p2.unparker());
        c.wake();
        // p2 got the permit, p1 did not.
        assert!(p2.park_timeout(Duration::from_millis(100)));
        assert!(!p1.park_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn dropping_nonempty_cell_frees_handle() {
        let c = WaiterCell::new();
        let p = Parker::new();
        c.register(p.unparker());
        drop(c); // must not leak or double-free (asserted by miri/asan runs)
    }

    #[test]
    fn concurrent_takers_get_at_most_one() {
        for _ in 0..200 {
            let c = Arc::new(WaiterCell::new());
            let p = Parker::new();
            c.register(p.unparker());
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
        c.register_waker(&counting_waker(Arc::clone(&hits)));
        assert!(!c.is_empty());
        c.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // One-shot: the handle is consumed.
        c.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn waker_replaces_unparker_and_vice_versa() {
        let c = WaiterCell::new();
        let p = Parker::new();
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        c.register(p.unparker());
        c.register_waker(&counting_waker(Arc::clone(&hits)));
        c.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "waker replaced unparker");
        assert!(!p.park_timeout(Duration::from_millis(10)));
        // And back: an unparker replaces a registered waker.
        c.register_waker(&counting_waker(Arc::clone(&hits)));
        c.register(p.unparker());
        c.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "unparker replaced waker");
        assert!(p.park_timeout(Duration::from_millis(100)));
    }
}

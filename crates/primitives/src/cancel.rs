//! Cooperative cancellation of waiting operations.
//!
//! The paper requires that "waiting thread\[s\]" can be "asynchronously
//! interrupted" — Java's `Thread.interrupt`. Rust has no ambient thread
//! interruption, so the queues accept an optional [`CancelToken`]: a
//! lightweight flag that waiting loops re-check on every wakeup, paired with
//! a registration list so that cancelling actively wakes whoever is
//! suspended on the token. A registration is a [`WakeHandle`]: a blocked
//! thread's [`Unparker`](crate::Unparker) (`ThreadPoolExecutor::shutdown_now`
//! interrupts idle workers parked in `take` this way) or a pending task's
//! `Waker` (a poll-mode permit polled with the token, or
//! `synq_async::Cancelled`).
//!
//! # Race discipline
//!
//! A waiter registers, *then* re-checks the flag; [`CancelToken::cancel`]
//! sets the flag, *then* drains the list. Whichever order the two
//! interleave in, either the re-check sees the flag or the drain sees the
//! registration, so no waiter suspends past a cancel. [`CancelToken::register`]
//! makes the re-check itself and wakes the handle at once if it finds the
//! token already cancelled.

use crate::waiter::WakeHandle;
use core::task::Waker;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    next_id: AtomicU64,
    waiters: Mutex<Vec<(u64, WakeHandle)>>,
}

/// A cancellation flag observed by waiting queue operations.
///
/// Cloning produces another handle on the same flag; [`CancelToken::cancel`]
/// from any clone trips it.
///
/// # Examples
///
/// ```
/// use synq_primitives::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

/// Removes the registration on drop, so abandoned waits don't accumulate
/// dead handles on long-lived tokens. It shares the token, so a future can
/// keep one across polls.
#[derive(Debug)]
pub struct Registration {
    inner: Arc<Inner>,
    id: u64,
    handle: WakeHandle,
}

impl CancelToken {
    /// Creates an untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Trips the token and wakes every registered waiter.
    pub fn cancel(&self) {
        // Flag before drain: see the module docs' race discipline.
        if self.inner.cancelled.swap(true, Ordering::AcqRel) {
            return; // already cancelled; waiters were already woken
        }
        let waiters = std::mem::take(&mut *self.inner.waiters.lock().unwrap());
        for (_, handle) in waiters {
            handle.wake();
        }
    }

    /// Registers `handle` (an [`Unparker`](crate::Unparker) or a `Waker`)
    /// to be woken if the token is cancelled while the registration guard
    /// is alive. If the token is *already* cancelled the handle is woken
    /// immediately (so the caller's suspension cannot hang).
    pub fn register(&self, handle: impl Into<WakeHandle>) -> Registration {
        let handle = handle.into();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .waiters
            .lock()
            .unwrap()
            .push((id, handle.clone()));
        if self.is_cancelled() {
            handle.clone().wake();
        }
        Registration {
            inner: Arc::clone(&self.inner),
            id,
            handle,
        }
    }

    /// Keeps the task `waker` wakes registered across polls: `held` is
    /// kept if it is a registration on this token that wakes the same task
    /// (`Waker::will_wake`), and replaced by a fresh one otherwise.
    pub fn keep_registered(&self, held: &mut Option<Registration>, waker: &Waker) {
        let current = held.as_ref().is_some_and(|r| {
            Arc::ptr_eq(&r.inner, &self.inner)
                && matches!(&r.handle, WakeHandle::Task(w) if w.will_wake(waker))
        });
        if !current {
            *held = Some(self.register(waker.clone()));
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let mut waiters = self.inner.waiters.lock().unwrap();
        if let Some(pos) = waiters.iter().position(|(id, _)| *id == self.id) {
            waiters.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parker::Parker;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fresh_token_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.clone().is_cancelled());
    }

    #[test]
    fn cancel_is_sticky_and_visible_through_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancel_unparks_registered_waiter() {
        let t = CancelToken::new();
        let c = t.clone();
        let p = Parker::new();
        let _reg = t.register(p.unparker());
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(15));
            c.cancel();
        });
        p.park(); // would hang forever if cancel did not unpark
        assert!(t.is_cancelled());
        h.join().unwrap();
    }

    #[test]
    fn register_on_cancelled_token_wakes_immediately() {
        let t = CancelToken::new();
        t.cancel();
        let p = Parker::new();
        let _reg = t.register(p.unparker());
        assert!(p.park_timeout(Duration::from_secs(5)));
    }

    #[test]
    fn dropped_registration_is_removed() {
        let t = CancelToken::new();
        let p = Parker::new();
        {
            let _reg = t.register(p.unparker());
        }
        t.cancel();
        // The deregistered parker receives no permit.
        assert!(!p.park_timeout(Duration::from_millis(10)));
    }

    /// A countable task waker.
    fn counting_waker() -> (Waker, Arc<std::sync::atomic::AtomicUsize>) {
        struct W(Arc<std::sync::atomic::AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        (Waker::from(Arc::new(W(Arc::clone(&hits)))), hits)
    }

    #[test]
    fn a_task_kept_registered_is_listed_once_and_woken_once() {
        let t = CancelToken::new();
        let (waker, hits) = counting_waker();
        let mut held = None;
        t.keep_registered(&mut held, &waker);
        t.keep_registered(&mut held, &waker.clone());
        assert_eq!(t.inner.waiters.lock().unwrap().len(), 1);
        // Another task replaces the registration.
        let (other, other_hits) = counting_waker();
        t.keep_registered(&mut held, &other);
        assert_eq!(t.inner.waiters.lock().unwrap().len(), 1);
        t.cancel();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(other_hits.load(Ordering::SeqCst), 1);
        // Registering on a cancelled token wakes at once.
        let mut late = None;
        t.keep_registered(&mut late, &waker);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_waiters_all_woken() {
        let t = CancelToken::new();
        let parkers: Vec<Parker> = (0..8).map(|_| Parker::new()).collect();
        let regs: Vec<_> = parkers.iter().map(|p| t.register(p.unparker())).collect();
        t.cancel();
        for p in &parkers {
            assert!(p.park_timeout(Duration::from_secs(5)));
        }
        drop(regs);
    }
}

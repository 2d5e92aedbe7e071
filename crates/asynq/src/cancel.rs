//! Broadcast cancellation for in-flight transfer futures.
//!
//! Any number of tasks wrap their pending futures with
//! [`Cancelled::new`] on one [`CancelToken`], and a single
//! [`CancelToken::cancel`] resolves every one of them to `None` — the
//! "cancellation wave" of a server draining connections on shutdown or
//! deadline. The wrapped future itself is simply *dropped*, which is
//! exactly the cancel-safety contract of the transfer futures
//! ([`crate::future`]): the published node is retracted or conceded, and
//! the unsent item is released exactly once. This module adds no new
//! protocol — it only decides *when* to drop. The token is the one the
//! blocking paths take: the wrapper registers its task with it as a
//! parked thread registers its unparker, and relies on the token's
//! register-then-re-check discipline (`synq_primitives::cancel`).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use synq::CancelToken;
use synq_primitives::cancel::Registration;

/// A future that resolves to `Some(output)` on normal completion, or to
/// `None` once its [`CancelToken`] is cancelled first.
#[must_use = "futures do nothing unless polled or awaited"]
pub struct Cancelled<F: Future + Unpin> {
    token: CancelToken,
    /// The task's registration with `token`, kept across polls.
    registration: Option<Registration>,
    /// `None` after resolution — dropping the inner future on
    /// cancellation runs its retract-or-concede path immediately, not at
    /// wrapper drop.
    inner: Option<F>,
}

impl<F: Future + Unpin> Cancelled<F> {
    /// Wraps `future` so it resolves to `Some(output)` normally, or `None`
    /// — dropping the inner future, which retracts its pending transfer —
    /// once `token` is cancelled.
    pub fn new(token: &CancelToken, future: F) -> Self {
        Cancelled {
            token: token.clone(),
            registration: None,
            inner: Some(future),
        }
    }
}

impl<F: Future + Unpin> Unpin for Cancelled<F> {}

impl<F: Future + Unpin> Future for Cancelled<F> {
    type Output = Option<F::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<F::Output>> {
        let this = &mut *self;
        let inner = this
            .inner
            .as_mut()
            .expect("cancelled future polled after completion");
        // Give the inner future priority: a transfer that is already
        // resolvable completes even if the token fired concurrently.
        let out = match Pin::new(inner).poll(cx) {
            Poll::Ready(out) => Some(out),
            Poll::Pending => {
                // Register, then re-check: a concurrent cancel either sees
                // the registration or is seen here.
                this.token
                    .keep_registered(&mut this.registration, cx.waker());
                if !this.token.is_cancelled() {
                    return Poll::Pending;
                }
                None
            }
        };
        this.inner = None; // on cancellation: drop = retract the transfer
        this.registration = None;
        Poll::Ready(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_on, block_on_all, AsyncSyncQueue};
    use std::time::Duration;

    #[test]
    fn completes_normally_when_token_is_idle() {
        let token = CancelToken::new();
        let q = AsyncSyncQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || block_on(q2.recv()));
        block_on(Cancelled::new(&token, q.send(7u64))).expect("token never cancelled");
        assert_eq!(t.join().unwrap(), 7);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancelled_token_cancels_before_first_poll() {
        let token = CancelToken::new();
        token.cancel();
        let q: AsyncSyncQueue<u64> = AsyncSyncQueue::new();
        assert_eq!(block_on(Cancelled::new(&token, q.send(1))), None);
        // The retracted item must not be visible to a later taker.
        assert_eq!(q.try_recv(), None);
    }

    #[test]
    fn wave_cancels_a_parked_send_and_retracts_the_item() {
        let token = CancelToken::new();
        let q: AsyncSyncQueue<u64> = AsyncSyncQueue::new();
        let waver = token.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waver.cancel();
        });
        // No consumer exists: the send parks until the wave hits it.
        assert_eq!(block_on(Cancelled::new(&token, q.send(9))), None);
        t.join().unwrap();
        assert_eq!(q.try_recv(), None, "cancelled item must be retracted");
    }

    #[test]
    fn wave_sweeps_many_connections_and_spares_completed_ones() {
        let token = CancelToken::new();
        let q: AsyncSyncQueue<u64> = AsyncSyncQueue::new();
        // One receiver pairs with exactly one of the sends; the rest hang
        // until the wave.
        let q2 = q.clone();
        let taker = std::thread::spawn(move || block_on(q2.recv()));
        let waver = token.clone();
        let firer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waver.cancel();
        });
        let sends: Vec<_> = (0..8u64)
            .map(|i| Cancelled::new(&token, q.send(i)))
            .collect();
        let outcomes = block_on_all(sends);
        let completed = outcomes.iter().filter(|o| o.is_some()).count();
        assert_eq!(completed, 1, "exactly the paired send completes");
        taker.join().unwrap();
        firer.join().unwrap();
        assert_eq!(q.try_recv(), None, "every cancelled item retracted");
    }

    #[test]
    fn cancel_is_idempotent_and_observable() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        token.cancel();
        assert!(token.is_cancelled());
    }
}

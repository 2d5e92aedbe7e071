//! The transfer futures: thin state machines over [`PollTransferer`].
//!
//! Every future here is the same three-state machine:
//!
//! 1. **Init** — first poll runs [`PollTransferer::start_transfer`]: the
//!    lock-free phase either resolves immediately (a counterpart was
//!    waiting) or publishes a node and yields a permit.
//! 2. **Waiting** — each poll drives the permit
//!    ([`PendingTransfer::poll_transfer`]), which registers the task's
//!    waker before re-checking state, so the fulfiller's wake is never
//!    lost. Timed futures additionally arm the crate [`timer`]
//!    so an expired deadline gets a re-poll even if no fulfiller arrives.
//! 3. **Done** — terminal; re-polling panics, per the future contract.
//!
//! # Cancel safety
//!
//! Dropping a future mid-wait drops its permit, which runs the same
//! retract-or-concede cancellation CAS a timed-out blocking waiter runs
//! (see [`synq::pollable`]). An unsent item, or an item a fulfiller
//! deposited that this task will never read, is dropped exactly once.
//! Dropping before the first poll or after completion is trivially safe —
//! no node was published, or it was already resolved and released.

use crate::timer;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use synq::pollable::{PendingTransfer, PollTransferer, StartTransfer};
use synq::{Deadline, TransferOutcome};

enum State<T, P> {
    /// Not yet started; holds the item for a send (`None` for a recv).
    Init(Option<T>),
    /// Node published; the permit stands for it.
    Waiting(P),
    /// Resolved (or the permit was consumed); must not poll again.
    Done,
}

/// The shared engine: polls one transfer to a [`TransferOutcome`].
struct RawTransfer<'a, T: Send, Q: PollTransferer<T>> {
    structure: &'a Arc<Q>,
    deadline: Deadline,
    state: State<T, Q::Permit>,
}

impl<T: Send, Q: PollTransferer<T>> RawTransfer<'_, T, Q> {
    fn poll_raw(&mut self, cx: &mut Context<'_>) -> Poll<TransferOutcome<T>> {
        synq_obs::probe!(AsyncPolls);
        loop {
            match &mut self.state {
                State::Init(item) => {
                    let item = item.take();
                    match Q::start_transfer(self.structure, item) {
                        StartTransfer::Complete(out) => {
                            self.state = State::Done;
                            return Poll::Ready(out);
                        }
                        // Fall through to give the permit its first poll —
                        // it must register our waker (and apply an
                        // already-expired deadline) before we return.
                        StartTransfer::Pending(p) => self.state = State::Waiting(p),
                    }
                }
                State::Waiting(p) => {
                    match p.poll_transfer(cx.waker(), self.deadline, None) {
                        Poll::Ready(out) => {
                            self.state = State::Done;
                            return Poll::Ready(out);
                        }
                        Poll::Pending => {
                            synq_obs::probe!(AsyncPendings);
                            // The wait engine has no timer; arrange the
                            // deadline re-poll ourselves.
                            if let Deadline::At(at) = self.deadline {
                                timer::wake_at(at, cx.waker().clone());
                            }
                            return Poll::Pending;
                        }
                    }
                }
                State::Done => panic!("transfer future polled after completion"),
            }
        }
    }
}

macro_rules! transfer_future {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        ///
        /// Created by the methods on [`AsyncChannel`](crate::AsyncChannel),
        /// the type behind every front-end of this crate. Safe to drop at
        /// any point (see the [module docs](self)).
        #[must_use = "futures do nothing unless polled or awaited"]
        pub struct $name<'a, T: Send, Q: PollTransferer<T>> {
            raw: RawTransfer<'a, T, Q>,
        }

        impl<T: Send, Q: PollTransferer<T>> Unpin for $name<'_, T, Q> {}
    };
}

transfer_future! {
    /// Future of an untimed `send`: resolves once a consumer has taken the
    /// item.
    SendFuture
}

transfer_future! {
    /// Future of an untimed `recv`: resolves to the received item once a
    /// producer hands one over.
    RecvFuture
}

transfer_future! {
    /// Future of a timed `send`: resolves to `Ok(())` on handoff or
    /// `Err(item)` — the item handed back — if the deadline passes first.
    SendTimedFuture
}

transfer_future! {
    /// Future of a timed `recv`: resolves to `Some(item)` on handoff or
    /// `None` if the deadline passes first.
    RecvTimedFuture
}

/// Future of an untimed send on any [`PollTransferer`] structure — the
/// generic entry point the typed wrappers (and generic drivers like the
/// `server` bench) build on.
pub fn send<T: Send, Q: PollTransferer<T>>(structure: &Arc<Q>, value: T) -> SendFuture<'_, T, Q> {
    SendFuture {
        raw: RawTransfer {
            structure,
            deadline: Deadline::Never,
            state: State::Init(Some(value)),
        },
    }
}

/// Future of an untimed receive on any [`PollTransferer`] structure.
pub fn recv<T: Send, Q: PollTransferer<T>>(structure: &Arc<Q>) -> RecvFuture<'_, T, Q> {
    RecvFuture {
        raw: RawTransfer {
            structure,
            deadline: Deadline::Never,
            state: State::Init(None),
        },
    }
}

/// Future of a timed send on any [`PollTransferer`] structure: resolves to
/// `Ok(())` on handoff, `Err(item)` if `deadline` passes first.
pub fn send_timed<T: Send, Q: PollTransferer<T>>(
    structure: &Arc<Q>,
    value: T,
    deadline: Deadline,
) -> SendTimedFuture<'_, T, Q> {
    SendTimedFuture {
        raw: RawTransfer {
            structure,
            deadline,
            state: State::Init(Some(value)),
        },
    }
}

/// Future of a timed receive on any [`PollTransferer`] structure: resolves
/// to `Some(item)` on handoff, `None` if `deadline` passes first.
pub fn recv_timed<T: Send, Q: PollTransferer<T>>(
    structure: &Arc<Q>,
    deadline: Deadline,
) -> RecvTimedFuture<'_, T, Q> {
    RecvTimedFuture {
        raw: RawTransfer {
            structure,
            deadline,
            state: State::Init(None),
        },
    }
}

impl<T: Send, Q: PollTransferer<T>> Future for SendFuture<'_, T, Q> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.raw.poll_raw(cx).map(|out| match out {
            TransferOutcome::Transferred(None) => (),
            // Deadline::Never and no token: no other verdict is reachable.
            _ => unreachable!("untimed send cannot time out or be cancelled"),
        })
    }
}

impl<T: Send, Q: PollTransferer<T>> Future for RecvFuture<'_, T, Q> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        self.raw.poll_raw(cx).map(|out| match out {
            TransferOutcome::Transferred(Some(v)) => v,
            _ => unreachable!("untimed recv cannot time out or be cancelled"),
        })
    }
}

impl<T: Send, Q: PollTransferer<T>> Future for SendTimedFuture<'_, T, Q> {
    type Output = Result<(), T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<(), T>> {
        self.raw.poll_raw(cx).map(|out| match out {
            TransferOutcome::Transferred(None) => Ok(()),
            TransferOutcome::Timeout(Some(v)) => Err(v),
            _ => unreachable!("timed send without a token cannot be cancelled"),
        })
    }
}

impl<T: Send, Q: PollTransferer<T>> Future for RecvTimedFuture<'_, T, Q> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        self.raw.poll_raw(cx).map(|out| match out {
            TransferOutcome::Transferred(Some(v)) => Some(v),
            TransferOutcome::Timeout(None) => None,
            _ => unreachable!("timed recv without a token cannot be cancelled"),
        })
    }
}

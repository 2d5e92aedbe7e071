//! # synq-async — async/await front-end for the synq handoff structures
//!
//! The synchronous queues of Scherer, Lea & Scott (PPoPP 2006) pair
//! producers and consumers with no buffering: both sides wait for one
//! another and leave together. The `synq` crate waits by *parking the
//! thread*; this crate waits by *suspending the task* — same dual-queue /
//! dual-stack node protocol, same `WAITING → MATCHED/CANCELLED` state
//! machine, but the waiter registered in a node's mailbox is a
//! [`core::task::Waker`] instead of a thread unparker. A blocking `put`
//! can rendezvous with an async `recv` on the very same structure.
//!
//! * [`AsyncSyncQueue`] — the **fair** (FIFO) variant, on
//!   [`synq::SyncDualQueue`].
//! * [`AsyncSyncStack`] — the **unfair** (LIFO) variant, on
//!   [`synq::SyncDualStack`].
//!
//! Both are aliases of the one front-end type, [`AsyncChannel`], which
//! also carries the buffered variant, [`AsyncTransferQueue`]. All three offer
//! `send(v).await` / `recv().await`, non-suspending `try_send` /
//! `try_recv`, and deadline-carrying `send_timed` / `recv_timed`. The
//! futures are **cancel-safe**: dropping one mid-wait retracts its
//! reservation with the same CAS a timed-out blocking waiter uses, and the
//! in-flight item (unsent, or deposited-but-unread) is dropped exactly
//! once — see [`future`]. [`Cancelled::new`] resolves any of them to
//! `None` when a [`synq::CancelToken`] (the one the blocking calls take)
//! is cancelled.
//!
//! The crate is runtime-agnostic and dependency-free: any executor can
//! poll these futures, and the bundled [`block_on`] / [`block_on_all`]
//! driver is enough for tests, examples, and benchmarks.
//!
//! ```
//! use synq_async::{block_on_all, AsyncSyncQueue};
//!
//! let q = AsyncSyncQueue::new();
//! let (tx, rx) = (q.clone(), q);
//! let outputs = block_on_all(vec![
//!     Box::pin(async move {
//!         tx.send(7u32).await;
//!         None
//!     }) as std::pin::Pin<Box<dyn std::future::Future<Output = _>>>,
//!     Box::pin(async move { Some(rx.recv().await) }),
//! ]);
//! assert_eq!(outputs[1], Some(7));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cancel;
pub mod driver;
pub mod future;
pub mod timer;
pub mod wheel;

pub use cancel::Cancelled;
pub use driver::{block_on, block_on_all};
pub use future::{RecvFuture, RecvTimedFuture, SendFuture, SendTimedFuture};

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;
use synq::{Deadline, PollTransferer, SyncDualQueue, SyncDualStack, TimedSyncChannel};
use synq_transfer::BufferedChannel;

/// An async handoff point over any pollable structure `Q`: `send` and
/// `recv` futures on the structure's two-phase transfer, and `try_*` on its
/// channel methods. The three front-ends are aliases of it, one per
/// structure:
///
/// * [`AsyncSyncQueue`]: fair rendezvous on a [`SyncDualQueue`];
/// * [`AsyncSyncStack`]: unfair rendezvous on a [`SyncDualStack`];
/// * [`AsyncTransferQueue`]: a buffered channel on a [`BufferedChannel`].
///
/// A rendezvous `send` resolves once a consumer has taken the item; a
/// buffered one once the item is queued. Cloning is cheap (`Arc`): all
/// clones address the same structure.
///
/// ```
/// use synq::SyncDualStack;
/// use synq_async::{AsyncChannel, AsyncSyncStack};
///
/// let s: AsyncChannel<u32, SyncDualStack<u32>> = AsyncSyncStack::new();
/// assert_eq!(s.try_send(1), Err(1)); // nobody waiting
/// ```
pub struct AsyncChannel<T, Q> {
    inner: Arc<Q>,
    _item: PhantomData<fn() -> T>,
}

/// The **fair** async handoff point: strict FIFO pairing on a
/// [`SyncDualQueue`].
///
/// # Examples
///
/// ```
/// use synq_async::{block_on, AsyncSyncQueue};
/// use synq::SyncChannel;
/// use std::thread;
///
/// let q = AsyncSyncQueue::new();
/// let q2 = q.clone();
/// // A *blocking* producer pairs with an *async* consumer.
/// let t = thread::spawn(move || q2.inner().put(5u32));
/// assert_eq!(block_on(q.recv()), 5);
/// t.join().unwrap();
/// ```
pub type AsyncSyncQueue<T> = AsyncChannel<T, SyncDualQueue<T>>;

/// The **unfair** async handoff point: LIFO pairing on a
/// [`SyncDualStack`] (better locality, no fairness guarantee).
///
/// # Examples
///
/// ```
/// use synq_async::{block_on, AsyncSyncStack};
/// use std::time::Duration;
///
/// let s: AsyncSyncStack<u8> = AsyncSyncStack::new();
/// // Nobody is sending: a timed recv gives up cleanly.
/// assert_eq!(block_on(s.recv_timed(Duration::from_millis(10))), None);
/// ```
pub type AsyncSyncStack<T> = AsyncChannel<T, SyncDualStack<T>>;

/// The **buffered** async channel: a
/// [`TransferQueue`](synq_transfer::TransferQueue) behind its
/// [`BufferedChannel`] adapter. Unlike the rendezvous front-ends, `send`
/// buffers: it resolves as soon as the item is published. In bounded mode
/// a `send` that cannot enter the ring (it is full, or a `transfer` or
/// another waiting send is queued ahead) suspends on the linked node a
/// blocking bounded `put` would wait on, until its item is moved into the
/// ring; dropping it then withdraws the node. A `recv` is woken from the
/// queue's item wait list to retry, never handed an item, so dropping one
/// loses nothing. Items are received in one FIFO order across sends and
/// synchronous transfers, in both modes.
///
/// # Examples
///
/// ```
/// use synq_async::{block_on, AsyncTransferQueue};
///
/// let q = AsyncTransferQueue::bounded(4);
/// block_on(async {
///     q.send(1u32).await; // buffered: resolves immediately
///     q.send(2).await;
///     assert_eq!(q.recv().await, 1);
///     assert_eq!(q.recv().await, 2);
/// });
/// ```
pub type AsyncTransferQueue<T> = AsyncChannel<T, BufferedChannel<T>>;

impl<T, Q> Clone for AsyncChannel<T, Q> {
    fn clone(&self) -> Self {
        Self::from_arc(Arc::clone(&self.inner))
    }
}

impl<T, Q> std::fmt::Debug for AsyncChannel<T, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("AsyncChannel { .. }")
    }
}

impl<T: Send, Q: PollTransferer<T> + Default> Default for AsyncChannel<T, Q> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, Q: PollTransferer<T> + Default> AsyncChannel<T, Q> {
    /// Creates an empty handoff point.
    pub fn new() -> Self {
        Self::from_arc(Arc::default())
    }
}

impl<T, Q> AsyncChannel<T, Q> {
    /// Wraps an existing structure, so async tasks and blocking threads
    /// can rendezvous on the same instance.
    pub fn from_arc(inner: Arc<Q>) -> Self {
        AsyncChannel {
            inner,
            _item: PhantomData,
        }
    }

    /// The underlying structure, for mixed sync/async use.
    pub fn inner(&self) -> &Arc<Q> {
        &self.inner
    }
}

impl<T: Send, Q: PollTransferer<T> + TimedSyncChannel<T>> AsyncChannel<T, Q> {
    /// Sends `value`, suspending until a consumer takes it (rendezvous) or
    /// until it is queued (buffered; a bounded queue makes it wait for a
    /// ring slot).
    pub fn send(&self, value: T) -> SendFuture<'_, T, Q> {
        future::send(&self.inner, value)
    }

    /// Receives a value, suspending until one is handed over.
    pub fn recv(&self) -> RecvFuture<'_, T, Q> {
        future::recv(&self.inner)
    }

    /// Sends `value` only if that needs no wait (a consumer is already
    /// waiting, or a buffered item can be queued at once); `Err(value)`
    /// otherwise. Never suspends.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        self.inner.offer(value)
    }

    /// Takes a value only if one is already there (a waiting producer, or
    /// a buffered item). Never suspends.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.poll()
    }

    /// Like [`send`](Self::send), but gives up — resolving to
    /// `Err(value)` — if the send cannot complete within `patience`.
    pub fn send_timed(&self, value: T, patience: Duration) -> SendTimedFuture<'_, T, Q> {
        future::send_timed(&self.inner, value, Deadline::after(patience))
    }

    /// Like [`recv`](Self::recv), but gives up — resolving to `None` — if
    /// nothing arrives within `patience`.
    pub fn recv_timed(&self, patience: Duration) -> RecvTimedFuture<'_, T, Q> {
        future::recv_timed(&self.inner, Deadline::after(patience))
    }
}

impl<T: Send> AsyncChannel<T, BufferedChannel<T>> {
    /// A bounded buffered channel: `send` awaits ring space, linked, when
    /// its item cannot enter the cycle-versioned ring (capacity rounded up
    /// to a power of two, minimum 2).
    pub fn bounded(capacity: usize) -> Self {
        Self::from_arc(Arc::new(BufferedChannel::bounded(capacity)))
    }

    /// An unbounded buffered channel: `send` never suspends.
    pub fn unbounded() -> Self {
        Self::from_arc(Arc::new(BufferedChannel::unbounded()))
    }

    /// Ring capacity in bounded mode, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.queue().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synq::SyncChannel;

    #[test]
    fn try_ops_on_empty_fail() {
        let q: AsyncSyncQueue<u32> = AsyncSyncQueue::new();
        assert_eq!(q.try_recv(), None);
        assert_eq!(q.try_send(1), Err(1));
        let s: AsyncSyncStack<u32> = AsyncSyncStack::new();
        assert_eq!(s.try_recv(), None);
        assert_eq!(s.try_send(1), Err(1));
    }

    #[test]
    fn async_send_pairs_with_blocking_take() {
        let q = AsyncSyncQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.inner().take());
        block_on(q.send(9u64));
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn stack_async_pingpong() {
        let s = AsyncSyncStack::new();
        let (a, b) = (s.clone(), s);
        let outs = block_on_all(vec![
            Box::pin(async move {
                a.send(1u32).await;
                a.recv().await
            }) as std::pin::Pin<Box<dyn std::future::Future<Output = u32>>>,
            Box::pin(async move {
                let v = b.recv().await;
                b.send(v + 1).await;
                v
            }),
        ]);
        assert_eq!(outs, vec![2, 1]);
    }

    #[test]
    fn timed_send_expires_and_returns_item() {
        let q: AsyncSyncQueue<String> = AsyncSyncQueue::new();
        let back = block_on(q.send_timed("x".to_string(), Duration::from_millis(20)));
        assert_eq!(back, Err("x".to_string()));
    }

    #[test]
    fn timed_recv_succeeds_before_deadline() {
        let q = AsyncSyncQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().put(3u8);
        });
        assert_eq!(block_on(q.recv_timed(Duration::from_secs(10))), Some(3));
        t.join().unwrap();
    }

    #[test]
    fn buffered_send_does_not_suspend_below_capacity() {
        let q = AsyncTransferQueue::bounded(4);
        assert_eq!(q.capacity(), Some(4));
        block_on(async {
            q.send(1u32).await;
            q.send(2).await;
            assert_eq!(q.recv().await, 1);
            assert_eq!(q.recv().await, 2);
        });
    }

    #[test]
    fn bounded_send_awaits_ring_space() {
        let q = AsyncTransferQueue::bounded(2);
        q.try_send(1u32).unwrap();
        q.try_send(2).unwrap();
        assert_eq!(q.try_send(3), Err(3));
        let q2 = q.clone();
        // A blocking consumer on the same structure frees the slot the
        // suspended async sender is waiting for.
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().queue().take()
        });
        block_on(q.send(3));
        assert_eq!(t.join().unwrap(), 1);
        assert_eq!(q.try_recv(), Some(2));
        assert_eq!(q.try_recv(), Some(3));
    }

    #[test]
    fn buffered_recv_awaits_put_and_timed_send_returns_item() {
        let q = AsyncTransferQueue::bounded(2);
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().put(7u32);
        });
        assert_eq!(block_on(q.recv()), 7);
        t.join().unwrap();
        // Fill the ring; a timed send must give the item back on expiry.
        q.try_send(1).unwrap();
        q.try_send(2).unwrap();
        assert_eq!(block_on(q.send_timed(3, Duration::from_millis(15))), Err(3));
        // And an unbounded channel's send never suspends.
        let u: AsyncTransferQueue<u32> = AsyncTransferQueue::unbounded();
        assert_eq!(u.capacity(), None);
        block_on(async {
            for i in 0..100 {
                u.send(i).await;
            }
        });
        assert_eq!(u.inner().queue().len(), 100);
    }

    #[test]
    fn buffered_recv_gets_sync_transfer_too() {
        let q = AsyncTransferQueue::bounded(4);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.inner().queue().transfer(11u32));
        assert_eq!(block_on(q.recv()), 11);
        t.join().unwrap();
    }
}

//! Object-safe channel traits over synchronous handoff points.
//!
//! The benchmark harness, the thread-pool executor and the conformance test
//! battery all operate on trait objects so that every algorithm — the
//! paper's two new ones and the four baselines — runs under identical
//! drivers. [`SyncChannel`] is the minimal blocking interface every
//! implementation (even Hanson's, which the paper notes cannot support
//! time-out) provides; [`TimedSyncChannel`] adds the rich interface
//! (`offer`/`poll`, patience, cancellation) that the paper's algorithms and
//! the Java SE 5.0 baseline support.

use crate::transferer::{Deadline, TransferOutcome};
use std::time::Duration;
use synq_primitives::CancelToken;

/// Blocking synchronous handoff: the two "demand" methods.
pub trait SyncChannel<T: Send>: Send + Sync {
    /// Transfers `value` to a consumer, waiting for one to arrive.
    fn put(&self, value: T);

    /// Receives a value from a producer, waiting for one to arrive.
    fn take(&self) -> T;

    /// Transfers every item in `items`, in order, blocking as needed; on
    /// return the vector is empty.
    ///
    /// The default delivers one item per [`Self::put`]. Buffered
    /// implementations (the bounded `TransferQueue` ring) override this to
    /// amortize one publication over the whole batch.
    fn send_batch(&self, items: &mut Vec<T>) {
        for value in items.drain(..) {
            self.put(value);
        }
    }

    /// Receives up to `max` items into `out`, blocking until at least one
    /// is available (when `max > 0`). Returns how many items arrived.
    ///
    /// The default receives exactly one item via [`Self::take`]; buffered
    /// implementations drain as many as are immediately available after
    /// the first.
    fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        out.push(self.take());
        1
    }
}

/// The rich interface: non-blocking and timed variants plus cancellation.
pub trait TimedSyncChannel<T: Send>: SyncChannel<T> {
    /// Transfers `value` only if a consumer is already waiting.
    /// Returns the value back on failure.
    fn offer(&self, value: T) -> Result<(), T>;

    /// Receives a value only if a producer is already waiting.
    fn poll(&self) -> Option<T>;

    /// Transfers `value`, waiting up to `patience` for a consumer.
    fn offer_timeout(&self, value: T, patience: Duration) -> Result<(), T>;

    /// Receives a value, waiting up to `patience` for a producer.
    fn poll_timeout(&self, patience: Duration) -> Option<T>;

    /// Fully general producer-side transfer.
    fn put_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T>;

    /// Fully general consumer-side transfer.
    fn take_with(&self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T>;

    /// Transfers as many items from the front of `items` as the channel
    /// will immediately accept (partial progress), leaving the rest in the
    /// vector. Returns how many were sent.
    ///
    /// The default stops at the first [`Self::offer`] refusal, preserving
    /// order; ring-buffered implementations override this with one
    /// tail-update per batch.
    fn try_send_batch(&self, items: &mut Vec<T>) -> usize {
        let mut rest = std::mem::take(items).into_iter();
        let mut sent = 0;
        for value in rest.by_ref() {
            match self.offer(value) {
                Ok(()) => sent += 1,
                Err(back) => {
                    items.push(back);
                    items.extend(rest);
                    break;
                }
            }
        }
        sent
    }

    /// Receives up to `max` immediately-available items into `out` without
    /// blocking. Returns how many arrived.
    fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut got = 0;
        while got < max {
            match self.poll() {
                Some(value) => {
                    out.push(value);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }
}

/// Implements [`SyncChannel`] and [`TimedSyncChannel`] for a type that
/// implements [`Transferer`](crate::Transferer). (A blanket impl would forbid downstream
/// crates from implementing `SyncChannel` directly for algorithms — like
/// Hanson's — that *cannot* support the rich interface.)
#[macro_export]
macro_rules! impl_channels_via_transferer {
    ($ty:ident) => {
        $crate::impl_channels_via_transferer!(@imp ($ty<T>), (T: Send));
    };
    // Variant for types carrying a reclamation-backend parameter: covers
    // every backend, not just the default.
    ($ty:ident<$r:ident: $bound:path>) => {
        $crate::impl_channels_via_transferer!(@imp ($ty<T, $r>), (T: Send, $r: $bound));
    };
    (@imp ($($self_ty:tt)*), ($($gen:tt)*)) => {
        impl<$($gen)*> $crate::SyncChannel<T> for $($self_ty)*
        where
            $($self_ty)*: $crate::Transferer<T> + Send + Sync,
        {
            fn put(&self, value: T) {
                match $crate::Transferer::transfer(self, Some(value), $crate::Deadline::Never, None)
                {
                    $crate::TransferOutcome::Transferred(_) => {}
                    _ => unreachable!("untimed, uncancellable put cannot fail"),
                }
            }

            fn take(&self) -> T {
                match $crate::Transferer::transfer(self, None, $crate::Deadline::Never, None) {
                    $crate::TransferOutcome::Transferred(Some(v)) => v,
                    _ => unreachable!("untimed, uncancellable take cannot fail"),
                }
            }
        }

        impl<$($gen)*> $crate::TimedSyncChannel<T> for $($self_ty)*
        where
            $($self_ty)*: $crate::Transferer<T> + Send + Sync,
        {
            fn offer(&self, value: T) -> Result<(), T> {
                match $crate::Transferer::transfer(self, Some(value), $crate::Deadline::Now, None) {
                    $crate::TransferOutcome::Transferred(_) => Ok(()),
                    other => Err(other.into_inner().expect("failed put returns the item")),
                }
            }

            fn poll(&self) -> Option<T> {
                $crate::Transferer::transfer(self, None, $crate::Deadline::Now, None).into_inner()
            }

            fn offer_timeout(&self, value: T, patience: std::time::Duration) -> Result<(), T> {
                match $crate::Transferer::transfer(
                    self,
                    Some(value),
                    $crate::Deadline::after(patience),
                    None,
                ) {
                    $crate::TransferOutcome::Transferred(_) => Ok(()),
                    other => Err(other.into_inner().expect("failed put returns the item")),
                }
            }

            fn poll_timeout(&self, patience: std::time::Duration) -> Option<T> {
                $crate::Transferer::transfer(self, None, $crate::Deadline::after(patience), None)
                    .into_inner()
            }

            fn put_with(
                &self,
                value: T,
                deadline: $crate::Deadline,
                token: Option<&$crate::CancelToken>,
            ) -> $crate::TransferOutcome<T> {
                $crate::Transferer::transfer(self, Some(value), deadline, token)
            }

            fn take_with(
                &self,
                deadline: $crate::Deadline,
                token: Option<&$crate::CancelToken>,
            ) -> $crate::TransferOutcome<T> {
                $crate::Transferer::transfer(self, None, deadline, token)
            }
        }
    };
}

// The core types get the channel interfaces via the macro.
use crate::dual_queue::SyncDualQueue;
use crate::dual_stack::SyncDualStack;
use crate::queue::SynchronousQueue;
impl_channels_via_transferer!(SyncDualQueue<R: synq_reclaim::Reclaimer>);
impl_channels_via_transferer!(SyncDualStack<R: synq_reclaim::Reclaimer>);
impl_channels_via_transferer!(SynchronousQueue);

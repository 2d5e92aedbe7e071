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
//!
//! Both synchronous dual structures funnel every public operation through
//! one method, exactly as the Java 6 implementation does with its
//! `transfer(e, timed, nanos)`: here [`TimedSyncChannel::transfer`], whose
//! one required method every rich operation is provided over. A `put` is a
//! transfer *of* an item, a `take` is a transfer *requesting* an item, and
//! the symmetric dual-structure code handles both directions.

use crate::Deadline;
use std::time::Duration;
use synq_primitives::CancelToken;

/// Result of a [`TimedSyncChannel::transfer`] call.
///
/// The `Option<T>` payload returns ownership to the caller:
/// * a successful *take* yields `Transferred(Some(v))`;
/// * a successful *put* yields `Transferred(None)`;
/// * a failed *put* hands the un-transferred item back in
///   `Timeout(Some(v))` / `Cancelled(Some(v))`.
#[derive(Debug, PartialEq, Eq)]
pub enum TransferOutcome<T> {
    /// The handoff completed.
    Transferred(Option<T>),
    /// The patience interval elapsed before a counterpart arrived.
    Timeout(Option<T>),
    /// The operation was cancelled via a [`CancelToken`].
    Cancelled(Option<T>),
}

impl<T> TransferOutcome<T> {
    /// True for `Transferred`.
    pub fn is_success(&self) -> bool {
        matches!(self, TransferOutcome::Transferred(_))
    }

    /// Extracts the payload, whatever the outcome.
    pub fn into_inner(self) -> Option<T> {
        match self {
            TransferOutcome::Transferred(v)
            | TransferOutcome::Timeout(v)
            | TransferOutcome::Cancelled(v) => v,
        }
    }

    /// A put's outcome as `offer` reports it: the item back on failure.
    pub(crate) fn sent(self) -> Result<(), T> {
        match self {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("a refused put returns its item")),
        }
    }
}

/// Blocking synchronous handoff: the two "demand" methods.
pub trait SyncChannel<T: Send>: Send + Sync {
    /// Transfers `value` to a consumer, waiting for one to arrive.
    fn put(&self, value: T);

    /// Receives a value from a producer, waiting for one to arrive.
    fn take(&self) -> T;

    /// Transfers every item in `items`, in order, blocking as needed; on
    /// return the vector is empty.
    ///
    /// The default delivers one item per [`Self::put`]. A channel derived
    /// by [`impl_sync_channel!`](crate::impl_sync_channel) first sends what
    /// [`TimedSyncChannel::try_send_batch`] accepts, so a ring-buffered one
    /// publishes each run with one tail update.
    fn send_batch(&self, items: &mut Vec<T>) {
        for value in items.drain(..) {
            self.put(value);
        }
    }

    /// Receives up to `max` items into `out`, blocking until at least one
    /// is available (when `max > 0`). Returns how many items arrived.
    ///
    /// The default receives exactly one item via [`Self::take`]; a channel
    /// derived by [`impl_sync_channel!`](crate::impl_sync_channel) drains
    /// what [`TimedSyncChannel::try_recv_batch`] finds, before and after
    /// blocking for the first.
    fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        out.push(self.take());
        1
    }
}

/// The rich interface: non-blocking and timed variants plus cancellation,
/// all provided over one required method, [`Self::transfer`].
///
/// Implementors: [`crate::SyncDualQueue`], [`crate::SyncDualStack`], the
/// [`crate::SynchronousQueue`] facade, [`crate::transfer::TransferQueue`]
/// (whose producer side is the synchronous `transfer`),
/// [`crate::transfer::BufferedChannel`] (whose is the buffered `put`),
/// `synq_exchanger::EliminationSyncStack`, and the Java SE 5.0 baseline in
/// `synq-baselines`. Each derives its [`SyncChannel`] side with
/// [`impl_sync_channel!`](crate::impl_sync_channel).
pub trait TimedSyncChannel<T: Send>: SyncChannel<T> {
    /// Performs one synchronous handoff.
    ///
    /// * `item`: `Some(v)` acts as a producer, `None` as a consumer.
    /// * `deadline`: patience; [`Deadline::Now`] never waits.
    /// * `token`: optional cancellation ("interrupt") source.
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T>;

    /// Transfers `value` only if a consumer is already waiting.
    /// Returns the value back on failure.
    fn offer(&self, value: T) -> Result<(), T> {
        self.transfer(Some(value), Deadline::Now, None).sent()
    }

    /// Receives a value only if a producer is already waiting.
    fn poll(&self) -> Option<T> {
        self.transfer(None, Deadline::Now, None).into_inner()
    }

    /// Transfers `value`, waiting up to `patience` for a consumer.
    fn offer_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        self.transfer(Some(value), Deadline::after(patience), None)
            .sent()
    }

    /// Receives a value, waiting up to `patience` for a producer.
    fn poll_timeout(&self, patience: Duration) -> Option<T> {
        self.transfer(None, Deadline::after(patience), None)
            .into_inner()
    }

    /// Fully general producer-side transfer.
    fn put_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        self.transfer(Some(value), deadline, token)
    }

    /// Fully general consumer-side transfer.
    fn take_with(&self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T> {
        self.transfer(None, deadline, token)
    }

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

/// Implements [`SyncChannel`] for a type that implements
/// [`TimedSyncChannel`]: `put`/`take` are its untimed, uncancellable
/// `put_with`/`take_with`, and the batches take what its `try_` batches
/// accept before they block. (A blanket impl would forbid downstream
/// crates from implementing `SyncChannel` directly for algorithms — like
/// Hanson's — that *cannot* support the rich interface.)
#[macro_export]
macro_rules! impl_sync_channel {
    ($ty:ident) => {
        impl<T: Send> $crate::SyncChannel<T> for $ty<T>
        where
            $ty<T>: Send + Sync,
        {
            fn put(&self, value: T) {
                let outcome =
                    $crate::TimedSyncChannel::put_with(self, value, $crate::Deadline::Never, None);
                assert!(
                    outcome.is_success(),
                    "untimed, uncancellable put cannot fail"
                );
            }

            fn take(&self) -> T {
                match $crate::TimedSyncChannel::take_with(self, $crate::Deadline::Never, None) {
                    $crate::TransferOutcome::Transferred(Some(v)) => v,
                    _ => unreachable!("untimed, uncancellable take cannot fail"),
                }
            }

            fn send_batch(&self, items: &mut Vec<T>) {
                $crate::TimedSyncChannel::try_send_batch(self, items);
                for value in items.drain(..) {
                    $crate::SyncChannel::put(self, value);
                }
            }

            fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
                if max == 0 {
                    return 0;
                }
                let got = $crate::TimedSyncChannel::try_recv_batch(self, out, max);
                if got > 0 {
                    return got;
                }
                out.push($crate::SyncChannel::take(self));
                1 + $crate::TimedSyncChannel::try_recv_batch(self, out, max - 1)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let t: TransferOutcome<u32> = TransferOutcome::Transferred(Some(5));
        assert!(t.is_success());
        assert_eq!(t.into_inner(), Some(5));
        let t: TransferOutcome<u32> = TransferOutcome::Timeout(Some(7));
        assert!(!t.is_success());
        assert_eq!(t.into_inner(), Some(7));
        let t: TransferOutcome<u32> = TransferOutcome::Cancelled(None);
        assert!(!t.is_success());
        assert_eq!(t.into_inner(), None);
    }
}

//! The `SynchronousQueue` facade: fair or unfair mode behind one type,
//! mirroring `java.util.concurrent.SynchronousQueue`.

use crate::dual_queue::SyncDualQueue;
use crate::dual_stack::SyncDualStack;
use crate::{impl_sync_channel, Deadline, SyncChannel, TimedSyncChannel, TransferOutcome};
use std::time::Duration;
use synq_primitives::{CancelToken, SpinPolicy};

// The variants differ by whole cache-line-padded blocks (the queue pads two
// ends, the stack one). One `Inner` exists per queue and is never moved
// after construction, and boxing a variant would put an indirection on
// every handoff.
#[allow(clippy::large_enum_variant)]
enum Inner<T: Send> {
    Fair(SyncDualQueue<T>),
    Unfair(SyncDualStack<T>),
}

/// A synchronous queue: every `put` waits for a `take` and vice versa.
///
/// Construction selects the pairing policy, as in Java:
///
/// * [`SynchronousQueue::new`] / [`SynchronousQueue::unfair`] — LIFO
///   pairing via the synchronous dual stack (better locality; the Java
///   default).
/// * [`SynchronousQueue::fair`] — strict FIFO pairing via the synchronous
///   dual queue (no starvation; the paper shows fairness costs little with
///   these algorithms).
///
/// The queue itself never holds data: `len()` is always 0 and `peek()`
/// always `None`, just like the Java class.
///
/// # Examples
///
/// Timed rendezvous with a patience interval:
///
/// ```
/// use synq::SynchronousQueue;
/// use std::time::Duration;
///
/// let q: SynchronousQueue<u32> = SynchronousQueue::new();
/// // No consumer shows up in time:
/// assert_eq!(q.offer_timeout(5, Duration::from_millis(10)), Err(5));
/// assert_eq!(q.poll(), None);
/// ```
pub struct SynchronousQueue<T: Send> {
    inner: Inner<T>,
}

impl<T: Send> Default for SynchronousQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> SynchronousQueue<T> {
    /// Unfair (stack-based) mode — the default, as in Java.
    pub fn new() -> Self {
        Self::unfair()
    }

    /// Unfair (LIFO, dual-stack) mode.
    pub fn unfair() -> Self {
        SynchronousQueue {
            inner: Inner::Unfair(SyncDualStack::new()),
        }
    }

    /// Fair (FIFO, dual-queue) mode.
    pub fn fair() -> Self {
        SynchronousQueue {
            inner: Inner::Fair(SyncDualQueue::new()),
        }
    }

    /// Fair mode with an explicit spin policy (ablations).
    pub fn fair_with_spin(spin: SpinPolicy) -> Self {
        SynchronousQueue {
            inner: Inner::Fair(SyncDualQueue::with_spin(spin)),
        }
    }

    /// Unfair mode with an explicit spin policy (ablations).
    pub fn unfair_with_spin(spin: SpinPolicy) -> Self {
        SynchronousQueue {
            inner: Inner::Unfair(SyncDualStack::with_spin(spin)),
        }
    }

    /// True if this queue pairs FIFO.
    pub fn is_fair(&self) -> bool {
        matches!(self.inner, Inner::Fair(_))
    }

    /// Transfers `value`, waiting for a consumer.
    pub fn put(&self, value: T) {
        SyncChannel::put(self, value)
    }

    /// Receives a value, waiting for a producer.
    pub fn take(&self) -> T {
        SyncChannel::take(self)
    }

    /// Transfers `value` only if a consumer is already waiting.
    pub fn offer(&self, value: T) -> Result<(), T> {
        TimedSyncChannel::offer(self, value)
    }

    /// Receives only if a producer is already waiting.
    pub fn poll(&self) -> Option<T> {
        TimedSyncChannel::poll(self)
    }

    /// `offer` with patience.
    pub fn offer_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        TimedSyncChannel::offer_timeout(self, value, patience)
    }

    /// `poll` with patience.
    pub fn poll_timeout(&self, patience: Duration) -> Option<T> {
        TimedSyncChannel::poll_timeout(self, patience)
    }

    /// A synchronous queue buffers nothing: always 0.
    pub fn len(&self) -> usize {
        0
    }

    /// A synchronous queue buffers nothing: always true.
    pub fn is_empty(&self) -> bool {
        true
    }

    /// A synchronous queue buffers nothing: always `None`.
    pub fn peek(&self) -> Option<&T> {
        None
    }

    /// Number of nodes currently linked in the underlying structure
    /// (waiters + not-yet-absorbed cancelled nodes). Diagnostic only.
    pub fn linked_nodes(&self) -> usize {
        match &self.inner {
            Inner::Fair(q) => q.linked_nodes(),
            Inner::Unfair(s) => s.linked_nodes(),
        }
    }
}

impl<T: Send> TimedSyncChannel<T> for SynchronousQueue<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match &self.inner {
            Inner::Fair(q) => q.transfer(item, deadline, token),
            Inner::Unfair(s) => s.transfer(item, deadline, token),
        }
    }
}

impl_sync_channel!(SynchronousQueue);

impl<T: Send> std::fmt::Debug for SynchronousQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.inner {
            Inner::Fair(_) => "fair",
            Inner::Unfair(_) => "unfair",
        };
        f.debug_struct("SynchronousQueue")
            .field("mode", &mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn default_is_unfair_like_java() {
        let q: SynchronousQueue<u8> = SynchronousQueue::new();
        assert!(!q.is_fair());
        assert!(SynchronousQueue::<u8>::fair().is_fair());
    }

    #[test]
    fn java_like_empty_views() {
        let q: SynchronousQueue<u8> = SynchronousQueue::new();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert!(q.peek().is_none());
    }

    #[test]
    fn both_modes_transfer() {
        for q in [SynchronousQueue::fair(), SynchronousQueue::unfair()] {
            let q = Arc::new(q);
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || q2.take());
            q.put(11u32);
            assert_eq!(t.join().unwrap(), 11);
        }
    }

    #[test]
    fn offer_poll_fail_on_empty_in_both_modes() {
        for q in [
            SynchronousQueue::<u8>::fair(),
            SynchronousQueue::<u8>::unfair(),
        ] {
            assert_eq!(q.poll(), None);
            assert_eq!(q.offer(3), Err(3));
        }
    }

    #[test]
    fn timeout_roundtrip_both_modes() {
        for q in [
            SynchronousQueue::<u8>::fair(),
            SynchronousQueue::<u8>::unfair(),
        ] {
            assert_eq!(q.poll_timeout(Duration::from_millis(5)), None);
            assert_eq!(q.offer_timeout(9, Duration::from_millis(5)), Err(9));
        }
    }

    #[test]
    fn spin_policy_constructors() {
        let q = SynchronousQueue::<u8>::fair_with_spin(SpinPolicy::park_immediately());
        assert!(q.is_fair());
        let q = SynchronousQueue::<u8>::unfair_with_spin(SpinPolicy::fixed(4));
        assert!(!q.is_fair());
    }
}

//! Striped handoff lanes: contention-adaptive multi-lane dual structures.
//!
//! Every structure in this crate serializes all threads through one
//! head/tail CAS point — exactly the bottleneck the paper's §5 throughput
//! curves flatten on. [`Striped`] splits that point into `K` independent
//! *lanes*, each a complete dual queue or dual stack, and routes each
//! thread through three phases:
//!
//! 1. **Affine fast path + fail-fast scan.** The thread's affine lane
//!    (dense per-thread hint from [`synq_primitives::lane_hint`], plus a
//!    thread-local *diffraction offset*, see [`crate::contention`]) is
//!    tried first with a non-waiting transfer; on a miss the remaining
//!    lanes are scanned the same way. A waiter anywhere is therefore
//!    always found by any arriving counterpart before it publishes.
//! 2. **Publish.** With no counterpart anywhere, the thread publishes a
//!    wait node on its affine lane via the structure's poll-mode entry
//!    point (so the publication can still be retracted).
//! 3. **Rescan & retract.** A counterpart may have published on a sibling
//!    lane concurrently (it scanned before we published; we scanned before
//!    it published). A `SeqCst` fence followed by a rescan of the sibling
//!    lanes closes this store-buffering race: of two concurrent
//!    publishers, at least one is guaranteed to observe the other (both
//!    fence between their publish-CAS and their rescan loads — Dekker's
//!    argument). Whoever sees a counterpart retracts its own publication
//!    (the same `WAITING → CANCELLED` CAS a timed-out waiter runs; if the
//!    retract loses, a fulfiller already claimed us and we simply finish)
//!    and restarts from phase 1, where the scan will find the counterpart.
//!    Only when the rescan comes up empty does the thread settle into the
//!    ordinary [`WaitSlot`](synq_primitives::WaitSlot) wait.
//!
//! Two threads that keep retracting in lockstep restart the loop under
//! exponential backoff, which breaks the symmetry probabilistically (the
//! same argument as CAS retry loops; there is no bound, but each round is
//! independent and the no-progress window shrinks geometrically).
//!
//! # Semantics and the fairness trade-off
//!
//! Exactly-one-pairing is preserved: every handoff still resolves through
//! exactly one `WaitSlot` claim on exactly one lane, so each send pairs
//! with exactly one receive. What striping weakens is *global ordering*:
//! the fair variant [`StripedSyncQueue`] is FIFO **per lane** but not
//! across lanes — a later producer on a hot lane can be taken before an
//! earlier producer parked on a sibling lane, because consumers scan
//! lanes in their own affinity order. This is the classic
//! throughput-for-fairness trade: the paper's §5 fair queue preserves
//! strict FIFO by funnelling everyone through one tail and pays for it
//! with a flat throughput curve; striping buys back scalability by
//! letting disjoint thread groups rendezvous on disjoint cache lines.
//! `lanes = 1` recovers the exact single-structure semantics (and, within
//! noise, its performance — the router collapses to one fail-fast
//! attempt followed by an ordinary publish). [`StripedSyncStack`] was
//! unfair to begin with; striping merely adds another source of
//! reordering.
//!
//! # Memory layout
//!
//! Each lane is its own `Arc` allocation and both lane types are ≥128-byte
//! aligned (their own `CachePadded` layout guarantees, asserted in their
//! modules), so no two lanes' hot words share a cache line.

use crate::contention;
use crate::pollable::{PendingTransfer, PollTransferer, StartTransfer};
use crate::transferer::{Deadline, TransferOutcome, Transferer};
use crate::{SyncChannel, SyncDualQueue, SyncDualStack, TimedSyncChannel};
use core::task::{Poll, Waker};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use synq_primitives::backoff::{ncpus, Backoff};
use synq_primitives::lane_hint::lane_hint;
use synq_primitives::{CancelToken, SpinPolicy};

/// Most lanes [`Striped::new`] will pick on a large machine; explicit
/// [`Striped::with_lanes`] can exceed this.
const MAX_DEFAULT_LANES: usize = 8;

mod sealed {
    pub trait Sealed {}
    impl<T: Send> Sealed for crate::SyncDualQueue<T> {}
    impl<T: Send> Sealed for crate::SyncDualStack<T> {}
}

/// A dual structure that can serve as one lane of a [`Striped`] router.
///
/// Sealed: the router's liveness argument leans on lane internals (the
/// full-chain `has_waiting` walk, the retractable poll-mode publication),
/// so only the in-crate dual queue and dual stack qualify.
pub trait StripedLane<T: Send>:
    sealed::Sealed + Transferer<T> + PollTransferer<T> + Send + Sync
{
    /// Builds one lane with the given spin policy.
    fn make_lane(spin: SpinPolicy) -> Self;

    /// Racy peek: does this lane hold a still-waiting node of the given
    /// mode (`true` = producer)? See the lane types' `has_waiting`.
    fn lane_has_waiting(&self, is_data: bool) -> bool;

    /// Resolves a published permit by blocking (the structure's ordinary
    /// spin-then-park wait on the already-published node).
    fn wait_permit(
        permit: Self::Permit,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T>;
}

impl<T: Send> StripedLane<T> for SyncDualQueue<T> {
    fn make_lane(spin: SpinPolicy) -> Self {
        SyncDualQueue::with_spin(spin)
    }

    fn lane_has_waiting(&self, is_data: bool) -> bool {
        self.has_waiting(is_data)
    }

    fn wait_permit(
        permit: Self::Permit,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        permit.wait(deadline, token)
    }
}

impl<T: Send> StripedLane<T> for SyncDualStack<T> {
    fn make_lane(spin: SpinPolicy) -> Self {
        SyncDualStack::with_spin(spin)
    }

    fn lane_has_waiting(&self, is_data: bool) -> bool {
        self.has_waiting(is_data)
    }

    fn wait_permit(
        permit: Self::Permit,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        permit.wait(deadline, token)
    }
}

/// K independent dual-structure lanes behind a contention-adaptive router.
///
/// Use the [`StripedSyncQueue`] / [`StripedSyncStack`] aliases. The module
/// docs describe the routing protocol and its fairness trade-off.
///
/// # Examples
///
/// ```
/// use synq::{StripedSyncQueue, SyncChannel};
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(StripedSyncQueue::with_lanes(4));
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put(7u32);
/// assert_eq!(t.join().unwrap(), 7);
/// ```
pub struct Striped<T: Send, S: StripedLane<T>> {
    lanes: Box<[Lane<S>]>,
    _marker: PhantomData<fn(T) -> T>,
}

/// One lane and its "a node was published here" flag. The flag is read
/// before it is written, so a lane in steady use costs its publishers one
/// load of a line that stays shared.
struct Lane<S> {
    inner: Arc<S>,
    used: AtomicBool,
}

/// The striped **fair** variant: K dual-queue lanes, FIFO per lane.
pub type StripedSyncQueue<T> = Striped<T, SyncDualQueue<T>>;

/// The striped **unfair** variant: K dual-stack lanes.
pub type StripedSyncStack<T> = Striped<T, SyncDualStack<T>>;

/// Result of the router's lock-free phase.
enum StripedStart<T, P> {
    Done(TransferOutcome<T>),
    Waiting(P),
}

impl<T: Send, S: StripedLane<T>> Striped<T, S> {
    /// A striped structure with one lane per hardware thread, rounded up
    /// to a power of two and capped at 8 (lane counts beyond the core
    /// count only dilute the scan). One core means one lane — striping a
    /// uniprocessor is pure overhead.
    pub fn new() -> Self {
        Self::with_lanes(ncpus().min(MAX_DEFAULT_LANES).next_power_of_two())
    }

    /// A striped structure with exactly `lanes` lanes (adaptive spin).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_lanes(lanes: usize) -> Self {
        Self::with_config(lanes, SpinPolicy::adaptive())
    }

    /// A striped structure with an explicit lane count and spin policy.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_config(lanes: usize, spin: SpinPolicy) -> Self {
        assert!(lanes > 0, "a striped structure needs at least one lane");
        Striped {
            lanes: (0..lanes)
                // Lanes clone the policy, so a calibrated policy keeps one
                // shared per-structure spin estimate across all lanes.
                .map(|_| Lane {
                    inner: Arc::new(S::make_lane(spin.clone())),
                    used: AtomicBool::new(false),
                })
                .collect(),
            _marker: PhantomData,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of lanes on which at least one node has ever been published
    /// (diagnostic; the scalability bench asserts >1 under contention).
    pub fn lanes_exercised(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.used.load(Ordering::Relaxed))
            .count()
    }

    /// The calling thread's current lane of first resort.
    fn base_lane(&self) -> usize {
        (lane_hint().wrapping_add(contention::offset())) % self.lanes.len()
    }

    /// The router (module docs): fail-fast scan, publish on the affine
    /// lane, fence + rescan, retract on sighting a counterpart. Returns
    /// either a finished outcome or a permit parked-to-be on the affine
    /// lane. CAS-failure feedback for the diffraction policy is applied
    /// around this call in `start_striped`.
    fn route(
        &self,
        mut item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> StripedStart<T, S::Permit> {
        let is_data = item.is_some();
        let n = self.lanes.len();
        let backoff = Backoff::new();
        loop {
            if token.is_some_and(|tk| tk.is_cancelled()) {
                return StripedStart::Done(TransferOutcome::Cancelled(item));
            }
            let base = self.base_lane();
            // Phase 1: fail-fast scan, affine lane first. Any waiter
            // already published anywhere is matched here.
            for k in 0..n {
                match self.lanes[(base + k) % n]
                    .inner
                    .transfer(item, Deadline::Now, None)
                {
                    TransferOutcome::Transferred(payload) => {
                        if k == 0 {
                            synq_obs::probe!(StripedLaneHits);
                        } else {
                            synq_obs::probe!(StripedScans);
                        }
                        return StripedStart::Done(TransferOutcome::Transferred(payload));
                    }
                    // `Timeout` hands a producer's item straight back;
                    // `Cancelled` cannot happen (no token passed down).
                    miss => item = miss.into_inner(),
                }
            }
            // Phase 2: nobody is waiting anywhere. A non-waiting call is
            // done; a timed call whose patience already ran out likewise.
            if deadline.expired() {
                return StripedStart::Done(TransferOutcome::Timeout(item));
            }
            let lane = &self.lanes[base % n];
            let mut permit = match S::start_transfer(&lane.inner, item) {
                StartTransfer::Complete(outcome) => {
                    // A counterpart arrived on our lane while we published.
                    if outcome.is_success() {
                        synq_obs::probe!(StripedLaneHits);
                    }
                    return StripedStart::Done(outcome);
                }
                StartTransfer::Pending(permit) => permit,
            };
            if !lane.used.load(Ordering::Relaxed) {
                lane.used.store(true, Ordering::Relaxed);
            }
            // Phase 3: close the cross-lane race. Our publish-CAS is
            // ordered before these sibling loads by the SeqCst fence; a
            // concurrent publisher on a sibling lane fences symmetrically,
            // so at least one of us observes the other (store-buffering /
            // Dekker). That one retracts and rematches through phase 1.
            fence(Ordering::SeqCst);
            let counterpart =
                (1..n).any(|k| self.lanes[(base + k) % n].inner.lane_has_waiting(!is_data));
            if !counterpart {
                return StripedStart::Waiting(permit);
            }
            match permit.poll_transfer(Waker::noop(), Deadline::Now, None) {
                Poll::Ready(TransferOutcome::Timeout(back)) => {
                    // Retract won: our node is cancelled and off the lane.
                    // Restart; the phase-1 scan will find the counterpart.
                    synq_obs::probe!(StripedRetracts);
                    item = back;
                    backoff.spin();
                }
                Poll::Ready(outcome) => {
                    // A fulfiller beat our retract: the transfer happened.
                    return StripedStart::Done(outcome);
                }
                Poll::Pending => {
                    // CLAIMED: a fulfiller is mid-match on our node; the
                    // wait below resolves immediately. (The no-op waker it
                    // registered is benign: both wait paths re-publish
                    // their real handle and re-check the state.)
                    return StripedStart::Waiting(permit);
                }
            }
        }
    }

    /// `route` plus the thread-local CAS-failure feedback that drives the
    /// diffraction policy ([`crate::contention`]).
    fn start_striped(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> StripedStart<T, S::Permit> {
        let fails_before = contention::cas_fails();
        let result = self.route(item, deadline, token);
        contention::feedback(contention::cas_fails() - fails_before);
        result
    }
}

impl<T: Send, S: StripedLane<T>> Default for Striped<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, S: StripedLane<T>> Transferer<T> for Striped<T, S> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match self.start_striped(item, deadline, token) {
            StripedStart::Done(outcome) => outcome,
            StripedStart::Waiting(permit) => S::wait_permit(permit, deadline, token),
        }
    }
}

/// A published, not-yet-resolved striped transfer: a thin wrapper over the
/// affine lane's own permit (the node lives on that lane; later arrivals
/// find it through their phase-1 scans).
pub struct StripedPermit<T: Send, S: StripedLane<T>> {
    inner: S::Permit,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send, S: StripedLane<T>> PendingTransfer<T> for StripedPermit<T, S> {
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>> {
        self.inner.poll_transfer(waker, deadline, token)
    }
}

impl<T: Send, S: StripedLane<T>> std::fmt::Debug for StripedPermit<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("StripedPermit { .. }")
    }
}

impl<T: Send, S: StripedLane<T>> PollTransferer<T> for Striped<T, S> {
    type Permit = StripedPermit<T, S>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
        // Never/None: poll-mode callers apply deadline and cancellation on
        // each poll. The router still runs its scan/publish/rescan dance,
        // so cross-lane races are closed before the permit is handed out;
        // afterwards the permit behaves exactly like the lane's own
        // (dropping it cancels, polling it resolves).
        match this.start_striped(item, Deadline::Never, None) {
            StripedStart::Done(outcome) => StartTransfer::Complete(outcome),
            StripedStart::Waiting(inner) => StartTransfer::Pending(StripedPermit {
                inner,
                _marker: PhantomData,
            }),
        }
    }
}

// Hand-written (rather than `impl_channels_via_transferer!`, which only
// fits single-parameter types): the same bodies, generic over the lane.
impl<T: Send, S: StripedLane<T>> SyncChannel<T> for Striped<T, S> {
    fn put(&self, value: T) {
        match self.transfer(Some(value), Deadline::Never, None) {
            TransferOutcome::Transferred(_) => {}
            _ => unreachable!("untimed, uncancellable put cannot fail"),
        }
    }

    fn take(&self) -> T {
        match self.transfer(None, Deadline::Never, None) {
            TransferOutcome::Transferred(Some(v)) => v,
            _ => unreachable!("untimed, uncancellable take cannot fail"),
        }
    }
}

impl<T: Send, S: StripedLane<T>> TimedSyncChannel<T> for Striped<T, S> {
    fn offer(&self, value: T) -> Result<(), T> {
        match self.transfer(Some(value), Deadline::Now, None) {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("failed put returns the item")),
        }
    }

    fn poll(&self) -> Option<T> {
        self.transfer(None, Deadline::Now, None).into_inner()
    }

    fn offer_timeout(&self, value: T, patience: std::time::Duration) -> Result<(), T> {
        match self.transfer(Some(value), Deadline::after(patience), None) {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("failed put returns the item")),
        }
    }

    fn poll_timeout(&self, patience: std::time::Duration) -> Option<T> {
        self.transfer(None, Deadline::after(patience), None)
            .into_inner()
    }

    fn put_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        self.transfer(Some(value), deadline, token)
    }

    fn take_with(&self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T> {
        self.transfer(None, deadline, token)
    }
}

impl<T: Send, S: StripedLane<T>> std::fmt::Debug for Striped<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Striped")
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn constructors_and_lane_counts() {
        let q: StripedSyncQueue<u32> = StripedSyncQueue::with_lanes(4);
        assert_eq!(q.lanes(), 4);
        assert_eq!(q.lanes_exercised(), 0);
        let s: StripedSyncStack<u32> = StripedSyncStack::with_lanes(2);
        assert_eq!(s.lanes(), 2);
        let d: StripedSyncQueue<u32> = StripedSyncQueue::new();
        assert!(d.lanes() >= 1);
        assert!(d.lanes().is_power_of_two());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = StripedSyncQueue::<u32>::with_lanes(0);
    }

    #[test]
    fn offer_poll_on_empty_fail_without_publishing() {
        let q: StripedSyncQueue<u32> = StripedSyncQueue::with_lanes(4);
        assert_eq!(q.poll(), None);
        assert_eq!(q.offer(9), Err(9));
        assert_eq!(q.lanes_exercised(), 0, "fail-fast must not publish");
    }

    #[test]
    fn put_take_pair_queue() {
        let q = Arc::new(StripedSyncQueue::with_lanes(4));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(41u32);
        assert_eq!(t.join().unwrap(), 41);
    }

    #[test]
    fn put_take_pair_stack() {
        let s = Arc::new(StripedSyncStack::with_lanes(4));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || s2.put("x"));
        assert_eq!(s.take(), "x");
        t.join().unwrap();
    }

    #[test]
    fn timed_poll_expires() {
        let q: StripedSyncQueue<u8> = StripedSyncQueue::with_lanes(2);
        assert_eq!(q.poll_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn offer_timeout_returns_item() {
        let q: StripedSyncQueue<String> = StripedSyncQueue::with_lanes(2);
        let back = q
            .offer_timeout("payload".into(), Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(back, "payload");
    }

    #[test]
    fn cancellation_interrupts_waiting_take() {
        let q: Arc<StripedSyncQueue<u8>> = Arc::new(StripedSyncQueue::with_lanes(4));
        let token = CancelToken::new();
        let canceller = token.canceller();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take_with(Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_returns_item_to_producer() {
        let q: Arc<StripedSyncQueue<Vec<u8>>> = Arc::new(StripedSyncQueue::with_lanes(4));
        let token = CancelToken::new();
        let canceller = token.canceller();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.put_with(vec![1, 2], Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(Some(v)) => assert_eq!(v, vec![1, 2]),
            other => panic!("expected Cancelled(item), got {other:?}"),
        }
    }

    #[test]
    fn cross_lane_rendezvous_under_stress() {
        // Many producers and consumers on more lanes than threads: every
        // value must arrive exactly once even though the sides routinely
        // publish on different lanes.
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER: usize = 250;
        let q = Arc::new(StripedSyncQueue::with_lanes(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(p * PER + i);
                }
            }));
        }
        let sums: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sum = 0usize;
                    for _ in 0..(PRODUCERS * PER / CONSUMERS) {
                        sum += q.take();
                    }
                    sum
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = sums.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..PRODUCERS * PER).sum::<usize>());
    }

    #[test]
    fn stack_values_conserved_under_stress() {
        const PAIRS: usize = 4;
        const PER: usize = 250;
        let s = Arc::new(StripedSyncStack::with_lanes(4));
        let producers: Vec<_> = (0..PAIRS)
            .map(|p| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    for i in 0..PER {
                        s.put(p * PER + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..PAIRS)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || (0..PER).map(|_| s.take()).sum::<usize>())
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..PAIRS * PER).sum::<usize>());
    }

    #[test]
    fn per_lane_fifo_is_preserved_with_one_lane() {
        // lanes = 1 must recover the exact FIFO semantics of the plain
        // dual queue (global order == per-lane order).
        let q = Arc::new(StripedSyncQueue::with_lanes(1));
        let mut producers = Vec::new();
        for i in 0..5u32 {
            let q2 = Arc::clone(&q);
            producers.push(thread::spawn(move || q2.put(i)));
            while q.lanes[0].inner.linked_nodes() < (i + 1) as usize {
                thread::yield_now();
            }
        }
        for expect in 0..5u32 {
            assert_eq!(q.take(), expect);
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn poll_mode_pending_consumer_is_woken_and_resolves() {
        // The generic poll-mode rendezvous, through the striped router.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q: Arc<StripedSyncQueue<u32>> = Arc::new(StripedSyncQueue::with_lanes(4));
        let StartTransfer::Pending(mut permit) = StripedSyncQueue::start_transfer(&q, None) else {
            panic!("empty structure must publish a reservation");
        };
        let hits = Arc::new(AtomicUsize::new(0));
        struct W(Arc<AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let waker = Waker::from(Arc::new(W(Arc::clone(&hits))));
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        // A producer must find the reservation during its phase-1 scan,
        // whatever lane it is affine to.
        match StripedSyncQueue::start_transfer(&q, Some(77)) {
            StartTransfer::Complete(TransferOutcome::Transferred(None)) => {}
            other => panic!("producer must complete against the reservation: {other:?}"),
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1, "exactly one wakeup");
        match permit.poll_transfer(&waker, Deadline::Never, None) {
            Poll::Ready(TransferOutcome::Transferred(Some(77))) => {}
            other => panic!("expected the item, got {other:?}"),
        }
    }

    #[test]
    fn dropping_pending_permit_cancels_reservation() {
        let q: Arc<StripedSyncQueue<u32>> = Arc::new(StripedSyncQueue::with_lanes(4));
        let StartTransfer::Pending(permit) = StripedSyncQueue::start_transfer(&q, None) else {
            panic!("expected a pending reservation");
        };
        drop(permit);
        assert_eq!(q.offer(1), Err(1), "cancelled reservation must be gone");
    }
}

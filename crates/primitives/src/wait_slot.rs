//! The shared wait-node protocol engine.
//!
//! Every synchronous structure in this suite — the dual queue, the dual
//! stack, the §5 TransferQueue, the parking exchanger, and the elimination
//! arena — resolves a handoff the same way: a thread reserves a node, a
//! counterpart races a *fulfill* CAS against the reserver's *cancel* CAS,
//! and exactly one of them wins. `WaitSlot` is that state machine plus the
//! item cell and the spin-then-park wait loop, extracted so there is one
//! place to audit the unsafe code and the memory orderings (DESIGN.md §4.7).
//!
//! # State machine
//!
//! ```text
//!               try_claim                complete
//!   WAITING ───────────────▶ CLAIMED ──────────────▶ MATCHED
//!      │                                                ▲
//!      │  try_fulfill_token(t)  (t ≥ MIN_TOKEN)         │ (terminal)
//!      ├────────────────────────────────────────────────┘
//!      │  try_cancel
//!      └───────────────▶ CANCELLED                       (terminal)
//! ```
//!
//! Every transition moves forward: a slot leaves `WAITING` at most once,
//! and nothing returns it there. A reader that sees any other state may
//! rely on never seeing `WAITING` again. The poll-mode permits lean on
//! this when a cancel loses to a claim in progress: the claim can only
//! end in `MATCHED`.
//!
//! Fulfillers that must move data in *both* directions (queue/transfer:
//! read the waiter's item, or deposit one) go through the two-phase
//! `try_claim` → `put_item`/`take_item` → `complete` path; `CLAIMED` is the
//! short window in which the fulfiller owns the item cell. A fulfiller that
//! needs no cell access before the match (the dual stack's consumer, which
//! takes a waiting producer's item only once the match is decided) uses
//! the one-shot `try_fulfill_token`, which stores any `usize ≥ MIN_TOKEN`
//! and so clears the four reserved control values.
//!
//! # Item ownership
//!
//! The slot tracks the item cell with two flags: `filled` (an initialized
//! `T` was written) and `consumed` (it was read back out). Exactly one of
//! `take_item`/`reclaim_item`/drop consumes a filled cell, so an item is
//! never dropped twice and never leaked — `Drop` for `WaitSlot` releases a
//! filled-but-unconsumed item, which is what makes cancelled producer
//! nodes safe to reclaim without per-call-site cleanup code.

use crate::cancel::CancelToken;
use crate::deadline::Deadline;
use crate::parker::Parker;
use crate::spin::{ADAPTIVE_SPIN_CAP, DEADLINE_POLL_INTERVAL};
use crate::wait::WaitStrategy;
use crate::waiter::WaiterCell;
use core::task::{Poll, Waker};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// No outcome yet; fulfillers and cancellers may race.
pub const WAITING: usize = 0;
/// A fulfiller won the race and is moving the item; match is imminent.
pub const CLAIMED: usize = 1;
/// The handoff completed (terminal).
pub const MATCHED: usize = 2;
/// The waiter withdrew before a fulfiller arrived (terminal).
pub const CANCELLED: usize = 3;
/// Smallest value usable with [`WaitSlot::try_fulfill_token`]. Pointer
/// tokens satisfy this automatically: heap nodes are at least
/// word-aligned, so their addresses are ≥ `MIN_TOKEN` and distinct from
/// the four control states.
pub const MIN_TOKEN: usize = 4;

/// Why [`WaitSlot::await_outcome`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A fulfiller completed the handoff. The payload is the terminal
    /// state word: [`MATCHED`], or the token a [`WaitSlot::try_fulfill_token`]
    /// fulfiller stored.
    Matched(usize),
    /// The deadline (or a non-parking strategy's spin budget) expired and
    /// the waiter won the cancel race.
    TimedOut,
    /// The cancellation token fired and the waiter won the cancel race.
    Cancelled,
}

/// One wait-node: the four-state word, the item cell, and the waiter
/// mailbox, with the spin-then-park loop that animates them.
///
/// Structures embed a `WaitSlot<T>` per node and keep only their linking
/// (queue/stack pointers, the node's exit flag) local.
#[derive(Debug)]
pub struct WaitSlot<T> {
    state: AtomicUsize,
    item: UnsafeCell<MaybeUninit<T>>,
    /// An initialized `T` has been written to `item`.
    filled: AtomicBool,
    /// The initialized `T` has been moved back out of `item`.
    consumed: AtomicBool,
    waiter: WaiterCell,
}

// SAFETY: the item cell is transferred between threads only through the
// state-word CAS protocol (Release writes happen-before the Acquire load
// that licenses the read); a won claim, a terminal state or a won cancel
// makes one thread the reader, and the consumed/filled flags record what it
// did. T: Send suffices because only ownership moves across threads.
unsafe impl<T: Send> Send for WaitSlot<T> {}
unsafe impl<T: Send> Sync for WaitSlot<T> {}

impl<T> Default for WaitSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WaitSlot<T> {
    /// An empty slot in the `WAITING` state (a *request* node).
    pub fn new() -> Self {
        WaitSlot {
            state: AtomicUsize::new(WAITING),
            item: UnsafeCell::new(MaybeUninit::uninit()),
            filled: AtomicBool::new(false),
            consumed: AtomicBool::new(false),
            waiter: WaiterCell::new(),
        }
    }

    /// A slot in the `WAITING` state already holding `value` (a *data*
    /// node).
    pub fn with_item(value: T) -> Self {
        let slot = Self::new();
        // SAFETY: we exclusively own the fresh slot; nothing was written yet.
        unsafe { slot.put_item(value) };
        slot
    }

    /// Drops the pending item, if the cell is filled and not yet consumed.
    /// Idempotent; also run by `Drop`.
    pub fn drop_pending_item(&mut self) {
        if *self.filled.get_mut() && !std::mem::replace(self.consumed.get_mut(), true) {
            // SAFETY: filled && !consumed means the cell holds an
            // initialized T nobody has moved out; &mut self gives
            // exclusive access and the flag flip makes this the only read.
            unsafe { (*self.item.get()).assume_init_drop() };
        }
    }

    /// Current state word (Acquire). Terminal values license reading the
    /// item cell the fulfiller published.
    #[inline]
    pub fn state(&self) -> usize {
        self.state.load(Ordering::Acquire)
    }

    /// True while fulfillers and cancellers may still race for the slot.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        self.state() == WAITING
    }

    /// True once a canceller has won the slot.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state() == CANCELLED
    }

    /// The terminal word of a completed handoff: [`MATCHED`], or the token
    /// a [`Self::try_fulfill_token`] fulfiller stored. `None` while the
    /// slot waits, while a claim is in progress, and once it is cancelled.
    #[inline]
    pub fn matched(&self) -> Option<usize> {
        let s = self.state();
        (s == MATCHED || s >= MIN_TOKEN).then_some(s)
    }

    /// Fulfiller side, phase one: claim exclusive ownership of the item
    /// cell (`WAITING → CLAIMED`). Returns false if a canceller (or
    /// another fulfiller) got there first.
    ///
    /// A successful claim *must* be followed by [`Self::complete`] — the
    /// waiter yields, rather than cancels, while `CLAIMED`, trusting the
    /// match to be imminent.
    #[inline]
    pub fn try_claim(&self) -> bool {
        self.state
            .compare_exchange(WAITING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Fulfiller side, phase two: publish the terminal `MATCHED` state and
    /// wake the waiter. All item-cell writes made while `CLAIMED` are
    /// released by this store.
    #[inline]
    pub fn complete(&self) {
        self.state.store(MATCHED, Ordering::Release);
        self.waiter.wake();
    }

    /// Claims the slot, deposits `value`, and completes — the fulfiller
    /// path for request nodes (a producer satisfying a waiting consumer).
    ///
    /// # Safety
    ///
    /// The caller must have won [`Self::try_claim`] and not yet called
    /// [`Self::complete`]; the claim is what grants item-cell ownership.
    #[inline]
    pub unsafe fn fulfill(&self, value: T) {
        // SAFETY: per contract the caller holds the CLAIMED ownership
        // window, so the cell is ours to write.
        unsafe { self.put_item(value) };
        self.complete();
    }

    /// One-shot fulfiller CAS: `WAITING → token`, waking the waiter on
    /// success. `token` must be ≥ [`MIN_TOKEN`] (asserted). On failure
    /// returns the actual state observed.
    ///
    /// The wake writes the waiter's mailbox only if a waiter registered:
    /// a spinning waiter's line is left alone after the CAS. No wakeup is
    /// lost, because the CAS, the mailbox load after it, a registrant's
    /// swap and its state re-read after the swap are all `SeqCst`, so they
    /// fall in one total order. Either the re-read comes after the CAS and
    /// sees the token (the waiter does not suspend), or the load comes
    /// after the swap and sees the waker (and wakes it). [`Self::complete`]
    /// keeps its unconditional take: its `MATCHED` write is a plain release
    /// store, and a check-first there would need that store to be `SeqCst`
    /// (an `xchg` on x86-64) on every two-phase handoff.
    #[inline]
    pub fn try_fulfill_token(&self, token: usize) -> Result<(), usize> {
        debug_assert!(
            token >= MIN_TOKEN,
            "token {token} collides with control states"
        );
        match self
            .state
            .compare_exchange(WAITING, token, Ordering::SeqCst, Ordering::Acquire)
        {
            Ok(_) => {
                if !self.waiter.is_empty() {
                    self.waiter.wake();
                }
                Ok(())
            }
            Err(actual) => Err(actual),
        }
    }

    /// Cancelling side: `WAITING → CANCELLED`. On success the slot's
    /// registered waker (if any) is discarded — the one cancelling *is*
    /// the waiter, so there is nobody to wake.
    #[inline]
    pub fn try_cancel(&self) -> bool {
        if self
            .state
            .compare_exchange(WAITING, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.waiter.take();
            true
        } else {
            false
        }
    }

    /// Writes `value` into the item cell (does not change the state word).
    /// Used to arm data nodes before publication and by fulfillers inside
    /// their `CLAIMED` window.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive ownership of the item cell (node not
    /// yet published, or a won claim) and the cell must be empty.
    #[inline]
    pub unsafe fn put_item(&self, value: T) {
        debug_assert!(!self.filled.load(Ordering::Relaxed), "item written twice");
        // SAFETY: exclusive cell ownership per contract.
        unsafe { (*self.item.get()).write(value) };
        self.filled.store(true, Ordering::Relaxed);
    }

    /// Moves the item out of the cell and marks it `consumed`.
    ///
    /// A plain store suffices: each entitlement below makes the caller the
    /// cell's only reader, and whoever later reads `consumed` (the slot's
    /// `Drop`, `has_item`) is ordered after it by the state word
    /// or the owner's exit flag, like `put_item`'s `filled`. A second
    /// take is still debug-asserted.
    ///
    /// # Safety
    ///
    /// The caller must be entitled to the item: a fulfiller inside its
    /// `CLAIMED` window, a waiter whose slot reached a terminal state, or
    /// a canceller taking its own item back. The cell must be filled.
    #[inline]
    pub unsafe fn take_item(&self) -> T {
        debug_assert!(
            self.filled.load(Ordering::Relaxed),
            "taking from empty cell"
        );
        debug_assert!(!self.consumed.load(Ordering::Relaxed), "item taken twice");
        self.consumed.store(true, Ordering::Relaxed);
        // SAFETY: the cell is filled and, per contract, ours alone to read.
        unsafe { (*self.item.get()).assume_init_read() }
    }

    /// Takes the item back out of a slot that was armed with
    /// [`Self::put_item`] but never published (a failed linking CAS),
    /// re-arming the cell so the retry loop can `put_item` again.
    ///
    /// # Safety
    ///
    /// The caller must still exclusively own the node (it was never made
    /// visible to other threads) and the cell must be filled.
    #[inline]
    pub unsafe fn reclaim_item(&self) -> T {
        debug_assert!(self.filled.load(Ordering::Relaxed), "reclaiming empty cell");
        debug_assert!(!self.consumed.load(Ordering::Relaxed));
        self.filled.store(false, Ordering::Relaxed);
        // SAFETY: exclusive ownership per contract; filled flag cleared so
        // a later put_item/drop sees an empty cell.
        unsafe { (*self.item.get()).assume_init_read() }
    }

    /// True if the cell currently holds an initialized item. Only
    /// meaningful once the slot has reached a terminal state (or under
    /// exclusive ownership).
    #[inline]
    pub fn has_item(&self) -> bool {
        self.filled.load(Ordering::Relaxed) && !self.consumed.load(Ordering::Relaxed)
    }

    /// The paper's `awaitFulfill`: spin for the strategy's budget (and for
    /// each window [`WaitStrategy::extend_spin`] grants before the first
    /// park), run the strategy's [`WaitStrategy::before_park`] slices until
    /// it has none left, then park until matched, the deadline passes, or
    /// `token` fires. Timeout and cancellation are reported only after
    /// *winning* the cancel CAS, so every return value is an exclusive verdict:
    /// `Matched` means the fulfiller owns the handoff, `TimedOut`/`Cancelled`
    /// mean the slot is terminally `CANCELLED` and no fulfiller touched it.
    ///
    /// The deadline and token are polled once per
    /// [`DEADLINE_POLL_INTERVAL`] spin iterations (and
    /// immediately after every unpark) rather than every pass.
    pub fn await_outcome<S: WaitStrategy + ?Sized>(
        &self,
        deadline: Deadline,
        token: Option<&CancelToken>,
        strategy: &S,
    ) -> WaitOutcome {
        self.wait_loop(deadline, token, strategy, true)
            .unwrap_or_else(|o| o)
    }

    /// `await_outcome` without the cancel CAS: on expiry the slot is left
    /// `WAITING` and `None` is returned. No structure waits this way (each
    /// gives up by its cancel CAS); it times the bare spin loop for the
    /// benchmark's `primitives.spin_iter_ns` probe.
    pub fn await_match<S: WaitStrategy + ?Sized>(
        &self,
        deadline: Deadline,
        strategy: &S,
    ) -> Option<usize> {
        match self.wait_loop(deadline, None, strategy, false) {
            Ok(WaitOutcome::Matched(s)) => Some(s),
            Ok(_) => unreachable!("cancel-free wait loop produced a cancel verdict"),
            Err(_) => None,
        }
    }

    /// Poll-mode `awaitFulfill`: the counterpart of [`Self::await_outcome`]
    /// for async waiters. One call makes one pass of the protocol — it
    /// never spins, never parks — and suspension is expressed by returning
    /// [`Poll::Pending`] *after* registering `waker` in the slot's mailbox,
    /// so the fulfiller's `complete`/`try_fulfill_token` wake reaches the
    /// task. Registration happens before the terminal re-check, which is
    /// what makes the no-lost-wakeup argument go through: a fulfiller that
    /// lands between our state load and our registration either finds the
    /// waker (and wakes it) or has already published the terminal state our
    /// re-check observes. For [`Self::complete`] the register and take
    /// swaps hit one atomic cell, so whichever runs second synchronizes
    /// with the first. [`Self::try_fulfill_token`] takes only a waker it
    /// sees registered, and there the register swap, the re-check, the
    /// token CAS and the fulfiller's mailbox load are all `SeqCst`: one of
    /// the two loads sees the other side's write.
    ///
    /// As in the blocking loop, `TimedOut`/`Cancelled` are reported only
    /// after *winning* the cancel CAS, so every verdict is exclusive.
    /// `token` is only read here: a caller that wants the task woken when
    /// it fires registers `waker` with it first
    /// ([`CancelToken::keep_registered`]).
    /// Unlike the blocking loop there is no internal timer: a `Pending`
    /// return with an unexpired [`Deadline::At`] relies on the *caller* to
    /// arrange a wake at (or after) the deadline — `synq-async` routes
    /// this through its timer thread. A spurious wake merely costs one
    /// extra poll.
    pub fn poll_outcome(
        &self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<WaitOutcome> {
        // Fast path: already terminal, skip the waker clone.
        let s = self.state();
        if s != WAITING && s != CLAIMED {
            debug_assert_ne!(s, CANCELLED, "polling a slot cancelled by someone else");
            return Poll::Ready(WaitOutcome::Matched(s));
        }
        self.waiter.register(waker.clone());
        if token.is_some_and(|t| t.is_cancelled()) && self.try_cancel() {
            return Poll::Ready(WaitOutcome::Cancelled);
        }
        if deadline.expired() && self.try_cancel() {
            return Poll::Ready(WaitOutcome::TimedOut);
        }
        // Re-check after registering (and after any *lost* cancel race —
        // losing means a fulfiller owns the slot, so the match is imminent
        // or already terminal). `SeqCst` for the token fulfiller's wake.
        match self.state.load(Ordering::SeqCst) {
            WAITING | CLAIMED => Poll::Pending,
            CANCELLED => unreachable!("cancel verdicts return above"),
            s => Poll::Ready(WaitOutcome::Matched(s)),
        }
    }

    /// Shared loop. `Ok(outcome)` is a terminal verdict; `Err(outcome)` is
    /// an expiry observed with `arbitrate = false` (slot still `WAITING`).
    fn wait_loop<S: WaitStrategy + ?Sized>(
        &self,
        deadline: Deadline,
        token: Option<&CancelToken>,
        strategy: &S,
        arbitrate: bool,
    ) -> Result<WaitOutcome, WaitOutcome> {
        let mut spins = strategy.spin_budget(deadline.is_timed());
        // Poll on the very first pass (Deadline::Now must not spin through
        // a whole interval), then once per interval.
        let mut until_poll = 0u32;
        let mut parker: Option<Parker> = None;
        // Wait accounting, flushed to the stats layer in one batch on exit
        // so the loop body stays probe-free (paper §5 attributes throughput
        // to the spin/park split — these two tallies are that split).
        let mut spun: u64 = 0;
        let mut parked: u64 = 0;

        let result = 'outcome: loop {
            match self.state() {
                WAITING => {}
                CLAIMED => {
                    // A fulfiller owns the cell; the match is imminent and
                    // cancellation has already lost. Stay out of its way.
                    synq_obs::probe!(WaitClaimedYields);
                    std::thread::yield_now();
                    continue;
                }
                CANCELLED => unreachable!("waiting on a slot cancelled by someone else"),
                s => break 'outcome Ok(WaitOutcome::Matched(s)),
            }

            if until_poll == 0 {
                until_poll = DEADLINE_POLL_INTERVAL;
                if token.is_some_and(|t| t.is_cancelled()) {
                    if arbitrate {
                        if self.try_cancel() {
                            break 'outcome Ok(WaitOutcome::Cancelled);
                        }
                        // Lost the race: a fulfiller is finishing.
                        synq_obs::probe!(WaitCancelRaceLost);
                        continue;
                    }
                    break 'outcome Err(WaitOutcome::Cancelled);
                }
                if deadline.expired() {
                    if arbitrate {
                        if self.try_cancel() {
                            break 'outcome Ok(WaitOutcome::TimedOut);
                        }
                        synq_obs::probe!(WaitCancelRaceLost);
                        continue;
                    }
                    break 'outcome Err(WaitOutcome::TimedOut);
                }
            }

            if spins > 0 {
                spins -= 1;
                until_poll -= 1;
                spun += 1;
                std::hint::spin_loop();
                continue;
            }

            // Out of budget before the first park: a strategy that can see
            // its match coming may buy one more window, polled as above.
            if parked == 0 && strategy.extend_spin() {
                spins = ADAPTIVE_SPIN_CAP;
                continue;
            }

            if !strategy.parks() {
                // Spin-only strategies treat budget exhaustion as expiry.
                if arbitrate {
                    if self.try_cancel() {
                        break 'outcome Ok(WaitOutcome::TimedOut);
                    }
                    synq_obs::probe!(WaitCancelRaceLost);
                    continue;
                }
                break 'outcome Err(WaitOutcome::TimedOut);
            }

            // About to park for the first time: a strategy with idle-time
            // work does it now, one slice per pass, so a match, an expiry
            // or a cancellation that lands meanwhile is seen within one.
            if parked == 0 && strategy.before_park() {
                until_poll = 0;
                continue;
            }

            let parker = parker.get_or_insert_with(Parker::new);
            self.waiter.register(parker.waker());
            let _registration = token.map(|t| t.register(parker.waker()));
            // Re-check after registering: a fulfiller may have taken the
            // slot between our state load and the register, in which case
            // it may already have consumed (or missed) our waker. The
            // load is `SeqCst` for the token fulfiller's wake.
            if self.state.load(Ordering::SeqCst) != WAITING {
                continue;
            }
            match deadline {
                Deadline::Never => {
                    parked += 1;
                    parker.park();
                }
                Deadline::Now => {}
                Deadline::At(t) => {
                    parked += 1;
                    parker.park_deadline(t);
                }
            }
            // Whatever woke us (unpark, deadline, spurious), re-poll the
            // deadline/token immediately on the next pass.
            until_poll = 0;
        };

        if spun > 0 {
            synq_obs::probe!(WaitSpins, spun);
        }
        if parked > 0 {
            synq_obs::probe!(WaitParks, parked);
        }
        // One calibration sample per wait: adaptive strategies learn the
        // spin/park split of this handoff (no-op for fixed policies).
        strategy.observe(
            deadline.is_timed(),
            spun,
            parked,
            matches!(result, Ok(WaitOutcome::Matched(_))),
        );
        match result {
            Ok(WaitOutcome::Matched(_)) => {
                if parked == 0 {
                    synq_obs::probe!(WaitDirectHandoffs);
                } else {
                    synq_obs::probe!(WaitParkedHandoffs);
                }
            }
            Ok(WaitOutcome::TimedOut) | Err(WaitOutcome::TimedOut) => {
                synq_obs::probe!(WaitTimeouts);
            }
            Ok(WaitOutcome::Cancelled) | Err(WaitOutcome::Cancelled) => {
                synq_obs::probe!(WaitCancels);
            }
            Err(WaitOutcome::Matched(_)) => unreachable!("matches are always Ok"),
        }
        result
    }
}

impl<T> Drop for WaitSlot<T> {
    fn drop(&mut self) {
        self.drop_pending_item();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spin::SpinPolicy;
    use crate::wait::SpinOnly;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn claim_fulfill_complete_roundtrip() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        assert!(slot.is_waiting() && slot.matched().is_none());
        assert!(slot.try_claim());
        assert!(!slot.try_claim());
        assert!(!slot.try_cancel());
        assert_eq!(slot.matched(), None, "a claim in progress is no match yet");
        unsafe { slot.fulfill(7) };
        assert_eq!(slot.matched(), Some(MATCHED));
        assert_eq!(unsafe { slot.take_item() }, 7);
        assert!(!slot.has_item());
    }

    #[test]
    fn cancel_wins_then_fulfillers_fail() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        assert!(slot.try_cancel());
        assert!(slot.is_cancelled() && slot.matched().is_none());
        assert!(!slot.try_claim());
        assert_eq!(slot.try_fulfill_token(MIN_TOKEN * 2), Err(CANCELLED));
    }

    #[test]
    fn token_fulfill_reports_and_returns_token() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let token = 0xdead0usize;
        assert_eq!(slot.try_fulfill_token(token), Ok(()));
        assert_eq!(slot.matched(), Some(token));
        assert_eq!(slot.try_fulfill_token(token), Err(token));
        assert_eq!(
            slot.await_outcome(Deadline::Never, None, &SpinPolicy::fixed(1)),
            WaitOutcome::Matched(token)
        );
    }

    #[test]
    fn data_slot_drop_releases_item() {
        let payload = Arc::new(());
        let slot = WaitSlot::with_item(Arc::clone(&payload));
        assert!(slot.has_item());
        drop(slot);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn taken_item_is_not_double_dropped() {
        let payload = Arc::new(());
        let slot = WaitSlot::with_item(Arc::clone(&payload));
        let got = unsafe { slot.take_item() };
        drop(slot);
        assert_eq!(Arc::strong_count(&payload), 2);
        drop(got);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn reclaim_rearms_the_cell() {
        let slot: WaitSlot<String> = WaitSlot::with_item("a".into());
        let back = unsafe { slot.reclaim_item() };
        assert_eq!(back, "a");
        assert!(!slot.has_item());
        unsafe { slot.put_item("b".into()) };
        assert_eq!(unsafe { slot.take_item() }, "b");
    }

    #[test]
    fn await_outcome_now_times_out_and_cancels_slot() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let out = slot.await_outcome(Deadline::Now, None, &SpinPolicy::adaptive());
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(slot.is_cancelled());
    }

    #[test]
    fn await_match_expiry_leaves_slot_waiting() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        assert_eq!(
            slot.await_match(Deadline::Now, &SpinPolicy::adaptive()),
            None
        );
        assert!(slot.is_waiting());
        assert_eq!(slot.await_match(Deadline::Never, &SpinOnly(64)), None);
        assert!(slot.is_waiting());
        // A late fulfiller can still land.
        assert!(slot.try_claim());
    }

    #[test]
    fn a_waiter_rides_out_a_claim_it_cannot_cancel() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        // Claimed before the wait begins: every pass of the waiter's loop
        // reads `CLAIMED` and yields.
        assert!(slot.try_claim());
        let other = Arc::clone(&slot);
        // `Deadline::Now` would cancel a `WAITING` slot on the first pass.
        let waiter = std::thread::spawn(move || {
            other.await_outcome(Deadline::Now, None, &SpinPolicy::adaptive())
        });
        // Not needed for the outcome; it only lets the waiter get into
        // the loop before the match lands.
        std::thread::sleep(Duration::from_millis(2));
        unsafe { slot.fulfill(5) };
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Matched(MATCHED));
        assert_eq!(unsafe { slot.take_item() }, 5);
    }

    /// The two ways a fulfiller ends a wait: the two-phase claim that
    /// deposits an item and completes, and the one-shot token CAS, which
    /// wakes only a waiter it finds registered.
    #[derive(Clone, Copy, Debug)]
    enum Fulfiller {
        ClaimComplete,
        Token,
    }

    impl Fulfiller {
        const BOTH: [Fulfiller; 2] = [Fulfiller::ClaimComplete, Fulfiller::Token];
        const ITEM: u32 = 99;
        const TOKEN: usize = 0xfeed0;

        /// Fulfils the waiting `slot`.
        fn fulfill(self, slot: &WaitSlot<u32>) {
            match self {
                Fulfiller::ClaimComplete => {
                    assert!(slot.try_claim());
                    unsafe { slot.fulfill(Self::ITEM) };
                }
                Fulfiller::Token => assert_eq!(slot.try_fulfill_token(Self::TOKEN), Ok(())),
            }
        }

        /// Checks the terminal word of a wait this fulfiller ended, and
        /// takes a deposited item.
        fn check(self, slot: &WaitSlot<u32>, word: usize) {
            match self {
                Fulfiller::ClaimComplete => {
                    assert_eq!(word, MATCHED);
                    assert_eq!(unsafe { slot.take_item() }, Self::ITEM);
                }
                Fulfiller::Token => assert_eq!(word, Self::TOKEN),
            }
        }
    }

    #[test]
    fn await_outcome_parks_until_fulfilled() {
        for fulfiller in Fulfiller::BOTH {
            let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
            let other = Arc::clone(&slot);
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                fulfiller.fulfill(&other);
            });
            let out = slot.await_outcome(Deadline::Never, None, &SpinPolicy::park_immediately());
            let WaitOutcome::Matched(word) = out else {
                panic!("{fulfiller:?}: {out:?}");
            };
            fulfiller.check(&slot, word);
            h.join().unwrap();
        }
    }

    #[test]
    fn await_outcome_deadline_expires_while_parked() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let start = std::time::Instant::now();
        let out = slot.await_outcome(
            Deadline::after(Duration::from_millis(40)),
            None,
            &SpinPolicy::park_immediately(),
        );
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(slot.is_cancelled());
    }

    #[test]
    fn await_outcome_cancelled_by_token_while_parked() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        let token = Arc::new(CancelToken::new());
        let canceller = token.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            canceller.cancel();
        });
        let out = slot.await_outcome(Deadline::Never, Some(&token), &SpinPolicy::adaptive());
        assert_eq!(out, WaitOutcome::Cancelled);
        assert!(slot.is_cancelled());
        h.join().unwrap();
    }

    /// A strategy that grants its first `grants` extensions and records
    /// what the wait loop did: how often it asked, how many asks came once
    /// `late` had passed, and the `(spun, parked)` it reported.
    struct Extending {
        budget: u32,
        grants: u32,
        late: Option<std::time::Instant>,
        asks: std::cell::Cell<u32>,
        late_asks: std::cell::Cell<u32>,
        seen: std::cell::Cell<(u64, u64)>,
    }

    impl Extending {
        fn new(budget: u32, grants: u32) -> Self {
            Extending {
                budget,
                grants,
                late: None,
                asks: Default::default(),
                late_asks: Default::default(),
                seen: Default::default(),
            }
        }
    }

    impl WaitStrategy for Extending {
        fn spin_budget(&self, _timed: bool) -> u32 {
            self.budget
        }

        fn extend_spin(&self) -> bool {
            let asked = self.asks.get();
            self.asks.set(asked + 1);
            if self.late.is_some_and(|t| std::time::Instant::now() >= t) {
                self.late_asks.set(self.late_asks.get() + 1);
            }
            asked < self.grants
        }

        fn observe(&self, _timed: bool, spun: u64, parked: u64, _matched: bool) {
            self.seen.set((spun, parked));
        }
    }

    /// Spins until the waiter of `slot` has registered to park.
    fn until_registered(slot: &WaitSlot<u32>) {
        while slot.waiter.is_empty() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn extend_spin_is_never_asked_after_a_park() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        let other = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || {
            let s = Extending::new(0, 0);
            let out = other.await_outcome(Deadline::Never, None, &s);
            (out, s.asks.get(), s.seen.get())
        });
        // Three spurious wakes: each sends the waiter round its loop again,
        // parked once already, and it must park again without asking.
        for _ in 0..3 {
            let handle = loop {
                if let Some(h) = slot.waiter.take() {
                    break h;
                }
                std::thread::yield_now();
            };
            handle.wake();
        }
        until_registered(&slot);
        assert!(slot.try_claim());
        unsafe { slot.fulfill(1) };
        let (out, asks, (_, parked)) = waiter.join().unwrap();
        assert_eq!(out, WaitOutcome::Matched(MATCHED));
        // (The last registration may meet the claim before it parks.)
        assert!(parked >= 3, "parked {parked} times");
        assert_eq!(asks, 1, "asked only when the first budget ran out");
    }

    #[test]
    fn each_granted_extension_is_one_window() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        let other = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || {
            let s = Extending::new(5, 3);
            let out = other.await_outcome(Deadline::Never, None, &s);
            (out, s.asks.get(), s.seen.get())
        });
        until_registered(&slot);
        assert!(slot.try_claim());
        unsafe { slot.fulfill(2) };
        let (out, asks, (spun, parked)) = waiter.join().unwrap();
        assert_eq!(out, WaitOutcome::Matched(MATCHED));
        assert_eq!(asks, 4, "three granted, the fourth refused");
        assert_eq!(spun, 5 + 3 * u64::from(ADAPTIVE_SPIN_CAP));
        assert!(parked <= 1, "parked {parked} times");
    }

    #[test]
    fn an_always_extending_timed_wait_times_out_on_time() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let patience = Duration::from_millis(20);
        let start = std::time::Instant::now();
        let s = Extending {
            late: Some(start + patience),
            ..Extending::new(0, u32::MAX)
        };
        let out = slot.await_outcome(Deadline::At(start + patience), None, &s);
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(slot.is_cancelled());
        assert!(start.elapsed() >= patience);
        // With no budget, every ask comes on a pass that has just polled
        // the deadline (a window is a whole number of poll intervals), so
        // no window is granted once it has passed, save one that asked in
        // the instant between the poll and the ask.
        assert!(s.late_asks.get() <= 1, "{} late windows", s.late_asks.get());
        assert_eq!(s.seen.get().1, 0, "never parked");
        assert!(s.asks.get() > 1);
    }

    #[test]
    fn a_fired_token_cancels_an_always_extending_wait() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let token = CancelToken::new();
        let canceller = token.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            canceller.cancel();
        });
        let s = Extending::new(0, u32::MAX);
        let out = slot.await_outcome(Deadline::Never, Some(&token), &s);
        assert_eq!(out, WaitOutcome::Cancelled);
        assert!(slot.is_cancelled());
        assert_eq!(s.seen.get().1, 0, "never parked");
        h.join().unwrap();
    }

    #[test]
    fn spin_only_expires_without_parking() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        assert_eq!(slot.await_match(Deadline::Never, &SpinOnly(128)), None);
    }

    /// A strategy with `slices` slices of pre-park work; the call numbered
    /// `match_at` matches `slot` before it reports its slice.
    struct Sliced<'s> {
        budget: u32,
        slices: u32,
        started: Arc<AtomicBool>,
        calls: Arc<AtomicUsize>,
        match_at: Option<(usize, &'s WaitSlot<u32>)>,
        seen: std::cell::Cell<(u64, u64)>,
    }

    impl Sliced<'_> {
        fn new(budget: u32, slices: u32) -> Self {
            Sliced {
                budget,
                slices,
                started: Arc::default(),
                calls: Arc::default(),
                match_at: None,
                seen: Default::default(),
            }
        }
    }

    impl WaitStrategy for Sliced<'_> {
        fn spin_budget(&self, _timed: bool) -> u32 {
            self.started.store(true, Ordering::SeqCst);
            self.budget
        }

        fn before_park(&self) -> bool {
            let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some((at, slot)) = self.match_at {
                if call == at {
                    assert!(slot.try_claim());
                    unsafe { slot.fulfill(3) };
                }
            }
            call <= self.slices as usize
        }

        fn observe(&self, _timed: bool, spun: u64, parked: u64, _matched: bool) {
            self.seen.set((spun, parked));
        }
    }

    #[test]
    fn a_wait_matched_while_spinning_never_asks_the_pre_park_hook() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        let other = Arc::clone(&slot);
        let s = Sliced::new(u32::MAX, u32::MAX);
        let (started, calls) = (Arc::clone(&s.started), Arc::clone(&s.calls));
        let waiter = std::thread::spawn(move || {
            let out = other.await_outcome(Deadline::Never, None, &s);
            (out, s.seen.get())
        });
        // The budget is taken: the waiter is in a spin it cannot finish.
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert!(slot.try_claim());
        unsafe { slot.fulfill(1) };
        let (out, (_, parked)) = waiter.join().unwrap();
        assert_eq!(out, WaitOutcome::Matched(MATCHED));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "the hook was asked");
        assert_eq!(parked, 0);
    }

    #[test]
    fn a_parking_wait_runs_every_slice_before_it_parks() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        let other = Arc::clone(&slot);
        let s = Sliced::new(5, 6);
        let calls = Arc::clone(&s.calls);
        let waiter = std::thread::spawn(move || {
            let out = other.await_outcome(Deadline::Never, None, &s);
            (out, s.seen.get())
        });
        until_registered(&slot);
        assert_eq!(calls.load(Ordering::SeqCst), 7, "six slices, then false");
        assert!(slot.try_claim());
        unsafe { slot.fulfill(2) };
        let (out, (spun, parked)) = waiter.join().unwrap();
        assert_eq!(out, WaitOutcome::Matched(MATCHED));
        assert_eq!(calls.load(Ordering::SeqCst), 7);
        assert_eq!(spun, 5, "slices are not spins");
        assert!(parked <= 1, "parked {parked} times");
    }

    #[test]
    fn a_match_during_the_hook_returns_without_parking() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let s = Sliced {
            match_at: Some((3, &slot)),
            ..Sliced::new(2, 10)
        };
        let out = slot.await_outcome(Deadline::Never, None, &s);
        assert_eq!(out, WaitOutcome::Matched(MATCHED));
        assert_eq!(s.calls.load(Ordering::SeqCst), 3, "the slot was re-read");
        assert_eq!(s.seen.get(), (2, 0));
    }

    #[test]
    fn the_pre_park_hook_is_never_asked_after_a_park() {
        let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
        let other = Arc::clone(&slot);
        let s = Sliced::new(0, 3);
        let calls = Arc::clone(&s.calls);
        let waiter = std::thread::spawn(move || {
            let out = other.await_outcome(Deadline::Never, None, &s);
            (out, s.seen.get())
        });
        // Three spurious wakes, as in the extension's test above.
        for _ in 0..3 {
            let handle = loop {
                if let Some(h) = slot.waiter.take() {
                    break h;
                }
                std::thread::yield_now();
            };
            handle.wake();
        }
        until_registered(&slot);
        assert!(slot.try_claim());
        unsafe { slot.fulfill(1) };
        let (out, (_, parked)) = waiter.join().unwrap();
        assert_eq!(out, WaitOutcome::Matched(MATCHED));
        assert!(parked >= 3, "parked {parked} times");
        assert_eq!(calls.load(Ordering::SeqCst), 4, "three slices, then false");
    }

    /// A waker that counts its wakes and can park-free "block" via a flag.
    fn flag_waker() -> (std::task::Waker, Arc<std::sync::atomic::AtomicUsize>) {
        struct W(Arc<std::sync::atomic::AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        (std::task::Waker::from(Arc::new(W(Arc::clone(&hits)))), hits)
    }

    #[test]
    fn poll_outcome_pending_then_fulfilled_wakes_and_completes() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let (waker, hits) = flag_waker();
        assert!(slot
            .poll_outcome(&waker, Deadline::Never, None)
            .is_pending());
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert!(slot.try_claim());
        unsafe { slot.fulfill(42) };
        assert_eq!(hits.load(Ordering::SeqCst), 1, "complete() wakes the task");
        assert_eq!(
            slot.poll_outcome(&waker, Deadline::Never, None),
            std::task::Poll::Ready(WaitOutcome::Matched(MATCHED))
        );
        assert_eq!(unsafe { slot.take_item() }, 42);
    }

    #[test]
    fn poll_outcome_token_fulfill_reports_token_and_wakes() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let (waker, hits) = flag_waker();
        assert!(slot
            .poll_outcome(&waker, Deadline::Never, None)
            .is_pending());
        let token = 0xbeef0usize;
        assert_eq!(slot.try_fulfill_token(token), Ok(()));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(
            slot.poll_outcome(&waker, Deadline::Never, None),
            std::task::Poll::Ready(WaitOutcome::Matched(token))
        );
    }

    #[test]
    fn poll_outcome_expired_deadline_cancels_exclusively() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let (waker, _) = flag_waker();
        assert_eq!(
            slot.poll_outcome(&waker, Deadline::Now, None),
            std::task::Poll::Ready(WaitOutcome::TimedOut)
        );
        assert!(slot.is_cancelled());
        // Late fulfillers lose cleanly.
        assert!(!slot.try_claim());
    }

    #[test]
    fn poll_outcome_cancelled_token_wins_cancel_cas() {
        let slot: WaitSlot<u32> = WaitSlot::new();
        let token = CancelToken::new();
        token.cancel();
        let (waker, _) = flag_waker();
        assert_eq!(
            slot.poll_outcome(&waker, Deadline::Never, Some(&token)),
            std::task::Poll::Ready(WaitOutcome::Cancelled)
        );
        assert!(slot.is_cancelled());
    }

    #[test]
    fn poll_outcome_lost_cancel_race_reports_match() {
        // The fulfiller claims before the expired poll's cancel CAS: the
        // poll must NOT report timeout, and once complete() lands the next
        // poll reports the match.
        let slot: WaitSlot<u32> = WaitSlot::new();
        let (waker, hits) = flag_waker();
        assert!(slot
            .poll_outcome(&waker, Deadline::Never, None)
            .is_pending());
        assert!(slot.try_claim());
        // Deadline long expired, but the claim owns the slot: Pending.
        assert!(slot.poll_outcome(&waker, Deadline::Now, None).is_pending());
        unsafe { slot.fulfill(9) };
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(
            slot.poll_outcome(&waker, Deadline::Now, None),
            std::task::Poll::Ready(WaitOutcome::Matched(MATCHED))
        );
    }

    #[test]
    fn poll_vs_fulfill_race_never_loses_wakeup() {
        // Hammer the register-then-recheck window: a fulfiller completing
        // concurrently with a pending poll must either be observed by the
        // re-check (Ready) or wake the registered waker.
        for fulfiller in Fulfiller::BOTH {
            for _ in 0..300 {
                let slot: Arc<WaitSlot<u32>> = Arc::new(WaitSlot::new());
                let (waker, hits) = flag_waker();
                let handle = {
                    let slot = Arc::clone(&slot);
                    std::thread::spawn(move || fulfiller.fulfill(&slot))
                };
                let polled = slot.poll_outcome(&waker, Deadline::Never, None);
                handle.join().unwrap();
                if polled.is_pending() {
                    assert_eq!(
                        hits.load(Ordering::SeqCst),
                        1,
                        "{fulfiller:?}: pending poll missed the fulfiller's wake"
                    );
                }
                let std::task::Poll::Ready(WaitOutcome::Matched(word)) =
                    slot.poll_outcome(&waker, Deadline::Never, None)
                else {
                    panic!("{fulfiller:?}: not matched after the fulfiller returned");
                };
                fulfiller.check(&slot, word);
            }
        }
    }

    /// The core arbitration guarantee: a racing fulfiller and canceller
    /// agree on a single winner, and the item is dropped exactly once.
    #[test]
    fn fulfill_vs_cancel_race_is_exclusive() {
        for _ in 0..300 {
            let slot: Arc<WaitSlot<Arc<()>>> = Arc::new(WaitSlot::new());
            let payload = Arc::new(());
            let fulfiller = {
                let slot = Arc::clone(&slot);
                let payload = Arc::clone(&payload);
                std::thread::spawn(move || {
                    if slot.try_claim() {
                        unsafe { slot.fulfill(payload) };
                        true
                    } else {
                        false
                    }
                })
            };
            let canceller = {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || slot.try_cancel())
            };
            let fulfilled = fulfiller.join().unwrap();
            let cancelled = canceller.join().unwrap();
            assert_ne!(fulfilled, cancelled, "exactly one side must win");
            drop(slot);
            assert_eq!(
                Arc::strong_count(&payload),
                1,
                "item leaked or double-freed"
            );
        }
    }

    /// Same guarantee against the wait loop's own timeout arbitration: a
    /// fulfiller racing a waiter whose deadline expires either lands the
    /// match (waiter gets the item) or loses the cancel CAS cleanly
    /// (fulfiller still owns its item) — never both, never neither.
    #[test]
    fn fulfill_vs_timeout_race_is_exclusive() {
        for round in 0..300 {
            let slot: Arc<WaitSlot<Arc<()>>> = Arc::new(WaitSlot::new());
            let payload = Arc::new(());
            let fulfiller = {
                let slot = Arc::clone(&slot);
                let payload = Arc::clone(&payload);
                std::thread::spawn(move || {
                    // Jitter the approach so the CAS lands on every side of
                    // the deadline across rounds.
                    for _ in 0..(round % 64) {
                        std::hint::spin_loop();
                    }
                    if slot.try_claim() {
                        unsafe { slot.fulfill(payload) };
                        None
                    } else {
                        Some(payload) // lost: the item is still ours
                    }
                })
            };
            let out = slot.await_outcome(
                Deadline::after(Duration::from_micros(50)),
                None,
                &SpinPolicy::fixed(32),
            );
            let kept = fulfiller.join().unwrap();
            match out {
                WaitOutcome::Matched(_) => {
                    assert!(kept.is_none(), "matched but fulfiller kept the item");
                    let got = unsafe { slot.take_item() };
                    drop(got);
                }
                WaitOutcome::TimedOut => {
                    assert!(slot.is_cancelled());
                    assert!(kept.is_some(), "timed out but the item was deposited");
                }
                WaitOutcome::Cancelled => unreachable!("no token in play"),
            }
            drop(kept);
            drop(slot);
            assert_eq!(
                Arc::strong_count(&payload),
                1,
                "item leaked or double-freed"
            );
        }
    }
}

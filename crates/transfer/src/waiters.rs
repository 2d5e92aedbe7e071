//! The wait list for the two kinds of waiter the [`synq::dual_list`]
//! kernel has no node for.
//!
//! A *thread* that finds nothing to take waits as a linked reservation and
//! is handed its item (see `TransferQueue::consumer`). What still waits
//! here, and why:
//!
//! * **Producers waiting for ring space** (bounded mode, threads and async
//!   senders). A reservation waits for an *item*; a slot freeing up has no
//!   kernel counterpart yet.
//! * **Async receivers** (`BufferedPermit`, either mode). A `RecvFuture`
//!   can be dropped after it was fulfilled, and an item deposited into it
//!   would then be lost or have to be re-queued out of order. So a future
//!   is only ever *woken* to retry, never handed an item, and a wakeup it
//!   does not use is passed on ([`WaiterQueue::release`]).
//!
//! Each waiter is an `Arc<WaitSlot<()>>`: the same primitive that backs
//! rendezvous nodes, so blocking waits reuse the spin-then-park policy and
//! async waits reuse `poll_outcome`.
//!
//! The lost-wakeup-free protocol (Dekker-style, DESIGN §4.11):
//!
//! * **Waiter**: [`WaiterQueue::arm`] (a SeqCst store of the length hint,
//!   then a SeqCst fence) → re-check the condition with SeqCst loads (the
//!   ring's indices, the linked-data count), **before every park** → if
//!   it may now hold, retry the operation; else park.
//! * **Notifier**: perform the state change (a SeqCst CAS on a ring
//!   index, or a SeqCst increment of the linked-data count) →
//!   [`WaiterQueue::notify`] (a SeqCst load of the hint, queue lock taken
//!   only when it is non-zero). No fence in between: the two accesses are
//!   already SeqCst.
//!
//! All four accesses are SeqCst, so in their single total order either
//! the notifier's hint load follows the registration (and wakes the
//! waiter) or the waiter's re-check follows the state change (and the
//! waiter retries) — there is no interleaving where both miss. What the
//! re-check proves is that an *index* moved; the slot behind it may not be
//! readable for a few more instructions, which is why a waiter whose
//! retry fails re-checks again instead of parking on the first failure.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use synq_primitives::{WaitSlot, MIN_TOKEN};

/// Token stored into a waiter's slot by [`WaiterQueue::notify`]. The
/// payload carries no data — waiters loop back and re-attempt the ring
/// operation — so one token suffices.
pub(crate) const NOTIFIED: usize = MIN_TOKEN;

/// One waiter's place on a [`WaiterQueue`], across re-arms: `None` until
/// it first registers and again once released.
pub(crate) type Entry = Option<Arc<WaitSlot<()>>>;

/// FIFO list of parked waiters with a lock-free emptiness hint.
///
/// The hint holds the exact queue length (maintained under the lock, read
/// with SeqCst outside it) so the notify fast path on an uncontended ring
/// is a single atomic load.
#[derive(Default)]
pub(crate) struct WaiterQueue {
    hint: AtomicUsize,
    entries: Mutex<VecDeque<Arc<WaitSlot<()>>>>,
}

impl WaiterQueue {
    /// Appends a fresh waiter and returns its slot. The caller MUST then
    /// fence and re-check the awaited condition before every park (see
    /// the module docs); [`Self::arm`] is the form that does the first.
    pub(crate) fn register(&self) -> Arc<WaitSlot<()>> {
        let slot = Arc::new(WaitSlot::new());
        let mut q = self.entries.lock().unwrap();
        q.push_back(Arc::clone(&slot));
        self.hint.store(q.len(), Ordering::SeqCst);
        slot
    }

    /// Registers `entry` unless it is still waiting, and says whether it
    /// did. A spent (notified) entry is replaced *before* it is removed,
    /// so the registered count never dips to zero mid-handoff: a dip would
    /// open the barge window the in-place notify protocol closes.
    pub(crate) fn arm(&self, entry: &mut Entry) -> bool {
        if entry.as_ref().is_some_and(|e| e.is_waiting()) {
            return false;
        }
        let fresh = self.register();
        fence(Ordering::SeqCst);
        if let Some(old) = entry.replace(fresh) {
            self.remove(&old);
        }
        true
    }

    /// Whether a notification had reached `entry`. Sampled *before* an
    /// attempt, it is what [`Self::release`] wants to know after it.
    pub(crate) fn notified(entry: &Entry) -> bool {
        entry.as_ref().is_some_and(|e| !e.is_waiting())
    }

    /// Number of registered (possibly already-notified) waiters.
    pub(crate) fn hint(&self) -> usize {
        self.hint.load(Ordering::SeqCst)
    }

    /// Wakes up to `n` live waiters. Cancelled entries are discarded and
    /// do not count against `n`.
    ///
    /// Waiters are fulfilled **in place**: a notified entry stays on the
    /// list (and in the hint) until its owner removes it after landing the
    /// retried operation. That keeps the no-barge check in the bounded
    /// fast paths honest — fresh arrivals see `hint() > 0` for the whole
    /// pop-to-retry handoff window and keep deferring, instead of stealing
    /// the freed slot out from under the woken waiter (the cause of the
    /// ~1 s buffered-mode wakeup tails PR 9's histograms surfaced).
    pub(crate) fn notify(&self, n: usize) {
        if n == 0 || self.hint.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut q = self.entries.lock().unwrap();
        let mut woken = 0;
        let mut i = 0;
        while woken < n && i < q.len() {
            if q[i].try_fulfill_token(NOTIFIED).is_ok() {
                woken += 1;
                i += 1;
            } else if q[i].is_cancelled() {
                // Raced out (timed out / cancelled) and not yet removed by
                // its owner: dead weight, collect it now.
                q.remove(i);
            } else {
                // Notified earlier, retry still in flight: skip it.
                i += 1;
            }
        }
        self.hint.store(q.len(), Ordering::SeqCst);
    }

    /// Unlinks `entry` when its owner stops waiting, for whatever reason;
    /// the one place the remove-or-pass-on rule is written. `consumed`:
    /// the owner's operation succeeded on an attempt made after a
    /// notification had reached the entry ([`Self::notified`]), so that
    /// notification was converted into the operation it announced. Such an
    /// entry, and one whose wait already settled it as cancelled (timed
    /// out), is plainly removed. Any other is cancelled, and if a notify
    /// beat the cancel (it raced a success that did not need it, arrived
    /// for an owner that gave up, or came from the owner's own attempt:
    /// a push that served a reservation popped an item and announced the
    /// slot) the wakeup goes to the next waiter instead of being lost.
    pub(crate) fn release(&self, entry: &mut Entry, consumed: bool) {
        if let Some(e) = entry.take() {
            if consumed || e.is_cancelled() {
                self.remove(&e);
            } else {
                self.retract(&e);
            }
        }
    }

    /// Cancels a waiter that did not use, or no longer wants, a wakeup; if
    /// a notifier got to the slot first, the notification is passed on to
    /// the next waiter.
    fn retract(&self, waiter: &Arc<WaitSlot<()>>) {
        let cancelled = waiter.try_cancel();
        self.remove(waiter);
        if !cancelled {
            self.notify(1);
        }
    }

    /// Physically unlinks a waiter without touching its slot state.
    fn remove(&self, waiter: &Arc<WaitSlot<()>>) {
        let mut q = self.entries.lock().unwrap();
        if let Some(idx) = q.iter().position(|s| Arc::ptr_eq(s, waiter)) {
            q.remove(idx);
        }
        self.hint.store(q.len(), Ordering::SeqCst);
    }
}

impl std::fmt::Debug for WaiterQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaiterQueue")
            .field("waiting", &self.hint())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synq_primitives::{Deadline, SpinPolicy, WaitOutcome};

    #[test]
    fn notify_wakes_registered_waiter() {
        let wq = Arc::new(WaiterQueue::default());
        let w = wq.register();
        assert_eq!(wq.hint(), 1);
        let wq2 = Arc::clone(&wq);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            wq2.notify(1);
        });
        let out = w.await_outcome(Deadline::Never, None, &SpinPolicy::default());
        assert!(matches!(out, WaitOutcome::Matched(NOTIFIED)));
        t.join().unwrap();
        // In-place fulfillment: the notified waiter stays registered until
        // its owner removes it after landing the retried operation.
        assert_eq!(wq.hint(), 1);
        wq.remove(&w);
        assert_eq!(wq.hint(), 0);
    }

    #[test]
    fn retract_passes_stolen_notification_on() {
        let wq = WaiterQueue::default();
        let first = wq.register();
        let second = wq.register();
        // Notify lands in `first` before it can retract.
        wq.notify(1);
        wq.retract(&first);
        // The wakeup must have been passed to `second`.
        let out = second.await_outcome(Deadline::Never, None, &SpinPolicy::default());
        assert!(matches!(out, WaitOutcome::Matched(NOTIFIED)));
        wq.remove(&second);
        assert_eq!(wq.hint(), 0);
    }

    #[test]
    fn notify_skips_cancelled_entries() {
        let wq = WaiterQueue::default();
        let dead = wq.register();
        let live = wq.register();
        assert!(dead.try_cancel());
        wq.notify(1);
        let out = live.await_outcome(Deadline::Never, None, &SpinPolicy::default());
        assert!(matches!(out, WaitOutcome::Matched(NOTIFIED)));
    }
}

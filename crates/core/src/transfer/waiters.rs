//! The wait list for the one waiter the [`crate::dual_list`] kernel has no
//! node for: an **async receiver** (`BufferedPermit`, either mode).
//!
//! A *thread* that finds nothing to take waits as a linked reservation and
//! is handed its item (see `TransferQueue::consumer`), and a producer that
//! waits, thread or future, is a linked node too. A `RecvFuture`, though,
//! can be dropped after it was fulfilled, and an item deposited into it
//! would then be lost or have to be re-queued out of order. So a future is
//! only ever *woken* to retry, never handed an item, and a wakeup it does
//! not use is passed on ([`WaiterQueue::release`]).
//!
//! Each waiter is an `Arc<WaitSlot<()>>`: the same primitive that backs
//! rendezvous nodes, so an async wait reuses `poll_outcome`.
//!
//! The lost-wakeup-free protocol (Dekker-style, DESIGN §4.11):
//!
//! * **Waiter**: [`WaiterQueue::arm`] (a SeqCst store of the length hint,
//!   then a SeqCst fence) → re-check the condition with SeqCst loads (the
//!   ring's indices, the linked-data count), **before every suspension** →
//!   if it may now hold, retry the take; else suspend.
//! * **Notifier**: perform the state change (a SeqCst CAS on the ring's
//!   tail, or a SeqCst increment of the linked-data count) →
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
//! retry fails re-checks again instead of suspending on the first failure.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use synq_primitives::{WaitSlot, MIN_TOKEN};

/// Token stored into a waiter's slot by [`WaiterQueue::notify`]. The
/// payload carries no data — waiters loop back and re-attempt the take —
/// so one token suffices.
pub(crate) const NOTIFIED: usize = MIN_TOKEN;

/// One waiter's place on a [`WaiterQueue`], across re-arms: `None` until
/// it first registers and again once released.
pub(crate) type Entry = Option<Arc<WaitSlot<()>>>;

/// FIFO list of waiting receivers with a lock-free emptiness hint.
///
/// The hint holds the exact queue length (maintained under the lock, read
/// with SeqCst outside it) so the notify fast path on an uncontended ring
/// is a single atomic load. Every listed entry is waiting or cancelled:
/// `notify` takes an entry off the list as it wakes it.
#[derive(Default)]
pub(crate) struct WaiterQueue {
    hint: AtomicUsize,
    entries: Mutex<VecDeque<Arc<WaitSlot<()>>>>,
}

impl WaiterQueue {
    /// Registers a fresh entry in `entry` unless the one there is still
    /// waiting, and says whether it did. The caller MUST then re-check the
    /// awaited condition before it suspends (see the module docs).
    pub(crate) fn arm(&self, entry: &mut Entry) -> bool {
        if entry.as_ref().is_some_and(|e| e.is_waiting()) {
            return false;
        }
        let slot = Arc::new(WaitSlot::new());
        let mut q = self.entries.lock().unwrap();
        q.push_back(Arc::clone(&slot));
        self.hint.store(q.len(), Ordering::SeqCst);
        drop(q);
        fence(Ordering::SeqCst);
        *entry = Some(slot);
        true
    }

    /// Whether a notification had reached `entry`. Sampled *before* an
    /// attempt, it is what [`Self::release`] wants to know after it.
    pub(crate) fn notified(entry: &Entry) -> bool {
        entry.as_ref().is_some_and(|e| !e.is_waiting())
    }

    /// Number of registered, not yet notified, receivers.
    pub(crate) fn hint(&self) -> usize {
        self.hint.load(Ordering::SeqCst)
    }

    /// Wakes up to `n` waiting receivers, oldest first, taking each off
    /// the list. Cancelled entries are discarded and do not count.
    pub(crate) fn notify(&self, n: usize) {
        if n == 0 || self.hint.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut q = self.entries.lock().unwrap();
        let mut woken = 0;
        while woken < n {
            let Some(waiter) = q.pop_front() else { break };
            if waiter.try_fulfill_token(NOTIFIED).is_ok() {
                woken += 1;
            }
        }
        self.hint.store(q.len(), Ordering::SeqCst);
    }

    /// Lets go of `entry` when its owner stops waiting, for whatever
    /// reason; the one place the remove-or-pass-on rule is written. An
    /// entry still waiting is withdrawn (its cancel CAS) and unlisted, as
    /// is one a timed-out wait already cancelled. A notified one is off
    /// the list already, and unless `consumed` (the owner's take succeeded
    /// on an attempt made after the notification reached it,
    /// [`Self::notified`]) its wakeup goes to the next receiver instead of
    /// being lost: it raced a success that did not need it, or arrived for
    /// an owner that gave up.
    pub(crate) fn release(&self, entry: &mut Entry, consumed: bool) {
        let Some(e) = entry.take() else { return };
        if e.try_cancel() || e.is_cancelled() {
            let mut q = self.entries.lock().unwrap();
            q.retain(|s| !Arc::ptr_eq(s, &e));
            self.hint.store(q.len(), Ordering::SeqCst);
        } else if !consumed {
            self.notify(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synq_primitives::{Deadline, SpinPolicy, WaitOutcome};

    fn await_notified(entry: &Entry) {
        let out =
            entry
                .as_ref()
                .unwrap()
                .await_outcome(Deadline::Never, None, &SpinPolicy::default());
        assert!(matches!(out, WaitOutcome::Matched(NOTIFIED)));
    }

    #[test]
    fn notify_wakes_registered_waiter() {
        let wq = Arc::new(WaiterQueue::default());
        let mut w = None;
        assert!(wq.arm(&mut w));
        assert!(!wq.arm(&mut w), "still waiting: nothing to re-arm");
        assert_eq!(wq.hint(), 1);
        let wq2 = Arc::clone(&wq);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            wq2.notify(1);
        });
        await_notified(&w);
        t.join().unwrap();
        // Notifying takes the waiter off the list.
        assert_eq!(wq.hint(), 0);
        assert!(WaiterQueue::notified(&w));
        wq.release(&mut w, true);
        assert_eq!(wq.hint(), 0);
    }

    #[test]
    fn release_passes_an_unused_notification_on() {
        let wq = WaiterQueue::default();
        let (mut first, mut second) = (None, None);
        wq.arm(&mut first);
        wq.arm(&mut second);
        // Notify lands in `first` before it lets go.
        wq.notify(1);
        wq.release(&mut first, false);
        // The wakeup must have been passed to `second`.
        await_notified(&second);
        assert_eq!(wq.hint(), 0);
    }

    #[test]
    fn notify_skips_cancelled_entries() {
        let wq = WaiterQueue::default();
        let (mut dead, mut live) = (None, None);
        wq.arm(&mut dead);
        wq.arm(&mut live);
        assert!(dead.as_ref().unwrap().try_cancel());
        wq.notify(1);
        await_notified(&live);
        assert_eq!(wq.hint(), 0);
    }
}

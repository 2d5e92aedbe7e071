//! A strictly FIFO ("fair") mutual-exclusion lock with queued parking and
//! direct lock handoff.
//!
//! The Java SE 5.0 `SynchronousQueue` in fair mode protects its two wait
//! queues with a *fair-mode* `ReentrantLock`. The paper attributes most of
//! that implementation's fair-mode slowdown to this lock: FIFO entry
//! ordering "causes pileups that block the threads that will fulfill waiting
//! threads". To reproduce the effect faithfully our `Java5Fair` baseline
//! needs a lock with the same two properties:
//!
//! 1. **Strict FIFO granting** — waiters acquire in arrival order; and
//! 2. **No barging** — a thread arriving while the lock is held always
//!    queues, even if the holder is just about to release (the lock is
//!    handed *directly* to the queue head, never returned to a free state
//!    while waiters exist).
//!
//! Both properties are exactly what makes fair locks slow under contention,
//! and both are absent from an ordinary (unfair) mutex.
//!
//! The implementation is a classic *ticket lock*: arrival order is fixed by
//! a fetch-and-increment on a `next_ticket` word, and the holder advances a
//! separate `now_serving` word on release. The two counters live on
//! [`CachePadded`] lines of their own — arriving threads hammer
//! `next_ticket` while waiters poll `now_serving`, and sharing one line
//! would make every arrival invalidate every waiter (exactly the
//! false-sharing coupling the paper's contention-freedom property warns
//! about). Waiters spin only until registered, then park; release grants by
//! ticket number, so the handoff is direct and barging is structurally
//! impossible (`try_lock` succeeds only when `next_ticket == now_serving`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use synq_primitives::{CachePadded, Parker, Unparker};

// The two counters must not share a cache line (see module docs); padding
// both also keeps the trailing `Mutex` off `now_serving`'s line.
const _: () = assert!(std::mem::align_of::<CachePadded<AtomicUsize>>() >= 128);

/// FIFO-fair ticket lock. See the module docs for why this exists.
///
/// # Examples
///
/// ```
/// use synq_baselines::TicketLock;
///
/// let lock = TicketLock::new();
/// {
///     let _guard = lock.lock();
///     // critical section
/// }
/// assert!(lock.try_lock().is_some());
/// ```
#[derive(Debug)]
pub struct TicketLock {
    /// Next ticket to hand to an arriving thread.
    next_ticket: CachePadded<AtomicUsize>,
    /// Ticket currently allowed to hold the lock.
    now_serving: CachePadded<AtomicUsize>,
    /// Parking registry for tickets that found the lock held.
    waiters: Mutex<VecDeque<(usize, Unparker)>>,
}

/// RAII guard; releasing hands the lock to the next queued ticket, if any.
#[derive(Debug)]
pub struct TicketLockGuard<'a> {
    lock: &'a TicketLock,
}

impl Default for TicketLock {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        TicketLock {
            next_ticket: CachePadded::new(AtomicUsize::new(0)),
            now_serving: CachePadded::new(AtomicUsize::new(0)),
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Acquires the lock, queuing FIFO behind any existing waiters.
    pub fn lock(&self) -> TicketLockGuard<'_> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::AcqRel);
        synq_obs::probe!(TicketAcquires);
        if self.now_serving.load(Ordering::Acquire) == ticket {
            return TicketLockGuard { lock: self };
        }
        synq_obs::probe!(TicketQueued);
        // Slow path: register, then re-check before parking. The release
        // path stores `now_serving` *before* scanning the registry, so
        // either our registration is seen by the releaser (it unparks us)
        // or our re-check sees the new `now_serving` — never neither.
        let parker = Parker::new();
        self.waiters
            .lock()
            .unwrap()
            .push_back((ticket, parker.unparker()));
        while self.now_serving.load(Ordering::Acquire) != ticket {
            parker.park();
        }
        // Granted. Drop our registry entry if the granter did not (we may
        // have observed `now_serving` before the granter's scan ran).
        self.waiters.lock().unwrap().retain(|(t, _)| *t != ticket);
        TicketLockGuard { lock: self }
    }

    /// Acquires the lock only if it is free *and* no one is queued
    /// (fairness forbids barging past waiters): with tickets both conditions
    /// collapse into `next_ticket == now_serving`, checked by a single CAS.
    pub fn try_lock(&self) -> Option<TicketLockGuard<'_>> {
        let serving = self.now_serving.load(Ordering::Acquire);
        if self
            .next_ticket
            .compare_exchange(serving, serving + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            synq_obs::probe!(TicketAcquires);
            Some(TicketLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Number of threads currently queued for the lock (diagnostic; the
    /// benchmark harness samples this to visualize pileups).
    pub fn queue_len(&self) -> usize {
        let next = self.next_ticket.load(Ordering::Acquire);
        let serving = self.now_serving.load(Ordering::Acquire);
        // One outstanding ticket is the holder; the rest are queued.
        next.wrapping_sub(serving).saturating_sub(1)
    }

    fn unlock(&self) {
        let granted = self.now_serving.load(Ordering::Relaxed).wrapping_add(1);
        self.now_serving.store(granted, Ordering::Release);
        // Scan after the store (see `lock` for the pairing) and hand the
        // wakeup directly to the granted ticket, if it is parked.
        let mut waiters = self.waiters.lock().unwrap();
        if let Some(pos) = waiters.iter().position(|(t, _)| *t == granted) {
            let (_, unparker) = waiters.remove(pos).unwrap();
            drop(waiters);
            unparker.unpark();
        }
    }
}

impl Drop for TicketLockGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn basic_lock_unlock() {
        let lock = TicketLock::new();
        drop(lock.lock());
        drop(lock.lock());
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = TicketLock::new();
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn counters_live_on_separate_cache_lines() {
        let lock = TicketLock::new();
        let next = &*lock.next_ticket as *const AtomicUsize as usize;
        let serving = &*lock.now_serving as *const AtomicUsize as usize;
        assert!(next.abs_diff(serving) >= 128);
        assert_eq!(next % 128, 0);
        assert_eq!(serving % 128, 0);
    }

    #[test]
    fn mutual_exclusion() {
        let lock = Arc::new(TicketLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                for _ in 0..300 {
                    let _g = lock.lock();
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                    counter.fetch_add(1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 300);
    }

    #[test]
    fn fifo_grant_order() {
        // Hold the lock, queue N threads in a known order, then release and
        // verify they acquire in exactly that order.
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let guard = lock.lock();
        let mut handles = Vec::new();
        for i in 0..6 {
            let lock2 = Arc::clone(&lock);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                let _g = lock2.lock();
                order.lock().unwrap().push(i);
            }));
            // Wait until thread i holds a ticket before spawning i+1 so the
            // arrival order is deterministic.
            while lock.queue_len() < i + 1 {
                thread::yield_now();
            }
        }
        drop(guard);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn no_barging_past_waiters() {
        let lock = Arc::new(TicketLock::new());
        let g = lock.lock();
        let lock2 = Arc::clone(&lock);
        let waiter = thread::spawn(move || {
            let _g = lock2.lock();
        });
        while lock.queue_len() == 0 {
            thread::yield_now();
        }
        // A try_lock while someone is queued must fail even after release,
        // because release hands the lock directly to the waiter.
        drop(g);
        assert!(lock.try_lock().is_none() || lock.queue_len() == 0);
        thread::sleep(Duration::from_millis(5));
        waiter.join().unwrap();
        // Once the queue drains the lock is takable again.
        assert!(lock.try_lock().is_some());
    }
}

//! Hanson's synchronous queue (paper Listing 1).
//!
//! Three semaphores coordinate a single item slot:
//!
//! * `send` — 1 minus the number of pending puts (producer exclusion);
//! * `recv` — 0 minus the number of pending takes (consumer wakeup);
//! * `sync` — whether the item has been consumed (producer completion).
//!
//! Each transfer costs **six** scheduler-level synchronization events
//! (three per side), and the consumer blocks on `recv` in virtually every
//! execution. The paper also notes that this structure cannot reasonably
//! support `poll`/`offer` or time-out — which is why this type implements
//! only [`SyncChannel`] and is absent from the `ThreadPoolExecutor`
//! benchmark (Figure 6), exactly as in the paper.

use crate::{FastSemaphore, Semaphore};
use std::cell::UnsafeCell;
use synq::SyncChannel;

/// Listing 1, translated. The `item` slot is an `UnsafeCell`: exclusive
/// access is guaranteed by the semaphore protocol (a producer owns the slot
/// between `send.acquire()` and `recv.release()`; the consumer owns it
/// between `recv.acquire()` and `sync.release()`), and the semaphores'
/// internal lock provides the happens-before edges.
///
/// # Examples
///
/// ```
/// use synq_baselines::HansonSQ;
/// use synq::SyncChannel;
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(HansonSQ::new());
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put("m");
/// assert_eq!(t.join().unwrap(), "m");
/// ```
#[derive(Debug)]
pub struct HansonSQ<T> {
    item: UnsafeCell<Option<T>>,
    sync: Semaphore,
    send: Semaphore,
    recv: Semaphore,
}

// SAFETY: the semaphore protocol serializes all access to `item` (see type
// docs); values of T are sent across threads.
unsafe impl<T: Send> Send for HansonSQ<T> {}
unsafe impl<T: Send> Sync for HansonSQ<T> {}

impl<T> Default for HansonSQ<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HansonSQ<T> {
    /// Creates an empty queue (`sync = 0`, `send = 1`, `recv = 0`).
    pub fn new() -> Self {
        HansonSQ {
            item: UnsafeCell::new(None),
            sync: Semaphore::new(0),
            send: Semaphore::new(1),
            recv: Semaphore::new(0),
        }
    }
}

impl<T: Send> SyncChannel<T> for HansonSQ<T> {
    fn put(&self, value: T) {
        self.send.acquire(); // line 15
                             // SAFETY: holding the send permit grants slot write access.
        unsafe { *self.item.get() = Some(value) }; // line 16
        self.recv.release(); // line 17
        self.sync.acquire(); // line 18
    }

    fn take(&self) -> T {
        self.recv.acquire(); // line 07
                             // SAFETY: the recv permit (released by the producer after writing)
                             // grants slot read access.
        let value = unsafe { (*self.item.get()).take() }.expect("protocol: item present");
        self.sync.release(); // line 09
        self.send.release(); // line 10
        synq_obs::probe!(HansonTransfers);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn put_take_pair() {
        let q = Arc::new(HansonSQ::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(5u64);
        assert_eq!(t.join().unwrap(), 5);
    }

    #[test]
    fn take_then_put() {
        let q = Arc::new(HansonSQ::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            q2.put(9u64)
        });
        assert_eq!(q.take(), 9);
        t.join().unwrap();
    }

    #[test]
    fn producer_blocks_until_taken() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(HansonSQ::new());
        let returned = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let r2 = Arc::clone(&returned);
        let producer = thread::spawn(move || {
            q2.put(1u8);
            r2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!returned.load(Ordering::SeqCst));
        assert_eq!(q.take(), 1);
        producer.join().unwrap();
        assert!(returned.load(Ordering::SeqCst));
    }

    #[test]
    fn serialized_producers_and_consumers() {
        const N: usize = 4;
        const PER: usize = 200;
        let q = Arc::new(HansonSQ::new());
        let mut handles = Vec::new();
        for p in 0..N {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(p * PER + i);
                }
            }));
        }
        let consumers: Vec<_> = (0..N)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..PER).map(|_| q.take()).sum::<usize>())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..N * PER).sum::<usize>());
    }
}

/// Hanson's queue over fast-path (benaphore) semaphores — the "fast-path
/// acquire sequence" improvement the paper attributes to early
/// `dl.util.concurrent` releases. Structurally identical to [`HansonSQ`];
/// only the semaphore implementation changes, so benchmarking the two
/// isolates how much of Hanson's cost is semaphore *lock* overhead versus
/// its inherent six-blocking-events structure.
#[derive(Debug)]
pub struct HansonFastSQ<T> {
    item: UnsafeCell<Option<T>>,
    sync: FastSemaphore,
    send: FastSemaphore,
    recv: FastSemaphore,
}

// SAFETY: identical protocol to HansonSQ (see its safety comment).
unsafe impl<T: Send> Send for HansonFastSQ<T> {}
unsafe impl<T: Send> Sync for HansonFastSQ<T> {}

impl<T> Default for HansonFastSQ<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HansonFastSQ<T> {
    /// Creates an empty queue (`sync = 0`, `send = 1`, `recv = 0`).
    pub fn new() -> Self {
        HansonFastSQ {
            item: UnsafeCell::new(None),
            sync: FastSemaphore::new(0),
            send: FastSemaphore::new(1),
            recv: FastSemaphore::new(0),
        }
    }
}

impl<T: Send> SyncChannel<T> for HansonFastSQ<T> {
    fn put(&self, value: T) {
        self.send.acquire();
        // SAFETY: as in HansonSQ — the send permit grants slot access.
        unsafe { *self.item.get() = Some(value) };
        self.recv.release();
        self.sync.acquire();
    }

    fn take(&self) -> T {
        self.recv.acquire();
        // SAFETY: as in HansonSQ.
        let value = unsafe { (*self.item.get()).take() }.expect("protocol: item present");
        self.sync.release();
        self.send.release();
        synq_obs::probe!(HansonTransfers);
        value
    }
}

#[cfg(test)]
mod fast_tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fast_variant_put_take() {
        let q = Arc::new(HansonFastSQ::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(123u32);
        assert_eq!(t.join().unwrap(), 123);
    }

    #[test]
    fn fast_variant_conserves_under_load() {
        const N: usize = 4;
        const PER: usize = 300;
        let q = Arc::new(HansonFastSQ::new());
        let mut handles = Vec::new();
        for p in 0..N {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(p * PER + i);
                }
            }));
        }
        let consumers: Vec<_> = (0..N)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..PER).map(|_| q.take()).sum::<usize>())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..N * PER).sum::<usize>());
    }
}

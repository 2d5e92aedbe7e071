//! A semaphore with a lock-free fast path (a *benaphore*).
//!
//! The paper notes that Hanson-style queues can be improved "by using a
//! fast-path acquire sequence \[11\]; this was done in early releases of
//! the `dl.util.concurrent` package which evolved into
//! `java.util.concurrent`". This is that optimization: an atomic counter
//! gates entry, and the mutex/condvar machinery of [`crate::Semaphore`] is
//! touched only when a thread must actually block or unblock. An
//! uncontended acquire or release is a single atomic RMW — no lock, no
//! syscall.
//!
//! The scheme (Benoit Schillings' "benaphore"):
//!
//! * `acquire`: `count.fetch_sub(1)`; a positive previous value means a
//!   permit was free — done. Otherwise wait for a token on the inner
//!   semaphore.
//! * `release`: `count.fetch_add(1)`; a negative previous value means
//!   someone is (or will be) waiting — post one token.
//!
//! Tokens and waiters pair one-to-one, so no wakeup is lost and none is
//! spurious. Timed acquire is deliberately **not** offered: a timed-out
//! waiter can race an in-flight token and either leak it or steal a later
//! waiter's wakeup; Hanson's queue (the consumer of this type) does not
//! need it — which is exactly the paper's point about that design's
//! inflexibility.

use crate::semaphore::Semaphore;
use std::sync::atomic::{AtomicI64, Ordering};
use synq_primitives::CachePadded;

/// Counting semaphore with an uncontended fast path.
///
/// # Examples
///
/// ```
/// use synq_baselines::FastSemaphore;
///
/// let sem = FastSemaphore::new(1);
/// sem.acquire();           // fast path: one atomic op
/// assert!(!sem.try_acquire());
/// sem.release();           // fast path: one atomic op
/// assert!(sem.try_acquire());
/// ```
#[derive(Debug)]
pub struct FastSemaphore {
    /// Available permits minus pending waiters. Padded so the RMW-heavy
    /// fast path never contends with the slow-path monitor state below.
    count: CachePadded<AtomicI64>,
    /// Wakeup tokens for threads that lost the fast path.
    tokens: Semaphore,
}

// The whole point of the benaphore is that the fast path touches only
// `count`; keep the slow-path machinery off its cache line.
const _: () = assert!(std::mem::align_of::<FastSemaphore>() >= 128);

impl FastSemaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: i64) -> Self {
        FastSemaphore {
            count: CachePadded::new(AtomicI64::new(permits)),
            tokens: Semaphore::new(0),
        }
    }

    /// Takes a permit, blocking if none is available.
    pub fn acquire(&self) {
        if self.count.fetch_sub(1, Ordering::AcqRel) > 0 {
            return; // fast path
        }
        self.tokens.acquire();
    }

    /// Takes a permit only if one is immediately available (never blocks,
    /// never joins the waiter protocol).
    pub fn try_acquire(&self) -> bool {
        let mut c = self.count.load(Ordering::Acquire);
        while c > 0 {
            match self
                .count
                .compare_exchange_weak(c, c - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(actual) => c = actual,
            }
        }
        false
    }

    /// Returns a permit, waking one waiter if any lost the fast path.
    pub fn release(&self) {
        if self.count.fetch_add(1, Ordering::AcqRel) < 0 {
            self.tokens.release();
        }
    }

    /// Current logical permit count (negative = waiters outstanding).
    pub fn permits(&self) -> i64 {
        self.count.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as O};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn uncontended_roundtrip() {
        let s = FastSemaphore::new(2);
        s.acquire();
        s.acquire();
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
        s.release();
        s.release();
        assert_eq!(s.permits(), 2);
    }

    #[test]
    fn blocked_acquire_woken_by_release() {
        let s = Arc::new(FastSemaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            s2.acquire();
        });
        thread::sleep(Duration::from_millis(20));
        s.release();
        t.join().unwrap();
    }

    #[test]
    fn negative_initial_count() {
        let s = FastSemaphore::new(-1);
        assert!(!s.try_acquire());
        s.release();
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn mutual_exclusion_as_binary_semaphore() {
        let s = Arc::new(FastSemaphore::new(1));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let in_cs = Arc::clone(&in_cs);
            let total = Arc::clone(&total);
            handles.push(thread::spawn(move || {
                for _ in 0..500 {
                    s.acquire();
                    assert_eq!(in_cs.fetch_add(1, O::SeqCst), 0);
                    total.fetch_add(1, O::Relaxed);
                    in_cs.fetch_sub(1, O::SeqCst);
                    s.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(O::Relaxed), 8 * 500);
        assert_eq!(s.permits(), 1);
    }

    #[test]
    fn token_waiter_pairing_under_churn() {
        // N producers release, N consumers acquire, counts must balance
        // with no thread left asleep.
        let s = Arc::new(FastSemaphore::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for _ in 0..1_000 {
                    s.acquire();
                }
            }));
        }
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for _ in 0..1_000 {
                    s.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.permits(), 0);
    }
}

//! A counting semaphore.
//!
//! Semaphores are "the original mechanism for scheduler-based
//! synchronization" (paper, footnote a) and the substrate of Hanson's
//! synchronous queue (Listing 1), which uses three of them per queue. Each
//! semaphore holds a counter; `acquire` decrements and waits for the result
//! to be nonnegative, `release` increments and unblocks a waiter if the
//! result is nonpositive. The paper's point — that every acquire/release is
//! a potential source of contention and blocking — is what our benchmark
//! harness measures against.
//!
//! The implementation is a straightforward `Mutex`+`Condvar` monitor with
//! targeted `notify_one` wakeups (a semaphore that did `notify_all` would
//! reintroduce the naive queue's quadratic wakeups and unfairly handicap the
//! Hanson baseline).

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use synq_primitives::CachePadded;

/// Counting semaphore with blocking, non-blocking and timed acquire.
///
/// The count may be initialized to any `isize`-representable value; Hanson's
/// queue initializes `sync = 0`, `send = 1`, `recv = 0`.
///
/// # Examples
///
/// ```
/// use synq_baselines::Semaphore;
///
/// let sem = Semaphore::new(1);
/// sem.acquire();
/// assert!(!sem.try_acquire());
/// sem.release();
/// assert!(sem.try_acquire());
/// ```
#[derive(Debug)]
pub struct Semaphore {
    /// Monitor state, padded: Hanson's queue packs three semaphores into
    /// one struct, and without padding their mutexes share cache lines —
    /// every `sync` handshake would then invalidate `send`/`recv` holders.
    state: CachePadded<Mutex<State>>,
    cvar: Condvar,
}

const _: () = assert!(std::mem::align_of::<Semaphore>() >= 128);

#[derive(Debug)]
struct State {
    count: i64,
    waiters: usize,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: i64) -> Self {
        Semaphore {
            state: CachePadded::new(Mutex::new(State {
                count: permits,
                waiters: 0,
            })),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until a permit is available, then takes it.
    pub fn acquire(&self) {
        let mut state = self.state.lock().unwrap();
        if state.count <= 0 {
            synq_obs::probe!(SemContended);
        }
        while state.count <= 0 {
            state.waiters += 1;
            state = self.cvar.wait(state).unwrap();
            state.waiters -= 1;
        }
        state.count -= 1;
        synq_obs::probe!(SemAcquires);
    }

    /// Takes a permit if one is immediately available.
    pub fn try_acquire(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.count > 0 {
            state.count -= 1;
            synq_obs::probe!(SemAcquires);
            true
        } else {
            false
        }
    }

    /// Blocks up to `timeout` for a permit. Returns whether one was taken.
    pub fn acquire_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        if state.count <= 0 {
            synq_obs::probe!(SemContended);
        }
        while state.count <= 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state.waiters += 1;
            let (guard, _) = self.cvar.wait_timeout(state, deadline - now).unwrap();
            state = guard;
            state.waiters -= 1;
        }
        state.count -= 1;
        synq_obs::probe!(SemAcquires);
        true
    }

    /// Returns a permit, waking one waiter if any are blocked.
    pub fn release(&self) {
        let mut state = self.state.lock().unwrap();
        state.count += 1;
        if state.waiters > 0 {
            self.cvar.notify_one();
        }
        drop(state);
    }

    /// Current number of available permits.
    pub fn available(&self) -> i64 {
        self.state.lock().unwrap().count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn initial_permits_respected() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn zero_initial_blocks_until_release() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            s2.release();
        });
        let start = Instant::now();
        s.acquire();
        assert!(start.elapsed() >= Duration::from_millis(15));
        t.join().unwrap();
    }

    #[test]
    fn acquire_timeout_expires() {
        let s = Semaphore::new(0);
        assert!(!s.acquire_timeout(Duration::from_millis(15)));
    }

    #[test]
    fn acquire_timeout_succeeds_when_released() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            s2.release();
        });
        assert!(s.acquire_timeout(Duration::from_secs(30)));
        t.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_invariant() {
        // Classic semaphore-as-lock test: N threads incrementing a counter
        // under a binary semaphore must never observe a torn update.
        let s = Arc::new(Semaphore::new(1));
        let shared = Arc::new(AtomicUsize::new(0));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            let shared = Arc::clone(&shared);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                for _ in 0..500 {
                    s.acquire();
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                    shared.fetch_add(1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    s.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 8 * 500);
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn negative_initial_count_requires_extra_releases() {
        let s = Semaphore::new(-1);
        assert!(!s.try_acquire());
        s.release();
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn release_wakes_exactly_enough_waiters() {
        let s = Arc::new(Semaphore::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                s.acquire();
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        thread::sleep(Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 0);
        s.release();
        s.release();
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 2);
        s.release();
        s.release();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }
}

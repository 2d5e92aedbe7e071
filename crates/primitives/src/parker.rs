//! Thread parking with permit semantics.
//!
//! This is the Rust analogue of `java.util.concurrent.locks.LockSupport`,
//! which the paper's implementation uses "to remove threads from and restore
//! threads to the ready list". The semantics are the classic one-permit
//! protocol:
//!
//! * [`Unparker::unpark`] makes a single permit available (idempotent — at
//!   most one permit is ever banked).
//! * [`Parker::park`] consumes a permit if one is available and returns
//!   immediately; otherwise it blocks until a permit arrives.
//! * [`Parker::park_timeout`]/[`Parker::park_deadline`] additionally give up
//!   after a patience interval, which is what the synchronous queues' timed
//!   `offer`/`poll` operations are built on.
//!
//! A permit posted *before* the corresponding `park` is never lost: this is
//! exactly the property that lets lock-free algorithms publish a waiter,
//! re-check their precondition, and only then park, without missing a wakeup
//! that raced in between.
//!
//! # Backends
//!
//! On Linux (x86-64 and aarch64) the parker is a single `AtomicU32` word
//! driven by raw `futex(2)` wait/wake: `unpark` is one atomic swap plus — only
//! when the peer is actually asleep — one `FUTEX_WAKE` syscall, with no lock
//! on either side. Everywhere else a `Mutex` + `Condvar` pair provides the
//! same permit contract; the fallback is compiled (and unit-tested) on all
//! platforms so a non-Linux build can never rot unnoticed. See DESIGN.md
//! §4.15 for the full state machine and memory-ordering contract.

use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Parker state word: no permit, nobody asleep.
const EMPTY: u32 = 0;
/// Parker state word: the owning thread is asleep (or committing to sleep).
const PARKED: u32 = 1;
/// Parker state word: one permit banked.
const NOTIFIED: u32 = 2;

/// `futex(2)`-backed parker. One `AtomicU32` word, no locks.
///
/// State machine (`EMPTY`/`PARKED`/`NOTIFIED` as above):
///
/// ```text
///   park:   NOTIFIED --CAS(Acquire)--> EMPTY          (consume, no syscall)
///           EMPTY    --CAS(Acquire)--> PARKED         (publish intent)
///           ... FUTEX_WAIT(word, PARKED [, timeout])  (sleep)
///           NOTIFIED --CAS(Acquire)--> EMPTY          (consume after wake)
///           timeout: swap(EMPTY, AcqRel)              (retract; prev==NOTIFIED
///                                                      means the race was won
///                                                      by the unparker)
///   unpark: swap(NOTIFIED, Release)
///           prev == PARKED  => FUTEX_WAKE(word, 1)    (peer is asleep)
///           prev != PARKED  => done                   (permit banked free)
/// ```
///
/// The kernel re-checks `word == PARKED` under its own hashed-bucket lock
/// before sleeping, which is what makes the lock-free publish safe: an
/// `unpark` whose swap lands between our CAS and our `FUTEX_WAIT` changes the
/// word to `NOTIFIED`, so the wait returns `EAGAIN` immediately instead of
/// sleeping through the wake.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod futex_imp {
    use super::{EMPTY, NOTIFIED, PARKED};
    use std::ffi::{c_int, c_long};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Instant;

    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: c_long = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: c_long = 98;

    const FUTEX_WAIT: c_int = 0;
    const FUTEX_WAKE: c_int = 1;
    /// Process-private futex: skips the cross-process hash, and is what Miri's
    /// futex shim models.
    const FUTEX_PRIVATE_FLAG: c_int = 128;

    /// `struct timespec` on the LP64 Linux targets we gate on (both fields
    /// are 64-bit there, so no `__kernel_timespec` dance is needed).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        /// libc's variadic syscall trampoline; std already links libc, so
        /// declaring it here adds no dependency.
        fn syscall(num: c_long, ...) -> c_long;
    }

    /// Sleeps while `word == expected`, for at most `timeout` (forever if
    /// `None`). `FUTEX_WAIT` takes a *relative* timeout measured against
    /// `CLOCK_MONOTONIC`, which matches how we derive it from [`Instant`]s.
    /// All error returns (`EAGAIN`, `EINTR`, `ETIMEDOUT`) are handled the
    /// same way: return to the caller, which re-reads the word.
    fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<std::time::Duration>) {
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        synq_obs::probe!(ParkFutexWaits);
        // SAFETY: the futex word outlives the call (it is borrowed), the
        // timespec (when present) is a live stack value, and FUTEX_WAIT
        // writes through neither pointer.
        unsafe {
            syscall(
                SYS_FUTEX,
                word.as_ptr(),
                FUTEX_WAIT | FUTEX_PRIVATE_FLAG,
                expected,
                ts_ptr,
            );
        }
    }

    /// Wakes at most one thread sleeping on `word`.
    fn futex_wake_one(word: &AtomicU32) {
        synq_obs::probe!(ParkFutexWakes);
        // SAFETY: the futex word outlives the call; FUTEX_WAKE reads no
        // user-space pointers beyond the word address itself.
        unsafe {
            syscall(
                SYS_FUTEX,
                word.as_ptr(),
                FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
                1u32,
            );
        }
    }

    #[derive(Debug)]
    pub(super) struct Inner {
        state: AtomicU32,
    }

    impl Inner {
        pub(super) fn new() -> Self {
            Inner {
                state: AtomicU32::new(EMPTY),
            }
        }

        pub(super) fn park(&self, deadline: Option<Instant>) -> bool {
            // Fast path: consume a banked permit without any syscall.
            if self
                .state
                .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                synq_obs::probe!(ParkFastPaths);
                return true;
            }
            // Publish that we are about to sleep. An unpark that raced ahead
            // of us left NOTIFIED behind, which the failed exchange consumes
            // (Acquire on failure: the permit carries a happens-before edge).
            match self
                .state
                .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {}
                Err(actual) => {
                    debug_assert_eq!(actual, NOTIFIED);
                    self.state.store(EMPTY, Ordering::Relaxed);
                    synq_obs::probe!(ParkFastPaths);
                    return true;
                }
            }
            loop {
                match deadline {
                    None => futex_wait(&self.state, PARKED, None),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            // Timed out. Retract the PARKED claim; if an
                            // unpark slipped in concurrently, consume its
                            // permit so it is not spuriously banked for an
                            // unrelated later park.
                            let prev = self.state.swap(EMPTY, Ordering::AcqRel);
                            if prev == NOTIFIED {
                                return true;
                            }
                            synq_obs::probe!(ParkTimeouts);
                            return false;
                        }
                        futex_wait(&self.state, PARKED, Some(d - now));
                    }
                }
                // Woken (or EINTR/timeout): consume the permit if one landed,
                // otherwise loop — the deadline check above decides expiry.
                if self
                    .state
                    .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return true;
                }
            }
        }

        pub(super) fn unpark(&self) {
            // One swap; a syscall only if the peer is actually asleep.
            if self.state.swap(NOTIFIED, Ordering::Release) == PARKED {
                futex_wake_one(&self.state);
            } else {
                synq_obs::probe!(ParkWakeSkips);
            }
        }
    }
}

/// Portable `Mutex` + `Condvar` parker. The permit lives in an atomic word so
/// the banked-permit fast path takes no lock; the lock only bridges the
/// publish-then-sleep window (`unpark` acquires it before notifying, so its
/// notify cannot land between the parker's state check and its wait).
///
/// Compiled everywhere — it is the live backend off Linux, and on it both a
/// contract-tested reference implementation and the baseline behind the
/// public [`CondvarParker`] that the `park` benchmark compares against — so
/// the fallback can never bit-rot.
mod condvar_imp {
    use super::{EMPTY, NOTIFIED, PARKED};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;

    #[derive(Debug)]
    pub(super) struct Inner {
        state: AtomicU32,
        lock: Mutex<()>,
        cvar: Condvar,
    }

    impl Inner {
        pub(super) fn new() -> Self {
            Inner {
                state: AtomicU32::new(EMPTY),
                lock: Mutex::new(()),
                cvar: Condvar::new(),
            }
        }

        pub(super) fn park(&self, deadline: Option<Instant>) -> bool {
            // Fast path: consume a banked permit without taking the lock.
            if self
                .state
                .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                synq_obs::probe!(ParkFastPaths);
                return true;
            }
            let mut guard = self.lock.lock().unwrap();
            // Publish that we are about to sleep. An unparker that runs after
            // this CAS will take the lock and notify, so we cannot sleep
            // through its wakeup; an unparker that ran before it left
            // NOTIFIED behind, which the exchange observes.
            match self
                .state
                .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {}
                Err(actual) => {
                    debug_assert_eq!(actual, NOTIFIED);
                    self.state.store(EMPTY, Ordering::Relaxed);
                    synq_obs::probe!(ParkFastPaths);
                    return true;
                }
            }
            loop {
                let notified = match deadline {
                    None => {
                        synq_obs::probe!(ParkFutexWaits);
                        guard = self.cvar.wait(guard).unwrap();
                        self.state.load(Ordering::Acquire) == NOTIFIED
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            false
                        } else {
                            synq_obs::probe!(ParkFutexWaits);
                            let (g, _res) = self.cvar.wait_timeout(guard, d - now).unwrap();
                            guard = g;
                            self.state.load(Ordering::Acquire) == NOTIFIED
                        }
                    }
                };
                if notified {
                    self.state.store(EMPTY, Ordering::Release);
                    return true;
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        // Timed out. Retract the PARKED claim; if an unpark
                        // slipped in concurrently, consume it so the permit
                        // is not spuriously banked for an unrelated later
                        // park.
                        let prev = self.state.swap(EMPTY, Ordering::AcqRel);
                        if prev == NOTIFIED {
                            return true;
                        }
                        synq_obs::probe!(ParkTimeouts);
                        return false;
                    }
                }
                // Spurious wakeup: go around.
            }
        }

        pub(super) fn unpark(&self) {
            match self.state.swap(NOTIFIED, Ordering::Release) {
                PARKED => {
                    // The parker holds (or is acquiring) the lock around its
                    // sleep; taking it here ensures our notify cannot land in
                    // the window between its state check and its wait.
                    drop(self.lock.lock().unwrap());
                    synq_obs::probe!(ParkFutexWakes);
                    self.cvar.notify_one();
                }
                _ => {
                    synq_obs::probe!(ParkWakeSkips);
                }
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
use condvar_imp as imp;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use futex_imp as imp;

/// The waiting side of a parker pair. Owned by exactly one thread.
///
/// # Examples
///
/// ```
/// use synq_primitives::Parker;
///
/// let parker = Parker::new();
/// let unparker = parker.unparker();
/// let t = std::thread::spawn(move || unparker.unpark());
/// parker.park(); // returns once the permit arrives
/// t.join().unwrap();
/// ```
#[derive(Debug)]
pub struct Parker {
    inner: Arc<imp::Inner>,
}

/// The waking side of a parker pair. Cheap to clone and `Send`/`Sync`.
#[derive(Debug, Clone)]
pub struct Unparker {
    inner: Arc<imp::Inner>,
}

impl Default for Parker {
    fn default() -> Self {
        Self::new()
    }
}

impl Parker {
    /// Creates a parker with no banked permit.
    pub fn new() -> Self {
        Parker {
            inner: Arc::new(imp::Inner::new()),
        }
    }

    /// Returns a handle that can wake this parker from any thread.
    pub fn unparker(&self) -> Unparker {
        Unparker {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Returns a [`Waker`] whose wake unparks this parker: how a blocked
    /// thread registers in a [`WaiterCell`](crate::WaiterCell) or with a
    /// [`CancelToken`](crate::CancelToken). Like [`Parker::unparker`], it
    /// costs one `Arc` clone and no allocation.
    pub fn waker(&self) -> Waker {
        Waker::from(Arc::clone(&self.inner))
    }

    /// Blocks the current thread until a permit is available, then consumes
    /// it. Returns immediately if a permit was already banked.
    pub fn park(&self) {
        self.inner.park(None);
    }

    /// Like [`Parker::park`] but gives up after `timeout`. Returns `true` if
    /// a permit was consumed, `false` on timeout.
    pub fn park_timeout(&self, timeout: Duration) -> bool {
        self.inner.park(Some(Instant::now() + timeout))
    }

    /// Like [`Parker::park_timeout`] with an absolute deadline.
    pub fn park_deadline(&self, deadline: Instant) -> bool {
        self.inner.park(Some(deadline))
    }
}

impl Unparker {
    /// Makes one permit available, waking the parked thread if there is one.
    /// Idempotent: multiple unparks bank at most one permit.
    pub fn unpark(&self) {
        self.inner.unpark();
    }
}

/// Waking is unparking, on whichever backend is live.
impl Wake for imp::Inner {
    fn wake(self: Arc<Self>) {
        self.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.unpark();
    }
}

/// The portable `Mutex` + `Condvar` parker behind a public face: the same
/// permit contract as [`Parker`], always backed by the fallback
/// implementation regardless of platform. Exists so the `park` benchmark
/// (and anyone auditing the futex win) can measure the futex backend
/// against the condvar baseline on the same host. Use [`Parker`] for real
/// work — it picks the fastest backend automatically.
#[derive(Debug)]
pub struct CondvarParker {
    inner: Arc<condvar_imp::Inner>,
}

/// The waking side of a [`CondvarParker`] pair.
#[derive(Debug, Clone)]
pub struct CondvarUnparker {
    inner: Arc<condvar_imp::Inner>,
}

impl Default for CondvarParker {
    fn default() -> Self {
        Self::new()
    }
}

impl CondvarParker {
    /// Creates a condvar-backed parker with no banked permit.
    pub fn new() -> Self {
        CondvarParker {
            inner: Arc::new(condvar_imp::Inner::new()),
        }
    }

    /// Returns a handle that can wake this parker from any thread.
    pub fn unparker(&self) -> CondvarUnparker {
        CondvarUnparker {
            inner: Arc::clone(&self.inner),
        }
    }

    /// See [`Parker::park`].
    pub fn park(&self) {
        self.inner.park(None);
    }

    /// See [`Parker::park_timeout`].
    pub fn park_timeout(&self, timeout: Duration) -> bool {
        self.inner.park(Some(Instant::now() + timeout))
    }

    /// See [`Parker::park_deadline`].
    pub fn park_deadline(&self, deadline: Instant) -> bool {
        self.inner.park(Some(deadline))
    }
}

impl CondvarUnparker {
    /// See [`Unparker::unpark`].
    pub fn unpark(&self) {
        self.inner.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the full permit-contract suite against one backend. The public
    /// `Parker` wraps whichever backend the platform selects; the macro also
    /// pins the *other* backend to the same contract so the Condvar fallback
    /// stays correct even though Linux never routes through it.
    macro_rules! permit_contract_tests {
        ($backend:path) => {
            use std::sync::Arc;
            use std::thread;
            use std::time::{Duration, Instant};
            type Inner = $backend;

            fn new_pair() -> (Arc<Inner>, Arc<Inner>) {
                let p = Arc::new(Inner::new());
                (Arc::clone(&p), p)
            }

            #[test]
            fn unpark_before_park_is_banked() {
                let (p, u) = new_pair();
                u.unpark();
                // Must return immediately.
                assert!(p.park(Some(Instant::now() + Duration::from_secs(60))));
            }

            #[test]
            fn unpark_is_idempotent() {
                let (p, u) = new_pair();
                u.unpark();
                u.unpark();
                u.unpark();
                assert!(p.park(Some(Instant::now() + Duration::from_secs(60))));
                // Only one permit was banked: a timed park must now time out.
                assert!(!p.park(Some(Instant::now() + Duration::from_millis(10))));
            }

            #[test]
            fn park_timeout_expires_without_permit() {
                let (p, _u) = new_pair();
                let start = Instant::now();
                assert!(!p.park(Some(start + Duration::from_millis(20))));
                assert!(start.elapsed() >= Duration::from_millis(20));
            }

            #[test]
            fn cross_thread_wakeup() {
                let (p, u) = new_pair();
                let t = thread::spawn(move || {
                    thread::sleep(Duration::from_millis(30));
                    u.unpark();
                });
                let start = Instant::now();
                p.park(None);
                assert!(start.elapsed() >= Duration::from_millis(20));
                t.join().unwrap();
            }

            #[test]
            fn timed_park_woken_early() {
                let (p, u) = new_pair();
                let t = thread::spawn(move || {
                    thread::sleep(Duration::from_millis(10));
                    u.unpark();
                });
                assert!(p.park(Some(Instant::now() + Duration::from_secs(60))));
                t.join().unwrap();
            }

            #[test]
            fn permit_not_banked_after_timeout_race() {
                // Repeatedly race a timeout against an unpark; whatever the
                // winner, the parker must end each round with no banked
                // permit unless the park itself reported success.
                let rounds = if cfg!(miri) { 8 } else { 100 };
                let (p, u) = new_pair();
                for _ in 0..rounds {
                    let u2 = Arc::clone(&u);
                    let t = thread::spawn(move || {
                        u2.unpark();
                    });
                    let woke = p.park(Some(Instant::now() + Duration::from_micros(50)));
                    t.join().unwrap();
                    if !woke {
                        // The unpark must still be pending exactly once.
                        p.park(None);
                    }
                    // State must now be EMPTY for the next round.
                    assert!(!p.park(Some(Instant::now() + Duration::from_micros(1))));
                }
            }

            #[test]
            fn unpark_race_with_publish() {
                // Hammer the publish window: the unpark fires with no sleep
                // offset at all, so its swap frequently lands between the
                // parker's EMPTY->PARKED CAS and its sleep. The wait must
                // never be missed (each round would otherwise hang).
                let rounds = if cfg!(miri) { 8 } else { 200 };
                let (p, u) = new_pair();
                for _ in 0..rounds {
                    let u2 = Arc::clone(&u);
                    let t = thread::spawn(move || u2.unpark());
                    p.park(None);
                    t.join().unwrap();
                }
            }

            #[test]
            fn reusable_across_rounds() {
                let rounds = if cfg!(miri) { 4 } else { 50 };
                let (p, u) = new_pair();
                for _ in 0..rounds {
                    let u2 = Arc::clone(&u);
                    let t = thread::spawn(move || {
                        thread::sleep(Duration::from_millis(1));
                        u2.unpark();
                    });
                    p.park(None);
                    t.join().unwrap();
                }
            }

            #[test]
            fn park_deadline_in_past_returns_immediately() {
                let (p, _u) = new_pair();
                assert!(!p.park(Some(Instant::now())));
            }
        };
    }

    mod platform_backend {
        permit_contract_tests!(super::super::imp::Inner);
    }

    mod condvar_backend {
        permit_contract_tests!(super::super::condvar_imp::Inner);
    }

    // The public wrapper, exercised once end to end (the backends above cover
    // the state machine; this covers the Arc plumbing and API surface).
    #[test]
    fn public_api_round_trip() {
        let p = Parker::new();
        let u = p.unparker();
        u.unpark();
        p.park();
        assert!(!p.park_timeout(Duration::from_millis(5)));
        let t = std::thread::spawn(move || u.unpark());
        assert!(p.park_deadline(Instant::now() + Duration::from_secs(60)));
        t.join().unwrap();
    }
}

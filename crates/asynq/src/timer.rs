//! A minimal global timer: deadline wakes for pending timed transfers.
//!
//! The poll-mode wait engine underneath ([`synq::pollable`]) is
//! deliberately timer-free: a pending poll with an unexpired deadline
//! reports `Pending` and relies on *someone* re-polling once the deadline
//! passes. On a full-featured runtime that someone is the runtime's own
//! timer wheel; the `*_timed` futures in this crate work on *any* runtime,
//! so they fall back to this module — one lazily spawned driver thread over
//! a [`crate::wheel::TimerWheel`].
//!
//! Registrations are fire-and-forget: a waker fires *at or after* its
//! instant, is never cancelled, and may fire after the future it belongs
//! to has already resolved — a spurious wake, which the poll contract
//! makes harmless. The futures register once per waker, not once per poll
//! (see [`crate::future`]).
//!
//! # The driver's sleep
//!
//! The wheel is one heap behind one lock (see [`crate::wheel`]). The
//! driver coordinates with registrations through one more small mutex,
//! holding `next_wake`, the deadline it committed to sleep until:
//!
//! * the driver clears `next_wake`, advances the wheel, reads the next
//!   deadline, commits it to `next_wake`, and parks until it (a
//!   futex-timed park on Linux, via [`synq_primitives::Parker`]);
//! * `wake_at` arms the wheel first, then unparks the driver if
//!   `next_wake` is cleared or later than its own deadline.
//!
//! The race to beat is an insert that lands after the driver read the next
//! deadline but before it committed it. Such an insert reads `next_wake`
//! either before the commit, and finds it cleared (the driver is
//! mid-pass), so it unparks the driver; or after it, and finds a deadline
//! read without the insert: it unparks the driver if its own deadline is
//! earlier, and otherwise the driver wakes no later than that deadline and
//! makes a pass that sees the insert. The parker banks the permit, so a
//! driver unparked before it parks returns from that park at once and
//! makes another pass, which sees the insert. A superfluous unpark costs
//! one extra pass. A registration never blocks behind the driver's sleep
//! or behind expiry processing.
//!
//! # Firing on time
//!
//! Two things stand between a deadline and its wake: the wheel's
//! [`TICK`](crate::wheel::TICK) (10 µs), to which a deadline is rounded up,
//! and the timed futex wait of the driver, which Linux lets run late by the
//! thread's *timer slack* (50 µs by default). The driver thread sets its
//! own slack to the minimum, 1 ns, with `prctl(PR_SET_TIMERSLACK)` when it
//! starts; the setting is per thread and this thread belongs to the
//! library, so no caller's thread is affected. Together they put a wake
//! within about 10–20 µs of its instant, where a 100 µs tick and the
//! default slack read 111 µs (p50) on `dispatch_open`.
//!
//! # A waker that panics
//!
//! Every waker runs under `catch_unwind`, and a panic is dropped: the
//! driver goes on with the next waker. One executor's faulty waker must
//! not end the thread that serves every timed future in the process (it
//! would leave them all waiting for a wake that never comes).
//! `timer.wake_panics` counts the panics in a `stats` build, beside
//! `timer.wakes` (driver passes that end in a park) and `timer.fired`
//! (wakers fired).

use crate::wheel::{Insert, TimerWheel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::task::Waker;
use std::time::Instant;
use synq_primitives::{Parker, Unparker};

struct Timer {
    wheel: TimerWheel,
    /// The deadline the driver committed to sleep until (`None`: either
    /// sleeping unbounded or mid-pass; both mean "unpark me").
    next_wake: Mutex<Option<Instant>>,
    unparker: Unparker,
}

static TIMER: OnceLock<&'static Timer> = OnceLock::new();

fn timer() -> &'static Timer {
    TIMER.get_or_init(|| {
        let parker = Parker::new();
        // Leaked on purpose: the timer thread lives for the process and a
        // `static` reference lets it share the state with no refcounting.
        let t: &'static Timer = Box::leak(Box::new(Timer {
            wheel: TimerWheel::new(Instant::now()),
            next_wake: Mutex::new(None),
            unparker: parker.unparker(),
        }));
        std::thread::Builder::new()
            .name("synq-async-timer".into())
            .spawn(move || run(t, parker))
            .expect("spawn timer thread");
        t
    })
}

fn run(t: &'static Timer, parker: Parker) {
    set_min_timer_slack();
    loop {
        *t.next_wake.lock().expect("timer poisoned") = None;
        // Fire everything due. `wake` can run arbitrary executor code, so
        // the wheel hands the wakers out instead of invoking them inside
        // its lock, and a panic in one is dropped (module docs).
        let due = t.wheel.advance(Instant::now());
        synq_obs::probe!(TimerFired, due.len());
        for w in due {
            if catch_unwind(AssertUnwindSafe(|| w.wake())).is_err() {
                synq_obs::probe!(TimerWakePanics);
            }
        }
        // An insert that lands from here on is covered by the unpark
        // argument in the module docs.
        let next = t.wheel.next_deadline();
        *t.next_wake.lock().expect("timer poisoned") = next;
        synq_obs::probe!(TimerWakes);
        match next {
            Some(at) => {
                parker.park_deadline(at);
            }
            None => parker.park(),
        }
    }
}

/// Sets the calling thread's timer slack to the minimum, 1 ns (0 would
/// restore the default), so that its timed parks wake on time.
#[cfg(all(target_os = "linux", not(miri)))]
fn set_min_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        /// libc's variadic `prctl`; std already links libc.
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes
    // only the calling thread's slack; no pointer is passed. A failure
    // leaves the default slack, which is only later.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn set_min_timer_slack() {}

/// Schedules `waker` to be woken at (or shortly after) `at`.
pub fn wake_at(at: Instant, waker: Waker) {
    // Already expired by wall clock: fire here rather than bouncing
    // through the driver thread. Checked against `Instant::now()` and not
    // the wheel cursor — the cursor lags real time whenever the driver is
    // parked, and an inline fire needs no coordination with it.
    if at <= Instant::now() {
        waker.wake();
        return;
    }
    let t = timer();
    match t.wheel.insert(at, waker) {
        Insert::Due(w) => {
            // Expired between the check above and the insert (or due at
            // the cursor's current tick already).
            w.wake();
            return;
        }
        Insert::Armed => {}
    }
    // `None` means the driver is either mid-pass or parked with no
    // deadline; unparking covers both, and a superfluous permit is banked,
    // not lost.
    let needs_unpark = t
        .next_wake
        .lock()
        .expect("timer poisoned")
        .is_none_or(|nw| at < nw);
    if needs_unpark {
        t.unparker.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn counting_waker(hits: Arc<AtomicUsize>) -> Waker {
        struct W(Arc<AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        Waker::from(Arc::new(W(hits)))
    }

    #[test]
    fn due_waker_fires() {
        let hits = Arc::new(AtomicUsize::new(0));
        wake_at(
            Instant::now() + Duration::from_millis(20),
            counting_waker(Arc::clone(&hits)),
        );
        let start = Instant::now();
        while hits.load(Ordering::SeqCst) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "timer never fired"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn earlier_registration_preempts_later_sleep() {
        // Register a far deadline first, then a near one: the near one must
        // not wait behind the far one's sleep.
        let far = Arc::new(AtomicUsize::new(0));
        let near = Arc::new(AtomicUsize::new(0));
        wake_at(
            Instant::now() + Duration::from_secs(30),
            counting_waker(Arc::clone(&far)),
        );
        wake_at(
            Instant::now() + Duration::from_millis(20),
            counting_waker(Arc::clone(&near)),
        );
        let start = Instant::now();
        while near.load(Ordering::SeqCst) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "near deadline stuck behind far sleep"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(far.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn past_deadline_fires_inline() {
        let hits = Arc::new(AtomicUsize::new(0));
        wake_at(
            Instant::now() - Duration::from_millis(5),
            counting_waker(Arc::clone(&hits)),
        );
        // `Insert::Due` fires on the registering thread, synchronously.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn timeout_storm_fires_everything() {
        // A burst of near deadlines across many ticks: all must fire, and
        // promptly.
        let hits = Arc::new(AtomicUsize::new(0));
        let n = 512;
        for i in 0..n {
            wake_at(
                Instant::now() + Duration::from_millis(1 + (i % 40) as u64),
                counting_waker(Arc::clone(&hits)),
            );
        }
        let start = Instant::now();
        while hits.load(Ordering::SeqCst) < n {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "storm lost wakeups: {}/{} after {:?}",
                hits.load(Ordering::SeqCst),
                n,
                start.elapsed()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

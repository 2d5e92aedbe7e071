//! A waker that panics when the timer thread fires it must not stop the
//! timer: every later timed future in the process depends on that one
//! thread. The test lives in its own binary (its own process and its own
//! timer thread), so a driver the panic ended fails this test after a
//! bounded wait instead of stalling the library's unit tests, which share
//! the global timer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};
use synq_async::timer::wake_at;
use synq_obs::{Probe, StatsSnapshot};

/// Sets its flag when woken, then panics if told to.
struct Flag {
    woken: AtomicBool,
    panics: bool,
}

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::SeqCst);
        if self.panics {
            panic!("a waker that panics, on purpose");
        }
    }
}

fn flag(panics: bool) -> Arc<Flag> {
    Arc::new(Flag {
        woken: AtomicBool::new(false),
        panics,
    })
}

/// Waits up to `limit` for `f` to be woken; true if it was.
fn woken_within(f: &Flag, limit: Duration) -> bool {
    let start = Instant::now();
    while !f.woken.load(Ordering::SeqCst) {
        if start.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn a_panicking_waker_does_not_stop_later_timeouts() {
    let before = StatsSnapshot::take();
    let bad = flag(true);
    wake_at(
        Instant::now() + Duration::from_millis(2),
        Waker::from(Arc::clone(&bad)),
    );
    assert!(
        woken_within(&bad, Duration::from_secs(5)),
        "the timer never fired the first waker"
    );
    // Fired through the timer thread, which caught the panic. Each of
    // these would wait for ever if the panic had ended that thread.
    for _ in 0..3 {
        let good = flag(false);
        wake_at(
            Instant::now() + Duration::from_millis(2),
            Waker::from(Arc::clone(&good)),
        );
        assert!(
            woken_within(&good, Duration::from_secs(2)),
            "a deadline registered after a panicking waker never fired"
        );
    }
    if synq_obs::ENABLED {
        let delta = StatsSnapshot::take().delta(&before);
        assert_eq!(delta.get(Probe::TimerWakePanics), 1);
        assert!(delta.get(Probe::TimerFired) >= 4);
    }
}

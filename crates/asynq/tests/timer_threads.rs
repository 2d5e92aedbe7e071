//! Registrations from several threads at once, against the live timer
//! thread: the inserts race each other for the timer's lock, and race the
//! driver's advance and its sleep decision. Every waker must fire exactly
//! once, never before its instant, and promptly. The test lives in its own
//! binary because the timer is global to the process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::task::{Wake, Waker};
use std::thread;
use std::time::{Duration, Instant};
use synq_async::timer::wake_at;

const THREADS: usize = 4;
const PER_THREAD: usize = 2_000;

/// One registration: its instant, how often it was woken, and when first.
struct Stamp {
    at: Instant,
    wakes: AtomicUsize,
    woken_at: OnceLock<Instant>,
}

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let now = Instant::now();
        self.woken_at.get_or_init(|| now);
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn wakers_registered_from_four_threads_fire_once_and_never_early() {
    // The second wave finds the driver parked with nothing pending.
    for _ in 0..2 {
        wave();
    }
}

/// Registers `THREADS * PER_THREAD` wakers and checks every one.
fn wave() {
    let start = Barrier::new(THREADS);
    let stamps: Vec<Arc<Stamp>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    (0..PER_THREAD)
                        .map(|i| {
                            // 0–5 ms out, spread differently per thread.
                            let us = ((i * 7_919 + t * 1_237) % 5_001) as u64;
                            let stamp = Arc::new(Stamp {
                                at: Instant::now() + Duration::from_micros(us),
                                wakes: AtomicUsize::new(0),
                                woken_at: OnceLock::new(),
                            });
                            wake_at(stamp.at, Waker::from(Arc::clone(&stamp)));
                            stamp
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("registering thread"))
            .collect()
    });
    let registered = Instant::now();
    while stamps.iter().any(|s| s.wakes.load(Ordering::SeqCst) == 0) {
        let fired = stamps
            .iter()
            .filter(|s| s.wakes.load(Ordering::SeqCst) > 0)
            .count();
        assert!(
            registered.elapsed() < Duration::from_secs(2),
            "{fired} of {} wakers fired within 2 s",
            stamps.len()
        );
        thread::sleep(Duration::from_millis(1));
    }
    // Room for a second, wrong wake to show.
    thread::sleep(Duration::from_millis(20));
    for s in &stamps {
        assert_eq!(s.wakes.load(Ordering::SeqCst), 1, "woken more than once");
        let woken_at = *s.woken_at.get().expect("stamped");
        assert!(woken_at >= s.at, "woken {:?} early", s.at - woken_at);
        assert!(woken_at - s.at < Duration::from_secs(2), "woken 2 s late");
    }
}

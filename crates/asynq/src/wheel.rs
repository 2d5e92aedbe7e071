//! The pending deadlines under [`crate::timer`]: one binary heap of
//! `(deadline tick, waker)` behind one lock.
//!
//! `insert` pushes, `advance` pops every entry due by `now`, earliest
//! first, and `next_deadline` peeks at the top. The driver runs
//! `next_deadline` on every pass, so reading the earliest deadline costs a
//! peek, not a scan of what is pending.
//!
//! One lock costs no parallelism: [`crate::timer::wake_at`] takes the
//! driver's coordination mutex after every insert anyway, so registrations
//! are serialised there (DESIGN §4.15 measures this heap against the
//! lock-per-slot wheel it replaced).
//!
//! The module and the type keep their wheel names because the benchmark
//! imports `synq_async::wheel::TimerWheel` and calls `new`, `insert` and
//! `advance` through a shared reference.
//!
//! # No user code under the lock
//!
//! A waker is moved into the heap and moved out of it, never cloned, woken
//! or dropped while the lock is held: `insert` hands an already-due waker
//! back as [`Insert::Due`], and `advance` returns the due wakers for the
//! caller to wake. Nothing under the lock can panic, so the lock cannot be
//! poisoned.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard};
use std::task::Waker;
use std::time::{Duration, Instant};

/// Timer resolution: deadlines are rounded *up* to the next tick
/// boundary, so an entry never fires before its instant, and deadlines
/// within one tick fire in one driver pass. 10 µs keeps the rounding well
/// under the timer thread's wake-up latency (the thread runs with the
/// minimum timer slack; see [`crate::timer`]), so an async deadline fires
/// within about 10–20 µs of its instant. A coarser tick showed directly
/// as timeout lateness: at 100 µs, a lapse resolved 111 µs (p50) after its
/// deadline on `dispatch_open`.
pub const TICK: Duration = Duration::from_micros(10);

const TICK_NANOS: u128 = TICK.as_nanos();

/// One registered timeout, ordered by deadline alone and reversed, so the
/// max-heap [`BinaryHeap`] yields the earliest deadline first.
struct Entry {
    /// Absolute deadline in ticks from the origin (ceiling-rounded).
    at_ticks: u64,
    waker: Waker,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at_ticks.cmp(&self.at_ticks)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at_ticks == other.at_ticks
    }
}

impl Eq for Entry {}

/// What the lock guards.
struct Pending {
    /// Last advanced tick: a deadline at or before it is due.
    cursor: u64,
    heap: BinaryHeap<Entry>,
}

/// Result of [`TimerWheel::insert`].
pub enum Insert {
    /// The deadline is in the future; the timer owns the waker now.
    Armed,
    /// The deadline is at or before the last advanced tick: the waker comes
    /// straight back and the caller must invoke it (the timer never wakes
    /// from `insert`, so no executor code runs inside a registration).
    Due(Waker),
}

/// The timer's pending deadlines. See the module docs.
pub struct TimerWheel {
    origin: Instant,
    pending: Mutex<Pending>,
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.lock();
        f.debug_struct("TimerWheel")
            .field("cursor", &p.cursor)
            .field("pending", &p.heap.len())
            .finish()
    }
}

impl TimerWheel {
    /// An empty timer whose tick 0 is `origin` (registrations at or before
    /// `origin` are immediately due).
    pub fn new(origin: Instant) -> Self {
        TimerWheel {
            origin,
            pending: Mutex::new(Pending {
                cursor: 0,
                heap: BinaryHeap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pending> {
        // Never poisoned: no code that can panic runs under it (module docs).
        self.pending.lock().expect("timer heap poisoned")
    }

    /// `now` in whole elapsed ticks (floor): the last tick boundary reached.
    fn ticks_floor(&self, now: Instant) -> u64 {
        let nanos = now.saturating_duration_since(self.origin).as_nanos();
        (nanos / TICK_NANOS).min(u64::MAX as u128) as u64
    }

    /// A deadline in ticks, rounded *up* so firing at `at_ticks` is never
    /// early.
    fn ticks_ceil(&self, at: Instant) -> u64 {
        let nanos = at.saturating_duration_since(self.origin).as_nanos();
        (nanos.div_ceil(TICK_NANOS)).min(u64::MAX as u128) as u64
    }

    /// Registers `waker` to fire at or after `at`, or hands it back as
    /// [`Insert::Due`] if `at` is at or before the last advanced tick.
    pub fn insert(&self, at: Instant, waker: Waker) -> Insert {
        let at_ticks = self.ticks_ceil(at);
        let mut p = self.lock();
        if at_ticks <= p.cursor {
            return Insert::Due(waker);
        }
        p.heap.push(Entry { at_ticks, waker });
        Insert::Armed
    }

    /// Advances to `now`, returning every waker whose deadline was reached,
    /// earliest first. The caller invokes them, outside the lock.
    pub fn advance(&self, now: Instant) -> Vec<Waker> {
        let target = self.ticks_floor(now);
        let mut fired = Vec::new();
        let mut p = self.lock();
        let Pending { cursor, heap } = &mut *p;
        *cursor = target.max(*cursor);
        while heap.peek().is_some_and(|e| e.at_ticks <= *cursor) {
            fired.extend(heap.pop().map(|e| e.waker));
        }
        fired
    }

    /// Earliest pending deadline, if any (the tick it fires at).
    pub fn next_deadline(&self) -> Option<Instant> {
        let ticks = self.lock().heap.peek()?.at_ticks;
        Some(self.origin + Duration::from_nanos(ticks.saturating_mul(TICK_NANOS as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A waker that records its entry's index into a shared log when woken.
    fn tagged_waker(log: Arc<Mutex<Vec<usize>>>, idx: usize) -> Waker {
        struct W(Arc<Mutex<Vec<usize>>>, usize);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.lock().unwrap().push(self.1);
            }
        }
        Waker::from(Arc::new(W(log, idx)))
    }

    /// A fresh log and a waker that records index 0 into it.
    fn logged_waker() -> (Arc<Mutex<Vec<usize>>>, Waker) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let waker = tagged_waker(Arc::clone(&log), 0);
        (log, waker)
    }

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let (log, waker) = logged_waker();
        let at = origin + Duration::from_millis(10);
        assert!(matches!(w.insert(at, waker), Insert::Armed));
        // One tick short of the (ceiling-rounded) deadline.
        assert!(w.advance(at - TICK).is_empty());
        let due = w.advance(at);
        assert_eq!(due.len(), 1);
        for waker in due {
            waker.wake();
        }
        assert_eq!(log.lock().unwrap().len(), 1);
        // Exactly once: nothing left.
        assert!(w.advance(origin + Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn sub_tick_deadline_rounds_up() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let (_, waker) = logged_waker();
        // A fifth of a tick from origin: must round up to tick 1, not down
        // to "due".
        assert!(matches!(w.insert(origin + TICK / 5, waker), Insert::Armed));
        assert!(w.advance(origin + TICK * 9 / 10).is_empty());
        assert_eq!(w.advance(origin + TICK).len(), 1);
    }

    #[test]
    fn past_deadline_is_due_immediately() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let (_, waker) = logged_waker();
        assert!(matches!(w.insert(origin, waker), Insert::Due(_)));
    }

    #[test]
    fn next_deadline_is_the_minimum() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        assert!(w.next_deadline().is_none());
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, ms) in [70_u64, 3, 4000].into_iter().enumerate() {
            w.insert(
                origin + Duration::from_millis(ms),
                tagged_waker(Arc::clone(&log), i),
            );
        }
        assert_eq!(w.next_deadline(), Some(origin + Duration::from_millis(3)));
        w.advance(origin + Duration::from_millis(10));
        assert_eq!(w.next_deadline(), Some(origin + Duration::from_millis(70)));
    }

    /// A delay of `n` ticks.
    fn ticks(n: u32) -> Duration {
        TICK * n
    }

    #[test]
    fn far_deadlines_fire_in_order_and_never_early() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let log = Arc::new(Mutex::new(Vec::new()));
        // From 6.4 ms to 2.3 h out, each a few ticks off a multiple of a
        // power of 64.
        let delays = [
            ticks(64 * 10 + 3),
            ticks(64 * 64 * 20 + 7),
            ticks(64 * 64 * 64 * 30 + 11),
            ticks(64 * 64 * 64 * 64 * 50 + 13),
        ];
        for (i, d) in delays.into_iter().enumerate() {
            assert!(matches!(
                w.insert(origin + d, tagged_waker(Arc::clone(&log), i)),
                Insert::Armed
            ));
        }
        // Walk time forward in coarse, uneven jumps well past everything,
        // stopping one tick short of the first deadline on the way.
        let mut fired = Vec::new();
        let steps = [
            delays[0] / 3,
            delays[0] - TICK,
            delays[0],
            delays[1] / 2,
            delays[2] - TICK * 5,
            delays[2] * 7,
            delays[3] * 2,
        ];
        for step in steps {
            for waker in w.advance(origin + step) {
                waker.wake();
            }
            fired.push(log.lock().unwrap().clone());
        }
        // Each fires exactly once, in deadline order across steps.
        let final_log = log.lock().unwrap().clone();
        assert_eq!(final_log, vec![0, 1, 2, 3]);
        // And never before its deadline: entry 0 must not be in the
        // snapshot one tick short of it, and must be in the next.
        assert!(fired[1].is_empty());
        assert_eq!(fired[2], vec![0]);
        assert_eq!(fired[4], vec![0, 1]);
    }

    #[test]
    fn an_entry_two_hours_out_waits_out_an_hour_and_fires_once() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let (log, waker) = logged_waker();
        let hour = Duration::from_secs(3600);
        assert!(matches!(w.insert(origin + 2 * hour, waker), Insert::Armed));
        assert!(w.advance(origin + hour).is_empty());
        assert!(w.advance(origin + 2 * hour - TICK).is_empty());
        let due = w.advance(origin + 2 * hour);
        assert_eq!(due.len(), 1);
        for waker in due {
            waker.wake();
        }
        assert_eq!(log.lock().unwrap().len(), 1);
        assert!(w.advance(origin + 3 * hour).is_empty());
    }

    /// Oracle check over interleaved inserts and advances, against a plain
    /// list of deadlines. Entry `i` has absolute deadline `entries[i].0` µs
    /// from the origin and is inserted right before step `entries[i].1`
    /// (mod the step count). An insert at or before the cursor must come
    /// back `Insert::Due`; any other fires exactly once, never before its
    /// (ceiling-rounded) deadline tick, in the first step that covers it. A
    /// final step past `max_us` must drain everything.
    fn check_against_oracle(
        entries: &[(u64, usize)],
        steps_us: &[u64],
        max_us: u64,
    ) -> Result<(), proptest::TestCaseError> {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Oracle: deadline of entry i in ticks, ceiling-rounded,
        // matching the timer's contract.
        let tick_ns = TICK_NANOS as u64;
        let at_ticks: Vec<u64> = entries
            .iter()
            .map(|(us, _)| (us * 1000).div_ceil(tick_ns))
            .collect();
        let mut steps = steps_us.to_vec();
        // Final step far past every deadline: everything must drain.
        steps.push(max_us + 1);
        let mut armed = vec![false; entries.len()];
        let mut now_us = 0_u64;
        let mut cursor = 0_u64;
        for (s, step) in steps.iter().enumerate() {
            for (i, &(us, before_step)) in entries.iter().enumerate() {
                if before_step % steps.len() != s {
                    continue;
                }
                match w.insert(
                    origin + Duration::from_micros(us),
                    tagged_waker(Arc::clone(&log), i),
                ) {
                    Insert::Armed => {
                        proptest::prop_assert!(at_ticks[i] > cursor);
                        armed[i] = true;
                    }
                    Insert::Due(waker) => {
                        proptest::prop_assert!(at_ticks[i] <= cursor);
                        waker.wake();
                    }
                }
            }
            now_us += step;
            let target_ticks = now_us * 1000 / tick_ns; // floor, like the timer
            let before = log.lock().unwrap().len();
            for waker in w.advance(origin + Duration::from_micros(now_us)) {
                waker.wake();
            }
            let log_now = log.lock().unwrap().clone();
            // Exactly the oracle's due set fired in this step.
            let mut got: Vec<usize> = log_now[before..].to_vec();
            got.sort_unstable();
            let want: Vec<usize> = (0..at_ticks.len())
                .filter(|&i| armed[i] && at_ticks[i] > cursor && at_ticks[i] <= target_ticks)
                .collect();
            proptest::prop_assert_eq!(got, want);
            cursor = target_ticks;
        }
        // Everything fired exactly once.
        let mut all = log.lock().unwrap().clone();
        all.sort_unstable();
        proptest::prop_assert_eq!(all, (0..at_ticks.len()).collect::<Vec<_>>());
        Ok(())
    }

    /// Pairs each deadline with the step it is inserted before, cycling
    /// through `before_steps`.
    fn entries(deadlines_us: &[u64], before_steps: &[usize]) -> Vec<(u64, usize)> {
        deadlines_us
            .iter()
            .copied()
            .zip(before_steps.iter().copied().cycle())
            .collect()
    }

    proptest::proptest! {
        /// Coarse: deadlines out to 400 s and steps of up to 150 s, so one
        /// step covers many entries, and an insert after a few steps is
        /// often already due.
        #[test]
        fn firing_matches_sorted_oracle(
            deadlines_us in proptest::collection::vec(0_u64..=400_000_000, 1..48),
            before_steps in proptest::collection::vec(0_usize..16, 1..48),
            steps_us in proptest::collection::vec(1_u64..=150_000_000, 1..12),
        ) {
            check_against_oracle(&entries(&deadlines_us, &before_steps), &steps_us, 400_000_000)?;
        }

        /// Fine: deadlines within 50 ms and steps of a few ticks to a few
        /// hundred, so deadlines and steps share ticks and an insert lands
        /// just before, at or just after the cursor.
        #[test]
        fn fine_steps_match_sorted_oracle(
            deadlines_us in proptest::collection::vec(0_u64..=50_000, 1..48),
            before_steps in proptest::collection::vec(0_usize..80, 1..48),
            steps_us in proptest::collection::vec(1_u64..=3_000, 1..64),
        ) {
            check_against_oracle(&entries(&deadlines_us, &before_steps), &steps_us, 50_000)?;
        }
    }
}

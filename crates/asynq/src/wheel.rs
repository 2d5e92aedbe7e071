//! Hierarchical hashed timer wheel: the data structure under [`crate::timer`].
//!
//! The original global timer kept every pending deadline in one
//! `Mutex<BinaryHeap>`; a timeout storm serialised all registrations on that
//! lock and paid `O(log n)` per push under it. The wheel shards the same
//! state [`LEVELS`] x [`SLOTS`] ways — one tiny mutex per slot — so
//! registrations for different ticks never contend. A per-level occupancy
//! bitmap lets `advance` visit only the occupied slots a span crosses.
//!
//! # Layout
//!
//! Time is quantised into [`TICK`] (10 µs) ticks counted from the wheel's
//! `origin`. Level `l` covers deadlines `64^l ..64^(l+1)` ticks ahead of the
//! cursor in slots of `64^l` ticks each; with 4 levels the horizon is
//! `64^4` ticks ≈ 2.8 min, and anything further is clamped into the top
//! level (it cascades — is re-placed — as the cursor approaches, which only
//! costs a re-shelving every `64^3` ticks). A deadline is mapped to
//! `at_ticks` by *ceiling* division so an entry never fires before its
//! instant; the public contract is fire **at or after**.
//!
//! # Advancing
//!
//! Each slot has a *drain tick*: the tick at which the cursor reaches it
//! (for level `l`, a multiple of `64^l`). `advance` claims the whole span
//! `(cursor, now]` with one cursor store, then, level by level from the
//! bottom, drains the occupied slots whose drain tick lies in that span:
//! the span's slots as a rotated bit mask, ANDed with the occupancy
//! bitmap. A drained entry fires if its deadline is in the span and is
//! otherwise re-placed against the new cursor, strictly below its old
//! level (or again in the top level, if it is still past the horizon). So
//! the cost of an advance is a few atomic loads per level plus one drain
//! per occupied slot crossed, whatever the span: an hour of idle time
//! with one far entry armed costs one drain of that entry's slot, not a
//! step per 64 ticks. That is what lets the tick be as fine as 10 µs.
//!
//! # Concurrency protocol
//!
//! `insert` is designed to run concurrently with `advance` (which a single
//! driver thread calls under an internal lock). The race to beat: an entry
//! placed in a slot whose processing point the cursor passes *while the
//! insert is in flight* would silently wait a whole ring revolution. The
//! defence is a Dekker-style handshake on (`cursor`, occupancy bitmap):
//!
//! * `advance` publishes the new cursor (`SeqCst` store) **before** reading
//!   occupancy and draining slots;
//! * `insert` pushes the entry and sets the occupancy bit (under the slot
//!   lock, `SeqCst`) **before** re-reading the cursor.
//!
//! In every interleaving at least one side sees the other: either the
//! driver's occupancy read observes the new bit (it drains the slot and
//! fires/re-places the entry), or the inserter's cursor re-read observes
//! that the cursor reached its entry's cascade point — in which case it
//! tries to take the entry back out by id: success means the insert retries
//! against the fresh cursor; failure means the driver already owns it.
//! Slot mutexes double as the happens-before edge between the two sides.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::Waker;
use std::time::{Duration, Instant};

/// Wheel resolution: deadlines are rounded *up* to the next tick boundary.
/// 10 µs keeps the rounding well under the timer thread's wake-up latency
/// (the thread runs with the minimum timer slack; see [`crate::timer`]), so
/// an async deadline fires within about 10–20 µs of its instant. A coarser
/// tick showed directly as timeout lateness: at 100 µs, a lapse resolved
/// 111 µs (p50) after its deadline on `dispatch_open`. Since `advance` costs
/// nothing per idle tick, a finer tick costs only the shorter horizon and
/// more frequent re-shelving of far entries.
pub const TICK: Duration = Duration::from_micros(10);

const TICK_NANOS: u128 = TICK.as_nanos();

/// Hierarchy depth.
pub const LEVELS: usize = 4;

/// Slots per level (64, so slot indices are 6 bits of `at_ticks`).
pub const SLOTS: usize = 64;

const SLOT_BITS: u32 = 6;

/// One registered timeout.
struct Entry {
    /// Absolute deadline in ticks from the wheel origin (ceiling-rounded).
    at_ticks: u64,
    /// Unique id, so a racing inserter can reclaim exactly its own entry.
    id: u64,
    waker: Waker,
}

/// One slot ring: 64 independently locked buckets plus an occupancy bitmap
/// (bit `s` set iff slot `s` is nonempty; maintained under the slot lock).
struct Level {
    occupancy: AtomicU64,
    slots: [Mutex<Vec<Entry>>; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupancy: AtomicU64::new(0),
            slots: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Pushes under the slot lock and maintains the bitmap invariant.
    fn push(&self, slot: usize, entry: Entry) {
        let mut s = self.slots[slot].lock().expect("wheel slot poisoned");
        s.push(entry);
        self.occupancy.fetch_or(1 << slot, Ordering::SeqCst);
    }

    /// Takes the whole slot, clearing its bit. Returns an empty vec cheaply
    /// when a stale-looking bit raced with a concurrent drain.
    fn drain(&self, slot: usize) -> Vec<Entry> {
        let mut s = self.slots[slot].lock().expect("wheel slot poisoned");
        self.occupancy.fetch_and(!(1 << slot), Ordering::SeqCst);
        std::mem::take(&mut *s)
    }

    /// Removes the entry with `id` from `slot`, if it is still there.
    fn remove(&self, slot: usize, id: u64) -> Option<Entry> {
        let mut s = self.slots[slot].lock().expect("wheel slot poisoned");
        let i = s.iter().position(|e| e.id == id)?;
        let e = s.swap_remove(i);
        if s.is_empty() {
            self.occupancy.fetch_and(!(1 << slot), Ordering::SeqCst);
        }
        Some(e)
    }
}

/// Result of [`TimerWheel::insert`].
pub enum Insert {
    /// The deadline is in the future; the wheel owns the waker now.
    Armed,
    /// The deadline already passed: the waker comes straight back and the
    /// caller must invoke it (the wheel never wakes from `insert`, so
    /// arbitrary executor code cannot run inside a registration).
    Due(Waker),
}

/// A 4x64 hierarchical timer wheel. See the module docs for the layout and
/// the insert/advance handshake.
pub struct TimerWheel {
    origin: Instant,
    /// Last fully processed tick. Only `advance` (serialised by
    /// `advance_lock`) stores it; `insert` reads it lock-free.
    cursor: AtomicU64,
    advance_lock: Mutex<()>,
    next_id: AtomicU64,
    levels: [Level; LEVELS],
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("cursor", &self.cursor.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TimerWheel {
    /// An empty wheel whose tick 0 is `origin` (registrations at or before
    /// `origin` are immediately due).
    pub fn new(origin: Instant) -> Self {
        TimerWheel {
            origin,
            cursor: AtomicU64::new(0),
            advance_lock: Mutex::new(()),
            next_id: AtomicU64::new(0),
            levels: std::array::from_fn(|_| Level::new()),
        }
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

    /// (level, slot) for a future deadline, relative to cursor position `c`.
    fn place(at_ticks: u64, c: u64) -> (usize, usize) {
        debug_assert!(at_ticks > c);
        let delta = at_ticks - c;
        // Smallest level whose span covers the delta, clamped to the top.
        let mut level = 0;
        while level + 1 < LEVELS && delta >= 1u64 << (SLOT_BITS * (level as u32 + 1)) {
            level += 1;
        }
        let slot = ((at_ticks >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// The tick at which the driver drains the slot a `(level, at_ticks)`
    /// entry lives in: the enclosing `64^level` boundary (for level 0, the
    /// deadline itself).
    fn cascade_tick(level: usize, at_ticks: u64) -> u64 {
        at_ticks & !((1u64 << (SLOT_BITS * level as u32)) - 1)
    }

    /// Registers `waker` to fire at-or-after `at`. Wait-free against other
    /// inserters of different ticks; safe against a concurrent [`advance`].
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn insert(&self, at: Instant, waker: Waker) -> Insert {
        let at_ticks = self.ticks_ceil(at);
        let mut waker = waker;
        loop {
            let c = self.cursor.load(Ordering::SeqCst);
            if at_ticks <= c {
                return Insert::Due(waker);
            }
            let (level, slot) = Self::place(at_ticks, c);
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.levels[level].push(
                slot,
                Entry {
                    at_ticks,
                    id,
                    waker,
                },
            );
            // Dekker re-check (see module docs): if the cursor has reached
            // the point at which this slot gets drained, the driver may have
            // swept it just before our push landed.
            let c2 = self.cursor.load(Ordering::SeqCst);
            if c2 < Self::cascade_tick(level, at_ticks) {
                return Insert::Armed;
            }
            match self.levels[level].remove(slot, id) {
                // Our entry is still there, but possibly stranded: take it
                // back and re-place against the fresh cursor (which may make
                // it due, or move it to a lower level).
                Some(e) => waker = e.waker,
                // The driver drained it first; it will fire or re-place it.
                None => return Insert::Armed,
            }
        }
    }

    /// Advances the cursor to `now`, collecting every waker whose deadline
    /// was reached. The caller invokes the wakers (outside all wheel locks).
    /// Serialised internally; intended for a single driver thread.
    pub fn advance(&self, now: Instant) -> Vec<Waker> {
        let mut fired = Vec::new();
        self.advance_into(now, &mut fired);
        fired
    }

    /// [`advance`](TimerWheel::advance) into `fired`. Returns the number of
    /// slots drained, the work done: it depends on the occupied slots whose
    /// drain tick the span crosses, not on the span's length.
    fn advance_into(&self, now: Instant, fired: &mut Vec<Waker>) -> usize {
        let _g = self.advance_lock.lock().expect("wheel advance poisoned");
        let target = self.ticks_floor(now);
        let cur = self.cursor.load(Ordering::SeqCst);
        if target <= cur {
            return 0;
        }
        // Publish before reading occupancy: the insert handshake relies on
        // it.
        self.cursor.store(target, Ordering::SeqCst);
        let mut drained = 0;
        // Bottom-up. A drained entry that is not yet due is re-placed
        // against `target`, which puts it strictly below its old level
        // (its drain tick was at most `target`, so it is less than one of
        // that level's slots away), in a level already swept. An entry
        // still past the horizon goes back into the top level, after its
        // occupancy was read, so this pass does not drain it twice.
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            // Drain ticks of this level, multiples of `64^level`, in
            // `(cur, target]`. None here means none in any higher level.
            let crossed = (target >> shift) - (cur >> shift);
            if crossed == 0 {
                break;
            }
            let mut occ = self.levels[level].occupancy.load(Ordering::SeqCst)
                & Self::slots_after(cur >> shift, crossed);
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                for e in self.levels[level].drain(slot) {
                    self.fire_or_replace(e, target, fired);
                }
                drained += 1;
            }
        }
        drained
    }

    /// Bitmap of the `count` slots after slot `from` (mod 64): the slots
    /// of the drain ticks `from + 1 ..= from + count`, in units of the
    /// level's slot width.
    fn slots_after(from: u64, count: u64) -> u64 {
        if count >= SLOTS as u64 {
            return u64::MAX;
        }
        ((1u64 << count) - 1).rotate_left(((from + 1) % SLOTS as u64) as u32)
    }

    /// Earliest pending deadline, if any. Occupancy-guided scan; meant for
    /// the driver deciding how long to sleep, not for hot paths. A racing
    /// insert can be missed — the driver's dirty-flag protocol re-runs the
    /// scan in that case (see `timer.rs`).
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut min: Option<u64> = None;
        for level in &self.levels {
            let mut occ = level.occupancy.load(Ordering::SeqCst);
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let s = level.slots[slot].lock().expect("wheel slot poisoned");
                for e in s.iter() {
                    min = Some(min.map_or(e.at_ticks, |m: u64| m.min(e.at_ticks)));
                }
            }
        }
        min.map(|ticks| self.origin + Duration::from_nanos(ticks.saturating_mul(TICK_NANOS as u64)))
    }

    /// Fires `e` if due at `cursor_now`, else re-places it (used while
    /// cascading; the advance lock is held, so the cursor is stable).
    fn fire_or_replace(&self, e: Entry, cursor_now: u64, fired: &mut Vec<Waker>) {
        if e.at_ticks <= cursor_now {
            fired.push(e.waker);
        } else {
            let (level, slot) = Self::place(e.at_ticks, cursor_now);
            self.levels[level].push(slot, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
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

    fn counting_waker(hits: Arc<AtomicUsize>) -> Waker {
        struct W(Arc<AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, AOrd::SeqCst);
            }
        }
        Waker::from(Arc::new(W(hits)))
    }

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let hits = Arc::new(AtomicUsize::new(0));
        let at = origin + Duration::from_millis(10);
        assert!(matches!(
            w.insert(at, counting_waker(Arc::clone(&hits))),
            Insert::Armed
        ));
        // One tick short of the (ceiling-rounded) deadline.
        assert!(w.advance(at - TICK).is_empty());
        let due = w.advance(at);
        assert_eq!(due.len(), 1);
        for waker in due {
            waker.wake();
        }
        assert_eq!(hits.load(AOrd::SeqCst), 1);
        // Exactly once: nothing left.
        assert!(w.advance(origin + Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn sub_tick_deadline_rounds_up() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let hits = Arc::new(AtomicUsize::new(0));
        // A fifth of a tick from origin: must round up to tick 1, not down
        // to "due".
        assert!(matches!(
            w.insert(origin + TICK / 5, counting_waker(hits)),
            Insert::Armed
        ));
        assert!(w.advance(origin + TICK * 9 / 10).is_empty());
        assert_eq!(w.advance(origin + TICK).len(), 1);
    }

    #[test]
    fn past_deadline_is_due_immediately() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let hits = Arc::new(AtomicUsize::new(0));
        assert!(matches!(
            w.insert(origin, counting_waker(hits)),
            Insert::Due(_)
        ));
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

    /// `TICK * 64^level * n`: a delay `n` slots out on `level`.
    fn slots_out(level: u32, n: u32) -> Duration {
        TICK * (1 << (SLOT_BITS * level)) * n
    }

    #[test]
    fn cascades_across_levels_and_horizon_clamp() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Levels 1, 2 and 3, and beyond the horizon (clamped into level 3
        // and re-shelved as the cursor approaches), each a few ticks off a
        // slot boundary.
        let delays = [
            slots_out(1, 10) + TICK * 3,
            slots_out(2, 20) + TICK * 7,
            slots_out(3, 30) + TICK * 11,
            slots_out(4, 50) + TICK * 13,
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
    fn an_idle_span_costs_a_drain_per_occupied_slot_not_per_tick() {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let hits = Arc::new(AtomicUsize::new(0));
        let hour = Duration::from_secs(3600);
        assert!(matches!(
            w.insert(origin + 2 * hour, counting_waker(Arc::clone(&hits))),
            Insert::Armed
        ));
        let mut fired = Vec::new();
        // One hour, 360 million ticks, in one call: the entry is past the
        // horizon, so the only slot crossed that holds anything is its own
        // top-level slot, drained once and re-placed.
        assert_eq!(w.advance_into(origin + hour, &mut fired), 1);
        assert!(fired.is_empty());
        // Ten minutes more in 1 s steps: the entry's top-level slot comes
        // round once a horizon, and nothing else is ever drained.
        let horizon = TICK * (1 << (SLOT_BITS * LEVELS as u32));
        let mut drained = 0;
        for s in 1..=600 {
            drained += w.advance_into(origin + hour + Duration::from_secs(s), &mut fired);
        }
        let laps = (Duration::from_secs(600).as_nanos() / horizon.as_nanos()) as usize;
        assert!(
            (laps..=laps + 1).contains(&drained),
            "drained {drained} slots in 600 steps, expected one per horizon ({laps} or {})",
            laps + 1
        );
        assert!(fired.is_empty());
        // The rest of the way, again in one call: it cascades down through
        // the levels and fires, each level drained at most once.
        let drained = w.advance_into(origin + 2 * hour, &mut fired);
        assert!(drained <= LEVELS, "drained {drained} slots");
        assert_eq!(fired.len(), 1);
    }

    /// Oracle check: every registration fires exactly once, never before
    /// its (ceiling-rounded) deadline tick, and exactly in the advance step
    /// that first covers it — compared against a plain list of deadlines.
    /// All entries are inserted on a fresh wheel; a final step past
    /// `max_us` must drain everything.
    fn check_against_oracle(
        delays_us: &[u64],
        steps_us: &[u64],
        max_us: u64,
    ) -> Result<(), proptest::TestCaseError> {
        let origin = Instant::now();
        let w = TimerWheel::new(origin);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Oracle: deadline of entry i in ticks, ceiling-rounded,
        // matching the wheel's contract.
        let tick_ns = TICK_NANOS as u64;
        let at_ticks: Vec<u64> = delays_us
            .iter()
            .map(|us| (us * 1000).div_ceil(tick_ns))
            .collect();
        for (i, us) in delays_us.iter().enumerate() {
            match w.insert(
                origin + Duration::from_micros(*us),
                tagged_waker(Arc::clone(&log), i),
            ) {
                Insert::Armed => {}
                // Only a zero-tick deadline can be due on a fresh wheel.
                Insert::Due(waker) => {
                    proptest::prop_assert_eq!(at_ticks[i], 0);
                    waker.wake();
                }
            }
        }
        let mut now_us = 0_u64;
        let mut prev_ticks = 0_u64;
        let mut steps = steps_us.to_vec();
        // Final step far past every deadline: everything must drain.
        steps.push(max_us + 1);
        for step in steps {
            now_us += step;
            let target_ticks = now_us * 1000 / tick_ns; // floor, like the wheel
            let before = log.lock().unwrap().len();
            for waker in w.advance(origin + Duration::from_micros(now_us)) {
                waker.wake();
            }
            let log_now = log.lock().unwrap().clone();
            // Exactly the oracle's due set fired in this step.
            let mut got: Vec<usize> = log_now[before..].to_vec();
            got.sort_unstable();
            let mut want: Vec<usize> = (0..at_ticks.len())
                .filter(|&i| at_ticks[i] > prev_ticks && at_ticks[i] <= target_ticks)
                .collect();
            // Entries due at tick 0 were fired at insert time.
            if prev_ticks == 0 {
                want.retain(|&i| at_ticks[i] != 0);
            }
            want.sort_unstable();
            proptest::prop_assert_eq!(got, want);
            prev_ticks = target_ticks;
        }
        // Everything fired exactly once.
        let mut all = log.lock().unwrap().clone();
        all.sort_unstable();
        proptest::prop_assert_eq!(all, (0..at_ticks.len()).collect::<Vec<_>>());
        Ok(())
    }

    proptest::proptest! {
        /// Coarse: deadlines out to 400 s, past the 2.8 min horizon, and
        /// steps of up to 150 s, so entries clamp, cascade and fire in
        /// steps that each cross many slots of every level.
        #[test]
        fn firing_matches_sorted_oracle(
            delays_us in proptest::collection::vec(0_u64..=400_000_000, 1..48),
            steps_us in proptest::collection::vec(1_u64..=150_000_000, 1..12),
        ) {
            check_against_oracle(&delays_us, &steps_us, 400_000_000)?;
        }

        /// Fine: deadlines within 50 ms (levels 0 to 2) and steps of a
        /// few ticks to a few slots, so each step crosses a partial,
        /// wrapping range of slots.
        #[test]
        fn fine_steps_match_sorted_oracle(
            delays_us in proptest::collection::vec(0_u64..=50_000, 1..48),
            steps_us in proptest::collection::vec(1_u64..=3_000, 1..64),
        ) {
            check_against_oracle(&delays_us, &steps_us, 50_000)?;
        }
    }
}

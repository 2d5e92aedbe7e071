//! Bounded exponential backoff for CAS retry loops.
//!
//! Contention on the head/tail words of a synchronous queue is the dominant
//! scalability limiter the paper identifies; backing off after a failed CAS
//! reduces cache-line ping-pong without introducing blocking. The strategy
//! here mirrors the common two-phase scheme: spin with `core::hint::spin_loop`
//! for a geometrically growing number of iterations, then switch to
//! `thread::yield_now` once spinning exceeds a threshold (important on
//! uniprocessors, where pure spinning merely burns the quantum of the thread
//! we are waiting for).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Exponential backoff helper.
///
/// # Examples
///
/// ```
/// use synq_primitives::Backoff;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let word = AtomicUsize::new(0);
/// let backoff = Backoff::new();
/// while word
///     .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
///     .is_err()
/// {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

/// Seed of the exponential schedule: the very first backoff step busy-waits
/// `BACKOFF_SPIN_SEED` iterations, doubling from there.
pub(crate) const BACKOFF_SPIN_SEED: u32 = 1;

/// Exponent of the spin phase's ceiling: steps grow `1, 2, 4, ... 2^BACKOFF_SPIN_LIMIT`
/// and no single [`Backoff::spin`]/[`Backoff::snooze`] call busy-waits more
/// than `2^BACKOFF_SPIN_LIMIT` iterations.
pub(crate) const BACKOFF_SPIN_LIMIT: u32 = 6;

/// The fully-grown spin step, `2^BACKOFF_SPIN_LIMIT` iterations. Kept equal
/// to the adaptive wait budget's ceiling ([`crate::spin::ADAPTIVE_SPIN_CAP`]) so
/// the CAS-retry path and the spin-then-park path draw the "cheaper than a
/// context switch" line at the same place; a compile-time assertion in
/// `spin.rs` enforces the pairing.
pub(crate) const BACKOFF_SPIN_CAP: u32 = BACKOFF_SPIN_SEED << BACKOFF_SPIN_LIMIT;

/// Past `BACKOFF_YIELD_LIMIT` total steps (spin phase included),
/// [`Backoff::is_completed`] reports saturation and callers typically park.
pub(crate) const BACKOFF_YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Creates a fresh backoff with zero accumulated delay.
    #[inline]
    pub fn new() -> Self {
        Backoff {
            step: std::cell::Cell::new(0),
        }
    }

    /// Resets the accumulated delay to zero.
    #[inline]
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off without yielding the processor: pure spin. Appropriate
    /// between optimistic CAS retries on a lightly contended word.
    #[inline]
    pub fn spin(&self) {
        let step = self.step.get().min(BACKOFF_SPIN_LIMIT);
        for _ in 0..(1u32 << step) {
            core::hint::spin_loop();
        }
        if self.step.get() <= BACKOFF_SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Backs off, escalating from spinning to `yield_now` once the budget is
    /// exhausted. Appropriate when the retry may be blocked on another
    /// thread's progress (e.g. waiting for a decided node to be popped).
    #[inline]
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= BACKOFF_SPIN_LIMIT && !uniprocessor() {
            for _ in 0..(1u32 << step) {
                core::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= BACKOFF_YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// True once the backoff has saturated; callers typically park instead
    /// of continuing to snooze.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step.get() > BACKOFF_YIELD_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Cached result of `available_parallelism() == 1`.
///
/// On a uniprocessor, spinning can never overlap with the peer's execution,
/// so backoff escalates to `yield_now` immediately (the paper: "busy-wait is
/// useless overhead on a uniprocessor").
pub fn uniprocessor() -> bool {
    ncpus() == 1
}

/// Number of hardware threads, cached after the first query.
pub fn ncpus() -> usize {
    static NCPUS: AtomicUsize = AtomicUsize::new(0);
    match NCPUS.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            NCPUS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_grows_and_resets() {
        let b = Backoff::new();
        assert_eq!(b.step.get(), 0);
        b.spin();
        b.spin();
        assert_eq!(b.step.get(), 2);
        b.reset();
        assert_eq!(b.step.get(), 0);
    }

    #[test]
    fn snooze_saturates() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=BACKOFF_YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        // Saturated backoff stays saturated.
        b.snooze();
        assert!(b.is_completed());
    }

    #[test]
    fn ncpus_is_positive_and_stable() {
        let a = ncpus();
        let b = ncpus();
        assert!(a >= 1);
        assert_eq!(a, b);
    }

    #[test]
    fn default_is_fresh() {
        let b = Backoff::default();
        assert!(!b.is_completed());
    }
}

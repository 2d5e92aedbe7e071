//! The spin-then-park waiting policy from the paper's "Pragmatics" section.
//!
//! > "On multiprocessors (only), nodes next in line for fulfillment spin
//! > briefly (about one-quarter the time of a typical context switch) before
//! > parking. On very busy synchronous queues, spinning can dramatically
//! > improve throughput because it handles the case of a near-simultaneous
//! > 'flyby' between a producer and consumer without stalling either."
//!
//! The Java 6 `SynchronousQueue` hard-codes that "briefly" as 32 iterations
//! (timed) / 512 (untimed). Since PR 10 the default policy instead
//! *calibrates* the budget online: a [`SpinCalibrator`] shared by every
//! waiter of one structure tracks an EWMA of how many spin iterations recent
//! direct (flyby) handoffs actually took and budgets ~2x that. A handoff
//! that came only after a park samples 0. That makes 0 an absorbing state:
//! once every recent handoff parked, the budget is 0, the next waiter parks
//! at once and samples 0 again, and the calibrator cannot find out that a
//! short spin would now win. Only a direct handoff moves it off 0, and
//! with a 0 budget those come only from a waiter that spins anyway: one
//! whose strategy extends its spin ([`crate::WaitStrategy::extend_spin`]),
//! as the `TransferQueue`'s producer behind a draining ring does. The
//! fixed settings remain available for the ablation harness (experiment
//! A1). Calibration math, and why the fix for the absorbing state waits,
//! are in DESIGN.md §4.15.

use crate::backoff::ncpus;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Spin iterations between deadline/cancellation polls in the wait loop.
///
/// `Instant::now()` is a vDSO call but still tens of nanoseconds — polling
/// it every spin would dominate short spins, so [`crate::WaitSlot`]'s wait
/// loop amortizes it over this many iterations. The worst-case
/// deadline overshoot is therefore this many `spin_loop` hints, well under
/// a scheduling quantum. See DESIGN.md §4.7.
pub const DEADLINE_POLL_INTERVAL: u32 = 16;

/// Hard ceiling on the calibrated *timed* spin budget, in spin iterations.
///
/// Chosen to equal the exponential backoff's full-grown step,
/// [`crate::backoff::BACKOFF_SPIN_CAP`] (`2^6`), so a waiter that exhausts
/// its adaptive budget has spun no longer than one maximal backoff round:
/// the two tuning knobs agree on what "a context switch is cheaper than
/// this" means. Untimed waits get 16x this, as in the Java implementation,
/// because they do no deadline bookkeeping inside the loop.
pub(crate) const ADAPTIVE_SPIN_CAP: u32 = 64;

// The "one context switch is worth this many spins" line must be drawn in
// the same place by both tuning knobs (see `BACKOFF_SPIN_CAP`'s docs).
const _: () = assert!(ADAPTIVE_SPIN_CAP == crate::backoff::BACKOFF_SPIN_CAP);

/// EWMA seed, in spin iterations. `2 x 16 = 32` initial timed budget — the
/// classic Java constant — until real handoff samples arrive.
const EWMA_SEED_SPINS: u32 = 16;

/// EWMA smoothing factor `alpha = 1/8` as a right-shift.
const EWMA_ALPHA_SHIFT: u32 = 3;

/// Fixed-point scale for the EWMA word (`x16`), so decay below one whole
/// spin iteration is representable.
const EWMA_FP_SHIFT: u32 = 4;

/// Online estimator of direct-handoff latency, shared (via `Arc`) by all
/// waiters of one structure.
///
/// The unit of measurement is *spin-loop iterations*, not nanoseconds: the
/// wait loop already counts how many iterations it spun before its slot was
/// fulfilled, so sampling costs zero extra clock reads on the hot path
/// (a nanosecond EWMA would add two `Instant::now()` calls per handoff,
/// comparable to the cost of the spins it is trying to optimise).
///
/// All accesses are `Relaxed` read-modify-write-free loads and stores: a
/// lost update under contention merely drops one sample from the average,
/// which is harmless for a smoothing filter and keeps the observation path
/// wait-free.
#[derive(Debug)]
pub struct SpinCalibrator {
    /// EWMA of handoff samples, fixed-point `x16`.
    ewma_x16: AtomicU32,
}

impl Default for SpinCalibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinCalibrator {
    /// Creates a calibrator seeded at the classic fixed budget (timed budget
    /// 32) so an uncalibrated structure behaves exactly like the Java
    /// constants until evidence accumulates.
    pub fn new() -> Self {
        SpinCalibrator {
            ewma_x16: AtomicU32::new(EWMA_SEED_SPINS << EWMA_FP_SHIFT),
        }
    }

    /// Feeds one completed-wait observation into the filter.
    ///
    /// * A **direct handoff** (fulfilled while still spinning, `parked == 0`)
    ///   samples the number of iterations it actually spun: the budget
    ///   converges to ~2x the latency of the handoffs that spinning can win.
    /// * A **parked handoff** (`parked > 0`) samples zero: if peers routinely
    ///   arrive later than any reasonable spin, the spins preceding each park
    ///   are pure waste, so the budget decays to park-immediately, and stays
    ///   there until some waiter spins without being budgeted to (see the
    ///   module docs).
    ///
    /// Timeouts and cancellations are *not* fed in by callers — an absent
    /// peer says nothing about how fast a present one hands off.
    pub fn record_handoff(&self, spun_iters: u32, parked: bool) {
        let sample = if parked {
            0
        } else {
            spun_iters.min(ADAPTIVE_SPIN_CAP)
        };
        let sample_x16 = (sample << EWMA_FP_SHIFT) as i32;
        let cur = self.ewma_x16.load(Ordering::Relaxed) as i32;
        // ewma += (sample - ewma) * alpha, in fixed point, rounding the step
        // away from zero so a sustained level is reached *exactly* in both
        // directions (truncation would stall an upward approach just below
        // the target, and a downward one just above zero).
        let delta = sample_x16 - cur;
        let step = if delta >= 0 {
            (delta + (1 << EWMA_ALPHA_SHIFT) - 1) >> EWMA_ALPHA_SHIFT
        } else {
            delta >> EWMA_ALPHA_SHIFT
        };
        let next = cur + step;
        self.ewma_x16.store(next as u32, Ordering::Relaxed);
    }

    /// Current spin budget: ~2x the observed direct-handoff latency, capped
    /// at 64 spins (timed) or 16x that (untimed).
    #[inline]
    pub fn budget(&self, timed: bool) -> u32 {
        let ewma = self.ewma_x16.load(Ordering::Relaxed) >> EWMA_FP_SHIFT;
        let timed_budget = (ewma * 2).min(ADAPTIVE_SPIN_CAP);
        if timed {
            timed_budget
        } else {
            timed_budget * 16
        }
    }
}

/// How long a waiter spins on its own node before descheduling itself.
///
/// A `SpinPolicy` is cheap to clone — two words plus an optional shared
/// [`SpinCalibrator`] handle — and the queues embed one per instance so
/// benchmarks can ablate spinning (experiment A1 in DESIGN.md). Clones share
/// the calibrator: structures handed clones of one policy keep a single
/// estimate between them.
#[derive(Debug, Clone)]
pub struct SpinPolicy {
    /// Spin iterations before parking when the wait has a deadline. For a
    /// calibrated policy this is the cap; the live budget comes from the
    /// calibrator.
    max_timed_spins: u32,
    /// Spin iterations before parking when the wait is unbounded.
    max_untimed_spins: u32,
    /// Online budget estimator; `None` for the fixed ablation settings and
    /// on uniprocessors (where any spinning only delays the peer).
    calibrator: Option<Arc<SpinCalibrator>>,
}

impl PartialEq for SpinPolicy {
    /// Two policies are equal when they *behave* the same family-wise: same
    /// fixed bounds and same calibrated-or-not mode. The calibrator's live
    /// EWMA state is deliberately excluded so `SpinPolicy::default() ==
    /// SpinPolicy::adaptive()` holds regardless of traffic history.
    fn eq(&self, other: &Self) -> bool {
        self.max_timed_spins == other.max_timed_spins
            && self.max_untimed_spins == other.max_untimed_spins
            && self.calibrator.is_some() == other.calibrator.is_some()
    }
}

impl SpinPolicy {
    /// The adaptive default: on multiprocessors, a fresh [`SpinCalibrator`]
    /// tunes the budget online (seeded at the classic 32/512); on
    /// uniprocessors the budget is zero, exactly as the paper prescribes.
    pub fn adaptive() -> Self {
        if ncpus() < 2 {
            SpinPolicy {
                max_timed_spins: 0,
                max_untimed_spins: 0,
                calibrator: None,
            }
        } else {
            SpinPolicy {
                max_timed_spins: ADAPTIVE_SPIN_CAP,
                max_untimed_spins: ADAPTIVE_SPIN_CAP * 16,
                calibrator: Some(Arc::new(SpinCalibrator::new())),
            }
        }
    }

    /// Never spin; park immediately. One arm of ablation A1.
    pub fn park_immediately() -> Self {
        SpinPolicy {
            max_timed_spins: 0,
            max_untimed_spins: 0,
            calibrator: None,
        }
    }

    /// Spin `n` times (timed) and `16 n` times (untimed) regardless of the
    /// processor count, with no calibration. Used by the ablation harness.
    pub fn fixed(n: u32) -> Self {
        SpinPolicy {
            max_timed_spins: n,
            max_untimed_spins: n.saturating_mul(16),
            calibrator: None,
        }
    }

    /// Spin budget applicable to a wait that may or may not have a deadline.
    #[inline]
    pub fn spins_for(&self, timed: bool) -> u32 {
        match &self.calibrator {
            Some(c) => c.budget(timed),
            None => {
                if timed {
                    self.max_timed_spins
                } else {
                    self.max_untimed_spins
                }
            }
        }
    }

    /// Whether this policy spins at all: false for
    /// [`SpinPolicy::park_immediately`], `fixed(0)` and the adaptive
    /// policy on a uniprocessor, whatever a calibrator would answer.
    #[inline]
    pub fn spins(&self) -> bool {
        self.max_untimed_spins > 0
    }

    /// The calibrator backing this policy, if it is an adaptive one.
    #[inline]
    pub fn calibrator(&self) -> Option<&SpinCalibrator> {
        self.calibrator.as_deref()
    }
}

impl Default for SpinPolicy {
    fn default() -> Self {
        Self::adaptive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_matches_processor_count() {
        let p = SpinPolicy::adaptive();
        if ncpus() < 2 {
            assert_eq!(p.max_timed_spins, 0);
            assert!(p.calibrator().is_none());
            assert_eq!(p.spins_for(true), 0);
        } else {
            assert_eq!(p.max_timed_spins, ADAPTIVE_SPIN_CAP);
            assert_eq!(p.max_untimed_spins, ADAPTIVE_SPIN_CAP * 16);
            // Seeded at the classic Java constants until samples arrive.
            assert_eq!(p.spins_for(true), 32);
            assert_eq!(p.spins_for(false), 512);
        }
    }

    #[test]
    fn fixed_and_park_immediately() {
        assert_eq!(SpinPolicy::fixed(10).spins_for(true), 10);
        assert_eq!(SpinPolicy::fixed(10).spins_for(false), 160);
        assert_eq!(SpinPolicy::park_immediately().spins_for(true), 0);
        assert_eq!(SpinPolicy::park_immediately().spins_for(false), 0);
    }

    #[test]
    fn only_a_zero_budget_does_not_spin() {
        assert!(SpinPolicy::fixed(1).spins());
        assert!(!SpinPolicy::fixed(0).spins());
        assert!(!SpinPolicy::park_immediately().spins());
        assert_eq!(SpinPolicy::adaptive().spins(), ncpus() >= 2);
    }

    #[test]
    fn default_is_adaptive() {
        assert_eq!(SpinPolicy::default(), SpinPolicy::adaptive());
    }

    #[test]
    fn clones_share_one_calibrator() {
        let c = SpinCalibrator::new();
        // Feed via one handle, observe via budget(): fast direct handoffs.
        for _ in 0..64 {
            c.record_handoff(4, false);
        }
        assert_eq!(c.budget(true), 8); // converged to 2 x 4
        let p = SpinPolicy {
            max_timed_spins: ADAPTIVE_SPIN_CAP,
            max_untimed_spins: ADAPTIVE_SPIN_CAP * 16,
            calibrator: Some(Arc::new(c)),
        };
        let q = p.clone();
        // A sample recorded through one clone is visible through the other.
        for _ in 0..64 {
            p.calibrator().unwrap().record_handoff(32, false);
        }
        assert_eq!(q.spins_for(true), 64);
    }

    #[test]
    fn parked_handoffs_decay_to_park_immediately() {
        let c = SpinCalibrator::new();
        for _ in 0..64 {
            c.record_handoff(ADAPTIVE_SPIN_CAP, true);
        }
        assert_eq!(c.budget(true), 0);
        assert_eq!(c.budget(false), 0);
    }

    #[test]
    fn budget_is_capped() {
        let c = SpinCalibrator::new();
        for _ in 0..128 {
            c.record_handoff(u32::MAX, false);
        }
        assert_eq!(c.budget(true), ADAPTIVE_SPIN_CAP);
        assert_eq!(c.budget(false), ADAPTIVE_SPIN_CAP * 16);
    }

    #[test]
    fn equality_ignores_live_ewma_state() {
        let a = SpinPolicy::adaptive();
        let b = SpinPolicy::adaptive();
        if let Some(c) = a.calibrator() {
            c.record_handoff(64, false);
        }
        assert_eq!(a, b);
        assert_ne!(SpinPolicy::fixed(32), SpinPolicy::park_immediately());
    }
}

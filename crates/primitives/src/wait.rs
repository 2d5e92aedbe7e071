//! Pluggable waiting strategies for the shared [`crate::WaitSlot`] engine.
//!
//! The paper's "Pragmatics" section describes one policy — spin briefly,
//! then park — but the structures in this suite need four variants of it:
//! the adaptive default, a fixed budget (for ablations), park-immediately
//! (spinning disabled), and *spin-only* for the elimination stack's arena
//! slot and the exchanger's outer slots, whose visits must never
//! deschedule the visiting thread. `WaitStrategy`
//! abstracts exactly the knobs the wait loop consumes so that every
//! structure — and the benchmark harness — can sweep them uniformly.

use crate::spin::SpinPolicy;

/// How a waiter burns time between publishing its node and being matched.
///
/// Implementors only decide *budget* questions; the protocol itself (the
/// state machine, the cancel CAS, parking/unparking) is fixed by
/// [`crate::WaitSlot::await_outcome`].
pub trait WaitStrategy {
    /// Spin iterations before the first park attempt. `timed` is true when
    /// the wait carries a [`crate::Deadline`] that must be polled, which
    /// makes each spin more expensive — the classic policy spins 16x less.
    fn spin_budget(&self, timed: bool) -> u32;

    /// Whether the waiter may park once its spin budget is exhausted.
    /// Strategies returning `false` (the arena) treat budget exhaustion as
    /// a timeout instead of descheduling.
    fn parks(&self) -> bool {
        true
    }

    /// Asked by the wait loop when the spin budget runs out before the
    /// waiter has parked even once (never after a park): `true` grants one
    /// more window of 64 spins (the adaptive budget's ceiling), polled for
    /// the deadline and token as any spin is, after which it asks again.
    /// For a waiter that can *see* its handoff coming, the paper's "next in
    /// line for fulfillment": the `TransferQueue`'s producer behind a
    /// draining ring. The default is `false`, which compiles the question
    /// away.
    #[inline]
    fn extend_spin(&self) -> bool {
        false
    }

    /// Asked by the wait loop when the spin budget and every extension are
    /// spent and the waiter is about to park for the first time (never
    /// after a park, never by a strategy that does not park): `true` says
    /// the call did one slice of idle-time work and more may be left, and
    /// the loop re-reads the slot, polls the deadline and token, and asks
    /// again; `false` lets it park. A slice should be short, since a match
    /// that lands during one is seen only after it. The blocking waiter of
    /// a kernel node spends it on its thread's reclamation work. The
    /// default is `false`, which compiles the question away.
    #[inline]
    fn before_park(&self) -> bool {
        false
    }

    /// Feedback from a finished wait: how many iterations it spun, how many
    /// times it parked, and whether it ended in a match (as opposed to a
    /// timeout or cancellation). The wait loop calls this exactly once per
    /// wait, after the outcome is decided; adaptive strategies use it to
    /// recalibrate their spin budget. The default is a no-op.
    #[inline]
    fn observe(&self, timed: bool, spun: u64, parked: u64, matched: bool) {
        let _ = (timed, spun, parked, matched);
    }
}

impl WaitStrategy for SpinPolicy {
    #[inline]
    fn spin_budget(&self, timed: bool) -> u32 {
        self.spins_for(timed)
    }

    #[inline]
    fn observe(&self, _timed: bool, spun: u64, parked: u64, matched: bool) {
        // Only matches teach us anything about handoff latency: an absent
        // peer (timeout/cancel) says nothing about how fast a present one
        // would have arrived.
        if matched {
            if let Some(c) = self.calibrator() {
                c.record_handoff(spun.min(u64::from(u32::MAX)) as u32, parked > 0);
            }
        }
    }
}

/// Spin for a fixed budget and never park; exhaustion counts as a timeout.
///
/// This is the contract of the elimination stack's one arena slot and of
/// the exchanger's slots past the first: a visit is a *bounded* attempt to
/// meet a partner, and descheduling there would turn a backoff mechanism
/// into a blocking one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpinOnly(pub u32);

impl WaitStrategy for SpinOnly {
    #[inline]
    fn spin_budget(&self, _timed: bool) -> u32 {
        self.0.max(1)
    }

    #[inline]
    fn parks(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_policy_is_a_strategy() {
        let p = SpinPolicy::fixed(8);
        assert_eq!(p.spin_budget(true), 8);
        assert_eq!(p.spin_budget(false), 128);
        assert!(p.parks());
    }

    #[test]
    fn spin_only_never_parks_and_never_spins_zero() {
        let s = SpinOnly(0);
        assert_eq!(s.spin_budget(true), 1);
        assert_eq!(s.spin_budget(false), 1);
        assert!(!s.parks());
    }
}

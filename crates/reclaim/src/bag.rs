//! Bags of deferred closures.
//!
//! Retired garbage accumulates in a per-thread [`Bag`] of fixed capacity;
//! when full, the bag is *sealed* with the global epoch at seal time and
//! pushed onto the collector's global garbage stack. A sealed bag may be
//! executed once the global epoch has advanced at least two steps past its
//! seal epoch (three-epoch reclamation): recording the *seal*-time epoch is
//! conservative, since every item in the bag was retired at or before it.
//!
//! The storage is inline (a length plus an array), so sealing moves the
//! bag into a pooled garbage-node skeleton and allocates nothing.

use crate::deferred::Deferred;
use std::mem::MaybeUninit;

/// Maximum number of deferred items in a bag before it must be sealed.
pub(crate) const MAX_OBJECTS: usize = 64;

/// A fixed-capacity container of deferred closures.
pub(crate) struct Bag {
    /// `deferreds[..len]` are initialized.
    len: usize,
    /// How many of them came through `Shield::defer_retire`: the items the
    /// garbage ledger counts, settled when the bag runs.
    retired: usize,
    deferreds: [MaybeUninit<Deferred>; MAX_OBJECTS],
}

impl Bag {
    pub(crate) fn new() -> Self {
        const EMPTY: MaybeUninit<Deferred> = MaybeUninit::uninit();
        Bag {
            len: 0,
            retired: 0,
            deferreds: [EMPTY; MAX_OBJECTS],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == MAX_OBJECTS
    }

    /// Adds `deferred`, counted as a ledger retirement if `retired`. The
    /// bag must not be full (the index panics if it is).
    pub(crate) fn push(&mut self, deferred: Deferred, retired: bool) {
        self.deferreds[self.len].write(deferred);
        self.len += 1;
        self.retired += usize::from(retired);
    }

    /// Runs every deferred closure in the bag, emptying it. Returns how
    /// many of them were ledger retirements.
    pub(crate) fn call_all(&mut self) -> usize {
        let len = std::mem::take(&mut self.len);
        for slot in &mut self.deferreds[..len] {
            // SAFETY: the first `len` slots were initialized by `push`, and
            // zeroing `len` first makes this the only read of each.
            unsafe { slot.assume_init_read() }.call();
        }
        std::mem::take(&mut self.retired)
    }

    /// Runs the most recently pushed closure. Returns the bag's ledger
    /// retirements once that was its last one, so a bag run piecemeal is
    /// still settled once.
    pub(crate) fn call_one(&mut self) -> Option<usize> {
        debug_assert!(!self.is_empty(), "running an empty bag");
        self.len -= 1;
        // SAFETY: slot `len` was initialized by `push`, and lowering `len`
        // first makes this the only read of it.
        unsafe { self.deferreds[self.len].assume_init_read() }.call();
        self.is_empty().then(|| std::mem::take(&mut self.retired))
    }
}

impl Drop for Bag {
    fn drop(&mut self) {
        self.call_all();
    }
}

/// A bag stamped with the global epoch at which it was sealed.
pub(crate) struct SealedBag {
    pub(crate) epoch: usize,
    /// Run (its deferreds executed) when the bag expires.
    pub(crate) bag: Bag,
}

impl SealedBag {
    /// True once `global_epoch` is at least two advances past the seal.
    pub(crate) fn is_expired(&self, global_epoch: usize) -> bool {
        global_epoch.wrapping_sub(self.epoch) >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counting_deferred(c: &Arc<AtomicUsize>) -> Deferred {
        let c = Arc::clone(c);
        Deferred::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn push_until_full() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new();
        for _ in 0..MAX_OBJECTS {
            assert!(!bag.is_full());
            bag.push(counting_deferred(&c), false);
        }
        assert!(bag.is_full());
        assert_eq!(c.load(Ordering::SeqCst), 0);
        drop(bag);
        assert_eq!(c.load(Ordering::SeqCst), MAX_OBJECTS);
    }

    #[test]
    fn drop_runs_everything() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new();
        for _ in 0..10 {
            bag.push(counting_deferred(&c), false);
        }
        drop(bag);
        assert_eq!(c.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn call_all_reports_the_retired_share() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new();
        for i in 0..10 {
            bag.push(counting_deferred(&c), i % 3 == 0);
        }
        assert_eq!(bag.call_all(), 4, "items 0, 3, 6 and 9");
        assert_eq!(c.load(Ordering::SeqCst), 10);
        assert_eq!(bag.call_all(), 0, "an emptied bag runs nothing");
        assert_eq!(c.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn call_one_reports_the_retired_share_with_the_last_closure() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut bag = Bag::new();
        for i in 0..3 {
            bag.push(counting_deferred(&c), i != 1);
        }
        assert_eq!(bag.call_one(), None);
        assert_eq!(bag.call_one(), None);
        assert_eq!(c.load(Ordering::SeqCst), 2);
        assert_eq!(bag.call_one(), Some(2), "settled once, with the last");
        assert!(bag.is_empty());
        assert_eq!(c.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn expiry_uses_wrapping_distance() {
        let sealed = SealedBag {
            epoch: usize::MAX,
            bag: Bag::new(),
        };
        assert!(!sealed.is_expired(usize::MAX));
        assert!(!sealed.is_expired(0)); // one advance (wrapped)
        assert!(sealed.is_expired(1)); // two advances
    }

    #[test]
    fn empty_flag() {
        let mut bag = Bag::new();
        assert!(bag.is_empty());
        let c = Arc::new(AtomicUsize::new(0));
        bag.push(counting_deferred(&c), false);
        assert!(!bag.is_empty());
        bag.call_all();
        assert!(bag.is_empty());
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }
}
